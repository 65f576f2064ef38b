"""The closed-loop step on arrays over nodes and edges, for large networks.

`ArrayKernel` has `floatkernel.FloatKernel`'s interface: `step`, `settle`,
`negotiate` and `advance` take the same arguments and return the same
fields, as arrays where the float kernel has lists.  Every stage is
elementwise arithmetic over the nodes or over the edges of the model's
EdgeLayout, and every network sum one `np.bincount` in its order from
+0.0.  No SIS coupling is negative, so every request raises its helper's
floor, and a helper whose floor passes the top of its box freezes there.
Negligible split weights split evenly (`partition_arrays`).  The
per-node reference (`dynamics`, `barrier`, `geometry`, `collab`,
`simulate`) and `FloatKernel` share one copy of each scalar rule; this
module shares none, and is the independent implementation that both are
pinned to, bit for bit.

Cost model: at the sizes this kernel runs (tens to hundreds of nodes), a
numpy call costs about the same whatever its length, so a stage costs
its number of calls.  The step path therefore keeps to C-level calls: a
select is `np.putmask` into an array the stage has just made (a third of
`np.where`'s cost, which only the rare branches pay), a count is
`np.count_nonzero`, and a per-node fold is one `reduceat` or `bincount`.
Python-level numpy functions such as `np.diff`, `np.full`,
`np.zeros_like`, `np.stack` and the `any`/`all`/`sum` methods stay off
it.  A branch that no node takes in a step (a flat or two-piece
certificate, a dead coupling, a frozen helper, a control that cannot
steer psi1) costs one count, and a step that does not negotiate builds
no per-edge array.
"""

from __future__ import annotations

import math

import numpy as np

# log is the protocol's logger: the array negotiation warns as the per-node one does
from .barrier import (CERT_TOL, MARGIN_TOL, NEGLIGIBLE_NORMAL, PSI1_TOL, BarrierArrays,
                      _infeasible, log)
from .dynamics import SisModel, rk4_step
from .errors import EmptyRegionError, NumericsError, ProtocolStallError


def _check_lie_terms(x: np.ndarray, f: np.ndarray, lf2_h: np.ndarray, lg_lf_h: np.ndarray,
                     lfj_lf_h: np.ndarray, lgj_lf_h: np.ndarray, target: np.ndarray) -> None:
    """Raise NumericsError naming the lowest node with a non-finite Lie term.

    The edge terms belong to the nodes in target.  One probe sums every
    term: a NaN or an infinity in any of them makes the sum non-finite.
    Finite terms whose sum overflows fail the probe too, and pass the
    exact per-node check that follows it.
    """
    probe = (float(np.add.reduce(x + f + lf2_h + lg_lf_h))
             + float(np.add.reduce(lfj_lf_h + lgj_lf_h)))
    if math.isfinite(probe):
        return
    ok = np.isfinite(x) & np.isfinite(f) & np.isfinite(lf2_h) & np.isfinite(lg_lf_h)
    ok[target[~(np.isfinite(lfj_lf_h) & np.isfinite(lgj_lf_h))]] = False
    if np.count_nonzero(ok) < len(ok):
        i = int(np.flatnonzero(~ok)[0]) + 1
        raise NumericsError(f"node {i}: non-finite Lie derivative")


def _self_terms(constant: np.ndarray, linear: np.ndarray, quadratic: np.ndarray) -> tuple:
    """psi2's self-term blocks c, l and q, then each node's stationary point t
    and its value at t: a step finds t once, for every region _capability
    is given.  t is NaN where the term does not curve, so that no interval
    holds it."""
    two_q = 2.0 * quadratic
    np.putmask(two_q, quadratic == 0.0, np.nan)
    t = -linear / two_q
    return constant, linear, quadratic, t, constant + linear * t + quadratic * t * t


def _capability(self_terms: tuple, lo: np.ndarray, hi: np.ndarray,
                frozen: np.ndarray) -> np.ndarray:
    """Every scalar node's max_capability on its region, bit for bit.

    self_terms is what _self_terms returns.  Node i's region is the
    interval [lo, hi] at entry i-1, or, where frozen is True, the single
    point hi.  A frozen node takes its own quadratic's value at that
    point, rounded as QuadraticForm.value rounds it; any other node takes
    the exact maximum over [lo, hi], comparing the candidates lo, hi and
    the interior stationary point in that order and keeping the first of
    equal values.
    """
    c, l, q, t, f_t = self_terms
    best = c + l * lo + q * lo * lo
    f_hi = c + l * hi + q * hi * hi
    np.putmask(best, f_hi > best, f_hi)
    np.putmask(best, (lo < t) & (t < hi) & (f_t > best), f_t)
    if np.count_nonzero(frozen):
        # QuadraticForm.value: its one-element dot products add to +0.0
        np.putmask(best, frozen, (c + (l * hi + 0.0)) + ((hi * q + 0.0) * hi + 0.0))
    return best


def _any_by_node(flags: np.ndarray, node: np.ndarray, n: int) -> np.ndarray:
    """For each of the n nodes, whether flags is set on some edge e with node[e] there."""
    return np.bincount(node, flags, n) > 0.0


def partition_arrays(deficit: np.ndarray, weights: np.ndarray,
                     eligible: np.ndarray, target: np.ndarray) -> np.ndarray:
    """partition for every node at once, bit for bit.

    Node i splits deficit[i-1] over its eligible in-edges, those with
    target i-1, in proportion to their weights; negligible weights and
    edges that are not eligible get exactly 0.  Totals are bincounts over
    EdgeLayout.target.  A node whose eligible weights are all negligible
    splits uniformly, with the warning FloatKernel._partition logs, where
    the per-node partition raises DegenerateWeightsError.
    """
    n = len(deficit)
    live = eligible & (weights > NEGLIGIBLE_NORMAL)
    live_weights = np.zeros(weights.shape)
    np.putmask(live_weights, live, weights)
    # a sum of weights above NEGLIGIBLE_NORMAL is positive, and +0.0 without any
    total = np.bincount(target, live_weights, n)
    bare = total == 0.0
    stranded = eligible & bare[target]  # an eligible edge of a node without live weights
    if np.count_nonzero(stranded):
        degenerate = _any_by_node(stranded, target, n)
        for i in np.flatnonzero(degenerate):
            log.warning("node %d: all coupling weights negligible, splitting uniformly", i + 1)
        # every other node keeps its terms, in the same order
        weights = np.where(degenerate[target], 1.0, weights)
        live = eligible & (weights > NEGLIGIBLE_NORMAL)
        live_weights = np.where(live, weights, 0.0)
        total = np.bincount(target, live_weights, n)
        bare = total == 0.0
    # every node with an eligible in-edge has live weights now; the others
    # divide their zeros by 1, and none of their shares is live
    np.putmask(total, bare, 1.0)
    shares = np.zeros(weights.shape)
    np.putmask(shares, live, deficit[target] * (live_weights / total[target]))
    with np.errstate(invalid="ignore"):  # an infinite deficit spreads inf - inf: NaN fails
        spread = np.bincount(target, shares, n) - deficit
    if np.count_nonzero(
            bare | (np.abs(spread) <= 1e-12 * np.maximum(1.0, np.abs(deficit)))) < n:
        raise NumericsError("partition must conserve the margin")
    return shares


def _out_runs(helper: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges in by-source order as one run per helper.

    helper is each edge's source there (ascending).  Returns it, the
    helpers that have out-edges and the position of each one's first edge,
    so that `ufunc.reduceat(values, starts)` folds every run at once.
    """
    return (helper, *np.unique(helper, return_index=True))


def _raise_lo(bound: np.ndarray, rising: np.ndarray, runs: tuple, lo: np.ndarray) -> np.ndarray:
    """Raise each node's lo to its rising request bounds, in O(E).

    bound and rising are over the edges in by-source order, and runs groups
    them by helper (_out_runs).  As ControlRegion.interval folds them, in
    ascending requester order, only a strictly greater bound replaces lo:
    ties keep the earlier value and a NaN bound never wins.  Bounds equal
    to the maximum differ at most in the sign of a zero, and np.maximum may
    keep either: where a zero beat a nonzero lo, the first zero, the one
    the strict fold keeps, is written back.
    """
    helper, nodes, starts = runs
    candidates = lo[helper]
    tighter = rising & (bound > candidates)
    if not np.count_nonzero(tighter):
        return lo
    np.putmask(candidates, tighter, bound)
    tight = lo.copy()
    tight[nodes] = np.maximum.reduceat(candidates, starts)
    tie = (tight == 0.0) & (lo != 0.0)
    if np.count_nonzero(tie):
        hit = (tighter & (bound == 0.0) & tie[helper]).nonzero()[0]
        at = helper[hit]
        first = np.empty(len(at), dtype=bool)
        first[:1] = True
        np.not_equal(at[1:], at[:-1], out=first[1:])
        tight[at[first]] = bound[hit[first]]
    return tight


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(v, lo), hi) elementwise as a new array, keeping the first argument on ties."""
    v = v.copy()
    np.putmask(v, lo > v, lo)
    np.putmask(v, hi < v, hi)
    return v


def _certificate_choice(c: np.ndarray, l: np.ndarray, q: np.ndarray, want: np.ndarray,
                        flo: np.ndarray, fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's certificate step for every node at once.

    Returns the point of c + l u + q u^2 >= -CERT_TOL inside [flo, fhi]
    nearest want, first piece first, and whether any piece met [flo, fhi]
    (see floatkernel._certificate_point, which takes the same arguments).
    """
    c = c + CERT_TOL
    disc = l * l - 4.0 * q * c
    flat = np.abs(q) <= NEGLIGIBLE_NORMAL
    any_flat = np.count_nonzero(flat)
    crossing = ~flat & (disc > 0.0)
    # the roots; only where the curve crosses zero does a piece use them
    root = np.sqrt(np.fmax(disc, 0.0))
    two_q = 2.0 * q
    if any_flat:
        np.putmask(two_q, flat, 1.0)
    neg_l = -l
    r1 = (neg_l - root) / two_q
    r2 = (neg_l + root) / two_q
    swap = r2 < r1
    lower = r2.copy()
    np.putmask(r2, swap, r1)
    np.putmask(r1, swap, lower)
    concave = q < 0.0
    convex = ~concave
    cup = crossing & convex  # two pieces, outside the roots
    # the first piece [seg_lo, seg_hi] within [flo, fhi]: between the roots,
    # below the lower root, or the whole line where the curve never crosses
    # zero and opens upward; an end a piece does not have stays flo or fhi
    seg_lo = flo.copy()
    np.putmask(seg_lo, crossing & concave & (r1 > flo), r1)
    np.putmask(r1, concave, r2)  # the first piece's upper end
    seg_hi = fhi.copy()
    np.putmask(seg_hi, crossing & (r1 < fhi), r1)
    has1 = crossing | convex
    if any_flat:
        level = flat & (np.abs(l) <= NEGLIGIBLE_NORMAL)
        sloped = flat & ~level
        cut = np.divide(-c, l, out=np.zeros(c.shape), where=sloped)
        rising = l > 0.0
        np.putmask(seg_lo, sloped & rising & (cut > flo), cut)
        np.putmask(seg_hi, sloped & ~rising & (cut < fhi), cut)
        has1 = np.where(level, c >= 0.0, has1 | sloped)
    found = has1 & ~(seg_lo > seg_hi)
    best = _clamp(want, seg_lo, seg_hi)
    if np.count_nonzero(cup):
        seg_lo = flo.copy()
        np.putmask(seg_lo, r2 > flo, r2)
        usable = cup & ~(seg_lo > fhi)
        u = _clamp(want, seg_lo, fhi)
        better = usable & (~found | (np.abs(u - want) < np.abs(best - want)))
        np.putmask(best, better, u)
        found = found | usable
    return best, found


def safety_filter_arrays(nominal: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         frozen: np.ndarray, base: np.ndarray, lg_h: np.ndarray,
                         certificate: tuple | None = None,
                         certified: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """safety_filter for every scalar node at once, bit for bit.

    Node i's region is [lo, hi] at entry i-1, or the point hi where frozen
    is True.  base is each node's psi1 at zero control, L_f h + eta * h, and
    lg_h its L_g h.  certificate holds the constant, linear and quadratic
    blocks of the own-margin forms of the nodes where `certified` is True;
    the other nodes filter without one.  Returns the packed controls and
    the per-node relaxation flags.
    """
    if np.count_nonzero(lo > hi):
        empty = ~frozen & (lo > hi)
        if np.count_nonzero(empty):
            raise EmptyRegionError(
                f"node {int(np.flatnonzero(empty)[0]) + 1}: negotiated region is empty")
    a = lg_h
    up = a > NEGLIGIBLE_NORMAL
    down = a < -NEGLIGIBLE_NORMAL
    steer = up | down
    # psi1's root in u, where the control steers it
    weak = np.count_nonzero(steer) < len(a)
    bound = -base / (np.where(steer, a, 1.0) if weak else a)
    flo = lo.copy()
    np.putmask(flo, up & (bound > lo), bound)
    fhi = hi
    if np.count_nonzero(down):
        fhi = hi.copy()
        np.putmask(fhi, down & (bound < hi), bound)
    if weak:
        blind = ~steer & (base < -PSI1_TOL)  # control cannot reach psi1 at all
        flo, fhi = np.where(blind, hi, flo), np.where(blind, lo, fhi)
    feasible = flo <= fhi
    u = _clamp(nominal, flo, fhi)
    if certificate is not None and np.count_nonzero(certified):
        best, found = _certificate_choice(*certificate, nominal, flo, fhi)
        np.putmask(u, certified & found, best)
    relaxed = ~feasible
    if np.count_nonzero(relaxed):
        u = np.where(feasible, u, np.where(steer, np.where(up, hi, lo), _clamp(nominal, lo, hi)))
    if np.count_nonzero(frozen):
        np.putmask(u, frozen, hi)
        np.putmask(relaxed, frozen, base + a * hi < -PSI1_TOL)
    return u, relaxed


class ArrayKernel:
    """The closed-loop step on arrays; node i's control box is [box_lo[i-1], box_hi[i-1]]."""

    def __init__(self, model: SisModel, gains: BarrierArrays, nominal: np.ndarray,
                 box_lo: np.ndarray, box_hi: np.ndarray, *,
                 outer_cap: int, inner_cap: int, weights_mode: str):
        layout = model.layout
        n = self.n = model.graph.node_count
        self.model, self.gains, self.nominal = model, gains, nominal
        self.box_lo, self.box_hi = box_lo, box_hi
        # no node frozen and every edge eligible, as a negotiation starts;
        # read-only, so every step can share them
        self.unfrozen = np.zeros(n, dtype=bool)
        self.every_edge = np.ones(len(layout.source), dtype=bool)
        for shared in (self.unfrozen, self.every_edge):
            shared.flags.writeable = False
        self.outer_cap, self.inner_cap = outer_cap, inner_cap
        self.source, self.target, self.by_source = layout
        # the edges by helper, and the split weights when they do not follow
        # the coupling
        self.out_runs = _out_runs(layout.source[layout.by_source])
        self.uniform_weights = np.ones(len(layout.source)) if weights_mode == "uniform" else None
        # the pressure's N + E terms in SisModel._pressure's order: bincount adds
        # each node's in input order, so its diagonal comes first, then its in-edges
        rows = np.arange(n)
        self._pull_row = np.concatenate([rows, layout.target])
        self._pull_source = np.concatenate([rows, layout.source])
        self._pull_weight = np.concatenate([model.self_weight, model.edge_weight])
        self._neg_gamma = -model.params.gamma

    def step(self, x: np.ndarray, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """One step at the packed state x under the packed control rate udot.

        Builds every node's Lie terms, psi2 blocks and psi1 at zero control
        in one pass, each expression in lie_table's, decompose_psi2's and
        psi1's operation order, then settles.  The pressure and the psi2
        cross-drift are bincounts (see EdgeLayout); a reduction (`@`,
        `np.sum`) would reorder the floating-point additions.
        """
        model, source, target = self.model, self.source, self.target
        threshold, eta, kappa, eta_kappa = self.gains
        neg_gamma = self._neg_gamma
        n = len(x)
        pressure = np.bincount(self._pull_row, self._pull_weight * x[self._pull_source], n)
        one_minus = 1.0 - x
        f = neg_gamma * x + one_minus * pressure
        dfdx = neg_gamma - pressure + one_minus * model.self_weight
        # (-a) * b is -(a * b) bit for bit, so both edge terms share a * b
        shared = one_minus[target] * model.edge_weight
        lfj = -shared * f[source]
        lgj = shared * x[source]
        lf_h = -f
        lf2_h = -dfdx * f
        lg_lf_h = dfdx * x
        _check_lie_terms(x, f, lf2_h, lg_lf_h, lfj, lgj, target)
        base = lf_h + eta * (threshold - x)
        constant = (np.bincount(target, lfj, n) + lf2_h + x * udot
                    + eta * lf_h + kappa * base)
        linear = f + lg_lf_h + eta_kappa * x
        return self.settle(x, base, constant, linear, -x, lgj, records, negotiate)

    def settle(self, x: np.ndarray, base: np.ndarray, constant: np.ndarray,
               linear: np.ndarray, quadratic: np.ndarray, coupling: np.ndarray,
               records: list[tuple] | None, negotiate: bool) -> tuple:
        """Negotiate the regions, then filter the nominal controls through them.

        base is each node's psi1 at zero control, and x its L_g h; constant,
        linear and quadratic are psi2's self-term blocks, and coupling is
        over the edges.  With negotiate set the nodes negotiate their
        regions, appending each sub-round to records (see negotiate);
        otherwise every node keeps its full box.  Returns (controls,
        capability, outer_rounds, sub_rounds, cap_tripped, relaxed); a
        halting protocol outcome raises.
        """
        certified = certificate = None
        if negotiate:
            lo, hi, frozen, caps, allocated, _, *rounds = self.negotiate(
                constant, linear, quadratic, coupling, records)
            # A node that negotiated help owes its own share of the closed
            # margin, a floor of -allocated; self-sufficient nodes stay
            # minimally invasive.  (c - a is c + (-a) bit for bit.)
            certified = allocated < 0.0
            if np.count_nonzero(certified):
                certificate = constant - allocated, linear, quadratic
        else:
            lo, hi, frozen = self.box_lo, self.box_hi, self.unfrozen
            caps = _capability(_self_terms(constant, linear, quadratic), lo, hi, frozen)
            rounds = 0, 0, False
        u, relaxed = safety_filter_arrays(self.nominal, lo, hi, frozen, base, x,
                                          certificate, certified)
        return (u, caps, *rounds, relaxed)

    def negotiate(self, constant: np.ndarray, linear: np.ndarray, quadratic: np.ndarray,
                  a: np.ndarray, records: list[tuple] | None) -> tuple:
        """collaborative_safety for a scalar network, on edge arrays.

        a is psi2's coupling over the edges.  Every sub-round runs
        partition, coordinate and the requesters' bookkeeping for all nodes
        at once with collaborate's synchronous, ascending-id semantics, so
        the rounds, regions, capabilities, ledgers, messages and raised
        errors are the per-node protocol's, bit for bit.  Each sub-round,
        up to a raise, appends (sub_round, eligible, shares, eps) to
        records for message_rows, the last three as lists over the edges.

        Returns lo, hi, frozen, capability and allocated per node, out_alloc
        per edge, then the outer rounds, the sub-rounds and whether the cap
        tripped.  Node i's region is [lo, hi] at entry i-1, or the point hi,
        its box_hi, where frozen is True.  out_alloc[e] is what
        node target[e]+1 counts on from its in-neighbor source[e]+1, and
        what that neighbor committed to it: the ledgers' out_alloc, which
        in_req mirrors.  allocated sums each node's out_alloc in
        EdgeLayout's bincount order.
        """
        n, helper, asker, by_source = self.n, self.source, self.target, self.by_source
        box_lo, box_hi, runs = self.box_lo, self.box_hi, self.out_runs
        self_terms = _self_terms(constant, linear, quadratic)
        # no array here is ever written in place, so the zeros can be shared
        no_edges = out_alloc = np.zeros(a.shape)
        # the node sums of out_alloc, kept from the sub-round that last changed it
        allocated = np.zeros(n)
        # the edges whose requester may still ask its helper
        eligible = self.every_edge
        lo, frozen = box_lo, self.unfrozen
        outer = total_sub = 0
        cap_tripped = False
        rising = None  # the per-edge terms, built when the first sub-round starts
        while True:
            outer += 1
            capability = _capability(self_terms, lo, box_hi, frozen)
            deficit = capability - allocated
            if np.count_nonzero(deficit >= -MARGIN_TOL) == n:
                break
            if outer >= self.outer_cap:
                stuck = (deficit < -MARGIN_TOL) & ~_any_by_node(eligible, asker, n)
                if np.count_nonzero(stuck):
                    raise _infeasible(tuple(int(i) + 1 for i in np.flatnonzero(stuck)))
                cap_tripped = True
                break
            if rising is None:
                live = a > NEGLIGIBLE_NORMAL
                any_dead = np.count_nonzero(live) < len(a)
                a_live = np.where(live, a, 1.0) if any_dead else a
                # the requests that raise each helper's floor, by source in
                # its out-neighbors' ascending order
                rising = live[by_source]
                weights = np.abs(a) if self.uniform_weights is None else self.uniform_weights
            eligible = self.every_edge
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                # every node splits its margin over unconstrained in-neighbors
                shares = partition_arrays(deficit, weights, eligible, asker)

                # every helper raises its floor to the demands on it;
                # what a helper committed to a requester is what the requester
                # counts on, less what a dead coupling or a frozen helper refuses
                target = out_alloc + shares
                neg_target = -target
                eps = no_edges
                if any_dead:
                    eps = np.zeros(a.shape)
                    np.putmask(eps, ~live & (target < 0.0), neg_target)
                bound = (neg_target / a_live)[by_source]
                lo = _raise_lo(bound, rising, runs, box_lo)
                frozen = lo > box_hi
                if np.count_nonzero(frozen):
                    # a frozen helper sits at box_hi and refuses each
                    # request by its shortfall there
                    short = a * box_hi[helper] + target
                    eps = np.where(live & frozen[helper] & (short < 0.0), -short, eps)
                out_alloc = target + eps
                allocated = np.bincount(asker, out_alloc, n).astype(float, copy=False)

                if records is not None:
                    records.append((total_sub + sub, eligible.tolist(), shares.tolist(),
                                    eps.tolist()))

                # a sub-round without a refusal touches no node, which ends
                # the negotiation for this capability estimate; only a dead
                # coupling or a frozen helper refuses
                if eps is no_edges:
                    break
                refused = eps > 0.0
                if not np.count_nonzero(refused):
                    break
                eligible = eligible & ~refused
                touched = _any_by_node(refused, asker, n) | _any_by_node(refused, helper, n)
                if np.count_nonzero(~_any_by_node(eligible, asker, n) | ~touched) == n:
                    break
                deficit = capability - allocated
            total_sub += sub
        return lo, box_hi, frozen, capability, allocated, out_alloc, outer, total_sub, cap_tripped

    def advance(self, x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """One rk4_step of dt under the controls u, then the model's clamp_state."""
        return self.model.clamp_state(rk4_step(self.model, x, u, dt))
