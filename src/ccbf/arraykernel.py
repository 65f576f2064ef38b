"""The closed-loop step on arrays over nodes and edges, for large networks.

`ArrayKernel` has `floatkernel.FloatKernel`'s interface: `step`, `settle`,
`negotiate` and `advance` take the same arguments and return the same
fields, as arrays where the float kernel has lists.  Every stage is
elementwise arithmetic over the nodes or over the edges of the model's
EdgeLayout, and every network sum one `np.bincount` in its order from
+0.0, so its cost per call barely grows with the node count.  The
per-node reference (`dynamics`, `barrier`, `geometry`, `collab`,
`simulate`) and `FloatKernel` share one copy of each scalar rule; this
module shares none, and is the independent implementation that both are
pinned to, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .barrier import CERT_TOL, PSI1_TOL, BarrierArrays
# log is the protocol's logger: the array negotiation warns as the per-node one does
from .collab import MARGIN_TOL, _infeasible, log
from .dynamics import SisModel, rk4_step
from .errors import (DegenerateWeightsError, EmptyRegionError, GeometryConvergenceError,
                     NumericsError, ProtocolStallError)
from .geometry import NEGLIGIBLE_NORMAL


def _check_lie_terms(x: np.ndarray, f: np.ndarray, lf2_h: np.ndarray, lg_lf_h: np.ndarray,
                     lfj_lf_h: np.ndarray, lgj_lf_h: np.ndarray, target: np.ndarray) -> None:
    """Raise NumericsError naming the lowest node with a non-finite Lie term.

    The edge terms belong to the nodes in target.  One probe sums every
    term: a NaN or an infinity in any of them makes the sum non-finite.
    Finite terms whose sum overflows fail the probe too, and pass the
    exact per-node check that follows it.
    """
    probe = float((x + f + lf2_h + lg_lf_h).sum()) + float((lfj_lf_h + lgj_lf_h).sum())
    if math.isfinite(probe):
        return
    ok = np.isfinite(x) & np.isfinite(f) & np.isfinite(lf2_h) & np.isfinite(lg_lf_h)
    ok[target[~(np.isfinite(lfj_lf_h) & np.isfinite(lgj_lf_h))]] = False
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0]) + 1
        raise NumericsError(f"node {i}: non-finite Lie derivative")


def _self_terms(constant: np.ndarray, linear: np.ndarray, quadratic: np.ndarray) -> tuple:
    """psi2's self-term blocks c, l and q, then where each node's term curves,
    its stationary point t there and its value at t: a step finds t once,
    for every region _capability is given."""
    curved = quadratic != 0.0
    t = np.divide(-linear, 2.0 * quadratic, out=np.zeros(quadratic.shape), where=curved)
    return constant, linear, quadratic, curved, t, constant + linear * t + quadratic * t * t


def _capability(self_terms: tuple, lo: np.ndarray, hi: np.ndarray, frozen: np.ndarray,
                point: np.ndarray) -> np.ndarray:
    """Every scalar node's max_capability on its region, bit for bit.

    self_terms is what _self_terms returns.  Node i's region is the
    interval [lo, hi] at entry i-1, or, where frozen is True, the single
    point `point`.  A frozen node takes its own quadratic's value at the
    point, rounded as QuadraticForm.value rounds it; any other node takes
    the exact maximum over [lo, hi], comparing the candidates lo, hi and
    the interior stationary point in that order and keeping the first of
    equal values.
    """
    c, l, q, curved, t, f_t = self_terms
    if np.count_nonzero(lo > hi):
        empty = ~frozen & (lo > hi)
        if empty.any():
            i = int(np.flatnonzero(empty)[0])
            raise EmptyRegionError(f"node {i + 1}: admissible interval is empty "
                                   f"({lo[i]} > {hi[i]})")
    best = c + l * lo + q * lo * lo
    f_hi = c + l * hi + q * hi * hi
    best = np.where(f_hi > best, f_hi, best)
    best = np.where(curved & (lo < t) & (t < hi) & (f_t > best), f_t, best)
    if np.count_nonzero(frozen):
        # QuadraticForm.value: its one-element dot products add to +0.0
        at_point = (c + (l * point + 0.0)) + ((point * q + 0.0) * point + 0.0)
        best = np.where(frozen, at_point, best)
    return best


def _any_by_node(flags: np.ndarray, node: np.ndarray, n: int) -> np.ndarray:
    """For each of the n nodes, whether flags is set on some edge e with node[e] there."""
    return np.bincount(node[flags], minlength=n) > 0


def partition_arrays(deficit: np.ndarray, weights: np.ndarray,
                     eligible: np.ndarray, target: np.ndarray) -> np.ndarray:
    """partition for every node at once, bit for bit.

    Node i splits deficit[i-1] over its eligible in-edges, those with
    target i-1, in proportion to their weights; negligible weights and
    edges that are not eligible get exactly 0.  Totals are bincounts over
    EdgeLayout.target.
    """
    n = len(deficit)
    live = eligible & (weights > NEGLIGIBLE_NORMAL)
    live_weights = np.where(live, weights, 0.0)
    # a sum of weights above NEGLIGIBLE_NORMAL is positive, and +0.0 without any
    total = np.bincount(target, live_weights, n)
    asking = _any_by_node(eligible, target, n)
    if np.count_nonzero(asking & ~(total > 0.0)):
        raise DegenerateWeightsError(
            "every eligible neighbor has negligible coupling weight")
    ratio = np.divide(live_weights, total[target], out=np.zeros(weights.shape), where=live)
    shares = np.where(live, deficit[target] * ratio, 0.0)
    spread = np.bincount(target, shares, n) - deficit
    assert (~asking | (np.abs(spread) <= 1e-12 * np.maximum(1.0, np.abs(deficit)))).all(), \
        "partition must conserve the margin"
    return shares


def _tighten(bound: np.ndarray, tighter: np.ndarray, helper: np.ndarray, end: np.ndarray,
             extreme: np.ufunc) -> np.ndarray:
    """end, where each node takes the first of its tighter bounds at their extreme.

    The bounds are in by-source order, helper (ascending) names each one's
    node, and extreme is np.maximum or np.minimum.  Bounds equal to the
    extreme differ at most in the sign of a zero; `extreme.at` may keep
    either, so the first of them, the one a strict fold keeps, is written
    back.
    """
    if not np.count_nonzero(tighter):
        return end
    value, node = bound[tighter], helper[tighter]
    tight = end.copy()
    extreme.at(tight, node, value)
    hit = np.flatnonzero(value == tight[node])
    first = hit[np.diff(node[hit], prepend=-1) != 0]
    tight[node[first]] = value[first]
    return tight


def _fold_bounds(bound: np.ndarray, rising: np.ndarray, falling: np.ndarray,
                 helper: np.ndarray, lo: np.ndarray, hi: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Tighten each node's [lo, hi] by its request bounds, in O(E).

    bound, rising and falling are over the edges in by-source order (see
    EdgeLayout.by_source), and helper is each edge's source there.  A
    rising request raises lo and a falling one lowers hi, as
    ControlRegion.interval folds them: in ascending requester order, where
    only a strictly tighter bound replaces the end.  So a node's new end is
    the first of its bounds at their extreme, if that beats the old end;
    ties keep the earlier value, +0.0 and -0.0 included, and a NaN bound
    never replaces one.
    """
    return (_tighten(bound, rising & (bound > lo[helper]), helper, lo, np.maximum),
            _tighten(bound, falling & (bound < hi[helper]), helper, hi, np.minimum))


def _closest_points(frozen: np.ndarray, bound: np.ndarray, rising: np.ndarray,
                    falling: np.ndarray, helper: np.ndarray, box_lo: np.ndarray,
                    box_hi: np.ndarray) -> np.ndarray:
    """closest_point of each node's box to its request polytope (1-D)."""
    plo, phi = _fold_bounds(bound, rising, falling, helper, np.full(box_lo.shape, -np.inf),
                            np.full(box_lo.shape, np.inf))
    contradictory = frozen & (plo > phi)
    if contradictory.any():
        i = int(np.flatnonzero(contradictory)[0])
        raise GeometryConvergenceError("empty request polytope",
                                       last_iterate=np.array([box_lo[i]]),
                                       residual=plo[i] - phi[i])
    inside = np.where(box_lo > plo, box_lo, plo)
    inside = np.where(box_hi < inside, box_hi, inside)
    return np.where(phi < box_lo, box_lo, np.where(plo > box_hi, box_hi, inside))


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(v, lo), hi) elementwise, keeping the first argument on ties."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _certificate_choice(c: np.ndarray, l: np.ndarray, q: np.ndarray, want: np.ndarray,
                        flo: np.ndarray, fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's certificate step for every node at once.

    Returns the point of c + l u + q u^2 >= -CERT_TOL inside [flo, fhi]
    nearest want, first piece first, and whether any piece met [flo, fhi]
    (see floatkernel._certificate_point, which takes the same arguments).
    """
    c = c + CERT_TOL
    inf = np.inf
    disc = l * l - 4.0 * q * c
    flat = np.abs(q) <= NEGLIGIBLE_NORMAL
    curved = ~flat
    crossing = curved & (disc > 0.0)
    root = np.sqrt(disc, out=np.zeros(c.shape), where=crossing)
    two_q = 2.0 * q
    neg_l = -l
    ra = np.divide(neg_l - root, two_q, out=np.zeros(c.shape), where=curved)
    rb = np.divide(neg_l + root, two_q, out=np.zeros(c.shape), where=curved)
    swap = rb < ra
    r1, r2 = np.where(swap, rb, ra), np.where(swap, ra, rb)
    concave = q < 0.0
    convex = ~concave
    cup = crossing & convex  # two pieces, outside the roots
    # first piece: between the roots, below the lower root, or the whole
    # line where the curve never crosses zero and opens upward
    lo1 = np.where(crossing & concave, r1, -inf)
    hi1 = np.where(crossing, np.where(concave, r2, r1), inf)
    has1 = crossing | convex
    if np.count_nonzero(flat):
        level = flat & (np.abs(l) <= NEGLIGIBLE_NORMAL)
        sloped = flat & ~level
        cut = np.divide(-c, l, out=np.zeros(c.shape), where=sloped)
        rising = l > 0.0
        lo1 = np.where(sloped & rising, cut, lo1)
        hi1 = np.where(sloped & ~rising, cut, hi1)
        has1 = np.where(level, c >= 0.0, has1 | sloped)
    seg_lo = np.where(lo1 > flo, lo1, flo)
    seg_hi = np.where(hi1 < fhi, hi1, fhi)
    found = has1 & ~(seg_lo > seg_hi)
    best = _clamp(want, seg_lo, seg_hi)
    if np.count_nonzero(cup):
        seg_lo = np.where(r2 > flo, r2, flo)
        usable = cup & ~(seg_lo > fhi)
        u = _clamp(want, seg_lo, fhi)
        better = usable & (~found | (np.abs(u - want) < np.abs(best - want)))
        best = np.where(better, u, best)
        found = found | usable
    return best, found


def safety_filter_arrays(nominal: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         frozen: np.ndarray, point: np.ndarray, base: np.ndarray,
                         lg_h: np.ndarray, certificate: tuple | None = None,
                         certified: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """safety_filter for every scalar node at once, bit for bit.

    Node i's region is [lo, hi] at entry i-1, or `point` where frozen is
    True.  base is each node's psi1 at zero control, L_f h + eta * h, and
    lg_h its L_g h.  certificate holds the constant, linear and quadratic
    blocks of the own-margin forms of the nodes where `certified` is True;
    the other nodes filter without one.  Returns the packed controls and
    the per-node relaxation flags.
    """
    if np.count_nonzero(lo > hi):
        empty = ~frozen & (lo > hi)
        if empty.any():
            raise EmptyRegionError(
                f"node {int(np.flatnonzero(empty)[0]) + 1}: negotiated region is empty")
    a = lg_h
    up = a > NEGLIGIBLE_NORMAL
    down = a < -NEGLIGIBLE_NORMAL
    steer = up | down
    bound = np.divide(-base, a, out=np.zeros(a.shape), where=steer)
    flo = np.where(up & (bound > lo), bound, lo)
    fhi = np.where(down & (bound < hi), bound, hi)
    blind = ~steer & (base < -PSI1_TOL)  # control cannot reach psi1 at all
    if np.count_nonzero(blind):
        flo, fhi = np.where(blind, hi, flo), np.where(blind, lo, fhi)
    feasible = flo <= fhi
    u = _clamp(nominal, flo, fhi)
    if certificate is not None and np.count_nonzero(certified):
        best, found = _certificate_choice(*certificate, nominal, flo, fhi)
        u = np.where(certified & found, best, u)
    relaxed = ~feasible
    if np.count_nonzero(relaxed):
        u = np.where(feasible, u, np.where(steer, np.where(up, hi, lo), _clamp(nominal, lo, hi)))
    if np.count_nonzero(frozen):
        u = np.where(frozen, point, u)
        relaxed = np.where(frozen, base + a * point < -PSI1_TOL, relaxed)
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
        self.unfrozen, self.no_point = np.zeros(n, dtype=bool), np.zeros(n)
        self.outer_cap, self.inner_cap = outer_cap, inner_cap
        self.source, self.target, self.by_source = layout
        # each edge's helper in by-source order, and the split weights when
        # they do not follow the coupling
        self.out_helper = layout.source[layout.by_source]
        self.uniform_weights = np.ones(len(layout.source)) if weights_mode == "uniform" else None
        # the pressure's N + E terms in SisModel._pressure's order: per target, the
        # diagonal, then the in-edges
        rows = np.arange(n)
        first = np.argsort(np.concatenate([rows, layout.target]), kind="stable")
        self._pull_row = np.concatenate([rows, layout.target])[first]
        self._pull_source = np.concatenate([rows, layout.source])[first]
        self._pull_weight = model.params.beta[self._pull_row, self._pull_source]
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
            lo, hi, frozen, point, caps, allocated, _, *rounds = self.negotiate(
                constant, linear, quadratic, coupling, records)
            # A node that negotiated help owes its own share of the closed
            # margin, a floor of -allocated; self-sufficient nodes stay
            # minimally invasive.  (c - a is c + (-a) bit for bit.)
            certified = allocated < 0.0
            certificate = constant - allocated, linear, quadratic
        else:
            lo, hi, frozen, point = self.box_lo, self.box_hi, self.unfrozen, self.no_point
            caps = _capability(_self_terms(constant, linear, quadratic), lo, hi, frozen, point)
            rounds = 0, 0, False
        u, relaxed = safety_filter_arrays(self.nominal, lo, hi, frozen, point, base, x,
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

        Returns lo, hi, frozen, point, capability and allocated per node,
        out_alloc per edge, then the outer rounds, the sub-rounds and
        whether the cap tripped.  Node i's region is [lo, hi] at entry i-1,
        or its point where frozen is True.  out_alloc[e] is what node
        target[e]+1 counts on from its in-neighbor source[e]+1, and what
        that neighbor committed to it: the ledgers' out_alloc, which in_req
        mirrors.  allocated sums each node's out_alloc in EdgeLayout's
        bincount order.
        """
        n, helper, asker, by_source = self.n, self.source, self.target, self.by_source
        box_lo, box_hi, out_helper = self.box_lo, self.box_hi, self.out_helper
        self_terms = _self_terms(constant, linear, quadratic)
        strength = np.abs(a)
        live = strength > NEGLIGIBLE_NORMAL
        dead = ~live
        any_dead = np.count_nonzero(dead)
        a_live = np.where(live, a, 1.0)
        # which requests bound each helper's interval from below and from above,
        # by source in its out-neighbors' ascending order (a coupling is live
        # exactly when it passes one of these tests)
        a_out = a[by_source]
        rising = a_out > NEGLIGIBLE_NORMAL
        falling = a_out < -NEGLIGIBLE_NORMAL
        weights = strength if self.uniform_weights is None else self.uniform_weights
        # no array here is ever written in place, so the zeros can be shared
        no_edges = out_alloc = np.zeros(a.shape)
        # the node sums of out_alloc, kept from the sub-round that last changed it
        allocated = np.zeros(n)
        constrained = np.zeros_like(live)
        lo, hi, frozen, point = box_lo, box_hi, np.zeros(n, dtype=bool), np.zeros(n)
        outer = total_sub = 0
        cap_tripped = False
        while True:
            outer += 1
            capability = _capability(self_terms, lo, hi, frozen, point)
            deficit = capability - allocated
            if np.count_nonzero(deficit >= -MARGIN_TOL) == n:
                break
            if outer >= self.outer_cap:
                stuck = (deficit < -MARGIN_TOL) & ~_any_by_node(~constrained, asker, n)
                if stuck.any():
                    raise _infeasible(tuple(int(i) + 1 for i in np.flatnonzero(stuck)))
                cap_tripped = True
                break
            constrained = np.zeros_like(live)
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                # every node splits its margin over unconstrained in-neighbors
                eligible = ~constrained
                try:
                    shares = partition_arrays(deficit, weights, eligible, asker)
                except DegenerateWeightsError:
                    degenerate = _any_by_node(eligible, asker, n) & \
                        ~_any_by_node(eligible & (weights > NEGLIGIBLE_NORMAL), asker, n)
                    for i in np.flatnonzero(degenerate):
                        log.warning("node %d: all coupling weights negligible, "
                                    "splitting uniformly", i + 1)
                    shares = partition_arrays(deficit,
                                              np.where(degenerate[asker], 1.0, weights),
                                              eligible, asker)

                # every helper re-derives its interval from the demands on it;
                # what a helper committed to a requester is what the requester
                # counts on
                target = out_alloc + shares
                neg_target = -target
                eps = np.where(dead & (target < 0.0), neg_target, 0.0) if any_dead else no_edges
                bound = (neg_target / a_live)[by_source]
                lo, hi = _fold_bounds(bound, rising, falling, out_helper, box_lo, box_hi)
                frozen = lo > hi
                if np.count_nonzero(frozen):
                    point = _closest_points(frozen, bound, rising, falling, out_helper, box_lo,
                                            box_hi)
                    short = a * point[helper] + target
                    eps = np.where(live & frozen[helper] & (short < 0.0), -short, eps)
                out_alloc = target + eps
                allocated = np.bincount(asker, out_alloc, n).astype(float, copy=False)

                if records is not None:
                    records.append((total_sub + sub, eligible.tolist(), shares.tolist(),
                                    eps.tolist()))

                # a sub-round without a refusal touches no node, which ends
                # the negotiation for this capability estimate
                refused = eps > 0.0
                if not np.count_nonzero(refused):
                    break
                constrained = constrained | refused
                touched = _any_by_node(refused, asker, n) | _any_by_node(refused, helper, n)
                if (~_any_by_node(~constrained, asker, n) | ~touched).all():
                    break
                deficit = capability - allocated
            total_sub += sub
        return (lo, hi, frozen, point, capability, allocated, out_alloc, outer, total_sub,
                cap_tripped)

    def advance(self, x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """One rk4_step of dt under the controls u, then the model's clamp_state."""
        return self.model.clamp_state(rk4_step(self.model, x, u, dt))
