"""The closed-loop step on arrays over nodes and edges, for large networks.

`ArrayKernel.step` does what `floatkernel.FloatKernel.step` does, with
every stage elementwise arithmetic over the nodes or over the edges of the
model's EdgeLayout, and every network sum one `np.bincount` in its order
from +0.0, so its cost per call barely grows with the node count.  The
per-node reference (`dynamics`, `barrier`, `geometry`, `collab`,
`simulate`) and `FloatKernel` share one copy of each scalar rule; this
module shares none, and is the independent implementation that both are
pinned to, bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .barrier import CERT_TOL, PSI1_TOL, BarrierArrays
# log is the protocol's logger: the array negotiation warns as the per-node one does
from .collab import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, MARGIN_TOL, WEIGHT_MODES,
                     _infeasible, log)
from .dynamics import SisModel, rk4_step
from .errors import (DegenerateWeightsError, EmptyRegionError, GeometryConvergenceError,
                     NumericsError, ProtocolStallError)
from .geometry import NEGLIGIBLE_NORMAL
from .graph import EdgeLayout


class Psi2Arrays(NamedTuple):
    """Every scalar node's psi2 decomposition at one state, as arrays.

    Entry i-1 of constant, linear and quadratic is node i's self term
    constant + linear u + quadratic u^2.  coupling is over the edges of
    the model's EdgeLayout: in node target[e]+1's psi2, coupling[e]
    multiplies the control of its in-neighbor source[e]+1.
    """

    constant: np.ndarray
    linear: np.ndarray
    quadratic: np.ndarray
    coupling: np.ndarray


class IntervalRegions(NamedTuple):
    """Every scalar node's admissible region, as arrays.

    Entry i-1 belongs to node i: the interval [lo, hi], or, where frozen is
    True, the single point `point` (lo, hi and point are then as the
    negotiation left them).
    """

    lo: np.ndarray
    hi: np.ndarray
    frozen: np.ndarray
    point: np.ndarray


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


def capability_function(psi2: Psi2Arrays) -> Callable[[IntervalRegions], np.ndarray]:
    """The map region -> every scalar node's max_capability on it, bit for bit.

    A frozen node takes its own quadratic's value at the frozen point,
    rounded as QuadraticForm.value rounds it; any other node takes the
    exact maximum over [lo, hi], comparing the candidates lo, hi and the
    interior stationary point in that order and keeping the first of equal
    values.  Each node's stationary point and the value there are found
    once, for every region the map is given.
    """
    c, l, q = psi2.constant, psi2.linear, psi2.quadratic
    curved = q != 0.0
    t = np.divide(-l, 2.0 * q, out=np.zeros(q.shape), where=curved)
    f_t = c + l * t + q * t * t

    def capability(region: IntervalRegions) -> np.ndarray:
        lo, hi, frozen, p = region
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
            at_point = (c + (l * p + 0.0)) + ((p * q + 0.0) * p + 0.0)
            best = np.where(frozen, at_point, best)
        return best

    return capability


class ArrayOutcome(NamedTuple):
    """What collaborative_safety_arrays settled on, as arrays.

    regions and capability hold node i's final region and capability at
    entry i-1.  out_alloc is over the edges of the layout: entry e is what
    node target[e]+1 counts on from its in-neighbor j = source[e]+1, and
    what j committed to it (CollabLedger.out_alloc[j] of the requester,
    which the ledgers mirror as CollabLedger.in_req of node j).  allocated
    is each node's total allocation, its edges' out_alloc summed in
    EdgeLayout's bincount order, as _allocated sums a ledger's.
    """

    regions: IntervalRegions
    capability: np.ndarray
    out_alloc: np.ndarray
    allocated: np.ndarray
    outer_rounds: int
    sub_rounds: int
    cap_tripped: bool = False


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


def collaborative_safety_arrays(layout: EdgeLayout, psi2: Psi2Arrays,
                                box_lo: np.ndarray, box_hi: np.ndarray,
                                *,
                                outer_cap: int = DEFAULT_OUTER_CAP,
                                inner_cap: int = DEFAULT_INNER_CAP,
                                weights_mode: str = "coupling",
                                records: list[tuple] | None = None
                                ) -> ArrayOutcome:
    """collaborative_safety for a scalar network, on edge arrays.

    Node i's control box is [box_lo[i-1], box_hi[i-1]], and psi2.coupling
    is over the edges of layout.  Every sub-round runs partition,
    coordinate and the requesters' bookkeeping for all nodes at once with
    collaborate's synchronous, ascending-id semantics: the rounds, regions,
    capabilities, ledgers, messages and raised errors are the per-node
    protocol's, bit for bit.  A stall raises ProtocolStallError without
    ledgers.  Each sub-round, up to a raise, appends (sub_round, eligible,
    shares, eps) to records for message_rows, the last three as lists over
    the edges.
    """
    if weights_mode not in WEIGHT_MODES:
        raise ValueError(f"weights_mode must be one of {', '.join(WEIGHT_MODES)}, "
                         f"got {weights_mode!r}")
    capability_on = capability_function(psi2)
    a = psi2.coupling
    helper, asker, by_source = layout.source, layout.target, layout.by_source
    strength = np.abs(a)
    live = strength > NEGLIGIBLE_NORMAL
    dead = ~live
    any_dead = np.count_nonzero(dead)
    a_live = np.where(live, a, 1.0)
    # which requests bound each helper's interval from below and from above,
    # by source in its out-neighbors' ascending order (a coupling is live
    # exactly when it passes one of these tests)
    a_out, out_helper = a[by_source], helper[by_source]
    rising = a_out > NEGLIGIBLE_NORMAL
    falling = a_out < -NEGLIGIBLE_NORMAL
    weights = np.ones_like(a) if weights_mode == "uniform" else strength

    # no array here is ever written in place, so the zeros can be shared
    no_edges = out_alloc = np.zeros(a.shape)
    n = box_lo.shape[0]
    # the node sums of out_alloc, kept from the sub-round that last changed it
    allocated = np.zeros(n)
    constrained = np.zeros_like(live)
    lo, hi, frozen, point = box_lo, box_hi, np.zeros(n, dtype=bool), np.zeros(n)
    outer = total_sub = 0
    cap_tripped = False
    while True:
        outer += 1
        capability = capability_on(IntervalRegions(lo, hi, frozen, point))
        deficit = capability - allocated
        if np.count_nonzero(deficit >= -MARGIN_TOL) == n:
            break
        if outer >= outer_cap:
            stuck = (deficit < -MARGIN_TOL) & ~_any_by_node(~constrained, asker, n)
            if stuck.any():
                raise _infeasible(tuple(int(i) + 1 for i in np.flatnonzero(stuck)))
            cap_tripped = True
            break
        constrained = np.zeros_like(live)
        sub = 0
        while True:
            if sub >= inner_cap:
                raise ProtocolStallError(f"no agreement after {inner_cap} sub-rounds")
            sub += 1

            # every node splits its margin over unconstrained in-neighbors
            eligible = ~constrained
            try:
                shares = partition_arrays(deficit, weights, eligible, asker)
            except DegenerateWeightsError:
                degenerate = _any_by_node(eligible, asker, n) & \
                    ~_any_by_node(eligible & (weights > NEGLIGIBLE_NORMAL), asker, n)
                for i in np.flatnonzero(degenerate):
                    log.warning("node %d: all coupling weights negligible, splitting uniformly",
                                i + 1)
                shares = partition_arrays(deficit, np.where(degenerate[asker], 1.0, weights),
                                          eligible, asker)

            # every helper re-derives its interval from the demands on it; what
            # a helper committed to a requester is what the requester counts on
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

            # a sub-round without a refusal touches no node, which ends the
            # negotiation for this capability estimate
            refused = eps > 0.0
            if not np.count_nonzero(refused):
                break
            constrained = constrained | refused
            touched = _any_by_node(refused, asker, n) | _any_by_node(refused, helper, n)
            if (~_any_by_node(~constrained, asker, n) | ~touched).all():
                break
            deficit = capability - allocated
        total_sub += sub
    return ArrayOutcome(IntervalRegions(lo, hi, frozen, point), capability, out_alloc,
                        allocated, outer, total_sub, cap_tripped)


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(v, lo), hi) elementwise, keeping the first argument on ties."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _certificate_choice(certificate: Psi2Arrays, want: np.ndarray, flo: np.ndarray,
                        fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's certificate step for every node at once.

    Returns the point of c + l u + q u^2 >= -CERT_TOL inside [flo, fhi]
    nearest the nominal, first piece first, and whether any piece met
    [flo, fhi] (see floatkernel._certificate_point).
    """
    q, l = certificate.quadratic, certificate.linear
    c = certificate.constant + CERT_TOL
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


def safety_filter_arrays(nominal: np.ndarray, regions: IntervalRegions, base: np.ndarray,
                         lg_h: np.ndarray, certificate: Psi2Arrays | None = None,
                         certified: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """safety_filter for every scalar node at once, bit for bit.

    base is each node's psi1 at zero control, L_f h + eta * h, and lg_h its
    L_g h.  The self-term blocks of `certificate` are the own-margin forms
    of the nodes where `certified` is True; the other nodes filter without
    one.  Returns the packed controls and the per-node relaxation flags.
    """
    lo, hi, frozen, point = regions
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
        best, found = _certificate_choice(certificate, nominal, flo, fhi)
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
        n = model.graph.node_count
        self.model, self.gains, self.nominal = model, gains, nominal
        self.box_lo, self.box_hi = box_lo, box_hi
        self.full_boxes = IntervalRegions(box_lo, box_hi, np.zeros(n, dtype=bool), np.zeros(n))
        self.protocol = dict(outer_cap=outer_cap, inner_cap=inner_cap,
                             weights_mode=weights_mode)
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
        model = self.model
        source, target = model.layout.source, model.layout.target
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
        return self.settle(x, base, Psi2Arrays(constant, linear, -x, lgj), records, negotiate)

    def settle(self, x: np.ndarray, base: np.ndarray, psi2: Psi2Arrays,
               records: list[tuple] | None, negotiate: bool) -> tuple:
        """Negotiate the regions, then filter the nominal controls through them.

        base is each node's psi1 at zero control, and x its L_g h.  With
        negotiate set the nodes negotiate their regions, appending each
        sub-round to records (see collaborative_safety_arrays); otherwise
        every node keeps its full box.  Returns (controls, capability,
        outer_rounds, sub_rounds, cap_tripped, relaxed); a halting protocol
        outcome raises.
        """
        certified = certificate = None
        if negotiate:
            outcome = collaborative_safety_arrays(self.model.layout, psi2, self.box_lo,
                                                  self.box_hi, records=records, **self.protocol)
            regions, caps = outcome.regions, outcome.capability
            # A node that negotiated help owes its own share of the closed
            # margin, a floor of -allocated; self-sufficient nodes stay
            # minimally invasive.  (c - a is c + (-a) bit for bit.)
            certified = outcome.allocated < 0.0
            certificate = Psi2Arrays(psi2.constant - outcome.allocated, psi2.linear,
                                     psi2.quadratic, psi2.coupling)
            rounds = outcome.outer_rounds, outcome.sub_rounds, outcome.cap_tripped
        else:
            regions = self.full_boxes
            caps = capability_function(psi2)(regions)
            rounds = 0, 0, False
        u, relaxed = safety_filter_arrays(self.nominal, regions, base, x, certificate, certified)
        return (u, caps, *rounds, relaxed)

    def advance(self, x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """One rk4_step of dt under the controls u, then the model's clamp_state."""
        return self.model.clamp_state(rk4_step(self.model, x, u, dt))
