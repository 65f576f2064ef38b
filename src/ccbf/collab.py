"""Capability-allocation protocol for collaborative safety.

Each node i must keep psi2_i = sum_j a_ij . u_j + c_i(u_i) nonnegative but
only controls u_i.  The protocol negotiates commitments c_ij <= 0 meaning
"in-neighbor j guarantees a_ij . u_j >= -c_ij", so the node's safety margin
is

    delta_i = cbar_i - sum_j c_ij

with cbar_i the node's own best capability over its admissible region.
The default commitment is 0 (a neighbor never harms before being asked).

Three nested loops:

  * sub-round (collaborate): every node splits its margin over its
    unconstrained in-neighbors proportionally to coupling strength and
    sends the shares as requests; every node then re-derives its
    admissible region from the commitments asked of it (coordinate) and
    answers each requester with a slack adjustment eps >= 0 saying how
    much of the request it had to refuse.  A refused requester stops
    asking that neighbor.  Sub-rounds repeat until no nonzero adjustment
    moves, then margins are settled for this capability estimate.
  * outer round (collaborative_safety): commitments shrink regions, which
    shrinks capabilities, so capabilities are re-maximized over the new
    regions and the sub-rounds rerun until every margin is nonnegative.
  * per step: the simulator rebuilds everything from the current state;
    commitments start from zero at every step.

All iteration is in ascending node order and all exchanges are
synchronous, which makes the protocol bit-for-bit deterministic.

`collaborative_safety` runs the protocol on per-node ledgers and regions.
The closed loop runs `collaborative_safety_arrays`, the same protocol on
edge arrays: every sub-round is O(E) array arithmetic, and its results
match the per-node protocol bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .barrier import Psi2Arrays, Psi2Decomposition, capability_function, max_capability
from .errors import (
    DegenerateWeightsError,
    GeometryConvergenceError,
    ProtocolStallError,
    TerminallyInfeasibleError,
)
from .geometry import (
    NEGLIGIBLE_NORMAL,
    ControlRegion,
    Halfspace,
    IntervalRegions,
    closest_point,
    intersect,
    is_empty,
)
from .graph import EdgeLayout, NetworkGraph, in_neighbors, out_neighbors

log = logging.getLogger("ccbf.collab")

# margins above this are treated as satisfied
MARGIN_TOL = 1e-9
DEFAULT_OUTER_CAP = 16
DEFAULT_INNER_CAP = 64
# how a node weighs its in-neighbors when it splits a request
WEIGHT_MODES = ("coupling", "uniform")


class CollabMessage(NamedTuple):
    """One protocol exchange: a request share or a slack adjustment."""

    sub_round: int
    kind: str  # "request" or "adjust"
    from_node: int
    to_node: int
    value: float


@dataclass
class CollabLedger:
    """Per-node protocol state, mutated in place across rounds."""

    node: int
    region: ControlRegion
    capability: float = 0.0
    capability_point: np.ndarray | None = None
    deficit: float = 0.0
    out_alloc: dict[int, float] = field(default_factory=dict)
    in_req: dict[int, float] = field(default_factory=dict)
    constrained: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Final regions and ledgers plus round accounting for one invocation."""

    regions: dict[int, ControlRegion]
    ledgers: dict[int, CollabLedger]
    outer_rounds: int
    sub_rounds: int
    cap_tripped: bool = False


def _infeasible(stuck: tuple[int, ...]) -> TerminallyInfeasibleError:
    return TerminallyInfeasibleError(
        "nodes "
        + ", ".join(str(i) for i in stuck)
        + " cannot close their safety margin with every in-neighbor refusing",
        nodes=stuck)


def _allocated(ledger: CollabLedger) -> float:
    total = 0.0  # builtin sum() compensates its additions from Python 3.12 on
    for j in sorted(ledger.out_alloc):
        total += ledger.out_alloc[j]
    return total


def _split(deficit: float, weights: list[float]) -> list[float] | None:
    """deficit split over weights in proportion; negligible weights get exactly 0.

    None when every weight is negligible.  Each sum runs from +0.0 in list
    order.
    """
    total = 0.0
    for w in weights:
        if w > NEGLIGIBLE_NORMAL:
            total += w
    if not total > 0.0:
        return None
    shares = [deficit * (w / total) if w > NEGLIGIBLE_NORMAL else 0.0 for w in weights]
    spread = 0.0
    for share in shares:
        spread += share
    spread -= deficit
    assert abs(spread) <= 1e-12 * max(1.0, abs(deficit)), "partition must conserve the margin"
    return shares


def partition(deficit: float, weights: Mapping[int, float]) -> dict[int, float]:
    """Split a margin proportionally; negligible weights get exactly zero."""
    if not weights:
        return {}
    order = sorted(weights)
    shares = _split(deficit, [float(weights[j]) for j in order])
    if shares is None:
        raise DegenerateWeightsError(
            "every eligible neighbor has negligible coupling weight")
    return dict(zip(order, shares))


def coordinate(graph: NetworkGraph, i: int, ledger: CollabLedger,
               rows: Mapping[int, np.ndarray | None],
               incoming: Mapping[int, float]) -> tuple[ControlRegion, dict[int, float]]:
    """Re-derive node i's admissible region from what was asked of it.

    rows[k] is requester k's coupling row for this node's control; the
    commitment to k after this call is the previous one plus k's request
    plus the returned adjustment.  If the full demand set cannot be met
    inside the box, the region freezes at the box point nearest the demand
    polytope and every violated demand is refused by exactly its violation.
    """
    box = ledger.region.box
    senders = out_neighbors(graph, i)
    targets = {k: ledger.in_req.get(k, 0.0) + float(incoming.get(k, 0.0)) for k in senders}
    live: list[tuple[int, Halfspace]] = []
    eps = {k: 0.0 for k in senders}
    for k in senders:
        a = rows.get(k)
        if a is None or float(np.max(np.abs(a))) <= NEGLIGIBLE_NORMAL:
            # dead channel: nothing this node does reaches k, so any net
            # demand is refused outright
            if targets[k] < 0.0:
                eps[k] = -targets[k]
            continue
        live.append((k, Halfspace(np.asarray(a, dtype=float), targets[k])))
    halfspaces = tuple(h for _, h in live)
    region = intersect(box, halfspaces)
    if is_empty(region):
        ubar, _ = closest_point(box, halfspaces)
        for k, h in live:
            short = h.value(ubar)
            if short < 0.0:
                eps[k] = -short
        region = ControlRegion(box, halfspaces, frozen_point=ubar)
    for k in senders:
        ledger.in_req[k] = targets[k] + eps[k]
    ledger.region = region
    return region, eps


def _coupling_rows(graph: NetworkGraph,
                   decomps: Mapping[int, Psi2Decomposition]) -> dict[int, dict[int, np.ndarray | None]]:
    return {
        i: {k: decomps[k].coupling.get(i) for k in out_neighbors(graph, i)}
        for i in graph.nodes()
    }


def collaborate(graph: NetworkGraph, decomps: Mapping[int, Psi2Decomposition],
                ledgers: dict[int, CollabLedger], *,
                inner_cap: int = DEFAULT_INNER_CAP,
                weights_mode: str = "coupling",
                messages: list[CollabMessage] | None = None,
                sub_round_start: int = 0) -> int:
    """Run request/adjust sub-rounds until no nonzero adjustment moves.

    Returns the number of sub-rounds used.  Constrained sets start empty:
    a fresh capability estimate deserves fresh refusals.
    """
    nodes = list(graph.nodes())
    for i in nodes:
        ledgers[i].constrained.clear()
    in_sets = {i: set(in_neighbors(graph, i)) for i in nodes}
    rows_for = _coupling_rows(graph, decomps)

    sub = 0
    while True:
        if sub >= inner_cap:
            raise ProtocolStallError(
                f"no agreement after {inner_cap} sub-rounds", ledgers=ledgers)
        sub += 1
        idx = sub_round_start + sub

        for i in nodes:
            ledgers[i].deficit = ledgers[i].capability - _allocated(ledgers[i])

        # every node splits its margin over unconstrained in-neighbors
        requests: dict[int, dict[int, float]] = {i: {} for i in nodes}
        for i in nodes:
            eligible = [j for j in in_neighbors(graph, i) if j not in ledgers[i].constrained]
            if not eligible:
                continue
            if weights_mode == "uniform":
                weights = {j: 1.0 for j in eligible}
            else:
                weights = {j: float(np.sum(np.abs(decomps[i].coupling.get(j, 0.0))))
                           for j in eligible}
            try:
                shares = partition(ledgers[i].deficit, weights)
            except DegenerateWeightsError:
                log.warning("node %d: all coupling weights negligible, splitting uniformly", i)
                shares = partition(ledgers[i].deficit, {j: 1.0 for j in eligible})
            for j in eligible:
                requests[j][i] = shares[j]
                if messages is not None:
                    messages.append(CollabMessage(idx, "request", i, j, shares[j]))

        # every node answers the demands on it, then requesters absorb
        touched: set[int] = set()
        for j in nodes:
            _, eps = coordinate(graph, j, ledgers[j], rows_for[j], requests[j])
            for k in out_neighbors(graph, j):
                e = eps[k]
                if messages is not None:
                    messages.append(CollabMessage(idx, "adjust", j, k, e))
                asked = requests[j].get(k, 0.0)
                lk = ledgers[k]
                lk.out_alloc[j] = lk.out_alloc.get(j, 0.0) + asked + e
                if e > 0.0:
                    lk.constrained.add(j)
                    touched.add(j)
                    touched.add(k)

        for i in nodes:
            ledgers[i].deficit = ledgers[i].capability - _allocated(ledgers[i])

        if all(ledgers[i].constrained == in_sets[i] or i not in touched for i in nodes):
            return sub


def collaborative_safety(graph: NetworkGraph,
                         decomps: Mapping[int, Psi2Decomposition],
                         boxes: Mapping[int, tuple],
                         *,
                         outer_cap: int = DEFAULT_OUTER_CAP,
                         inner_cap: int = DEFAULT_INNER_CAP,
                         weights_mode: str = "coupling",
                         messages: list[CollabMessage] | None = None) -> ProtocolOutcome:
    """Negotiate regions until every node's safety margin is nonnegative.

    Raises TerminallyInfeasibleError when the round cap is hit and some
    node is still short despite having been refused by every in-neighbor;
    a cap hit with negotiation still open returns with cap_tripped set.
    """
    if weights_mode not in WEIGHT_MODES:
        raise ValueError(f"weights_mode must be one of {', '.join(WEIGHT_MODES)}, "
                         f"got {weights_mode!r}")
    nodes = list(graph.nodes())
    ledgers = {i: CollabLedger(node=i, region=ControlRegion(tuple(boxes[i]))) for i in nodes}

    total_sub = 0
    outer = 0
    cap_tripped = False
    while True:
        outer += 1
        for i in nodes:
            value, point = max_capability(decomps[i], ledgers[i].region)
            ledgers[i].capability = value
            ledgers[i].capability_point = point
            ledgers[i].deficit = value - _allocated(ledgers[i])
        if all(ledgers[i].deficit >= -MARGIN_TOL for i in nodes):
            break
        if outer >= outer_cap:
            stuck = tuple(i for i in nodes
                          if ledgers[i].deficit < -MARGIN_TOL
                          and ledgers[i].constrained == set(in_neighbors(graph, i)))
            if stuck:
                raise _infeasible(stuck)
            cap_tripped = True
            break
        total_sub += collaborate(graph, decomps, ledgers,
                                 inner_cap=inner_cap, weights_mode=weights_mode,
                                 messages=messages, sub_round_start=total_sub)
    regions = {i: ledgers[i].region for i in nodes}
    return ProtocolOutcome(regions, ledgers, outer, total_sub, cap_tripped)


def exchange_order(layout: EdgeLayout) -> tuple[list, list, list]:
    """The (from, to) of a request per edge, in edge order; of an
    adjustment per edge, by source; and each adjustment's edge."""
    requester, helper = layout.target + 1, layout.source + 1
    edges = layout.out_slot[layout.out_mask]
    return (list(zip(requester.tolist(), helper.tolist())),
            list(zip(helper[edges].tolist(), requester[edges].tolist())), edges.tolist())


def message_rows(layout: EdgeLayout, records: Iterable[tuple]) -> Iterator[tuple]:
    """The messages of the logged sub-rounds as CollabMessage fields, in exchange_order.

    A record is (sub_round, eligible, shares, eps), each of the last three a
    list over the edges of layout: each eligible edge's requester asks its
    share, and each edge's helper adjusts.
    """
    requests, adjusts, edges = exchange_order(layout)
    for sub_round, eligible, shares, eps in records:
        yield from ((sub_round, "request", *pair, share) for pair, share in
                    zip(compress(requests, eligible), compress(shares, eligible)))
        yield from ((sub_round, "adjust", *pair, eps[e]) for pair, e in zip(adjusts, edges))


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


def _fold_bounds(bound: np.ndarray, rising: np.ndarray, falling: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tighten each node's [lo, hi] by its request bounds, one column at a time.

    A rising request raises lo and a falling one lowers hi, as
    ControlRegion.interval folds them; ties keep the earlier value.
    """
    # -inf never raises lo and +inf never lowers hi, so the other requests
    # drop out of the fold
    for b_lo, b_hi in zip(np.where(rising, bound, -np.inf).T,
                          np.where(falling, bound, np.inf).T):
        lo = np.where(b_lo > lo, b_lo, lo)
        hi = np.where(b_hi < hi, b_hi, hi)
    return lo, hi


def _closest_points(frozen: np.ndarray, bound: np.ndarray, rising: np.ndarray,
                    falling: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
    """closest_point of each node's box to its request polytope (1-D)."""
    plo, phi = _fold_bounds(bound, rising, falling, np.full(box_lo.shape, -np.inf),
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
    helper, asker, out_slot = layout.source, layout.target, layout.out_slot
    strength = np.abs(a)
    live = strength > NEGLIGIBLE_NORMAL
    dead = ~live
    any_dead = np.count_nonzero(dead)
    a_live = np.where(live, a, 1.0)
    # which requests bound each helper's interval from below and from above,
    # in its out-neighbors' ascending order (every by-source slot off the
    # padding is an edge, so its coupling is live exactly when it passes
    # one of these tests)
    a_out = a[out_slot]
    rising = (a_out > NEGLIGIBLE_NORMAL) & layout.out_mask
    falling = (a_out < -NEGLIGIBLE_NORMAL) & layout.out_mask
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
            bound = (neg_target / a_live)[out_slot]
            lo, hi = _fold_bounds(bound, rising, falling, box_lo, box_hi)
            frozen = lo > hi
            if np.count_nonzero(frozen):
                point = _closest_points(frozen, bound, rising, falling, box_lo, box_hi)
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
