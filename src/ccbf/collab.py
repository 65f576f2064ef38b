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

`collaborative_safety` runs the protocol on per-node ledgers and regions:
it is the reference.  The closed loop runs it in a step kernel, on Python
floats in `floatkernel` or on edge arrays, O(E) per sub-round, in
`arraykernel`; both match this one bit for bit.  What the kernels share
with it, the margin tolerance, the round caps, the weight modes, the
proportional split `_split`, the infeasibility error and the logger
"ccbf.collab", lives in `barrier`, and the message order `exchange_order`
in `graph`: a run does not load this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .barrier import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, MARGIN_TOL, NEGLIGIBLE_NORMAL,
                      WEIGHT_MODES, Psi2Decomposition, _infeasible, _split, log,
                      max_capability)
from .errors import DegenerateWeightsError, ProtocolStallError
from .geometry import ControlRegion, Halfspace, closest_point, intersect, is_empty
from .graph import EdgeLayout, NetworkGraph, exchange_order, in_neighbors, out_neighbors


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


def _allocated(ledger: CollabLedger) -> float:
    total = 0.0  # builtin sum() compensates its additions from Python 3.12 on
    for j in sorted(ledger.out_alloc):
        total += ledger.out_alloc[j]
    return total


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
