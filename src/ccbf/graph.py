"""Directed influence graph for networked control.

An edge (j, i) records that node j's state enters node i's dynamics, so j
is an in-neighbor of i and i is an out-neighbor of j.  Node ids run from 1
to node_count.  Construction raises ValueError for an empty graph, a
self-loop or an edge outside 1..node_count; the config loader reports such
edges by key path before it builds a graph.  Neighbor listings are always
in ascending id order; the whole pipeline relies on that for determinism.
`edge_layout` lays the edges out as padded arrays, by target and by
source, for the array kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NetworkGraph:
    """Immutable directed graph on the nodes 1..node_count."""

    def __init__(self, node_count: int, edges):
        self.node_count = int(node_count)
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        self.edges = tuple(sorted({(int(j), int(i)) for j, i in edges}))
        inward: dict[int, list[int]] = {i: [] for i in self.nodes()}
        outward: dict[int, list[int]] = {i: [] for i in self.nodes()}
        for j, i in self.edges:
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is not allowed")
            if j not in outward:
                raise ValueError(f"edge ({j}, {i}): source {j} outside 1..{self.node_count}")
            if i not in inward:
                raise ValueError(f"edge ({j}, {i}): target {i} outside 1..{self.node_count}")
            inward[i].append(j)
            outward[j].append(i)
        self._inward = {i: tuple(sorted(v)) for i, v in inward.items()}
        self._outward = {i: tuple(sorted(v)) for i, v in outward.items()}

    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def __repr__(self) -> str:
        return f"NetworkGraph(node_count={self.node_count}, edges={len(self.edges)})"


def _check_node(graph: NetworkGraph, i: int) -> None:
    if not isinstance(i, int) or i < 1 or i > graph.node_count:
        raise IndexError(f"node id {i!r} outside 1..{graph.node_count}")


def in_neighbors(graph: NetworkGraph, i: int) -> tuple[int, ...]:
    """Nodes whose state enters node i's dynamics, ascending."""
    _check_node(graph, i)
    return graph._inward[i]


def out_neighbors(graph: NetworkGraph, i: int) -> tuple[int, ...]:
    """Nodes whose dynamics node i's state enters, ascending."""
    _check_node(graph, i)
    return graph._outward[i]


class EdgeLayout(NamedTuple):
    """Both edge layouts of a scalar network, built once per model.

    By target: row i-1, column c is the edge into node i from its c-th
    in-neighbor in ascending id order; in_source holds that neighbor's
    0-based index (padding points at the row's own node) and in_mask is
    False on padding.  By source: row j-1, column d is the edge from node
    j to its d-th out-neighbor; out_slot is that edge's flat index in the
    by-target layout and out_mask is False on padding.  A request travels
    from node request_from[s] to node request_to[s] for by-target slot s;
    adjustments travel from adjust_from[e] to adjust_to[e] for every edge
    e in by-source order, whose by-target slots are adjust_slots.
    """

    in_source: np.ndarray
    in_mask: np.ndarray
    out_slot: np.ndarray
    out_mask: np.ndarray
    request_from: tuple[int, ...]
    request_to: tuple[int, ...]
    adjust_from: tuple[int, ...]
    adjust_to: tuple[int, ...]
    adjust_slots: np.ndarray


def edge_layout(graph: NetworkGraph) -> EdgeLayout:
    """The graph's by-target and by-source edge layouts."""
    nodes = graph.nodes()
    n = graph.node_count
    ins = [in_neighbors(graph, i) for i in nodes]
    outs = [out_neighbors(graph, j) for j in nodes]
    w_in = max((len(v) for v in ins), default=0)
    w_out = max((len(v) for v in outs), default=0)
    in_source = np.repeat(np.arange(n, dtype=np.intp)[:, None], w_in, axis=1)
    in_mask = np.zeros((n, w_in), dtype=bool)
    slot_of: dict[tuple[int, int], int] = {}
    for i, js in zip(nodes, ins):
        for c, j in enumerate(js):
            in_source[i - 1, c] = j - 1
            in_mask[i - 1, c] = True
            slot_of[j, i] = (i - 1) * w_in + c
    out_slot = np.zeros((n, w_out), dtype=np.intp)
    out_mask = np.zeros((n, w_out), dtype=bool)
    for j, ks in zip(nodes, outs):
        for d, k in enumerate(ks):
            out_slot[j - 1, d] = slot_of[j, k]
            out_mask[j - 1, d] = True
    request_to = tuple(int(src) + 1 for src in in_source.ravel())
    request_from = tuple(row + 1 for row in range(n) for _ in range(w_in))
    adjust_from = tuple(j for j, ks in zip(nodes, outs) for _ in ks)
    adjust_to = tuple(k for ks in outs for k in ks)
    return EdgeLayout(in_source, in_mask, out_slot, out_mask, request_from, request_to,
                      adjust_from, adjust_to, out_slot[out_mask])
