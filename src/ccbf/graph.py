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

from itertools import chain
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
        # the edges are sorted by (source, target), so every list is ascending
        self._inward = {i: tuple(v) for i, v in inward.items()}
        self._outward = {i: tuple(v) for i, v in outward.items()}

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


def edge_index(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based source and target of every edge, in graph.edges order."""
    flat = np.fromiter(chain.from_iterable(graph.edges), dtype=np.intp,
                       count=2 * len(graph.edges))
    return flat[0::2] - 1, flat[1::2] - 1


class EdgeLayout(NamedTuple):
    """Both edge layouts of a scalar network, built once per model.

    By target: row i-1, column c is the edge into node i from its c-th
    in-neighbor in ascending id order; in_source holds that neighbor's
    0-based index (padding points at the row's own node) and in_mask is
    False on padding.  By source: row j-1, column d is the edge from node
    j to its d-th out-neighbor; out_slot is that edge's flat index in the
    by-target layout and out_mask is False on padding.

    Every sum over a node's in-neighborhood, but for the RK4 flow's, is
    one `np.bincount(rows, terms, n)`.  It adds the terms in input order
    into totals that start at +0.0, so index arrays built once per model
    fix the order of the additions: by target, then by ascending source.
    in_row is the row of every by-target slot, so an (n, K) array a sums
    its rows as `np.bincount(in_row, a.ravel(), n)`; padding of +0.0 or
    -0.0 drops out of such a total.  On an edge-free layout bincount
    returns integer zeros: a row sum kept as it is is cast to float.
    """

    in_source: np.ndarray
    in_mask: np.ndarray
    in_row: np.ndarray
    out_slot: np.ndarray
    out_mask: np.ndarray


def edge_layout(graph: NetworkGraph) -> EdgeLayout:
    """The graph's by-target and by-source edge layouts.

    graph.edges is sorted by (source, target), which is by-source order
    already; a lexsort by (target, source) gives by-target order.  Each
    edge's column is its rank among the edges of its row.
    """
    n = graph.node_count
    src, dst = edge_index(graph)
    in_deg = np.bincount(dst, minlength=n)
    out_deg = np.bincount(src, minlength=n)
    w_in, w_out = int(in_deg.max()), int(out_deg.max())
    rank = np.arange(len(src))
    by_target = np.lexsort((src, dst))
    t_row, t_src = dst[by_target], src[by_target]
    t_col = rank - (np.cumsum(in_deg) - in_deg)[t_row]
    in_row = np.repeat(np.arange(n, dtype=np.intp), w_in)
    in_source = in_row.reshape(n, w_in).copy()
    in_source[t_row, t_col] = t_src
    in_mask = np.zeros((n, w_in), dtype=bool)
    in_mask[t_row, t_col] = True
    s_col = rank - (np.cumsum(out_deg) - out_deg)[src]
    out_slot = np.zeros((n, w_out), dtype=np.intp)
    out_slot[t_src, s_col[by_target]] = t_row * w_in + t_col
    out_mask = np.zeros((n, w_out), dtype=bool)
    out_mask[src, s_col] = True
    return EdgeLayout(in_source, in_mask, in_row, out_slot, out_mask)
