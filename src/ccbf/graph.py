"""Directed influence graph for networked control.

An edge (j, i) records that node j's state enters node i's dynamics, so j
is an in-neighbor of i and i is an out-neighbor of j.  Node ids run from 1
to node_count.  Construction raises ValueError for an empty graph, a
self-loop or an edge outside 1..node_count; the config loader reports such
edges by key path before it builds a graph.  Neighbor listings are always
in ascending id order; the whole pipeline relies on that for determinism.
`edge_layout` lists the edges by target, as flat arrays, for the step
kernels.
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
    """The edges of a scalar network as flat arrays, built once per model.

    Edge e runs from node source[e]+1 into node target[e]+1 (0-based
    indices), and the E edges are sorted by target, then source: every
    per-edge array of the kernels has length E in this order.  By source:
    row j-1, column d of out_slot is the index of the edge from node j to
    its d-th out-neighbor in ascending id order, and out_mask is False on
    the padding of nodes with fewer out-neighbors.

    Every sum over a node's in-neighborhood, but for the RK4 flow's, is
    one `np.bincount(target, terms, n)`.  It adds the terms in edge order
    into totals that start at +0.0, so the edge order fixes the order of
    the additions: by target, then by ascending source.  On an edge-free
    layout bincount returns integer zeros: a node sum kept as it is is cast
    to float.
    """

    source: np.ndarray
    target: np.ndarray
    out_slot: np.ndarray
    out_mask: np.ndarray


def edge_layout(graph: NetworkGraph) -> EdgeLayout:
    """The graph's edges by target, and its by-source table of them.

    graph.edges is sorted by (source, target), which is by-source order
    already; a lexsort by (target, source) gives the edge order.  Each
    edge's by-source column is its rank among the edges of its source.
    """
    n = graph.node_count
    src, dst = edge_index(graph)
    by_target = np.lexsort((src, dst))
    out_deg = np.bincount(src, minlength=n)
    s_col = np.arange(len(src)) - (np.cumsum(out_deg) - out_deg)[src]
    out_slot = np.zeros((n, int(out_deg.max())), dtype=np.intp)
    out_slot[src[by_target], s_col[by_target]] = np.arange(len(src))
    out_mask = np.zeros(out_slot.shape, dtype=bool)
    out_mask[src, s_col] = True
    return EdgeLayout(src[by_target], dst[by_target], out_slot, out_mask)
