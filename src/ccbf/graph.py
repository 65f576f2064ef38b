"""Directed influence graph for networked control.

An edge (j, i) records that node j's state enters node i's dynamics, so j
is an in-neighbor of i and i is an out-neighbor of j.  Node ids run from 1
to node_count.  Construction is permissive: `validate` reports every
structural violation instead of stopping at the first, which is what the
config loader wants.  Neighbor listings are always in ascending id order;
the whole pipeline relies on that for determinism.
"""

from __future__ import annotations


def _dim_map(node_count: int, dims) -> dict[int, int]:
    if isinstance(dims, int):
        return {i: dims for i in range(1, node_count + 1)}
    return {int(i): int(d) for i, d in dims.items()}


class NetworkGraph:
    """Immutable directed graph with per-node state and control dimensions."""

    def __init__(self, node_count: int, edges, state_dims=1, control_dims=1):
        self.node_count = int(node_count)
        self.edges = tuple(sorted({(int(j), int(i)) for j, i in edges}))
        self.state_dims = _dim_map(self.node_count, state_dims)
        self.control_dims = _dim_map(self.node_count, control_dims)
        inward: dict[int, list[int]] = {i: [] for i in self.nodes()}
        outward: dict[int, list[int]] = {i: [] for i in self.nodes()}
        for j, i in self.edges:
            # out-of-range or self-loop edges are kept in self.edges so that
            # validate() can report them, but never enter the adjacency
            if j == i or j not in outward or i not in inward:
                continue
            inward[i].append(j)
            outward[j].append(i)
        self._inward = {i: tuple(sorted(v)) for i, v in inward.items()}
        self._outward = {i: tuple(sorted(v)) for i, v in outward.items()}

    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def state_offsets(self) -> dict[int, int]:
        """Start index of each node's block in the packed state vector."""
        offsets = {}
        pos = 0
        for i in self.nodes():
            offsets[i] = pos
            pos += self.state_dims[i]
        return offsets

    def control_offsets(self) -> dict[int, int]:
        offsets = {}
        pos = 0
        for i in self.nodes():
            offsets[i] = pos
            pos += self.control_dims[i]
        return offsets

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


def validate(graph: NetworkGraph) -> list[str]:
    """Return every structural violation; an empty list means the graph is sound."""
    problems = []
    if graph.node_count < 1:
        problems.append(f"node_count must be >= 1, got {graph.node_count}")
    ids = set(graph.nodes())
    for j, i in graph.edges:
        if j == i:
            problems.append(f"self-loop ({j}, {i}) is not allowed")
        if j not in ids:
            problems.append(f"edge ({j}, {i}): source {j} outside 1..{graph.node_count}")
        if i not in ids:
            problems.append(f"edge ({j}, {i}): target {i} outside 1..{graph.node_count}")
    for name, dims in (("state_dims", graph.state_dims), ("control_dims", graph.control_dims)):
        if set(dims) != ids:
            problems.append(f"{name} keys must be exactly 1..{graph.node_count}")
        for i, d in sorted(dims.items()):
            if d < 1:
                problems.append(f"{name}[{i}] must be >= 1, got {d}")
    return problems
