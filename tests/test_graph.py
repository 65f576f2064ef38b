"""Structure and ordering guarantees of the influence graph."""

from __future__ import annotations

import numpy as np
import pytest

from ccbf.graph import EdgeLayout, NetworkGraph, edge_layout, in_neighbors, out_neighbors

COMPLETE3 = [(2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3)]


def test_complete_digraph_in_neighbors_ascending():
    g = NetworkGraph(3, COMPLETE3)
    assert in_neighbors(g, 1) == (2, 3)
    assert in_neighbors(g, 2) == (1, 3)
    assert in_neighbors(g, 3) == (1, 2)


def test_chain_out_neighbors():
    g = NetworkGraph(3, [(1, 2), (2, 3)])
    assert out_neighbors(g, 2) == (3,)
    assert out_neighbors(g, 3) == ()
    assert in_neighbors(g, 1) == ()


def test_unknown_node_raises_index_error():
    g = NetworkGraph(3, COMPLETE3)
    with pytest.raises(IndexError):
        in_neighbors(g, 0)
    with pytest.raises(IndexError):
        out_neighbors(g, 4)


def test_duplicate_edges_collapse():
    g = NetworkGraph(2, [(1, 2), (1, 2), (1, 2)])
    assert g.edges == ((1, 2),)
    assert in_neighbors(g, 2) == (1,)


def test_graph_rejects_bad_structure():
    with pytest.raises(ValueError, match="self-loop"):
        NetworkGraph(2, [(1, 2), (1, 1)])
    with pytest.raises(ValueError, match="source 3"):
        NetworkGraph(2, [(3, 2)])
    with pytest.raises(ValueError, match="target 0"):
        NetworkGraph(2, [(2, 0)])
    with pytest.raises(ValueError, match="node_count"):
        NetworkGraph(0, [])


def test_duality_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.4
        ]
        g = NetworkGraph(n, edges)
        for i in g.nodes():
            assert list(in_neighbors(g, i)) == sorted(in_neighbors(g, i))
            for j in in_neighbors(g, i):
                assert i in out_neighbors(g, j)
            for j in out_neighbors(g, i):
                assert i in in_neighbors(g, j)


def loop_edge_layout(graph: NetworkGraph) -> EdgeLayout:
    """edge_layout written as one element at a time: the reference it must match."""
    nodes = graph.nodes()
    n = graph.node_count
    outs = [out_neighbors(graph, j) for j in nodes]
    w_out = max((len(v) for v in outs), default=0)
    source, target = [], []
    edge_of: dict[tuple[int, int], int] = {}
    for i in nodes:
        for j in in_neighbors(graph, i):
            edge_of[j, i] = len(source)
            source.append(j - 1)
            target.append(i - 1)
    out_slot = np.zeros((n, w_out), dtype=np.intp)
    out_mask = np.zeros((n, w_out), dtype=bool)
    for j, ks in zip(nodes, outs):
        for d, k in enumerate(ks):
            out_slot[j - 1, d] = edge_of[j, k]
            out_mask[j - 1, d] = True
    return EdgeLayout(np.array(source, dtype=np.intp), np.array(target, dtype=np.intp),
                      out_slot, out_mask)


def _random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        p = float(rng.random())
        yield NetworkGraph(n, [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                               if j != i and rng.random() < p])


@pytest.mark.parametrize("graph", [
    NetworkGraph(1, []),
    NetworkGraph(4, []),
    NetworkGraph(3, [(1, 2), (2, 3)]),  # node 1 has no in-neighbors
    NetworkGraph(4, [(1, 4), (2, 4), (3, 4)]),  # only node 4 has any
    NetworkGraph(3, COMPLETE3),
    NetworkGraph(6, [(j, i) for j in range(1, 7) for i in range(1, 7) if j != i]),
    *_random_graphs(),
], ids=repr)
def test_edge_layout_matches_the_loop_reference(graph):
    got, want = edge_layout(graph), loop_edge_layout(graph)
    assert EdgeLayout._fields == ("source", "target", "out_slot", "out_mask")
    for name, g, w in zip(EdgeLayout._fields, got, want):
        assert g.dtype == w.dtype, name
        assert g.dtype in (np.intp, np.bool_), name
        assert g.shape == w.shape and np.array_equal(g, w), name
