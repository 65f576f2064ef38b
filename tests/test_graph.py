"""Structure and ordering guarantees of the influence graph."""

from __future__ import annotations

import numpy as np
import pytest

from ccbf.graph import NetworkGraph, in_neighbors, out_neighbors

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
