"""Allocation protocol: partition, coordinate, full negotiation."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from ccbf.arraykernel import ArrayKernel, partition_arrays
from ccbf.barrier import (BarrierSpec, Psi2Decomposition, QuadraticForm, decompose_psi2,
                          max_capability)
from ccbf.collab import (
    CollabLedger,
    CollabMessage,
    collaborate,
    collaborative_safety,
    coordinate,
    partition,
)
from ccbf.dynamics import SisModel, SisParams, neighborhood
from ccbf.errors import (
    DegenerateWeightsError,
    ProtocolStallError,
    TerminallyInfeasibleError,
)
from ccbf.geometry import ControlRegion
from ccbf.graph import NetworkGraph, edge_layout, in_neighbors

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_XBAR
from test_array_protocol import _protocol_kernel


def _const(c: float) -> QuadraticForm:
    return QuadraticForm(c, np.array([0.0]), np.array([[0.0]]))


def _two_node_graph() -> NetworkGraph:
    return NetworkGraph(2, [(1, 2), (2, 1)])


def test_partition_proportional():
    shares = partition(-0.3, {2: 1.0, 3: 3.0})
    assert shares[2] == pytest.approx(-0.075, abs=1e-15)
    assert shares[3] == pytest.approx(-0.225, abs=1e-15)
    assert sum(shares.values()) == pytest.approx(-0.3, abs=1e-15)


def test_partition_negligible_weight_gets_exact_zero():
    shares = partition(-1.0, {2: 1.0, 3: 1e-15})
    assert shares[3] == 0.0
    assert shares[2] == -1.0


def test_partition_degenerate_raises():
    with pytest.raises(DegenerateWeightsError):
        partition(-1.0, {2: 0.0, 3: 1e-14})


def test_partition_empty_is_empty():
    assert partition(-1.0, {}) == {}


def test_coordinate_feasible_demand():
    graph = _two_node_graph()
    ledger = CollabLedger(node=2, region=ControlRegion(((0.0, 0.75),)))
    region, eps = coordinate(graph, 2, ledger, {1: np.array([0.5])}, {1: -0.2})
    assert eps == {1: 0.0}
    lo, hi = region.interval()
    assert lo == pytest.approx(0.4, abs=1e-15)
    assert hi == pytest.approx(0.75, abs=1e-15)
    assert ledger.in_req[1] == pytest.approx(-0.2, abs=1e-15)
    assert not region.frozen


def test_coordinate_infeasible_freezes_and_refuses():
    graph = _two_node_graph()
    ledger = CollabLedger(node=2, region=ControlRegion(((0.0, 0.75),)))
    region, eps = coordinate(graph, 2, ledger, {1: np.array([0.5])}, {1: -0.5})
    # demand u >= 1.0 against box [0, 0.75]: freeze at 0.75, refuse the gap
    assert region.frozen
    assert region.frozen_point[0] == pytest.approx(0.75, abs=1e-12)
    assert eps[1] == pytest.approx(0.125, abs=1e-12)
    assert ledger.in_req[1] == pytest.approx(-0.375, abs=1e-12)


def test_coordinate_dead_channel_refuses_net_demand():
    graph = _two_node_graph()
    ledger = CollabLedger(node=2, region=ControlRegion(((0.0, 0.75),)))
    region, eps = coordinate(graph, 2, ledger, {1: np.array([0.0])}, {1: -0.3})
    assert eps[1] == pytest.approx(0.3, abs=1e-15)
    assert ledger.in_req[1] == 0.0
    assert not region.frozen


def test_synthetic_negotiation_settles_in_one_pass():
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(-0.3)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.2)),
    }
    messages: list[CollabMessage] = []
    out = collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)},
                               messages=messages)
    assert out.outer_rounds == 2
    assert out.sub_rounds == 1
    assert not out.cap_tripped
    assert out.ledgers[1].out_alloc[2] == pytest.approx(-0.3, abs=1e-15)
    assert out.ledgers[2].out_alloc[1] == pytest.approx(0.2, abs=1e-15)
    assert out.ledgers[2].in_req[1] == pytest.approx(-0.3, abs=1e-15)
    lo, hi = out.regions[2].interval()
    assert lo == pytest.approx(0.3, abs=1e-15)
    assert hi == 1.0
    assert all(L.deficit >= -1e-9 for L in out.ledgers.values())

    kinds = [(m.kind, m.from_node, m.to_node) for m in messages]
    assert kinds == [("request", 1, 2), ("request", 2, 1),
                     ("adjust", 1, 2), ("adjust", 2, 1)]
    assert all(m.sub_round == 1 for m in messages)


def test_self_sufficient_network_skips_negotiation():
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(0.1)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.2)),
    }
    messages: list[CollabMessage] = []
    out = collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)},
                               messages=messages)
    assert out.outer_rounds == 1
    assert out.sub_rounds == 0
    assert messages == []
    assert not out.regions[1].requests
    assert not out.regions[2].requests


def test_terminal_infeasibility_detected_at_cap():
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(-1.5)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.0)),
    }
    with pytest.raises(TerminallyInfeasibleError) as err:
        collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)})
    assert err.value.nodes == (1,)


@pytest.mark.parametrize("n", [1, 4])
def test_array_sums_on_an_edge_free_network_stay_float(n):
    # np.bincount returns integer zeros when it is given no terms at all
    graph = NetworkGraph(n, [])
    kernel = _protocol_kernel(ArrayKernel, graph, np.zeros(n), np.ones(n))
    blocks = np.zeros(n), np.zeros(n), np.zeros(0)
    _, _, _, capability, allocated, *_ = kernel.negotiate(np.full(n, 0.1), *blocks, None)
    assert allocated.dtype == capability.dtype == np.float64
    shares = partition_arrays(np.full(n, -0.5), np.zeros(0), np.ones(0, dtype=bool),
                              edge_layout(graph).target)
    assert shares.dtype == np.float64 and shares.shape == (0,)
    with pytest.raises(TerminallyInfeasibleError):
        kernel.negotiate(np.full(n, -1.0), *blocks, None)


def test_walked_back_commitment_is_exact():
    # node 2 can provide at most 1.0 * u_max = 1.0 of the 1.5 asked
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(-1.5)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.0)),
    }
    ledgers = {i: CollabLedger(node=i, region=ControlRegion(((0.0, 1.0),))) for i in (1, 2)}
    for i in (1, 2):
        ledgers[i].capability, ledgers[i].capability_point = max_capability(
            decomps[i], ledgers[i].region)
    subs = collaborate(graph, decomps, ledgers)
    assert subs == 2
    assert ledgers[1].out_alloc[2] == pytest.approx(-1.0, abs=1e-12)
    assert ledgers[2].in_req[1] == pytest.approx(-1.0, abs=1e-12)
    assert ledgers[1].constrained == {2}
    # walked-back demand sits exactly on the box edge
    lo, hi = ledgers[2].region.interval()
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == 1.0


def test_outer_cap_trip_without_terminal_failure():
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(-0.3)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.2)),
    }
    out = collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)},
                               outer_cap=1)
    assert out.cap_tripped
    assert out.outer_rounds == 1
    assert out.sub_rounds == 0


def test_inner_cap_stall_raises_with_ledgers():
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([1.0])}, _const(-0.3)),
        2: Psi2Decomposition({1: np.array([0.5])}, _const(0.2)),
    }
    with pytest.raises(ProtocolStallError) as err:
        collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)},
                             inner_cap=0)
    assert err.value.ledgers is not None
    assert set(err.value.ledgers) == {1, 2}


def test_degenerate_weights_fall_back_to_uniform(caplog):
    graph = _two_node_graph()
    decomps = {
        1: Psi2Decomposition({2: np.array([0.0])}, _const(-0.5)),
        2: Psi2Decomposition({1: np.array([0.0])}, _const(1.0)),
    }
    with caplog.at_level(logging.WARNING, logger="ccbf.collab"):
        with pytest.raises(TerminallyInfeasibleError) as err:
            collaborative_safety(graph, decomps, {1: ((0.0, 1.0),), 2: ((0.0, 1.0),)})
    assert err.value.nodes == (1,)
    assert any("negligible" in rec.message for rec in caplog.records)


def _paper_decomps(x, spec_by_node=None):
    graph = NetworkGraph(3, [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j])
    model = SisModel(graph, SisParams(PAPER_BETA, PAPER_GAMMA, PAPER_UMAX))
    states = {i: np.array([x[i - 1]]) for i in range(1, 4)}
    decomps = {}
    for i in range(1, 4):
        spec = (spec_by_node or {}).get(i, BarrierSpec(PAPER_XBAR[i - 1]))
        lie = model.lie_table(neighborhood(graph, states, i), i)
        decomps[i] = decompose_psi2(spec, lie, states[i], np.array([0.0]))
    boxes = {i: ((0.0, PAPER_UMAX[i - 1]),) for i in range(1, 4)}
    return graph, decomps, boxes


def test_paper_network_agreement_certifies_safety():
    # node states pushed near their thresholds so real negotiation happens
    graph, decomps, boxes = _paper_decomps([0.098, 0.119, 0.177])
    out = collaborative_safety(graph, decomps, boxes)
    assert all(L.deficit >= -1e-9 for L in out.ledgers.values())

    # honoring the agreed regions certifies psi2 >= margin for every node
    rng = np.random.default_rng(3)
    for _ in range(25):
        picks = {}
        for i in (1, 2, 3):
            lo, hi = out.regions[i].interval()
            picks[i] = np.array([rng.uniform(lo, hi)])
        for i in (1, 2, 3):
            u_i = out.ledgers[i].capability_point
            others = {j: picks[j] for j in decomps[i].coupling}
            assert decomps[i].reassemble(u_i, others) >= -1e-9


def test_protocol_is_deterministic():
    args1 = _paper_decomps([0.098, 0.119, 0.177])
    args2 = _paper_decomps([0.098, 0.119, 0.177])
    msgs1: list[CollabMessage] = []
    msgs2: list[CollabMessage] = []
    out1 = collaborative_safety(*args1, messages=msgs1)
    out2 = collaborative_safety(*args2, messages=msgs2)
    assert msgs1 == msgs2
    assert out1.outer_rounds == out2.outer_rounds
    assert out1.sub_rounds == out2.sub_rounds
    for i in (1, 2, 3):
        assert out1.regions[i].interval() == out2.regions[i].interval()
        assert out1.ledgers[i].out_alloc == out2.ledgers[i].out_alloc


def test_ledger_mirror_invariant():
    graph, decomps, boxes = _paper_decomps([0.098, 0.119, 0.177])
    out = collaborative_safety(graph, decomps, boxes)
    for i in (1, 2, 3):
        for j in in_neighbors(graph, i):
            mine = out.ledgers[i].out_alloc.get(j, 0.0)
            theirs = out.ledgers[j].in_req.get(i, 0.0)
            assert mine == pytest.approx(theirs, abs=1e-12)
