"""SIS drift, closed-form Lie derivatives against finite differences, RK4."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from ccbf.arraykernel import _check_lie_terms
from ccbf.dynamics import SisModel, SisParams, neighborhood, rk4_step
from ccbf.errors import (
    DimensionError,
    NumericsError,
    ProtocolStateError,
)
from ccbf.graph import NetworkGraph, in_neighbors

from conftest import PAPER_X0

FD_EPS = 1e-5
FD_TOL = 1e-6


def state_map(x):
    return {i + 1: np.array([float(v)]) for i, v in enumerate(x)}


def test_drift_matches_worked_value(paper_graph, paper_model):
    nbr = neighborhood(paper_graph, state_map(PAPER_X0), 1)
    f = paper_model.drift(nbr, 1)
    assert f.shape == (1,)
    assert abs(f[0] - 0.0144) < 1e-12


def test_cross_control_channel_frozen_value():
    # one edge (2 -> 1), x_1 = 0.1, x_2 = 0.2, beta_12 = 0.25:
    # L_g2 L_f1 h = (1 - 0.1) * 0.25 * 0.2 = 0.045
    g = NetworkGraph(2, [(2, 1)])
    model = SisModel(g, SisParams([[0.5, 0.25], [0.0, 0.5]], [0.3, 0.3], [1.0, 1.0]))
    nbr = neighborhood(g, state_map([0.1, 0.2]), 1)
    table = model.lie_table(nbr, 1)
    assert abs(table.lgj_lf_h[2][0] - 0.045) < 1e-12
    assert abs(table.lg_h[0] - 0.1) < 1e-15
    assert abs(table.lg2_h[0, 0] + 0.1) < 1e-15


def test_missing_neighbor_state_raises(paper_graph, paper_model):
    from ccbf.dynamics import NeighborhoodState

    nbr = NeighborhoodState(np.array([0.1]), {2: np.array([0.2])})
    with pytest.raises(ProtocolStateError):
        paper_model.drift(nbr, 1)


def test_missing_two_hop_raises(paper_graph, paper_model):
    from ccbf.dynamics import NeighborhoodState

    nbr = NeighborhoodState(np.array([0.1]), {2: np.array([0.2]), 3: np.array([0.3])})
    with pytest.raises(ProtocolStateError, match="two-hop"):
        paper_model.lie_table(nbr, 1)


def test_bad_state_shape_raises(paper_model):
    from ccbf.dynamics import NeighborhoodState

    nbr = NeighborhoodState(np.array([0.1, 0.2]), {})
    with pytest.raises(DimensionError):
        paper_model.drift(nbr, 1)
    nbr = NeighborhoodState(np.array([0.1]), {2: np.array([0.2]), 3: np.array([0.3, 0.3])})
    with pytest.raises(DimensionError, match="neighbor 3 state"):
        paper_model.drift(nbr, 1)
    with pytest.raises(DimensionError, match="packed state"):
        rk4_step(paper_model, np.array([0.1, 0.2]), np.zeros(3), 0.01)


def test_params_edge_consistency(paper_graph):
    params = SisParams([[0.5, 0.0, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
                       [0.3, 0.3, 0.3], [0.75, 0.75, 0.75])
    problems = params.validate(paper_graph)
    assert any("edge (2, 1)" in p for p in problems)
    with pytest.raises(DimensionError):
        SisModel(paper_graph, params)


def test_params_edge_consistency_lists_every_mismatch_in_order():
    # beta[0][1] = 0 on edge (2, 1); beta[1][2] and beta[2][0] > 0 with
    # edges (3, 2) and (1, 3) missing; the diagonal needs no edge
    graph = NetworkGraph(3, [(2, 1), (3, 1), (1, 2)])
    params = SisParams([[0.5, 0.0, 0.25], [0.25, 0.5, 0.3], [0.1, 0.0, 0.5]],
                       [0.3, 0.3, 0.3], [0.75, 0.75, 0.75])
    assert params.validate(graph) == [
        "edge (2, 1) present but beta[0][1] is 0",
        "beta[1][2] > 0 but edge (3, 2) is missing",
        "beta[2][0] > 0 but edge (1, 3) is missing",
    ]


@pytest.mark.parametrize("name, value, problem", [
    ("beta", [[0.5, math.nan], [0.3, 0.5]], "beta entries must be finite"),
    ("gamma", [math.nan, 0.3], "gamma entries must be finite"),
    ("u_max", [0.6, math.nan], "u_max entries must be finite"),
    ("u_max", [math.inf, 0.6], "u_max entries must be finite"),
    ("beta", np.full((3, 3), 0.5), "beta must be 2x2, got (3, 3)"),
    ("gamma", [0.3, 0.3, 0.3], "gamma must have length 2, got (3,)"),
    ("u_max", [0.6], "u_max must have length 2, got (1,)"),
    ("beta", [[-0.5, 0.3], [0.3, 0.5]], "beta entries must be >= 0"),
    ("gamma", [0.3, 0.0], "gamma entries must be > 0"),
    ("u_max", [-0.6, 0.6], "u_max entries must be >= 0"),
])
def test_params_validate_names_each_bad_entry(name, value, problem):
    # the two-node model of README's "Library use" with one bad field
    graph = NetworkGraph(2, [(1, 2), (2, 1)])
    fields = dict(beta=[[0.5, 0.3], [0.3, 0.5]], gamma=[0.3, 0.3], u_max=[0.6, 0.6])
    params = SisParams(**{**fields, name: value})
    assert params.validate(graph) == [problem]
    with pytest.raises(DimensionError, match=re.escape(problem)):
        SisModel(graph, params)


def _lf_h(model, graph, x, i):
    return -float(model.drift(neighborhood(graph, state_map(x), i), i)[0])


def _fd(func, x, direction, eps=FD_EPS):
    return (func(x + eps * direction) - func(x - eps * direction)) / (2.0 * eps)


def _random_instances(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 5))
        edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                 if j != i and rng.random() < 0.7]
        beta = np.zeros((n, n))
        for j, i in edges:
            beta[i - 1, j - 1] = rng.uniform(0.05, 0.6)
        beta[np.diag_indices(n)] = rng.uniform(0.05, 0.6, n)
        params = SisParams(beta, rng.uniform(0.1, 0.5, n), rng.uniform(0.1, 1.0, n))
        graph = NetworkGraph(n, edges)
        yield graph, SisModel(graph, params), rng.uniform(0.05, 0.95, n)


def test_lie_table_matches_finite_differences():
    """Every closed form in the table is pinned to a central difference."""
    rng = np.random.default_rng(42)
    for graph, model, x in _random_instances(rng, 40):
        for i in graph.nodes():
            nbr = neighborhood(graph, state_map(x), i)
            table = model.lie_table(nbr, i)
            f_i = float(model.drift(nbr, i)[0])
            assert abs(table.lf_h + f_i) < 1e-12

            def lf(xv, node=i):
                return _lf_h(model, graph, xv, node)

            e_i = np.zeros(len(x))
            e_i[i - 1] = 1.0
            # second derivatives along the node's own drift and control fields
            assert abs(_fd(lf, x, e_i * f_i) - table.lf2_h) < FD_TOL
            assert abs(_fd(lf, x, e_i * (-x[i - 1])) - table.lg_lf_h[0]) < FD_TOL
            # h's gradient channels
            def lg_h_of(xv):
                return float(xv[i - 1])

            assert abs(_fd(lg_h_of, x, e_i * f_i) - table.lf_lg_h[0]) < FD_TOL
            assert abs(_fd(lg_h_of, x, e_i * (-x[i - 1])) - table.lg2_h[0, 0]) < FD_TOL
            # neighbor channels
            for j in in_neighbors(graph, i):
                e_j = np.zeros(len(x))
                e_j[j - 1] = 1.0
                f_j = float(model.drift(neighborhood(graph, state_map(x), j), j)[0])
                assert abs(_fd(lf, x, e_j * f_j) - table.lfj_lf_h[j]) < FD_TOL
                assert abs(_fd(lf, x, e_j * (-x[j - 1])) - table.lgj_lf_h[j][0]) < FD_TOL
                assert table.lgj_lf_h[j][0] >= 0.0


def test_rk4_exponential_decay_single_step():
    g = NetworkGraph(1, [])
    model = SisModel(g, SisParams([[0.0]], [1.0], [0.0]))
    x1 = rk4_step(model, np.array([1.0]), np.array([0.0]), 0.1)
    assert abs(x1[0] - 0.9048375) < 1e-12


def test_rk4_matches_reference_implementation(paper_model):
    """Packed integrator against an independently written RK4."""
    beta = paper_model.params.beta
    gamma = paper_model.params.gamma

    def deriv(x, u):
        return -(gamma + u) * x + (1.0 - x) * (beta @ x)

    rng = np.random.default_rng(3)
    x_ref = np.array(PAPER_X0)
    x_sys = np.array(PAPER_X0)
    dt = 0.01
    for _ in range(100):
        u = rng.uniform(0.0, 0.75, 3)
        k1 = deriv(x_ref, u)
        k2 = deriv(x_ref + dt / 2 * k1, u)
        k3 = deriv(x_ref + dt / 2 * k2, u)
        k4 = deriv(x_ref + dt * k3, u)
        x_ref = x_ref + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x_sys = rk4_step(paper_model, x_sys, u, dt)
        assert np.max(np.abs(x_sys - x_ref)) < 1e-12


def test_packed_derivative_matches_per_node_path(paper_graph, paper_model):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, 3)
        u = rng.uniform(0.0, 0.75, 3)
        fast = paper_model.packed_flow(u)(x)
        states = state_map(x)
        slow = np.array([
            float(paper_model.drift(neighborhood(paper_graph, states, i), i)[0]
                  - states[i][0] * u[i - 1])
            for i in paper_graph.nodes()
        ])
        assert np.max(np.abs(fast - slow)) < 1e-14


def test_packed_derivative_rejects_wrong_control_shape(paper_model):
    x = np.array(PAPER_X0)
    for u in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(DimensionError, match="packed control"):
            rk4_step(paper_model, x, u, 0.01)


def test_rk4_raises_numerics_error_on_nan(paper_model):
    with pytest.raises(NumericsError, match="node"):
        rk4_step(paper_model, np.array([np.nan, 0.1, 0.1]), np.zeros(3), 0.01)


def test_clamp_state_reports_magnitude(paper_model):
    clipped, mag = paper_model.clamp_state(np.array([-0.25, 0.5, 1.5]))
    assert np.all(clipped >= 0.0) and np.all(clipped <= 1.0)
    assert abs(mag - 0.5) < 1e-15


def test_neighborhood_snapshot_structure(paper_graph):
    states = state_map([0.1, 0.2, 0.3])
    nbr = neighborhood(paper_graph, states, 1)
    assert set(nbr.one_hop) == {2, 3}
    assert set(nbr.two_hop) == {2, 3}
    assert set(nbr.two_hop[2].one_hop) == {1, 3}
    assert nbr.two_hop[2].two_hop == {}
    assert nbr.two_hop[3].self_state[0] == 0.3


def _lie_terms(n: int = 5, degree: int = 2) -> dict[str, np.ndarray]:
    """Finite Lie terms of n nodes with `degree` in-edges each, and the edges' targets."""
    rng = np.random.default_rng(7)
    terms = {name: rng.uniform(-1.0, 1.0, n) for name in ("x", "f", "lf2_h", "lg_lf_h")}
    terms.update({name: rng.uniform(-1.0, 1.0, n * degree) for name in ("lfj_lf_h", "lgj_lf_h")})
    terms["target"] = np.repeat(np.arange(n), degree)
    return terms


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("term", ["lfj_lf_h", "lgj_lf_h", "lg_lf_h"])
def test_lie_probe_names_lowest_node_with_a_non_finite_term(term, bad):
    _check_lie_terms(**_lie_terms())
    for nodes in ([4], [2, 5], [3, 1]):
        terms = _lie_terms()
        for node in nodes:
            # only this term goes bad, on one in-edge of each bad node
            edge = np.flatnonzero(terms["target"] == node - 1)[node % 2]
            terms[term][edge if term != "lg_lf_h" else node - 1] = bad
        with pytest.raises(NumericsError, match=rf"^node {min(nodes)}: non-finite Lie derivative"):
            _check_lie_terms(**terms)


def test_lie_probe_overflow_of_finite_terms_does_not_raise():
    terms = _lie_terms(3)
    target = terms.pop("target")
    terms = {name: np.full(v.shape, 1.5e308) for name, v in terms.items()}
    with np.errstate(over="ignore"):
        assert not math.isfinite(float(sum(v.sum() for v in terms.values())))
        _check_lie_terms(**terms, target=target)
