"""Barrier chain values, psi2 grouping, and capability maximization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccbf.arraykernel import ArrayKernel
from ccbf.barrier import (
    BarrierSpec,
    Psi2Decomposition,
    QuadraticForm,
    barrier_arrays,
    decompose_psi2,
    max_capability,
    psi0,
    psi1,
)
from ccbf.collab import DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP
from ccbf.dynamics import SisModel, SisParams, neighborhood, rk4_step
from ccbf.errors import DimensionError, EmptyRegionError, NumericsError
from ccbf.geometry import ControlRegion, Halfspace
from ccbf.graph import NetworkGraph

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_X0, PAPER_XBAR


def _paper_setup():
    graph = NetworkGraph(3, [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j])
    model = SisModel(graph, SisParams(PAPER_BETA, PAPER_GAMMA, PAPER_UMAX))
    states = {i: np.array([PAPER_X0[i - 1]]) for i in range(1, 4)}
    return graph, model, states


def test_psi_chain_frozen_values():
    graph, model, states = _paper_setup()
    spec = BarrierSpec(PAPER_XBAR[0])
    nbr = neighborhood(graph, states, 1)
    lie = model.lie_table(nbr, 1)
    assert psi0(spec, states[1]) == pytest.approx(0.06, abs=1e-15)
    assert psi1(spec, lie, states[1], np.array([0.0])) == pytest.approx(0.0456, abs=1e-12)
    assert psi1(spec, lie, states[1], np.array([0.75])) == pytest.approx(0.0756, abs=1e-12)


def test_decomposition_frozen_blocks():
    graph, model, states = _paper_setup()
    spec = BarrierSpec(PAPER_XBAR[0])
    lie = model.lie_table(neighborhood(graph, states, 1), 1)
    decomp = decompose_psi2(spec, lie, states[1], np.array([0.0]))
    assert decomp.self_term.constant == pytest.approx(0.02112, abs=1e-12)
    assert decomp.self_term.linear[0] == pytest.approx(0.1005, abs=1e-12)
    assert decomp.self_term.quadratic[0, 0] == pytest.approx(-0.04, abs=1e-15)
    assert sorted(decomp.coupling) == [2, 3]
    assert decomp.coupling[2][0] == pytest.approx(0.0024, abs=1e-12)
    assert decomp.coupling[3][0] == pytest.approx(0.0048, abs=1e-12)


def test_reassembly_matches_ungrouped_expansion():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                 if i != j and rng.random() < 0.7]
        graph = NetworkGraph(n, edges)
        beta = np.zeros((n, n))
        for i in range(n):
            beta[i, i] = rng.uniform(0.1, 0.8)
        for (j, i) in edges:
            beta[i - 1, j - 1] = rng.uniform(0.05, 0.5)
        params = SisParams(beta, rng.uniform(0.1, 0.6, size=n), rng.uniform(0.2, 1.0, size=n))
        model = SisModel(graph, params)
        states = {i: rng.uniform(0.01, 0.6, size=1) for i in range(1, n + 1)}
        i = int(rng.integers(1, n + 1))
        spec = BarrierSpec(rng.uniform(0.05, 0.5), eta=rng.uniform(0.5, 2.0),
                           kappa=rng.uniform(0.5, 2.0))
        lie = model.lie_table(neighborhood(graph, states, i), i)
        u_i = rng.uniform(0.0, 1.0, size=1)
        udot = rng.uniform(-0.5, 0.5, size=1)
        controls = {j: rng.uniform(0.0, 1.0, size=1) for j in lie.lgj_lf_h}
        decomp = decompose_psi2(spec, lie, states[i], udot)

        # ungrouped expansion, term by term, straight off the lie table
        h0 = spec.threshold - states[i][0]
        dot_lf = (lie.lf2_h + sum(lie.lfj_lf_h.values()) + float(lie.lg_lf_h @ u_i)
                  + sum(float(lie.lgj_lf_h[j] @ controls[j]) for j in lie.lgj_lf_h))
        dot_lg_u = float(lie.lf_lg_h @ u_i) + float(u_i @ lie.lg2_h @ u_i) + float(lie.lg_h @ udot)
        hdot = lie.lf_h + float(lie.lg_h @ u_i)
        direct = dot_lf + dot_lg_u + spec.eta * hdot + spec.kappa * (hdot + spec.eta * h0)

        assert decomp.reassemble(u_i, controls) == pytest.approx(direct, abs=1e-12)


def test_psi2_matches_psi1_telescope():
    """Central difference of psi1 along the flow equals psi2 - kappa psi1."""
    graph, model, states = _paper_setup()
    rng = np.random.default_rng(5)
    dt = 1e-4
    for trial in range(10):
        x = rng.uniform(0.01, 0.5, size=3)
        u = rng.uniform(0.0, 0.75, size=3)
        plus = rk4_step(model, x, u, dt)
        minus = rk4_step(model, x, u, -dt)

        def psi1_at(xvec, i, spec):
            sts = {k: np.array([xvec[k - 1]]) for k in range(1, 4)}
            lie = model.lie_table(neighborhood(graph, sts, i), i)
            return psi1(spec, lie, sts[i], np.array([u[i - 1]]))

        for i in range(1, 4):
            spec = BarrierSpec(PAPER_XBAR[i - 1])
            sts = {k: np.array([x[k - 1]]) for k in range(1, 4)}
            lie = model.lie_table(neighborhood(graph, sts, i), i)
            decomp = decompose_psi2(spec, lie, sts[i], np.array([0.0]))
            controls = {j: np.array([u[j - 1]]) for j in decomp.coupling}
            p2 = decomp.reassemble(np.array([u[i - 1]]), controls)
            p1 = psi1_at(x, i, spec)
            fd = (psi1_at(plus, i, spec) - psi1_at(minus, i, spec)) / (2.0 * dt)
            assert fd == pytest.approx(p2 - spec.kappa * p1, abs=1e-4)


def test_max_capability_1d_boundary():
    graph, model, states = _paper_setup()
    spec = BarrierSpec(PAPER_XBAR[0])
    lie = model.lie_table(neighborhood(graph, states, 1), 1)
    decomp = decompose_psi2(spec, lie, states[1], np.array([0.0]))
    region = ControlRegion(((0.0, 0.75),))
    val, arg = max_capability(decomp, region)
    # stationary point 0.1005 / 0.08 lies past the box, so the edge wins
    assert arg[0] == pytest.approx(0.75, abs=1e-12)
    assert val == pytest.approx(0.073995, abs=1e-12)


def test_max_capability_1d_interior_stationary_point():
    decomp = Psi2Decomposition({}, QuadraticForm(0.0, np.array([0.04]), np.array([[-0.04]])))
    val, arg = max_capability(decomp, ControlRegion(((0.0, 1.0),)))
    assert arg[0] == pytest.approx(0.5, abs=1e-12)
    assert val == pytest.approx(0.01, abs=1e-15)


def test_max_capability_respects_requests():
    decomp = Psi2Decomposition({}, QuadraticForm(0.0, np.array([1.0]), np.array([[0.0]])))
    region = ControlRegion(((0.0, 1.0),), (Halfspace(np.array([-1.0]), 0.4),))
    val, arg = max_capability(decomp, region)
    assert arg[0] == pytest.approx(0.4, abs=1e-12)
    assert val == pytest.approx(0.4, abs=1e-12)


def test_max_capability_frozen_region():
    decomp = Psi2Decomposition({}, QuadraticForm(1.0, np.array([2.0]), np.array([[-1.0]])))
    region = ControlRegion(((0.0, 1.0),), frozen_point=np.array([0.25]))
    val, arg = max_capability(decomp, region)
    assert arg[0] == 0.25
    assert val == pytest.approx(1.0 + 0.5 - 0.0625, abs=1e-15)


def test_max_capability_empty_region_raises():
    decomp = Psi2Decomposition({}, QuadraticForm(0.0, np.array([1.0]), np.array([[0.0]])))
    region = ControlRegion(((0.0, 1.0),), (Halfspace(np.array([1.0]), -2.0),))
    with pytest.raises(EmptyRegionError):
        max_capability(decomp, region)


def test_max_capability_rejects_vector_regions():
    flat = QuadraticForm(0.0, np.array([1.0]), np.array([[0.0]]))
    plane = QuadraticForm(0.0, np.array([1.0, 1.0]), -np.eye(2))
    box = ((0.0, 1.0), (0.0, 1.0))
    for form, region in [
        (plane, ControlRegion(box)),
        (plane, ControlRegion(box, frozen_point=np.array([0.5, 0.5]))),
        (flat, ControlRegion(box)),
        (plane, ControlRegion(((0.0, 1.0),))),
    ]:
        with pytest.raises(DimensionError):
            max_capability(Psi2Decomposition({}, form), region)


def test_quadratic_form_shape_checks():
    with pytest.raises(DimensionError):
        QuadraticForm(0.0, np.array([1.0, 2.0]), np.array([[1.0]]))
    form = QuadraticForm(0.0, np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(DimensionError):
        form.value(np.array([1.0, 2.0]))


def test_barrier_spec_validation():
    with pytest.raises(DimensionError):
        BarrierSpec(0.1, eta=0.0)
    with pytest.raises(DimensionError):
        BarrierSpec(0.1, kappa=-1.0)
    # NaN fails every comparison, so a sign check alone lets it through
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericsError, match="^barrier threshold must be finite$"):
            BarrierSpec(bad)
        for gain in ("eta", "kappa"):
            with pytest.raises(NumericsError, match="^chain gains eta and kappa must be finite$"):
                BarrierSpec(0.1, **{gain: bad})


def test_decompose_udot_shape_check():
    graph, model, states = _paper_setup()
    spec = BarrierSpec(PAPER_XBAR[0])
    lie = model.lie_table(neighborhood(graph, states, 1), 1)
    with pytest.raises(DimensionError):
        decompose_psi2(spec, lie, states[1], np.array([0.0, 0.0]))


def _random_network(seed: int):
    """Seeded SIS network with random in-degrees, at least one of them 0.

    Some on-node rates and states are exactly 0.0 or -0.0: parse_config
    keeps the sign of `model.beta` and `sim.x0` entries, and clamp_state
    keeps it too.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    isolated = int(rng.integers(1, n + 1))
    edges = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        degree = 0 if i == isolated else int(rng.integers(0, n))
        edges += [(int(j), i) for j in rng.choice(others, size=degree, replace=False)]
    graph = NetworkGraph(n, edges)
    beta = np.zeros((n, n))
    beta[np.diag_indices(n)] = rng.choice([0.0, -0.0, *rng.uniform(0.0, 0.8, 4)], n)
    for j, i in edges:
        beta[i - 1, j - 1] = rng.uniform(0.05, 1.0)
    model = SisModel(graph, SisParams(beta, rng.uniform(0.05, 0.6, n), rng.uniform(0.0, 1.0, n)))
    x = rng.uniform(0.0, 1.0, n)
    x[rng.random(n) < 0.15] = 0.0
    x[rng.random(n) < 0.15] = 1.0
    x[rng.random(n) < 0.15] = -0.0
    specs = {i: BarrierSpec(rng.uniform(0.05, 0.9), eta=rng.uniform(0.2, 3.0),
                            kappa=rng.uniform(0.2, 3.0)) for i in graph.nodes()}
    history = [rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)]
    return graph, model, x, specs, history


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _kernel_pass(model: SisModel, specs, x: np.ndarray, udot: np.ndarray):
    """The psi1 at zero control and the psi2 constant, linear, quadratic and
    coupling blocks that ArrayKernel.step builds at x."""
    n = model.graph.node_count
    kernel = ArrayKernel(model, barrier_arrays(specs, model.graph.nodes()), np.zeros(n),
                         np.zeros(n), model.params.u_max, outer_cap=DEFAULT_OUTER_CAP,
                         inner_cap=DEFAULT_INNER_CAP, weights_mode="coupling")
    handed = []
    kernel.settle = lambda *args: handed.append(args[1:-2])
    kernel.step(x, udot, None, False)
    return handed[0]


# a seed of _random_network whose network has no edges at all (K = 0)
EDGE_FREE_SEED = 38


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(["zero", "backward_difference"]))
@example(seed=EDGE_FREE_SEED, policy="zero")
def test_batched_decomposition_is_bit_identical_to_per_node(seed, policy):
    graph, model, x, specs, history = _random_network(seed)
    udot = ((history[1] - history[0]) / 0.01 if policy == "backward_difference"
            else np.zeros(graph.node_count))
    blocks = _kernel_pass(model, specs, x, udot)
    base, constant, linear, quadratic, coupling = blocks
    states = {i: np.array([x[i - 1]]) for i in graph.nodes()}
    layout = model.layout
    assert all(v.dtype == np.float64 for v in blocks)
    assert coupling.shape == layout.source.shape
    for i in graph.nodes():
        table = model.lie_table(neighborhood(graph, states, i), i)
        ref = decompose_psi2(specs[i], table, states[i], udot[i - 1:i])
        assert _bits(base[i - 1]) == _bits(psi1(specs[i], table, states[i], np.zeros(1)))
        assert constant[i - 1] == ref.self_term.constant
        assert _bits(constant[i - 1]) == _bits(ref.self_term.constant)
        assert _bits(linear[i - 1:i]) == _bits(ref.self_term.linear)
        assert _bits(quadratic[i - 1:i]) == _bits(ref.self_term.quadratic)
        edges = layout.target == i - 1
        row = layout.source[edges] + 1
        assert tuple(row.tolist()) == tuple(ref.coupling)
        for c, j in enumerate(ref.coupling):
            assert _bits(coupling[edges][c:c + 1]) == _bits(ref.coupling[j])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_lie_terms_name_lowest_non_finite_node(seed, data):
    graph, model, x, specs, _ = _random_network(seed)
    bad = data.draw(st.integers(1, graph.node_count))
    x[bad - 1] = np.nan
    states = {i: np.array([x[i - 1]]) for i in graph.nodes()}
    expected = None
    for i in graph.nodes():
        try:
            model.lie_table(neighborhood(graph, states, i), i)
        except NumericsError:
            expected = i
            break
    assert expected is not None and expected <= bad
    with pytest.raises(NumericsError, match=rf"^node {expected}: "):
        _kernel_pass(model, specs, x, np.zeros(graph.node_count))
