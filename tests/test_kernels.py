"""The float step kernel against the array step kernel, bit for bit.

`run_scenario` steps a small network on `FloatKernel` and a large one on
`ArrayKernel`.  Both have one interface, and every test here drives them
through it by the same call.  The same random instances as
test_array_protocol.py drive both kernels' negotiation and filter; random
SIS models and states drive their whole step; and whole runs are compared
with each kernel forced through `simulate.FLOAT_KERNEL_NODES`.  No bench
workload refuses a request, so the output digests do not cover the
protocol's branches: the tests assert that every branch was reached.
"""

from __future__ import annotations

import inspect
import itertools
import logging
from types import SimpleNamespace

import numpy as np
import pytest

import ccbf.simulate as simulate_mod
from ccbf.arraykernel import (ArrayKernel, _capability, _certificate_choice, _self_terms,
                              safety_filter_arrays)
from ccbf.barrier import BarrierSpec, QuadraticForm, barrier_arrays
from ccbf.collab import message_rows
from ccbf.config import parse_config
from ccbf.dynamics import SisModel, SisParams
from ccbf.errors import CcbfError
from ccbf.floatkernel import FloatKernel, _certificate_point, filter_point
from ccbf.geometry import ControlRegion
from ccbf.graph import NetworkGraph
from ccbf.simulate import run_scenario, safety_filter

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_X0, PAPER_XBAR, bench_config_text
from test_array_protocol import _bits, _protocol_kernel, _random_form, _random_instance, _value


def _model_on(graph: NetworkGraph, rng, scale: float = 1.0, idle: float = 0.0) -> SisModel:
    """A SIS model on graph with random rates; beta is positive exactly on the edges.

    Each on-node rate beta_ii is exactly 0 with probability idle.
    """
    n = graph.node_count
    beta = np.zeros((n, n))
    beta[np.arange(n), np.arange(n)] = rng.uniform(0.0, 0.6, n) * scale
    if idle:
        still = np.flatnonzero(rng.random(n) < idle)
        beta[still, still] = 0.0
    for j, i in graph.edges:
        beta[i - 1, j - 1] = rng.uniform(0.05, 1.0) * scale
    return SisModel(graph, SisParams(beta, rng.uniform(0.1, 0.5, n), rng.uniform(0.0, 1.0, n)))


def _kernels(model, gains, nominal, lo, hi, **options):
    return tuple(kind(model, gains, nominal, lo, hi, **options)
                 for kind in (ArrayKernel, FloatKernel))


def _run(call, caplog):
    """(result, warnings, error) of call(records), with records kept in result."""
    caplog.clear()
    records: list = []
    try:
        result, error = (call(records), records), None
    except (CcbfError, AssertionError) as exc:
        result, error = (None, records), exc
    return result, [(r.name, r.getMessage()) for r in caplog.records], error


def _same_error(got, ref):
    assert type(got) is type(ref)
    if ref is not None:
        assert str(got) == str(ref)
        assert getattr(got, "nodes", None) == getattr(ref, "nodes", None)


def _same_records(got, ref):
    assert [(k, list(e), _bits(s), _bits(p)) for k, e, s, p in got] == \
        [(k, list(e), _bits(s), _bits(p)) for k, e, s, p in ref]


def _same_negotiation(got, ref):
    """Two negotiate results, field by field: a node's hi, which is its
    point where it is frozen, its lo where it is not, and every per-edge
    commitment."""
    lo, hi, frozen, caps, allocated, out_alloc, *rounds = got
    ref_lo, ref_hi, ref_frozen, ref_caps, ref_allocated, ref_out_alloc, *ref_rounds = ref
    frozen, ref_frozen = np.array(frozen, dtype=bool), np.array(ref_frozen, dtype=bool)
    assert frozen.tolist() == ref_frozen.tolist()
    assert _bits(np.array(lo)[~frozen]) == _bits(np.array(ref_lo)[~frozen])
    assert _bits(hi) == _bits(ref_hi)
    assert _bits(caps) == _bits(ref_caps)
    assert _bits(allocated) == _bits(ref_allocated)
    # the ledger mirror: what each requester counts on is what its helper committed
    assert _bits(out_alloc) == _bits(ref_out_alloc)
    assert tuple(rounds) == tuple(ref_rounds)


def _same_step(got, ref):
    u, caps, outer, sub, tripped, relaxed = got
    ref_u, ref_caps, ref_outer, ref_sub, ref_tripped, ref_relaxed = ref
    assert _bits(u) == _bits(ref_u)
    assert _bits(caps) == _bits(ref_caps)
    assert (outer, sub, bool(tripped)) == (ref_outer, ref_sub, bool(ref_tripped))
    assert list(map(bool, relaxed)) == list(map(bool, ref_relaxed))


def test_both_kernels_have_one_interface():
    # every stage takes the same parameters, and negotiate returns the same fields
    for stage in ("step", "settle", "negotiate", "advance"):
        assert list(inspect.signature(getattr(ArrayKernel, stage)).parameters) == \
            list(inspect.signature(getattr(FloatKernel, stage)).parameters), stage
    # node 1 needs 0.1 from node 2, which can give it
    graph = NetworkGraph(2, [(1, 2), (2, 1)])
    psi2 = np.array([-0.1, 0.5]), np.zeros(2), np.zeros(2), np.ones(2)
    fields = [len(_protocol_kernel(kind, graph, np.zeros(2), np.ones(2)).negotiate(*psi2, None))
              for kind in (ArrayKernel, FloatKernel)]
    assert fields == [9, 9]


def test_float_kernel_negotiates_and_settles_like_the_array_kernel(caplog):
    rng = np.random.default_rng(20240611)
    hits = dict.fromkeys(["frozen", "dead_channel", "degenerate", "refusal", "cap_trip",
                          "infeasible", "stall", "settled", "relaxed", "certified"], 0)
    with caplog.at_level(logging.WARNING, logger="ccbf"):
        for _ in range(2000):
            graph, _, psi2, lo, hi, options = _random_instance(rng)
            n = graph.node_count
            model = _model_on(graph, rng)
            gains = barrier_arrays({i: BarrierSpec(0.5) for i in graph.nodes()}, graph.nodes())
            lg_h = np.array([_value(rng, 1.0) for _ in range(n)])
            base = rng.uniform(-1.0, 1.0, n)
            nominal = rng.uniform(-0.5, 1.0, n)
            nominal[rng.random(n) < 0.2] = 0.0
            kernels = _kernels(model, gains, nominal, lo, hi, **options)

            # the negotiation: regions, capabilities, commitments and records;
            # the float kernel reads the arrays one float at a time
            (ref, ref_warned, ref_err), (got, warned, err) = (
                _run(lambda m: kernel.negotiate(*psi2, m), caplog) for kernel in kernels)
            assert warned == ref_warned
            _same_error(err, ref_err)
            _same_records(got[1], ref[1])
            if ref_err is not None:
                hits["infeasible"] += type(ref_err).__name__ == "TerminallyInfeasibleError"
                hits["stall"] += type(ref_err).__name__ == "ProtocolStallError"
            else:
                _same_negotiation(got[0], ref[0])
                _, _, frozen, _, allocated, _, _, sub_rounds, cap_tripped = ref[0]
                hits["frozen"] += bool(frozen.any())
                hits["cap_trip"] += cap_tripped
                hits["settled"] += sub_rounds > 0 and not cap_tripped
                hits["certified"] += bool((allocated < 0.0).any())
            refusals = [(e, v) for _, _, _, eps in ref[1] for e, v in enumerate(eps) if v > 0.0]
            coupling = psi2[-1]
            hits["refusal"] += bool(refusals)
            hits["dead_channel"] += any(abs(coupling[e]) <= 1e-12 for e, _ in refusals)
            hits["degenerate"] += bool(ref_warned)

            # the whole settle: negotiation, then the certificate filter
            for negotiate in (True, False):
                (ref, ref_warned, ref_err), (got, warned, err) = (
                    _run(lambda m: kernel.settle(lg_h, base, *psi2, m, negotiate), caplog)
                    for kernel in kernels)
                assert warned == ref_warned
                _same_error(err, ref_err)
                _same_records(got[1], ref[1])
                if ref_err is None:
                    _same_step(got[0], ref[0])
                    hits["relaxed"] += bool(np.any(ref[0][5]))
    assert all(hits.values()), hits


def test_float_certificate_point_matches_the_array_choice():
    # random certificates of every shape, and a convex one whose two pieces
    # are equally far from the nominal 0, where the first piece must win
    rng = np.random.default_rng(7)
    cases = [(-0.25, 0.0, 1.0, 0.0, -1.0, 1.0)]
    for _ in range(3000):
        lo = float(rng.choice([0.0, rng.uniform(-0.5, 0.5)]))
        hi = lo + float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        cases.append((*_random_form(rng), float(rng.uniform(-0.5, 1.0)), lo, hi))
    best, found = _certificate_choice(*map(np.array, zip(*cases)))
    got = [_certificate_point(*case) for case in cases]
    assert [v is not None for v in got] == found.tolist()
    assert _bits([v for v in got if v is not None]) == _bits(best[found])
    assert got[0] < 0.0
    assert found.sum() < len(cases)  # some certificate has no point in its interval


def test_float_capability_matches_the_array_capability_on_signed_zeros():
    # every sign of zero in every block, frozen and on intervals: the
    # capability lands in result.csv, where 0 and -0 print differently
    combos = list(itertools.product([0.0, -0.0, 0.5], [0.0, -0.0, 1.0, -1.0],
                                    [0.0, -0.0, 1.0, -1.0], [None, 0.0, -0.0, 0.5],
                                    [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (-1.0, -0.0)]))
    c, l, q, p, box = zip(*combos)
    frozen = [v is not None for v in p]
    # a frozen node's region is the point hi
    lo, hi = [b[0] for b in box], [b[1] if v is None else v for b, v in zip(box, p)]
    ref = _capability(_self_terms(np.array(c), np.array(l), np.array(q)), np.array(lo),
                      np.array(hi), np.array(frozen))
    got = FloatKernel._capability(list(c), list(l), list(q), lo, hi, frozen)
    assert _bits(got) == _bits(ref)


def test_shared_filter_rule_matches_the_array_filter_on_signed_zeros():
    # every sign of zero in a, base, the interval ends, the nominal and the
    # certificate blocks, with and without a certificate, on frozen and on
    # relaxed nodes: the controls land in result.csv, where 0 and -0 print
    # differently.  A certificate constant of -CERT_TOL puts a root or the
    # cut of a sloped certificate at a signed zero, a nominal outside the
    # interval returns whichever end bounds it, and a base of exactly
    # -PSI1_TOL still counts as reachable.
    tol = 1e-9  # CERT_TOL and PSI1_TOL
    certificates = [None, (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-tol, 1.0, -0.0),
                    (-tol, -1.0, 0.0), (-tol, 1.0, 1.0), (-tol, -1.0, -1.0), (-1.0, 0.0, -1.0)]
    combos = list(itertools.product(
        [0.0, -0.0, 1.0, -1.0], [0.0, -0.0, -tol, -1.0],
        [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.0, 0.0), (-0.0, 1.0)],
        [0.0, -0.0, 0.5, -1.5, 1.5], certificates, [None, 0.0, -0.0]))
    a, base, box, want, cert, p = zip(*combos)
    lo, hi = [b[0] for b in box], [b[1] for b in box]
    frozen = [v is not None for v in p]
    forms = [(0.0, 0.0, 0.0) if f is None else f for f in cert]
    ref_u, ref_relaxed = safety_filter_arrays(
        np.array(want), np.array(lo), np.array([h if v is None else v for h, v in zip(hi, p)]),
        np.array(frozen), np.array(base), np.array(a),
        tuple(map(np.array, zip(*forms))), np.array([f is not None for f in cert]))
    for k, (a_k, base_k, (lo_k, hi_k), want_k, cert_k, p_k) in enumerate(combos):
        if p_k is None:  # the rule itself, as FloatKernel.settle calls it
            u, relaxed = filter_point(a_k, base_k, lo_k, hi_k, want_k, cert_k)
            assert (_bits(u), relaxed) == (_bits(ref_u[k]), bool(ref_relaxed[k])), combos[k]
        # the per-node reference: base = lf_h + eta * (threshold - x) = lf_h + -0.0
        region = ControlRegion(((lo_k, hi_k),),
                               frozen_point=None if p_k is None else np.array([p_k]))
        form = None if cert_k is None else QuadraticForm(cert_k[0], np.array([cert_k[1]]),
                                                         np.array([[cert_k[2]]]))
        u, relaxed = safety_filter(np.array([want_k]), region, BarrierSpec(-0.0),
                                   SimpleNamespace(lf_h=base_k, lg_h=np.array([a_k])),
                                   np.array([0.0]), certificate=form)
        assert (_bits(u), relaxed) == (_bits(ref_u[k]), bool(ref_relaxed[k])), combos[k]
    negative_zero = (ref_u == 0.0) & np.signbit(ref_u)
    assert negative_zero.any() and (ref_u == 0.0).sum() > negative_zero.sum()
    assert ref_relaxed[~np.array(frozen)].any() and ref_relaxed[np.array(frozen)].any()


def _spy_on_coupling(kernel, couplings: list) -> None:
    """Make kernel's settle append the coupling its step passes it to couplings."""
    settle = kernel.settle

    def spy(*args):
        couplings.append(np.array(args[5], dtype=float))
        return settle(*args)
    kernel.settle = spy


def test_float_kernel_steps_like_the_array_kernel_on_random_states(caplog):
    # the Lie terms and psi2 blocks of random SIS models, through a whole
    # step; some models have rates large enough to overflow a Lie term.
    # Every coupling a step hands its negotiation is (1 - x_i) beta_ij x_j
    # with x in [0, 1] and beta >= 0: never below 0, which both kernels'
    # one-sided negotiation relies on
    rng = np.random.default_rng(515)
    hits = dict.fromkeys(["negotiated", "non_finite", "rate", "one_idle_node",
                          "negative_zero_coupling"], 0)
    with caplog.at_level(logging.WARNING, logger="ccbf"):
        for _ in range(400):
            n = int(rng.integers(1, 7))
            edges = [(int(j), i) for i in range(1, n + 1)
                     for j in rng.choice([j for j in range(1, n + 1) if j != i],
                                         size=int(rng.integers(0, n)), replace=False)]
            graph = NetworkGraph(n, edges)
            model = _model_on(graph, rng, scale=1e300 if rng.random() < 0.05 else 1.0,
                              idle=0.3)
            specs = {i: BarrierSpec(rng.uniform(0.05, 1.0), rng.uniform(0.2, 3.0),
                                    rng.uniform(0.2, 3.0)) for i in graph.nodes()}
            gains = barrier_arrays(specs, graph.nodes())
            x = rng.uniform(0.0, 1.0, n)
            x[rng.random(n) < 0.15] = 0.0
            x[rng.random(n) < 0.1] = -0.0  # the clamp keeps -0.0
            x[rng.random(n) < 0.1] = 1.0
            udot = rng.uniform(-1.0, 1.0, n) if rng.random() < 0.5 else np.zeros(n)
            options = dict(outer_cap=int(rng.choice([2, 16])), inner_cap=64,
                           weights_mode=str(rng.choice(["coupling", "uniform"])))
            kernels = _kernels(model, gains, rng.uniform(0.0, 0.5, n), np.zeros(n),
                               model.params.u_max.copy(), **options)
            couplings: list = []
            for kernel in kernels:
                _spy_on_coupling(kernel, couplings)
            for negotiate in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):
                    (ref, ref_warned, ref_err), (got, warned, err) = [
                        _run(lambda m: kernel.step(x, udot, m, negotiate), caplog)
                        for kernel in kernels]
                assert warned == ref_warned
                _same_error(err, ref_err)
                _same_records(got[1], ref[1])
                if ref_err is None:
                    _same_step(got[0], ref[0])
                    hits["negotiated"] += ref[0][3] > 0
                    hits["rate"] += bool(udot.any())
                    hits["one_idle_node"] += n == 1 and model.self_weight[0] == 0.0
                hits["non_finite"] += type(ref_err).__name__ == "NumericsError"
            for coupling in couplings:
                assert not np.any(coupling < 0.0), coupling
                hits["negative_zero_coupling"] += bool(np.any((coupling == 0.0)
                                                              & np.signbit(coupling)))
    assert all(hits.values()), hits


def test_float_advance_matches_the_array_advance():
    # RK4 and the clamp on random SIS models of 1 to 40 nodes, a range that
    # does not follow FLOAT_KERNEL_NODES: signed zeros (a negative dt keeps
    # -0.0), states the step carries outside [0, 1], and rates or states
    # large enough to overflow.  One node in four is alone with beta_11 = 0:
    # its pressure beta_11 * y is a zero whose sign the shared product fixes
    # (`beta @ y` gives +0.0 at y <= 0, np.dot gives -0.0), and a healing
    # rate u < -gamma carries that sign into the next state from y = -0.0.
    rng = np.random.default_rng(1906)
    hits = dict.fromkeys(["moved", "negative_zero", "non_finite", "at_rest",
                          "zero_product_sign"], 0)
    for _ in range(800):  # about 600 of them with two or more nodes
        alone = rng.random() < 0.25
        n = 1 if alone else int(rng.integers(2, 41))
        edges = [(int(j), i) for i in range(1, n + 1)
                 for j in rng.choice([j for j in range(1, n + 1) if j != i],
                                     size=int(rng.integers(0, min(n, 5))), replace=False)]
        graph = NetworkGraph(n, edges)
        model = _model_on(graph, rng, scale=1e300 if rng.random() < 0.05 else 1.0,
                          idle=1.0 if alone else 0.0)
        arrays, floats = _kernels(model, barrier_arrays({i: BarrierSpec(0.5) for i in
                                                         graph.nodes()}, graph.nodes()),
                                  np.zeros(n), np.zeros(n), model.params.u_max.copy(),
                                  outer_cap=16, inner_cap=64, weights_mode="coupling")
        x = rng.uniform(-0.2, 1.2, n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] = -0.0
        x[rng.random(n) < 0.1] = 1.0
        if rng.random() < 0.05:
            x[int(rng.integers(n))] = rng.choice([1e200, -1e200, np.inf, np.nan])
        u = rng.uniform(-0.5, 2.0, n) * (rng.random(n) < 0.7)
        if alone and rng.random() < 0.5:  # gains infection at rate u + gamma < 0 from -0.0
            x[0], u[0] = -0.0, -model.params.gamma[0] - rng.uniform(0.01, 0.5)
        dt = float(rng.choice([0.01, -0.01, 0.5, 3.0]))
        results = []
        for kernel, state, control in ((arrays, x, u), (floats, x, u.tolist()),
                                       (floats, x.tolist(), u.tolist())):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    state, moved = kernel.advance(state, control, dt)
                    results.append((_bits(state), _bits(moved), None))
                except CcbfError as exc:
                    results.append((None, None, (type(exc), str(exc))))
        assert results[1] == results[0] and results[2] == results[0]
        ref_state, ref_moved, ref_err = results[0]
        hits["non_finite"] += ref_err is not None
        if ref_err is None:
            state = np.frombuffer(ref_state)
            hits["moved"] += float(np.frombuffer(ref_moved)[0]) > 0.0
            hits["at_rest"] += float(np.frombuffer(ref_moved)[0]) == 0.0
            hits["negative_zero"] += bool(np.any((state == 0.0) & np.signbit(state)))
            hits["zero_product_sign"] += alone and x[0] == 0.0 and np.signbit(x[0]) and \
                u[0] < -model.params.gamma[0]
    assert all(hits.values()), hits


def _paper():
    graph = NetworkGraph(3, [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j])
    model = SisModel(graph, SisParams(PAPER_BETA, PAPER_GAMMA, PAPER_UMAX))
    return model, {i: BarrierSpec(PAPER_XBAR[i - 1]) for i in (1, 2, 3)}, np.array(PAPER_X0)


def _weak_two_node():
    graph = NetworkGraph(2, [(1, 2), (2, 1)])
    model = SisModel(graph, SisParams([[0.5, 0.4], [0.4, 0.5]], [0.3, 0.3], [0.2, 0.2]))
    return model, {1: BarrierSpec(0.1), 2: BarrierSpec(0.5)}, np.array([0.02, 0.05])


def _hub(n: int = 30):
    # node 1 hears every other node, and those form the chain 2 -> ... -> n;
    # node 1 cannot hold its threshold alone, so every step negotiates
    edges = [(j, 1) for j in range(2, n + 1)] + [(k, k + 1) for k in range(2, n)]
    beta = np.diag(np.full(n, 0.2))
    for j, i in edges:
        beta[i - 1, j - 1] = 0.05
    u_max = np.full(n, 0.75)
    u_max[0] = 0.05
    model = SisModel(NetworkGraph(n, edges), SisParams(beta, np.full(n, 0.3), u_max))
    x0 = np.full(n, 0.02)
    x0[0] = 0.09
    return model, {i: BarrierSpec(0.1 if i == 1 else 0.5) for i in range(1, n + 1)}, x0


def _generated(workload: str):
    """The seed-1 network of a generated bench workload, as `ccbf run` builds it."""
    cfg = parse_config(bench_config_text(workload))
    return cfg.build_model(), cfg.build_specs(), np.array(cfg.x0)


RUNS = {
    "paper_traced_20s": (_paper, dict(t_final=20.0, collect_messages=True)),
    "weak_halt": (_weak_two_node, dict(t_final=30.0, collect_messages=True)),
    "weak_continued": (_weak_two_node, dict(t_final=5.0, collect_messages=True,
                                            continue_on_infeasible=True)),
    "paper_backward_difference": (_paper, dict(t_final=5.0, collect_messages=True,
                                               udot_policy="backward_difference")),
    "paper_uniform": (_paper, dict(t_final=5.0, collect_messages=True,
                                   weights_mode="uniform")),
    "hub": (_hub, dict(t_final=1.0, collect_messages=True)),
    # the bench's networks, traced over their bench horizons: 60 nodes where
    # every step negotiates, and 300 where none does
    "sis_tight_n60": (lambda: _generated("sis_tight_n60"),
                      dict(t_final=1.0, collect_messages=True)),
    "sis_quiet_n300": (lambda: _generated("sis_quiet_n300"),
                       dict(t_final=0.3, collect_messages=True)),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_whole_runs_match_across_kernels(name, monkeypatch, caplog):
    build, options = RUNS[name]
    model, specs, x0 = build()
    results = {}
    for kernel, cutoff in (("float", 10 ** 9), ("array", 0)):
        monkeypatch.setattr(simulate_mod, "FLOAT_KERNEL_NODES", cutoff)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ccbf"):
            res = run_scenario(model, specs, x0, dt=0.01, **options)
        results[kernel] = res, [(r.name, r.getMessage()) for r in caplog.records]
    (got, got_log), (ref, ref_log) = results["float"], results["array"]
    assert got_log == ref_log
    for field in ("times", "states", "controls", "capabilities", "outer_rounds",
                  "inner_rounds"):
        assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field
    for field in ("halted_at", "halt_reason", "infeasible_nodes", "max_clamp",
                  "cap_tripped_steps", "relaxed_steps", "thresholds"):
        assert getattr(got, field) == getattr(ref, field), field
    assert [t for t, _ in got.messages] == [t for t, _ in ref.messages]
    rows = [[(*row[:4], _bits(row[4])) for row in message_rows(res.layout, records)]
            for res in (got, ref) for _, records in res.messages]
    assert rows[:len(got.messages)] == rows[len(got.messages):]
    assert bool(got.messages) == (name != "sis_quiet_n300"), "negotiates"
    # every sub-round record holds one entry per edge
    edges = len(model.layout.source)
    assert all(len(v) == edges for res in (got, ref) for _, records in res.messages
               for record in records for v in record[1:])
    if name == "hub":
        assert got.halted_at is None and (got.inner_rounds > 0).all()
    if name == "weak_halt":
        # the halting step runs outer rounds up to the cap: 30 sub-rounds in all
        assert got.halt_reason == "infeasible"
        assert got.messages[-1][1][-1][0] == 30
