"""The array protocol and filter against the per-node reference, bit for bit.

Seeded random scalar networks drive `ArrayKernel.negotiate` and
`collaborative_safety` side by side, and random regions and certificates
drive `safety_filter_arrays` and `safety_filter`.  Each comparison is exact
on the float bits.  The instances are drawn wide enough to reach every
branch of the protocol and the filter, and the tests assert that they did:
no bench workload refuses a request, so the output digests do not cover
these branches.
"""

from __future__ import annotations

import itertools
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from ccbf.arraykernel import (ArrayKernel, _capability, _out_runs, _raise_lo, _self_terms,
                              safety_filter_arrays)
from ccbf.barrier import (BarrierSpec, Psi2Decomposition, QuadraticForm, barrier_arrays,
                          max_capability)
from ccbf.collab import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, CollabMessage,
                         collaborative_safety, message_rows)
from ccbf.dynamics import SisModel, SisParams
from ccbf.errors import CcbfError, EmptyRegionError, GeometryConvergenceError
from ccbf.geometry import ControlRegion, Halfspace
from ccbf.graph import NetworkGraph, edge_layout
from ccbf.simulate import run_scenario, safety_filter


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _value(rng, scale: float) -> float:
    """A float that is sometimes exactly 0, sometimes negligible, else random."""
    pick = rng.random()
    if pick < 0.1:
        return 0.0
    if pick < 0.15:
        return float(rng.choice([-1.0, 1.0])) * 1e-14
    return float(rng.uniform(-scale, scale))


def _random_instance(rng):
    """A scalar network with synthetic psi2 blocks, boxes and protocol caps.

    The blocks are psi2's constant, linear and quadratic self-term blocks
    and its coupling over the edges, in the order the kernels take them.
    The coupling is never negative, as no SIS coupling is.
    """
    n = int(rng.integers(1, 7))
    edges = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        degree = int(rng.integers(0, n))
        edges += [(int(j), i) for j in rng.choice(others, size=degree, replace=False)]
    graph = NetworkGraph(n, edges)
    layout = edge_layout(graph)
    coupling = np.zeros(len(layout.source))
    for e in range(len(coupling)):  # by target, then source
        coupling[e] = abs(_value(rng, 1.0))
    constant = rng.uniform(-0.6, 0.4, n)
    linear = np.array([_value(rng, 0.5) for _ in range(n)])
    quadratic = np.array([_value(rng, 0.5) for _ in range(n)])
    psi2 = constant, linear, quadratic, coupling
    lo = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.3, 0.3, n))
    hi = lo + np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 1.5, n))
    options = dict(outer_cap=int(rng.choice([1, 2, 16, 16])),
                   inner_cap=int(rng.choice([1, 64, 64])),
                   weights_mode=str(rng.choice(["coupling", "uniform"])))
    return graph, layout, psi2, lo, hi, options


def _protocol_kernel(kind, graph, lo, hi, **options):
    """A step kernel of kind on graph, node i's box [lo[i-1], hi[i-1]].

    Its negotiate reads only the boxes, the caps and the weights mode: the
    rates are fixed, one on every edge, and draw nothing from an rng.
    """
    n = graph.node_count
    layout = edge_layout(graph)
    beta = np.zeros((n, n))
    beta[layout.target, layout.source] = 1.0
    model = SisModel(graph, SisParams(beta, np.ones(n), np.ones(n)))
    gains = barrier_arrays(dict.fromkeys(graph.nodes(), BarrierSpec(1.0)), graph.nodes())
    protocol = dict(outer_cap=DEFAULT_OUTER_CAP, inner_cap=DEFAULT_INNER_CAP,
                    weights_mode="coupling") | options
    return kind(model, gains, np.zeros(n), lo, hi, **protocol)


def _edges(graph):
    """(j, i) of every edge j -> i, in edge_layout's order."""
    layout = edge_layout(graph)
    return list(zip((layout.source + 1).tolist(), (layout.target + 1).tolist()))


def _per_node(graph, psi2):
    constant, linear, quadratic, a = psi2
    decomps = {}
    couplings = {i: {} for i in graph.nodes()}
    for (j, i), a_e in zip(_edges(graph), a.tolist()):
        couplings[i][j] = np.array([a_e])
    for i in graph.nodes():
        coupling = couplings[i]
        form = QuadraticForm(float(constant[i - 1]), np.array([linear[i - 1]]),
                             np.array([[quadratic[i - 1]]]))
        decomps[i] = Psi2Decomposition(coupling, form)
    return decomps


def _run(call):
    log: list = []
    try:
        return call(log), log, None
    except (CcbfError, AssertionError) as exc:
        return None, log, exc


def _message_bits(messages):
    return [(m.sub_round, m.kind, m.from_node, m.to_node, _bits(m.value)) for m in messages]


def test_array_protocol_matches_per_node_protocol(caplog):
    rng = np.random.default_rng(20240611)
    hits = dict.fromkeys(["frozen", "dead_channel", "degenerate", "uniform", "cap_trip",
                          "infeasible", "stall", "settled"], 0)
    with caplog.at_level(logging.WARNING, logger="ccbf.collab"):
        for _ in range(2000):
            graph, layout, psi2, lo, hi, options = _random_instance(rng)
            boxes = {i: ((float(lo[i - 1]), float(hi[i - 1])),) for i in graph.nodes()}
            caplog.clear()
            ref, ref_msgs, ref_err = _run(lambda m: collaborative_safety(
                graph, _per_node(graph, psi2), boxes, messages=m, **options))
            warned = [r.getMessage() for r in caplog.records]
            caplog.clear()
            kernel = _protocol_kernel(ArrayKernel, graph, lo, hi, **options)
            got, got_log, got_err = _run(lambda m: kernel.negotiate(*psi2, m))
            got_msgs = [CollabMessage(*row) for row in message_rows(layout, got_log)]
            assert [r.getMessage() for r in caplog.records] == warned

            assert type(got_err) is type(ref_err)
            if ref_err is not None:
                assert getattr(got_err, "nodes", None) == getattr(ref_err, "nodes", None)
                assert str(got_err) == str(ref_err)
                hits["infeasible"] += type(ref_err).__name__ == "TerminallyInfeasibleError"
                hits["stall"] += type(ref_err).__name__ == "ProtocolStallError"
                continue
            assert _message_bits(got_msgs) == _message_bits(ref_msgs)
            g_lo, g_hi, frozen, capability, allocated, out_alloc, *rounds = got
            assert tuple(rounds) == (ref.outer_rounds, ref.sub_rounds, ref.cap_tripped)
            for i in graph.nodes():
                ledger, region = ref.ledgers[i], ref.regions[i]
                assert _bits(capability[i - 1]) == _bits(ledger.capability)
                assert bool(frozen[i - 1]) == region.frozen
                if region.frozen:
                    assert _bits(g_hi[i - 1]) == _bits(region.frozen_point[0])
                else:
                    assert _bits([g_lo[i - 1], g_hi[i - 1]]) == _bits(region.interval())
            # the ledger mirror: what i counts on from j is what j committed to i
            edges = _edges(graph)
            assert len(out_alloc) == len(edges)
            for e, (j, i) in enumerate(edges):
                assert _bits(out_alloc[e]) == _bits(ref.ledgers[i].out_alloc.get(j, 0.0))
                assert _bits(out_alloc[e]) == _bits(ref.ledgers[j].in_req.get(i, 0.0))
            # each total in order from +0.0: builtin sum() compensates from Python 3.12 on
            totals = []
            for i in graph.nodes():
                totals.append(0.0)
                for v in ref.ledgers[i].out_alloc.values():
                    totals[-1] += v
            assert _bits(allocated) == _bits(totals)

            # a refusal on a live channel comes from a frozen region, one on
            # a dead channel refuses the whole net demand
            coupling = psi2[-1]
            refused = [abs(coupling[edges.index((m.from_node, m.to_node))])
                       for m in ref_msgs if m.kind == "adjust" and m.value > 0.0]
            hits["frozen"] += any(a > 1e-12 for a in refused)
            hits["dead_channel"] += any(a <= 1e-12 for a in refused)
            hits["degenerate"] += bool(warned)
            hits["uniform"] += options["weights_mode"] == "uniform" and ref.sub_rounds > 0
            hits["cap_trip"] += ref.cap_tripped
            hits["settled"] += ref.sub_rounds > 0 and not ref.cap_tripped
    assert all(hits.values()), hits


def _random_form(rng):
    """(c, l, q) of a certificate that is flat, negligibly curved, concave or convex."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        q = 0.0
    elif kind == 1:
        q = 1e-14
    elif kind == 2:
        q = -float(rng.uniform(0.1, 1.0))
    else:
        q = float(rng.uniform(0.1, 1.0))
    return _value(rng, 0.5), _value(rng, 1.0), q


def test_array_filter_matches_per_node_filter():
    rng = np.random.default_rng(7)
    hits = dict.fromkeys(["frozen", "relaxed", "blind", "dropped", "second_piece",
                          "level", "sloped", "concave", "convex"], 0)
    for _ in range(600):
        n = int(rng.integers(1, 8))
        lo = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.5, 0.5, n))
        hi = lo + np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 1.0, n))
        frozen = rng.random(n) < 0.2
        point = rng.uniform(-0.5, 1.0, n)
        x = rng.uniform(0.0, 1.0, n)
        x[rng.random(n) < 0.2] = 0.0
        lf_h = rng.uniform(-1.0, 1.0, n)
        threshold = rng.uniform(0.0, 1.0, n)
        eta = rng.uniform(0.2, 3.0, n)
        gain = np.array([_value(rng, 1.0) for _ in range(n)])
        nominal = rng.uniform(-0.5, 1.0, n)
        nominal[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])  # ties with a box end
        forms = [_random_form(rng) for _ in range(n)]
        certified = rng.random(n) < 0.7
        certificate = tuple(np.array(block) for block in zip(*forms))
        base = lf_h + eta * (threshold - x)
        # a frozen node's region is the point hi
        u, relaxed = safety_filter_arrays(nominal, lo, np.where(frozen, point, hi), frozen,
                                          base, gain, certificate, certified)
        for i in range(n):
            region = ControlRegion(((lo[i], hi[i]),),
                                   frozen_point=np.array([point[i]]) if frozen[i] else None)
            spec = BarrierSpec(threshold[i], eta=eta[i])
            lie = SimpleNamespace(lf_h=lf_h[i], lg_h=np.array([gain[i]]))
            cert = QuadraticForm(forms[i][0], np.array([forms[i][1]]),
                                 np.array([[forms[i][2]]])) if certified[i] else None
            ref_u, ref_relaxed = safety_filter(np.array([nominal[i]]), region, spec, lie,
                                               np.array([x[i]]), certificate=cert)
            assert _bits(u[i]) == _bits(ref_u)
            assert bool(relaxed[i]) == ref_relaxed
            hits["frozen"] += bool(frozen[i])
            hits["relaxed"] += ref_relaxed and not frozen[i]
            hits["blind"] += abs(gain[i]) <= 1e-12 and base[i] < -1e-9
            if cert is not None and not frozen[i] and not ref_relaxed:
                c, l, q = forms[i]
                disc = l * l - 4.0 * q * (c + 1e-9)
                hits["level"] += abs(q) <= 1e-12 and abs(l) <= 1e-12
                hits["sloped"] += abs(q) <= 1e-12 < abs(l)
                hits["concave"] += q < -1e-12
                hits["convex"] += q > 1e-12
                # convex with two pieces, and the control in the upper one
                hits["second_piece"] += q > 1e-12 and disc > 0.0 and ref_u[0] > -l / (2.0 * q)
                # concave and negative everywhere: no piece, certificate dropped
                hits["dropped"] += q < -1e-12 and disc <= 0.0
    assert all(hits.values()), hits


def test_reference_raises_on_contradictory_demands():
    # nodes 1 and 3 both ask node 2 for help through channels of opposite
    # sign, for u_2 >= 10 and u_2 <= -10: node 2's request polytope is empty.
    # The per-node protocol takes couplings of either sign; the step kernels
    # take only SIS couplings, which are never negative, so no request of
    # theirs can lower a helper's ceiling
    graph = NetworkGraph(3, [(2, 1), (2, 3)])
    psi2 = np.array([-1.0, 0.0, -1.0]), np.zeros(3), np.zeros(3), np.array([1.0, -1.0])
    boxes = {i: ((0.0, 0.1),) for i in (1, 2, 3)}
    with pytest.raises(GeometryConvergenceError, match="^empty request polytope$"):
        collaborative_safety(graph, _per_node(graph, psi2), boxes)


@pytest.mark.parametrize("misspelt", ["zro", "unifrom", "Coupling", ""])
@pytest.mark.parametrize("entry, keyword", [
    ("run_scenario", "udot_policy"),
    ("run_scenario", "weights_mode"),
    ("collaborative_safety", "weights_mode"),
])
def test_unknown_policy_names_are_rejected(paper_model, entry, keyword, misspelt):
    # a name outside the allowed set must not run as one of them
    graph = paper_model.graph
    psi2 = np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(len(paper_model.layout.source))
    calls = {
        "run_scenario": lambda kw: run_scenario(
            paper_model, {i: BarrierSpec(0.5) for i in (1, 2, 3)}, np.full(3, 0.01),
            dt=0.01, t_final=0.02, **kw),
        "collaborative_safety": lambda kw: collaborative_safety(
            graph, _per_node(graph, psi2), {i: ((0.0, 0.75),) for i in (1, 2, 3)}, **kw),
    }
    allowed = {"udot_policy": "zero, backward_difference",
               "weights_mode": "coupling, uniform"}[keyword]
    with pytest.raises(ValueError) as excinfo:
        calls[entry]({keyword: misspelt})
    assert str(excinfo.value) == f"{keyword} must be one of {allowed}, got {misspelt!r}"


def test_array_filter_takes_the_first_of_equidistant_pieces():
    # convex certificate with roots at -r and r: the nominal 0 is as far
    # from (-inf, -r] as from [r, inf), and the per-node loop keeps the first
    certificate = np.array([-0.25]), np.zeros(1), np.ones(1)
    u, relaxed = safety_filter_arrays(np.zeros(1), np.array([-1.0]), np.array([1.0]),
                                      np.zeros(1, dtype=bool), np.ones(1), np.ones(1),
                                      certificate, np.ones(1, dtype=bool))
    ref, _ = safety_filter(np.zeros(1), ControlRegion(((-1.0, 1.0),)), BarrierSpec(1.0),
                           SimpleNamespace(lf_h=1.0, lg_h=np.ones(1)), np.ones(1),
                           certificate=QuadraticForm(-0.25, np.zeros(1), np.ones((1, 1))))
    assert u[0] < 0.0 and not relaxed[0]
    assert _bits(u) == _bits(ref)


def test_array_filter_names_the_first_empty_unfrozen_region():
    # a kernel hands the filter only boxes and negotiated regions, which are
    # frozen where empty; a direct caller can pass an empty one.  Node 2's
    # empty interval is frozen to its hi, so node 4 is named.
    lo, hi = np.array([0.0, 1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0, 0.0])
    frozen = np.array([False, True, False, False])
    with pytest.raises(EmptyRegionError, match=r"^node 4: negotiated region is empty$"):
        safety_filter_arrays(np.zeros(4), lo, hi, frozen, np.ones(4), np.ones(4))
    # the per-node reference raises alike on node 4's region, a box cut
    # empty by a request
    region = ControlRegion(((0.0, 1.0),), (Halfspace(np.array([1.0]), -2.0),))
    with pytest.raises(EmptyRegionError, match=r"^negotiated region is empty$"):
        safety_filter(np.zeros(1), region, BarrierSpec(1.0),
                      SimpleNamespace(lf_h=1.0, lg_h=np.ones(1)), np.ones(1))


def test_array_capability_matches_per_node_on_signed_zeros():
    # every sign of zero in every block, frozen and on intervals: the
    # capability lands in result.csv, where 0 and -0 print differently
    combos = list(itertools.product([0.0, -0.0, 0.5], [0.0, -0.0, 1.0, -1.0],
                                    [0.0, -0.0, 1.0, -1.0],
                                    [None, 0.0, -0.0, 0.5],
                                    [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (-1.0, -0.0)]))
    c, l, q, p, box = zip(*combos)
    frozen = np.array([v is not None for v in p])
    # a frozen node's region is the point hi
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] if v is None else v for b, v in zip(box, p)])
    got = _capability(_self_terms(np.array(c), np.array(l), np.array(q)), lo, hi, frozen)
    for k, (ck, lk, qk, pk, bk) in enumerate(combos):
        form = QuadraticForm(ck, np.array([lk]), np.array([[qk]]))
        region = ControlRegion((bk,), frozen_point=None if pk is None else np.array([pk]))
        ref, _ = max_capability(Psi2Decomposition({}, form), region)
        assert _bits(got[k]) == _bits(ref), combos[k]


def _column_fold(bound, rising, helper, lo):
    """_raise_lo as a loop over the columns of the padded by-source table.

    Column d holds each node's d-th out-edge; a request that does not raise
    lo, and the padding, hold -inf, which never beats it.  This was the
    protocol's fold before the edges were flat.
    """
    n = len(lo)
    degree = np.bincount(helper, minlength=n)
    column = np.arange(len(helper)) - (np.cumsum(degree) - degree)[helper]
    b_lo = np.full((n, degree.max(initial=0)), -np.inf)
    b_lo[helper[rising], column[rising]] = bound[rising]
    for up in b_lo.T:
        lo = np.where(up > lo, up, lo)
    return lo


def test_edge_fold_matches_the_column_fold():
    # bounds drawn from a few values, so that ties are common, with both
    # zeros among them: which of two equal zeros an end keeps prints in
    # result.csv as 0 or -0.  NaN bounds and ends never beat anything.
    rng = np.random.default_rng(1906)
    few = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf, np.nan])
    hits = dict.fromkeys(["zero_tie", "kept_end", "nan_bound"], 0)
    for _ in range(3000):
        n = int(rng.integers(1, 8))
        edges = int(rng.integers(0, 4 * n))
        helper = np.sort(rng.integers(0, n, edges))  # by-source order
        bound = np.where(rng.random(edges) < 0.7, rng.choice(few, edges),
                         rng.uniform(-2.0, 2.0, edges))
        rising = rng.random(edges) < 0.7  # the others are dead
        lo = np.where(rng.random(n) < 0.5, rng.choice(few[:5], n), rng.uniform(-2, 2, n))
        got = _raise_lo(bound, rising, _out_runs(helper), lo)
        assert _bits(got) == _bits(_column_fold(bound, rising, helper, lo))
        for j in range(n):  # a zero beats a nonzero end, and the requests hold +0.0 and -0.0
            signs = np.signbit(bound[rising & (helper == j) & (bound == 0.0)])
            hits["zero_tie"] += bool(signs.any() and not signs.all() and got[j] == 0.0
                                     and lo[j] != 0.0)
        hits["kept_end"] += bool(np.any((got == lo) & (np.bincount(helper[rising],
                                                                 minlength=n) > 0)))
        hits["nan_bound"] += bool(np.any(np.isnan(bound) & rising))
    assert all(hits.values()), hits
