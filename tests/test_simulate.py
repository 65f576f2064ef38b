"""Closed-loop runs: oracles, safety, halting, and CSV output."""

from __future__ import annotations

import csv
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ccbf.simulate as simulate_mod
from ccbf.arraykernel import ArrayKernel
from ccbf.barrier import BarrierSpec
from ccbf.collab import message_rows
from ccbf.dynamics import SisModel, SisParams
from ccbf.errors import CcbfError, DimensionError
from ccbf.floatkernel import FloatKernel
from ccbf.geometry import ControlRegion
from ccbf.graph import NetworkGraph, edge_layout
from ccbf.simulate import (
    ScenarioResult,
    run_scenario,
    run_uncontrolled,
    safety_filter,
    write_messages_csv,
    write_result_csv,
)

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_X0, PAPER_XBAR
from test_array_protocol import _protocol_kernel, _random_instance


def _paper_model():
    graph = NetworkGraph(3, [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j])
    model = SisModel(graph, SisParams(PAPER_BETA, PAPER_GAMMA, PAPER_UMAX))
    specs = {i: BarrierSpec(PAPER_XBAR[i - 1]) for i in (1, 2, 3)}
    return model, specs


def _weak_two_node():
    graph = NetworkGraph(2, [(1, 2), (2, 1)])
    model = SisModel(graph, SisParams([[0.5, 0.4], [0.4, 0.5]], [0.3, 0.3], [0.2, 0.2]))
    specs = {1: BarrierSpec(0.1), 2: BarrierSpec(0.5)}
    return model, specs


def test_uncontrolled_symmetric_matches_logistic_closed_form():
    # symmetric state collapses the network to xdot = 0.7 x - x^2
    model, _ = _paper_model()
    times, states = run_uncontrolled(model, np.array([0.05, 0.05, 0.05]),
                                     dt=0.01, t_final=20.0)

    def logistic(t, x0=0.05, r=0.7):
        e = np.exp(r * t)
        return r * x0 * e / (r + x0 * (e - 1.0))

    for t in (0.5, 1.0, 5.0, 10.0, 20.0):
        k = int(round(t / 0.01))
        for col in range(3):
            assert states[k, col] == pytest.approx(logistic(t), abs=1e-9)
    assert states[-1, 0] == pytest.approx(0.7, abs=1e-3)


def test_disease_free_start_stays_at_zero():
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.zeros(3), dt=0.01, t_final=1.0)
    assert np.all(res.states == 0.0)
    assert np.all(res.controls == 0.0)
    assert np.all(res.outer_rounds == 1)
    assert np.all(res.inner_rounds == 0)
    assert res.halted_at is None


def test_paper_scenario_short_run_is_safe_and_collaborative():
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=5.0,
                       collect_messages=True)
    assert res.times.shape[0] == 501
    assert res.violations().min() >= -1e-3
    assert res.max_clamp < 1e-9
    assert res.halted_at is None
    assert res.inner_rounds.max() >= 1  # negotiation actually happened
    assert len(res.messages) > 0
    # states approach but do not cross their thresholds
    assert np.all(res.states[-1] < np.array(PAPER_XBAR))
    # the most exposed node saturates hardest
    assert res.controls[:, 0].max() > res.controls[:, 2].max()


def test_row_shape_and_grid():
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.05, t_final=1.0)
    assert res.times.shape == (21,)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(res.times), 0.05, atol=1e-12)
    assert res.states.shape == (21, 3)
    assert res.controls.shape == (21, 3)
    assert res.capabilities.shape == (21, 3)


def test_no_collaboration_mode_runs_without_rounds():
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=2.0,
                       collaboration=False)
    assert np.all(res.outer_rounds == 0)
    assert np.all(res.inner_rounds == 0)
    assert res.messages == []


def test_terminal_infeasibility_halts_run():
    model, specs = _weak_two_node()
    res = run_scenario(model, specs, np.array([0.02, 0.05]), dt=0.01, t_final=30.0)
    assert res.halted_at == pytest.approx(0.92, abs=1e-12)
    assert res.times.shape[0] == 92
    assert res.infeasible_nodes == (1,)
    # everything recorded before the halt was still safe
    assert res.violations().min() >= -1e-9


def test_halted_run_logs_the_halting_step(tmp_path: Path):
    # the sub-rounds that found node 1 short are the log's last rows
    model, specs = _weak_two_node()
    res = run_scenario(model, specs, np.array([0.02, 0.05]), dt=0.01, t_final=30.0,
                       collect_messages=True)
    assert res.halted_at == pytest.approx(0.92, abs=1e-12)
    assert res.messages[-1][0] == res.halted_at
    write_messages_csv(tmp_path / "messages.csv", res)
    with open(tmp_path / "messages.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["sim_time"]) == res.halted_at
    # there node 2 refuses node 1, which has no other in-neighbor to ask
    assert any(float(row["sim_time"]) == res.halted_at and row["kind"] == "adjust"
               and row["from"] == "2" and float(row["value"]) > 0.0 for row in rows)


def test_a_sink_takes_in_blocks_what_the_result_joins():
    # under the backward-difference rate the paper run halts at t = 2.92: its
    # 292 rows cross two block edges, each carrying the two controls the next
    # step's rate reads, and the halting step's sub-rounds end the last block
    model, specs = _paper_model()
    kwargs = dict(dt=0.01, t_final=5.0, udot_policy="backward_difference",
                  collect_messages=True)
    whole = run_scenario(model, specs, np.array(PAPER_X0), **kwargs)
    blocks: list[ScenarioResult] = []
    streamed = run_scenario(model, specs, np.array(PAPER_X0), **kwargs, sink=blocks.append)
    width = simulate_mod.block_rows(3)
    assert [len(b.times) for b in blocks] == [width, width, 292 - 2 * width]
    for name in ("times", "states", "controls", "capabilities", "outer_rounds", "inner_rounds"):
        assert np.array_equal(np.concatenate([getattr(b, name) for b in blocks]),
                              getattr(whole, name)), name
        assert len(getattr(streamed, name)) == 0, name  # the sink has every row
    assert [m for b in blocks for m in b.messages] == whole.messages
    assert blocks[-1].messages[-1][0] == whole.halted_at == streamed.halted_at == 2.92
    assert (streamed.halt_reason, streamed.infeasible_nodes, streamed.relaxed_steps) == \
        (whole.halt_reason, whole.infeasible_nodes, whole.relaxed_steps)


def test_a_run_without_a_sink_holds_its_tables_once():
    # without a sink the run is one block, so its tables are never copied:
    # the peak stays within a quarter of what the result itself holds.  Joining
    # blocks at the end of the run held both, a peak of 2.1 times the result
    model, specs = _paper_model()
    tracemalloc.start()
    try:
        res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(getattr(res, name).nbytes for name in (
        "times", "states", "controls", "capabilities", "outer_rounds", "inner_rounds"))
    assert len(res.times) == 10_001
    assert peak < 1.25 * held, (peak, held)


def test_continue_on_infeasible_runs_to_completion():
    model, specs = _weak_two_node()
    res = run_scenario(model, specs, np.array([0.02, 0.05]), dt=0.01, t_final=5.0,
                       continue_on_infeasible=True)
    assert res.halted_at is None
    assert res.times.shape[0] == 501
    assert 1 in res.infeasible_nodes
    # the weak actuator genuinely loses the barrier eventually
    assert res.violations().min() < 0.0


def test_backward_difference_policy_runs_and_matches_zero_at_start():
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=2.0,
                       udot_policy="backward_difference")
    assert res.violations().min() >= -1e-3
    assert res.halted_at is None


@pytest.mark.parametrize("cutoff", [0, 10 ** 9], ids=["array", "float"])
@pytest.mark.parametrize("policy", ["zero", "backward_difference"])
def test_each_step_gets_the_policy_control_rate(policy, cutoff, monkeypatch):
    # zero, or zero for rows 0 and 1 and then the difference of the two
    # controls applied before the row over dt, bit for bit; the nominal
    # control makes row 0's control nonzero
    monkeypatch.setattr(simulate_mod, "FLOAT_KERNEL_NODES", cutoff)
    rates = []
    for cls in (FloatKernel, ArrayKernel):
        def spy(self, x, udot, *rest, step=cls.step):
            rates.append(udot.copy())
            return step(self, x, udot, *rest)
        monkeypatch.setattr(cls, "step", spy)
    model, specs = _paper_model()
    dt = 0.01
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=dt, t_final=2.0,
                       nominal=np.full(3, 0.1), udot_policy=policy)
    controls = res.controls
    assert len(rates) == len(controls) == 201
    assert np.all(controls[0] != 0.0)
    want = [np.zeros(3)] * 201
    if policy == "backward_difference":
        want[2:] = [(controls[k - 1] - controls[k - 2]) / dt for k in range(2, 201)]
        assert any(np.any(rate != 0.0) for rate in want)
    assert [rate.tobytes() for rate in rates] == [rate.tobytes() for rate in want]


def test_safety_filter_clamps_nominal_into_constraint():
    model, specs = _paper_model()
    # a state close to the threshold forces psi1 to bind from below
    sts = {1: np.array([0.099]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood
    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    region = ControlRegion(((0.0, 0.75),))
    u, relaxed = safety_filter(np.array([0.0]), region, specs[1], lie, sts[1])
    assert not relaxed
    # returned control satisfies psi1 >= 0 and is the least one doing so
    base = lie.lf_h + specs[1].eta * (specs[1].threshold - 0.099)
    assert base + lie.lg_h[0] * u[0] >= -1e-12
    if base < 0:
        assert u[0] == pytest.approx(-base / lie.lg_h[0], abs=1e-12)


def test_safety_filter_relaxes_when_region_cannot_reach_psi1():
    model, specs = _paper_model()
    sts = {1: np.array([0.099]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood
    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    # region capped far below what psi1 needs
    region = ControlRegion(((0.0, 0.01),))
    base = lie.lf_h + specs[1].eta * (specs[1].threshold - 0.099)
    if base + lie.lg_h[0] * 0.01 < 0:
        u, relaxed = safety_filter(np.array([0.0]), region, specs[1], lie, sts[1])
        assert relaxed
        assert u[0] == pytest.approx(0.01, abs=1e-15)


def test_safety_filter_certificate_pins_negotiated_share():
    model, specs = _paper_model()
    sts = {1: np.array([0.05]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood

    from ccbf import QuadraticForm

    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    region = ControlRegion(((0.0, 0.75),))
    # concave own-margin whose maximum over the box sits at the upper
    # bound with exactly zero slack: the deal leaves only that point
    cert = QuadraticForm(-0.09375, np.array([0.2]), np.array([[-0.1]]))
    assert cert.value(np.array([0.75])) == pytest.approx(0.0, abs=1e-15)
    u, relaxed = safety_filter(np.array([0.0]), region, specs[1], lie, sts[1],
                               certificate=cert)
    assert not relaxed
    assert u[0] == pytest.approx(0.75, abs=1e-6)
    assert cert.value(u) >= -1e-8


def test_safety_filter_drops_unreachable_certificate():
    model, specs = _paper_model()
    sts = {1: np.array([0.05]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood

    from ccbf import QuadraticForm

    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    region = ControlRegion(((0.0, 0.75),))
    # negative everywhere: impossible demand must not poison the filter
    cert = QuadraticForm(-5.0, np.array([0.1]), np.array([[-0.1]]))
    u, relaxed = safety_filter(np.array([0.2]), region, specs[1], lie, sts[1],
                               certificate=cert)
    assert not relaxed
    assert u[0] == pytest.approx(0.2, abs=1e-12)  # plain psi1 clamp of nominal


def test_safety_filter_convex_certificate_picks_nearest_piece():
    model, specs = _paper_model()
    sts = {1: np.array([0.05]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood

    from ccbf import QuadraticForm

    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    region = ControlRegion(((0.0, 0.75),))
    # convex with roots at 0.2 and 0.5: feasible pieces [0, 0.2] and [0.5, 0.75]
    cert = QuadraticForm(0.1, np.array([-0.7]), np.array([[1.0]]))
    u, _ = safety_filter(np.array([0.45]), region, specs[1], lie, sts[1],
                         certificate=cert)
    assert u[0] == pytest.approx(0.5, abs=1e-6)
    u, _ = safety_filter(np.array([0.25]), region, specs[1], lie, sts[1],
                         certificate=cert)
    assert u[0] == pytest.approx(0.2, abs=1e-6)


def test_safety_filter_rejects_vector_regions():
    # Lie terms of a node with a two-input control
    lie = SimpleNamespace(lf_h=-0.1, lg_h=np.array([0.05, 0.05]))
    box = ((0.0, 0.75), (0.0, 0.75))
    for region in (ControlRegion(box), ControlRegion(box, frozen_point=np.array([0.3, 0.3]))):
        with pytest.raises(DimensionError):
            safety_filter(np.zeros(2), region, BarrierSpec(0.1), lie, np.array([0.05]))


def test_safety_filter_frozen_region_returns_point():
    model, specs = _paper_model()
    sts = {1: np.array([0.05]), 2: np.array([0.05]), 3: np.array([0.05])}
    from ccbf.dynamics import neighborhood
    lie = model.lie_table(neighborhood(model.graph, sts, 1), 1)
    region = ControlRegion(((0.0, 0.75),), frozen_point=np.array([0.3]))
    u, relaxed = safety_filter(np.array([0.7]), region, specs[1], lie, sts[1])
    assert u[0] == 0.3
    assert not relaxed


def test_result_csv_schema_and_roundtrip(tmp_path: Path):
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.05, t_final=0.5,
                       collect_messages=True)
    out = tmp_path / "result.csv"
    write_result_csv(out, res)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "x_3", "u_1", "u_2", "u_3",
                       "cbar_1", "cbar_2", "cbar_3", "outer_rounds", "inner_rounds",
                       "viol_1", "viol_2", "viol_3"]
    assert len(rows) == 12
    for k, row in enumerate(rows[1:]):
        assert float(row[0]) == res.times[k]
        assert float(row[1]) == res.states[k, 0]  # .17g round-trips exactly
        assert float(row[4]) == res.controls[k, 0]
        assert int(row[10]) == res.outer_rounds[k]
    viol = res.violations()
    assert float(rows[1][12]) == viol[0, 0]


def test_csv_writers_spell_every_float_with_17_digits(tmp_path: Path):
    # one edge, 1 -> 2: node 2 may ask node 1, and node 1 answers each
    # sub-round; a record holds lists over the edges
    layout = edge_layout(NetworkGraph(2, [(1, 2)]))
    asks, quiet = [True], [False]
    res = ScenarioResult(
        times=np.array([0.0, 0.1]),
        states=np.array([[-0.0, 5e-324], [np.nan, np.inf]]),
        controls=np.array([[1 / 3, 1e300], [-1e-300, 2.0 ** 53]]),
        capabilities=np.array([[0.5, -np.inf], [7.0, 0.25]]),
        outer_rounds=np.array([1, 2]), inner_rounds=np.array([0, 3]),
        thresholds=(0.1, 0.2),
        messages=[(0.1, [(1, asks, [0.1], [5e-324])]),
                  (0.2, [(3, quiet, [0.0], [-0.0])])],
        layout=layout)
    write_result_csv(tmp_path / "result.csv", res)
    write_messages_csv(tmp_path / "messages.csv", res)
    assert (tmp_path / "result.csv").read_text() == (
        "t,x_1,x_2,u_1,u_2,cbar_1,cbar_2,outer_rounds,inner_rounds,viol_1,viol_2\n"
        "0,-0,4.9406564584124654e-324,0.33333333333333331,1.0000000000000001e+300,"
        "0.5,-inf,1,0,0,0\n"
        "0.10000000000000001,nan,inf,-1e-300,9007199254740992,"
        "7,0.25,2,3,nan,-inf\n")
    assert (tmp_path / "messages.csv").read_text() == (
        "sim_time,sub_round,kind,from,to,value\n"
        "0.10000000000000001,1,request,2,1,0.10000000000000001\n"
        "0.10000000000000001,1,adjust,1,2,4.9406564584124654e-324\n"
        "0.20000000000000001,3,adjust,1,2,-0\n")


def test_messages_csv_schema(tmp_path: Path):
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=3.0,
                       collect_messages=True)
    out = tmp_path / "messages.csv"
    write_messages_csv(out, res)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sim_time", "sub_round", "kind", "from", "to", "value"]
    assert len(rows) == sum(len(list(message_rows(res.layout, records)))
                            for _, records in res.messages) + 1
    kinds = {row[2] for row in rows[1:]}
    assert kinds <= {"request", "adjust"}
    subs = [int(row[1]) for row in rows[1:]]
    assert min(subs) == 1


def _per_row_messages_csv(res: ScenarioResult) -> str:
    """messages.csv formatted one message at a time: the writer's oracle."""
    text = ["sim_time,sub_round,kind,from,to,value\n"]
    for t, records in res.messages:
        stamp = "%.17g" % t
        text += ("%s,%d,%s,%d,%d,%.17g\n" % (stamp, *row)
                 for row in message_rows(res.layout, records))
    return "".join(text)


def test_messages_csv_matches_the_per_row_format(tmp_path: Path):
    # the random protocol instances log nodes without in-edges, dead
    # channels, refusals and many eligibility patterns; the weak network
    # logs up to its halt
    rng = np.random.default_rng(4242)
    out = tmp_path / "messages.csv"
    empty = np.zeros((0, 1))
    for _ in range(2000):
        graph, layout, psi2, lo, hi, options = _random_instance(rng)
        kernel = _protocol_kernel(ArrayKernel, graph, lo, hi, **options)
        logged = []
        for t in rng.choice([0.0, 0.01, 1 / 3, 99.99], size=int(rng.integers(1, 3))):
            records: list = []
            try:
                kernel.negotiate(*psi2, records)
            except CcbfError:
                pass
            logged.append((float(t), records))
        res = ScenarioResult(times=np.zeros(0), states=empty, controls=empty,
                             capabilities=empty, outer_rounds=np.zeros(0, dtype=int),
                             inner_rounds=np.zeros(0, dtype=int), thresholds=(),
                             messages=logged, layout=layout)
        write_messages_csv(out, res)
        assert out.read_bytes() == _per_row_messages_csv(res).encode()
    model, specs = _weak_two_node()
    res = run_scenario(model, specs, np.array([0.02, 0.05]), dt=0.01, t_final=30.0,
                       collect_messages=True)
    assert res.halt_reason == "infeasible"
    write_messages_csv(out, res)
    assert out.read_bytes() == _per_row_messages_csv(res).encode()


def _per_row_result_csv(res: ScenarioResult) -> str:
    """result.csv formatted one row at a time with `%`: the writer's oracle."""
    n = res.node_count
    header = (["t"] + [f"{name}_{i}" for name in ("x", "u", "cbar") for i in range(1, n + 1)]
              + ["outer_rounds", "inner_rounds"] + [f"viol_{i}" for i in range(1, n + 1)])
    row_format = ",".join(["%.17g"] * (1 + 3 * n) + ["%d", "%d"] + ["%.17g"] * n) + "\n"
    rows = zip(res.times.tolist(), res.states, res.controls, res.capabilities,
               res.outer_rounds.tolist(), res.inner_rounds.tolist(), res.violations())
    return ",".join(header) + "\n" + "".join(
        row_format % (t, *x.tolist(), *u.tolist(), *cbar.tolist(), outer, inner, *v.tolist())
        for t, x, u, cbar, outer, inner, v in rows)


_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-308, np.inf, -np.inf, np.nan, 1e-6, 9.9e-7,
                     1.5e-6, 1e16, 1e17, 2.0 ** 53, 1e300, 0.1, 1 / 3])


def _random_result(rng, rows: int, n: int) -> ScenarioResult:
    def floats(*shape):
        # plain values over many decades, with the special ones sprinkled in
        out = rng.random(shape) * 10.0 ** rng.integers(-9, 18, shape)
        out *= rng.choice([-1.0, 1.0], shape)
        pick = rng.random(shape) < 0.2
        out[pick] = rng.choice(_SPECIAL, int(pick.sum()))
        return out
    return ScenarioResult(
        times=floats(rows), states=floats(rows, n), controls=floats(rows, n),
        capabilities=floats(rows, n), outer_rounds=rng.integers(0, 2 ** 53, rows),
        inner_rounds=rng.integers(0, 100, rows), thresholds=tuple(rng.random(n).tolist()))


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("rows", [0, 1, 57])
def test_result_csv_matches_the_per_row_format(tmp_path: Path, n: int, rows: int):
    rng = np.random.default_rng(1000 * n + rows)
    out = tmp_path / "result.csv"
    for _ in range(3):
        res = _random_result(rng, rows, n)
        write_result_csv(out, res)
        assert out.read_bytes() == _per_row_result_csv(res).encode()
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=3.0)
    write_result_csv(out, res)
    assert out.read_bytes() == _per_row_result_csv(res).encode()


# A writer's traced peak stays below this however long the run: far below the
# 50 000-row tables of the test, whose text is 11 MB and more.
WRITER_PEAK_BYTES = 2 * 2 ** 20


def test_writers_hold_a_bounded_block_in_memory(tmp_path: Path):
    rows = 50_000
    rng = np.random.default_rng(7)
    res = _random_result(rng, rows, 3)
    # a long message log on the paper's six edges: one sub-round a step
    layout = edge_layout(NetworkGraph(3, [(j, i) for j in (1, 2, 3) for i in (1, 2, 3) if i != j]))
    logged = [(0.01 * k, [(1, [k % 2 == 0] * 6, rng.random(6).tolist(), rng.random(6).tolist())])
              for k in range(rows)]
    res = ScenarioResult(**{**vars(res), "messages": logged, "layout": layout})
    for write, name in ((write_result_csv, "result.csv"), (write_messages_csv, "messages.csv")):
        tracemalloc.start()
        try:
            write(tmp_path / name, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / name).stat().st_size
        assert size > 5 * WRITER_PEAK_BYTES
        assert peak < WRITER_PEAK_BYTES, (name, peak, size)


def test_identical_runs_write_identical_bytes(tmp_path: Path):
    model, specs = _paper_model()
    paths = []
    for tag in ("a", "b"):
        res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=1.0,
                           collect_messages=True)
        rp = tmp_path / f"result_{tag}.csv"
        mp = tmp_path / f"messages_{tag}.csv"
        write_result_csv(rp, res)
        write_messages_csv(mp, res)
        paths.append((rp, mp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_random_interior_starts_stay_safe():
    model, specs = _paper_model()
    rng = np.random.default_rng(17)
    for _ in range(5):
        x0 = rng.uniform(0.0, 1.0, size=3) * np.array(PAPER_XBAR) * 0.9
        res = run_scenario(model, specs, x0, dt=0.02, t_final=8.0)
        assert res.halted_at is None
        assert res.violations().min() >= -1e-3
        assert res.max_clamp < 1e-9


def test_packed_nominal_passes_where_safe():
    # far from every threshold the filter leaves an in-box nominal untouched
    model, specs = _paper_model()
    nominal = np.array([0.1, 0.2, 0.3])
    res = run_scenario(model, specs, np.full(3, 0.01), dt=0.01, t_final=0.1,
                       nominal=nominal)
    assert np.array_equal(res.controls[0], nominal)
    with pytest.raises(ValueError, match="nominal"):
        run_scenario(model, specs, np.full(3, 0.01), dt=0.01, t_final=0.1,
                     nominal=np.zeros(2))


def test_bad_x0_shape_rejected():
    model, specs = _paper_model()
    with pytest.raises(ValueError):
        run_scenario(model, specs, np.zeros(4), dt=0.01, t_final=1.0)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_x0_outside_the_unit_interval_is_rejected(bad):
    # a state outside [0, 1] would give a negative coupling (1 - x_i) beta_ij x_j,
    # which the kernels' one-sided negotiation does not take
    model, specs = _paper_model()
    x0 = np.array([0.5, bad, bad])
    with pytest.raises(ValueError,
                       match=rf"^x0 entries must be in \[0, 1\], got {bad} at node 2$"):
        run_scenario(model, specs, x0, t_final=0.01)
    # either zero and 1 are inside; without collaboration nothing halts the run
    x0 = np.array([-0.0, 1.0, 0.0])
    res = run_scenario(model, specs, x0, t_final=0.01, collaboration=False)
    assert res.halted_at is None and res.states[0].tobytes() == x0.tobytes()


def test_missing_specs_and_bad_shapes_raise_dimension_errors():
    model, specs = _weak_two_node()
    with pytest.raises(DimensionError, match=r"^specs has no entry for nodes 2$"):
        run_scenario(model, {1: specs[1]}, np.full(2, 0.05), t_final=0.1)
    model, specs = _paper_model()
    with pytest.raises(DimensionError, match=r"^specs has no entry for nodes 1, 3$"):
        run_scenario(model, {2: specs[2]}, np.full(3, 0.05), t_final=0.1)
    with pytest.raises(DimensionError, match=r"^x0 has shape \(4,\)"):
        run_scenario(model, specs, np.zeros(4), t_final=0.1)
    with pytest.raises(DimensionError, match=r"^nominal has shape \(2,\)"):
        run_scenario(model, specs, np.zeros(3), t_final=0.1, nominal=np.zeros(2))
    with pytest.raises(DimensionError, match=r"^packed state must have shape \(2,\)$"):
        run_uncontrolled(_weak_two_node()[0], np.zeros(3), t_final=0.1)


@pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (0.1, 0.25)])
def test_horizon_must_be_whole_steps(dt, t_final):
    # rounding the step count would stop the run short of t_final
    model, specs = _paper_model()
    for run in (lambda: run_scenario(model, specs, np.array(PAPER_X0), dt=dt, t_final=t_final),
                lambda: run_uncontrolled(model, np.array(PAPER_X0), dt=dt, t_final=t_final)):
        with pytest.raises(ValueError, match="not a whole number of dt"):
            run()


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_horizon_beyond_an_array_raises_before_allocating(dt):
    # 1e302 steps and an infinite count: numpy could not size either table
    model, specs = _paper_model()
    for run in (lambda: run_scenario(model, specs, np.array(PAPER_X0), dt=dt),
                lambda: run_uncontrolled(model, np.array(PAPER_X0), dt=dt)):
        with pytest.raises(OverflowError, match="too many dt"):
            run()


@pytest.mark.parametrize("dt, t_final, name", [
    (-0.01, 1.0, "dt"), (0.0, 1.0, "dt"), (-0.0, 1.0, "dt"), (float("nan"), 1.0, "dt"),
    (float("inf"), 1.0, "dt"), (0.01, -1.0, "t_final"), (0.01, float("nan"), "t_final"),
    (0.01, float("inf"), "t_final"), (float("nan"), float("nan"), "dt"),
])
def test_step_and_horizon_are_checked_before_counting_steps(dt, t_final, name):
    # without the check these raised numpy's "negative dimensions",
    # ZeroDivisionError or an OverflowError about too many steps
    model, specs = _weak_two_node()
    x0 = np.array([0.02, 0.05])
    limit = "> 0" if name == "dt" else ">= 0"
    for run in (lambda: run_scenario(model, specs, x0, dt=dt, t_final=t_final),
                lambda: run_uncontrolled(model, x0, dt=dt, t_final=t_final)):
        with pytest.raises(ValueError, match=rf"^{name} must be finite and {limit}, got "):
            run()


def test_zero_horizon_runs_one_row():
    model, specs = _weak_two_node()
    x0 = np.array([0.02, 0.05])
    res = run_scenario(model, specs, x0, dt=0.01, t_final=0.0)
    times, states = run_uncontrolled(model, x0, dt=0.01, t_final=0.0)
    assert len(res.times) == len(times) == 1
    assert res.states.tobytes() == states.tobytes() == x0[None].tobytes()


def test_horizon_within_rounding_of_whole_steps_runs_to_the_end():
    # 0.3 / 0.01 is 29.999999999999996, which is 30 steps
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=0.3)
    times, _ = run_uncontrolled(model, np.array(PAPER_X0), dt=0.01, t_final=0.3)
    assert len(res.times) == len(times) == 31
    assert res.times[-1] == pytest.approx(0.3, abs=1e-15)


def test_state_projection_goes_through_the_model(monkeypatch):
    # the array kernel clamps through the model; the float kernel clamps in
    # its own advance, which test_kernels.py pins to this one bit for bit
    monkeypatch.setattr(simulate_mod, "FLOAT_KERNEL_NODES", 0)

    class Counting(SisModel):
        def __init__(self, graph, params):
            super().__init__(graph, params)
            self.clamps = 0

        def clamp_state(self, x):
            self.clamps += 1
            return super().clamp_state(x)

    base, specs = _paper_model()
    model = Counting(base.graph, base.params)
    run_scenario(model, specs, np.array(PAPER_X0), dt=0.1, t_final=1.0)
    assert model.clamps == 10
    run_uncontrolled(model, np.array(PAPER_X0), dt=0.1, t_final=1.0)
    assert model.clamps == 20


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    # the documented API: the README's "Library use" code, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["result"].halted_at is None
    with open(tmp_path / "result.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["t", "x_1", "x_2"]
    assert len(rows) == len(scope["result"].times) + 1
    assert capsys.readouterr().out
