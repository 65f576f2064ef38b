"""Closed-loop runs: oracles, safety, halting, and CSV output."""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ccbf.barrier import BarrierSpec
from ccbf.collab import message_rows
from ccbf.dynamics import SisModel, SisParams
from ccbf.errors import DimensionError
from ccbf.geometry import ControlRegion
from ccbf.graph import NetworkGraph, edge_layout
from ccbf.simulate import (
    ScenarioResult,
    _udot_for,
    run_scenario,
    run_uncontrolled,
    safety_filter,
    write_messages_csv,
    write_result_csv,
)

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_X0, PAPER_XBAR


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


def test_udot_policy_arithmetic():
    warned = [False]
    zero = np.zeros(1)
    assert np.all(_udot_for("zero", [np.array([1.0]), np.array([2.0])], zero, 0.1, warned) == 0.0)
    assert np.all(_udot_for("backward_difference", [], zero, 0.1, warned) == 0.0)
    assert np.all(_udot_for("backward_difference", [np.array([1.0])], zero, 0.1, warned) == 0.0)
    rate = _udot_for("backward_difference", [np.array([1.0]), np.array([1.5])], zero, 0.1, warned)
    assert rate[0] == pytest.approx(5.0, abs=1e-12)


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
    # sub-round; a record holds flat lists over the by-target slots
    layout = edge_layout(NetworkGraph(2, [(1, 2)]))
    asks, quiet = [False, True], [False, False]
    res = ScenarioResult(
        times=np.array([0.0, 0.1]),
        states=np.array([[-0.0, 5e-324], [np.nan, np.inf]]),
        controls=np.array([[1 / 3, 1e300], [-1e-300, 2.0 ** 53]]),
        capabilities=np.array([[0.5, -np.inf], [7.0, 0.25]]),
        outer_rounds=np.array([1, 2]), inner_rounds=np.array([0, 3]),
        thresholds=(0.1, 0.2),
        messages=[(0.1, [(1, asks, [0.0, 0.1], [0.0, 5e-324])]),
                  (0.2, [(3, quiet, [0.0, 0.0], [0.0, -0.0])])],
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


@pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (0.1, 0.25)])
def test_horizon_must_be_whole_steps(dt, t_final):
    # rounding the step count would stop the run short of t_final
    model, specs = _paper_model()
    for run in (lambda: run_scenario(model, specs, np.array(PAPER_X0), dt=dt, t_final=t_final),
                lambda: run_uncontrolled(model, np.array(PAPER_X0), dt=dt, t_final=t_final)):
        with pytest.raises(ValueError, match="not a whole number of dt"):
            run()


def test_horizon_within_rounding_of_whole_steps_runs_to_the_end():
    # 0.3 / 0.01 is 29.999999999999996, which is 30 steps
    model, specs = _paper_model()
    res = run_scenario(model, specs, np.array(PAPER_X0), dt=0.01, t_final=0.3)
    times, _ = run_uncontrolled(model, np.array(PAPER_X0), dt=0.01, t_final=0.3)
    assert len(res.times) == len(times) == 31
    assert res.times[-1] == pytest.approx(0.3, abs=1e-15)


def test_state_projection_goes_through_the_model():
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
