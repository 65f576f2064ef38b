"""Command line behavior: subcommands, exit codes, artifacts, SVG shape."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ccbf.cli
from ccbf.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_STALL,
                      _sweep_one, build_parser, effective_config, main, read_scenario_text,
                      run_config)
from ccbf.config import normalize_config, parse_config
from ccbf.simulate import block_rows

from conftest import PAPER_RUNS, run_paper

WEAK = """\
graph.nodes = 2
graph.edges = [[1, 2], [2, 1]]
model.type = sis
model.beta = [[0.5, 0.4], [0.4, 0.5]]
model.gamma = [0.3, 0.3]
model.u_max = [0.2, 0.2]
barrier.x_bar = [0.1, 0.5]
sim.x0 = [0.02, 0.05]
sim.t_final = 5.0
"""


def svg_counts(svg_path):
    """Per-panel element counts keyed by (panel id, localname, class)."""
    root = ET.parse(svg_path).getroot()
    counts = {}
    for panel in root:
        panel_id = panel.get("id")
        if panel_id is None:
            continue
        for el in panel:
            tag = el.tag.rsplit("}", 1)[-1]
            key = (panel_id, tag, el.get("class"))
            counts[key] = counts.get(key, 0) + 1
    return counts


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _meta(out_dir) -> dict:
    return json.loads((out_dir / "meta.json").read_text())


def _edited(text: str, edits: dict[str, str]) -> str:
    """Config text with each key's line replaced by its assignment, or the assignment appended."""
    lines = text.splitlines()
    for key, value in edits.items():
        at = [k for k, line in enumerate(lines) if line.startswith(f"{key} =")]
        if at:
            lines[at[0]] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_validate_bundled_scenario_prints_fixed_point(capsys):
    assert main(["validate", "paper_sis3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert normalize_config(parse_config(out)) == out
    # the normalized bundled scenario: the config text meta.json embeds
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e7be6fe3175261b2554ee17a9f069206bb2d5927ae28ddb3d3d69409e8838392"


def test_run_writes_artifacts_and_trace(tmp_path):
    out = tmp_path / "runout"
    code = main(["run", "paper_sis3", "--out", str(out), "--t-final", "1.0",
                 "--trace"])
    assert code == EXIT_OK
    assert (out / "result.csv").exists()
    assert (out / "messages.csv").exists()
    meta = _meta(out)
    assert meta["halted_at"] is None
    assert meta["cap_tripped_steps"] == 0
    assert meta["versions"]["ccbf"]
    assert "sim.trace = on" in meta["config"]
    assert "sim.t_final = 1.0" in meta["config"]


def test_meta_splits_the_loop_from_its_writes(tmp_path):
    # the writers run inside the loop, block by block: write_s sums their
    # time, and wall_time_s is the loop's without it
    started = time.perf_counter()
    assert run_config(_paper_config({"sim.t_final": 1.0, "sim.trace": True}), tmp_path) \
        == EXIT_OK
    elapsed = time.perf_counter() - started
    meta = _meta(tmp_path)
    assert meta["write_s"] > 0.0 and meta["wall_time_s"] > 0.0
    assert meta["wall_time_s"] + meta["write_s"] <= elapsed


def _paper_config(overrides):
    return parse_config(read_scenario_text("paper_sis3"), overrides)


# sha256 of the bundled paper_sis3 outputs; any change to these bytes must be
# explained.  traced and no_collab are PAPER_RUNS' 100 s runs; under the
# backward-difference control rate the traced run chatters and halts at
# t = 2.92 (the same bytes at a t_final of 20 s)
PAPER_SHA256 = {
    "traced": {
        "result.csv": "51247f2d772d853ea98c9144517a1de5176f96ad113d5168f53c9b51e5b35071",
        "messages.csv": "6278e9566c8fb43db14aa06c8b2ef733c432460a5569069182d3760d2f301f6d",
    },
    "no_collab": {
        "result.csv": "1fd5bcb2b5f9227ce2537cf4a4327a9f19554a7e717183d045b6eb0e85bc8a66",
    },
    "backward_difference": {
        "result.csv": "3d49ebe226dcaac222b3d8b30ca761d99a8182153c2211b2d3d58ff3fce536ad",
        "messages.csv": "7c84f2782b3fcc372d2fa8960cd49de6f76ecaf4c421fee6b3b2c385051f8181",
    },
}
# negotiation keeps every filter feasible; without it node 1 relaxes 9 630 of
# the 10 001 rows
PAPER_RELAXED_STEPS = {"traced": [0, 0, 0], "no_collab": [9630, 0, 0]}


@pytest.mark.parametrize("kernel", ["float", "array"])
@pytest.mark.parametrize("case", list(PAPER_SHA256))
def test_paper_scenario_digests(case, kernel, paper_run, tmp_path, monkeypatch):
    # the three nodes step on the float kernel; forcing the array kernel must
    # give the same bytes, so both kernels stay pinned over every step
    monkeypatch.setattr("ccbf.simulate.FLOAT_KERNEL_NODES", 10 ** 9 if kernel == "float" else 0)
    if case == "backward_difference":
        out = tmp_path
        cfg = _paper_config({"barrier.udot_policy": "backward_difference", "sim.trace": True,
                             "sim.t_final": 5.0})
        assert run_config(cfg, out) == EXIT_INFEASIBLE
        meta = _meta(out)
        assert (meta["halted_at"], meta["infeasible_nodes"]) == (2.92, [1])
    else:
        if kernel == "float":
            code, out, _ = paper_run(case)
        else:
            code, out = run_paper(case, tmp_path), tmp_path
        assert code == EXIT_OK
        meta = _meta(out)
        assert meta["relaxed_steps"] == PAPER_RELAXED_STEPS[case]
        # a flag is exactly a text assignment: the config the flagged run
        # embeds is what `ccbf validate` makes of the bundled file with the
        # same keys edited in
        edits = {**PAPER_RUNS[case][1], "output.dir": str(out)}
        assert meta["config"] == normalize_config(parse_config(
            _edited(read_scenario_text("paper_sis3"), edits)))
    for name, digest in PAPER_SHA256[case].items():
        assert _sha256(out / name) == digest, name


# A traced paper run's tracemalloc peak stays below this however long its
# horizon: one block of rows and the sub-rounds logged at them.  Holding the
# whole run took 1.4 MB at 1 000 steps and 8.7 MB at 10 000.
RUN_PEAK_BYTES = 2 ** 20


@pytest.mark.parametrize("kernel", ["float", "array"])
def test_a_run_holds_one_block_in_memory(kernel, tmp_path, monkeypatch):
    monkeypatch.setattr("ccbf.simulate.FLOAT_KERNEL_NODES", 10 ** 9 if kernel == "float" else 0)
    for steps in (1_000, 10_000):
        cfg = _paper_config({"sim.t_final": steps * 0.01, "sim.trace": True})
        tracemalloc.start()
        try:
            assert run_config(cfg, tmp_path) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "result.csv").read_text().count("\n") == steps + 2
        assert peak < RUN_PEAK_BYTES, (steps, peak)


def test_a_run_that_fails_midway_leaves_its_blocks_and_no_manifest(tmp_path, monkeypatch):
    # the blocks written before the failure stay, and no meta.json, not even
    # an earlier run's, passes them off as a finished run
    cfg = _paper_config({"sim.t_final": 5.0})
    assert run_config(cfg, tmp_path) == EXIT_OK
    run_scenario = ccbf.cli.run_scenario

    def full_disk(*args, sink, **kwargs):
        def write_once(block):
            sink(block)
            raise OSError(28, "No space left on device")
        return run_scenario(*args, sink=write_once, **kwargs)

    monkeypatch.setattr("ccbf.cli.run_scenario", full_disk)
    assert main(["run", "paper_sis3", "--t-final", "5.0", "--out", str(tmp_path)]) \
        == EXIT_INTERNAL
    assert not (tmp_path / "meta.json").exists()
    rows = (tmp_path / "result.csv").read_text().count("\n") - 1
    assert rows == block_rows(3) < 501


def test_filter_relaxations_are_counted_per_node(tmp_path):
    # without negotiation node 1 cannot hold psi1 on its own: 1 630 of the
    # 2 001 rows of the first 20 s relax (9 630 of 10 001 over 100 s)
    cfg = _paper_config({"sim.t_final": 20.0, "sim.collaboration": False})
    assert run_config(cfg, tmp_path) == EXIT_OK
    assert _meta(tmp_path)["relaxed_steps"] == [1630, 0, 0]


# three nodes where 25 of the 501 steps need a third capability round
RELAY = """\
graph.nodes = 3
graph.edges = [[1, 2], [1, 3], [2, 1], [3, 2]]
model.type = sis
model.beta = [[0.4, 0.14, 0.0], [0.28, 0.53, 0.34], [0.36, 0.0, 0.34]]
model.gamma = 0.3
model.u_max = [1.22, 0.51, 0.36]
barrier.x_bar = [0.19, 0.1, 0.15]
sim.x0 = [0.111, 0.04, 0.127]
sim.t_final = 5.0
"""


def _outer_rounds(out_dir):
    with open(out_dir / "result.csv", newline="") as fh:
        return [int(row["outer_rounds"]) for row in csv.DictReader(fh)]


def test_outer_cap_trips_are_counted_and_reported(tmp_path, caplog):
    # with the smallest cap, the steps that need a third round trip it:
    # each is counted and logged, and nothing halts the run
    assert run_config(parse_config(RELAY), tmp_path / "free") == EXIT_OK
    free = _outer_rounds(tmp_path / "free")
    assert free.count(3) == 25 and max(free) == 3
    with caplog.at_level(logging.WARNING, logger="ccbf.simulate"):
        assert run_config(parse_config(RELAY + "sim.outer_cap = 2\n"), tmp_path) == EXIT_OK
    meta = _meta(tmp_path)
    assert meta["halted_at"] is None
    assert meta["cap_tripped_steps"] == 25
    assert max(_outer_rounds(tmp_path)) == 2
    assert any("outer round cap" in r.getMessage() for r in caplog.records)


def test_manifest_reproduces_result_bytes(tmp_path, monkeypatch, capsys):
    # any directory name, one with a `#` or one that reads as a boolean too,
    # reproduces its run: the config meta.json embeds is a fixed point of
    # `ccbf validate`, its output.dir names that directory, and running it
    # again writes the same bytes
    monkeypatch.chdir(tmp_path)
    for k, out in enumerate([str(tmp_path / "a#b"), str(tmp_path / "on"), "on"]):
        assert main(["run", "paper_sis3", "--out", out, "--t-final", "1.0"]) == EXIT_OK
        embedded = _meta(Path(out))["config"]
        cfg_file = tmp_path / f"replay{k}.cfg"
        cfg_file.write_text(embedded)
        capsys.readouterr()
        assert main(["validate", str(cfg_file)]) == EXIT_OK
        assert capsys.readouterr().out == embedded
        assert parse_config(embedded).output_dir == out
        again = tmp_path / f"again{k}"
        assert main(["run", str(cfg_file), "--out", str(again)]) == EXIT_OK
        assert (Path(out) / "result.csv").read_bytes() == (again / "result.csv").read_bytes()


def test_broken_config_reports_schema_errors(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text("graph.nodes = 3\n"
                   "graph.edges = [[1, 2], [2, 1], [1, 3], [3, 1], [2, 3], [3, 2]]\n"
                   "model.type = sis\n"
                   "model.beta = [[0.5, -0.25, 0.25], [0.25, 0.5, 0.25], "
                   "[0.25, 0.25, 0.5]]\n"
                   "model.u_max = 0.75\n"
                   "barrier.x_bar = [0.1, 0.12, 0.18]\n"
                   "sim.x0 = [0.04, 0.01, 0.02]\n"
                   "sim.dt = 0\n")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model.beta[0][1]: must be >= 0" in err
    assert "model.gamma: required key is missing" in err
    assert "sim.dt: must be > 0" in err


def test_validate_reports_a_node_count_beyond_memory(tmp_path, capsys):
    huge = "1" + "0" * 400
    bad = tmp_path / "huge.cfg"
    bad.write_text(read_scenario_text("paper_sis3").replace("graph.nodes = 3",
                                                            f"graph.nodes = {huge}"))
    assert main(["validate", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"model.beta: must be a {huge}x{huge} matrix" in err
    assert "Traceback" not in err


def test_a_horizon_beyond_an_array_exits_as_a_config_error(tmp_path, capsys):
    # 1e302 steps: numpy refuses such a table before allocating anything
    why = ("sim.t_final: must take few enough sim.dt (1e-300) steps for a table of 3 nodes "
           "to fit in an array, got 100.0\n")
    assert main(["run", "paper_sis3", "--dt", "1e-300", "--out", str(tmp_path / "x")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == why
    cfg = tmp_path / "tiny_dt.cfg"
    cfg.write_text(read_scenario_text("paper_sis3").replace("sim.dt = 0.01", "sim.dt = 1e-300"))
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == why


def test_unknown_scenario_name(capsys):
    assert main(["run", "no_such_scenario"]) == EXIT_CONFIG
    assert "no such file or bundled scenario" in capsys.readouterr().err


def test_override_validation_catches_bad_dt(tmp_path, capsys):
    assert main(["run", "paper_sis3", "--out", str(tmp_path / "x"),
                 "--dt", "0"]) == EXIT_CONFIG
    assert "sim.dt" in capsys.readouterr().err


def test_a_flag_replaces_an_invalid_file_value(tmp_path):
    # the flag is assigned before validation, so the file's own value is never read
    bad = tmp_path / "bad_dt.cfg"
    bad.write_text(read_scenario_text("paper_sis3").replace("sim.dt = 0.01", "sim.dt = -1"))
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["run", str(bad), "--out", str(tmp_path / "y"), "--dt", "0.01",
                 "--t-final", "0.1"]) == EXIT_OK


# each run flag, and the config assignment it stands for
RUN_FLAGS = {
    "out": (["--out", "elsewhere"], {"output.dir": "elsewhere"}),
    "trace": (["--trace"], {"sim.trace": "on"}),
    "no-collab": (["--no-collab"], {"sim.collaboration": "off"}),
    "continue": (["--continue-on-infeasible"], {"sim.continue_on_infeasible": "on"}),
    "dt": (["--dt", "0.05"], {"sim.dt": "0.05"}),
    "t-final": (["--t-final", "20"], {"sim.t_final": "20"}),
}
RUN_FLAGS["all"] = (sum((argv for argv, _ in RUN_FLAGS.values()), []),
                    {k: v for _, edits in RUN_FLAGS.values() for k, v in edits.items()})


@pytest.mark.parametrize("flags", RUN_FLAGS)
def test_a_run_flag_is_its_config_assignment(flags):
    argv, edits = RUN_FLAGS[flags]
    text = read_scenario_text("paper_sis3")
    edited = parse_config(_edited(text, edits))
    cfg = effective_config("paper_sis3", build_parser().parse_args(["run", "paper_sis3", *argv]))
    assert cfg == edited != parse_config(text)
    assert normalize_config(cfg) == normalize_config(edited)


def test_a_directory_is_not_a_scenario_file(tmp_path, monkeypatch, capsys):
    assert main(["run", str(tmp_path)]) == EXIT_CONFIG
    assert f"{tmp_path}: no such file" in capsys.readouterr().err
    # a directory named like a bundled scenario does not hide it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper_sis3").mkdir()
    assert read_scenario_text("paper_sis3").startswith("# Three-node SIS network")


def test_terminal_halt_exits_with_distinct_code(tmp_path, capsys):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(WEAK)
    out = tmp_path / "weakout"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INFEASIBLE
    assert "terminally infeasible" in capsys.readouterr().err
    # partial artifacts still land
    assert (out / "result.csv").exists()
    meta = _meta(out)
    assert meta["halted_at"] == pytest.approx(0.92)
    assert meta["halt_reason"] == "infeasible"
    assert meta["infeasible_nodes"] == [1]


# sha256 of the weak pair's traced run from x0 = [0.1, 0.3], which halts at
# its first step: no row, and the 150 messages of step 0
WEAK_FIRST_STEP_SHA256 = {
    "result.csv": "c99e54349b2424ec655818f7a30ffaf066056008cfb7059b27d0b7ffbe984222",
    "messages.csv": "161344cb52b723b4a3bf1c329b4d5e95dca28e58d974a2b0b721a4273588d532",
}


def test_a_halt_at_the_first_step_still_writes_its_messages(tmp_path, monkeypatch):
    # the run's only block is empty but for the halting step's sub-rounds
    for kernel, cutoff in (("float", 10 ** 9), ("array", 0)):
        monkeypatch.setattr("ccbf.simulate.FLOAT_KERNEL_NODES", cutoff)
        out = tmp_path / kernel
        cfg = parse_config(WEAK, {"sim.x0": [0.1, 0.3], "sim.trace": True})
        assert run_config(cfg, out) == EXIT_INFEASIBLE
        assert (_meta(out)["halted_at"], _meta(out)["infeasible_nodes"]) == (0.0, [1])
        assert (out / "result.csv").read_text().count("\n") == 1
        lines = (out / "messages.csv").read_text().splitlines()
        assert len(lines) == 151 and all(line.startswith("0,") for line in lines[1:])
        for name, digest in WEAK_FIRST_STEP_SHA256.items():
            assert _sha256(out / name) == digest, (kernel, name)


# sha256 of the weak pair's traced run past its halt: 501 rows, and 50 890
# messages with refusals and frozen helpers among them
WEAK_CONTINUED_SHA256 = {
    "result.csv": "d276276356e16bedbecb4c30ba3422eb8f050d5703e3fec307e9ae1bc2c3a121",
    "messages.csv": "13490642bfa91cd7efb8ed1f6d12955e53a952b4215b33c8bde71ec2eb117618",
}


def test_continue_on_infeasible_runs_past_the_halt(tmp_path, monkeypatch, caplog):
    # the run goes on past the weak pair's infeasible rounds, to the same
    # bytes on both step kernels, and one warning counts those rounds
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(WEAK)
    for kernel, cutoff in (("float", 10 ** 9), ("array", 0)):
        monkeypatch.setattr("ccbf.simulate.FLOAT_KERNEL_NODES", cutoff)
        out = tmp_path / kernel
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ccbf"):
            assert main(["run", str(cfg), "--out", str(out), "--continue-on-infeasible",
                         "--trace"]) == EXIT_OK
        meta = _meta(out)
        assert meta["halted_at"] is None
        assert meta["infeasible_nodes"] == [1]
        assert [rec.getMessage() for rec in caplog.records] == [
            "409 of 501 steps were terminally infeasible at nodes 1 and continued "
            "with unconstrained boxes"]
        for name, digest in WEAK_CONTINUED_SHA256.items():
            assert _sha256(out / name) == digest, (kernel, name)


@pytest.mark.parametrize("keep_going", ["off", "on"])
def test_stalled_negotiation_halts_with_its_own_code(tmp_path, capsys, keep_going):
    # one sub-round cannot settle the weak pair's negotiation at t = 0.92;
    # continue_on_infeasible covers terminal infeasibility only, so the
    # stall halts the run either way
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(WEAK + f"sim.inner_cap = 1\nsim.continue_on_infeasible = {keep_going}\n")
    out = tmp_path / "stallout"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_STALL
    assert "negotiation stalled at t=0.92" in capsys.readouterr().err
    meta = _meta(out)
    assert meta["halt_reason"] == "stall"
    assert meta["halted_at"] == pytest.approx(0.92)
    assert meta["infeasible_nodes"] == []
    # partial artifacts hold every step before the stalled one
    with open(out / "result.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 92


def test_no_collab_flag_disables_negotiation(tmp_path):
    out = tmp_path / "nc"
    assert main(["run", "paper_sis3", "--out", str(out), "--t-final", "0.5",
                 "--no-collab", "--trace"]) == EXIT_OK
    meta = _meta(out)
    assert "sim.collaboration = off" in meta["config"]
    # trace file exists but holds only the header: nothing was negotiated
    lines = (out / "messages.csv").read_text().splitlines()
    assert len(lines) == 1


def test_plot_paper_scenario_counts(tmp_path):
    out = tmp_path / "plotrun"
    assert main(["run", "paper_sis3", "--out", str(out), "--t-final", "1.0"]) == EXIT_OK
    svg = tmp_path / "fig.svg"
    assert main(["plot", str(out / "result.csv"), "--out", str(svg)]) == EXIT_OK
    counts = svg_counts(svg)
    assert counts[("states", "polyline", "trace")] == 3
    assert counts[("controls", "polyline", "trace")] == 3
    assert counts[("states", "line", "threshold")] == 3
    assert counts[("controls", "line", "bound")] == 1


def test_plot_default_output_is_sibling_svg(tmp_path):
    out = tmp_path / "sib"
    assert main(["run", "paper_sis3", "--out", str(out), "--t-final", "0.5"]) == EXIT_OK
    assert main(["plot", str(out / "result.csv")]) == EXIT_OK
    assert (out / "result.svg").exists()


def test_plot_explicit_meta_path(tmp_path):
    out = tmp_path / "metarun"
    assert main(["run", "paper_sis3", "--out", str(out), "--t-final", "0.5"]) == EXIT_OK
    moved = tmp_path / "elsewhere.json"
    moved.write_bytes((out / "meta.json").read_bytes())
    (out / "meta.json").unlink()
    svg = tmp_path / "m.svg"
    assert main(["plot", str(out / "result.csv"), "--out", str(svg),
                 "--meta", str(moved)]) == EXIT_OK
    counts = svg_counts(svg)
    assert counts[("states", "line", "threshold")] == 3


def test_plot_header_only_csv(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("t,x_1,u_1\n")
    assert main(["plot", str(csv_path)]) == EXIT_CONFIG
    assert "no rows" in capsys.readouterr().err


def test_plot_malformed_cell_names_column(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("t,x_1,x_2,u_1,u_2\n0.0,0.1,oops,0.0,0.0\n")
    assert main(["plot", str(csv_path)]) == EXIT_CONFIG
    assert "x_2" in capsys.readouterr().err


def test_plot_single_row_degenerates_to_dots(tmp_path):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("t,x_1,x_2,u_1,u_2\n0.0,0.04,0.01,0.0,0.0\n")
    svg = tmp_path / "one.svg"
    assert main(["plot", str(csv_path), "--out", str(svg)]) == EXIT_OK
    counts = svg_counts(svg)
    assert counts[("states", "circle", "trace")] == 2
    assert counts[("controls", "circle", "trace")] == 2


def test_plot_missing_header_column(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("t,x_1,x_2,u_1\n0.0,0.1,0.1,0.0\n")
    assert main(["plot", str(csv_path)]) == EXIT_CONFIG
    assert "u_2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "table.csv: empty file, expected a header row"),
    ("x,y\n0,1\n", "header: first column must be t, got ['x']"),
    ("t,u_1\n0,1\n", "header: expected column x_1 after t"),
    ("t,x_1,u_1\n0.0,0.1,0.0\n0.01,0.1\n", "row 2: expected 3 cells, got 2"),
], ids=["empty", "first-column", "no-state", "short-row"])
def test_plot_rejects_a_malformed_table(text, message, tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(text)
    assert main(["plot", str(csv_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip("\n").endswith(message)
    assert not csv_path.with_suffix(".svg").exists()


def test_run_into_a_regular_file_reports_the_os_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file where the output directory goes")
    assert main(["run", "paper_sis3", "--out", str(out), "--t-final", "0.1"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 17] File exists: ")
    assert "Traceback" not in err


def test_sweep_numbers_a_repeated_scenario(tmp_path, capsys):
    root = tmp_path / "sweepout"
    code = main(["sweep", "paper_sis3", "paper_sis3", "--workers", "1", "--t-final", "0.1",
                 "--out", str(root)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["paper_sis3: ok", "paper_sis3-2: ok"]
    assert ((root / "paper_sis3" / "result.csv").read_bytes()
            == (root / "paper_sis3-2" / "result.csv").read_bytes())


def test_sweep_fans_out_to_subdirectories(tmp_path, capsys):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(WEAK)
    blocked = tmp_path / "blocked.cfg"
    blocked.write_text(WEAK)
    root = tmp_path / "sweepout"
    root.mkdir()
    (root / "blocked").write_text("a file where the output directory goes")
    code = main(["sweep", "paper_sis3", str(cfg), str(blocked), "--out", str(root),
                 "--t-final", "1.0"])
    assert code == EXIT_INFEASIBLE  # worst child wins
    assert (root / "paper_sis3" / "result.csv").exists()
    assert (root / "weak" / "result.csv").exists()
    out = capsys.readouterr().out
    assert "paper_sis3: ok" in out
    assert "weak: halted" in out
    assert "blocked: error" in out  # one worker's OSError does not end the sweep


def test_a_sweep_job_runs_in_process(tmp_path, capsys):
    # what each pool worker runs: a good job, then one whose output
    # directory is a regular file, reported under the job's name
    good = parse_config(WEAK, {"output.dir": str(tmp_path / "good"), "sim.t_final": 0.5})
    assert _sweep_one(("good", good)) == ("good", EXIT_OK)
    assert (tmp_path / "good" / "result.csv").read_text().count("\n") == 52
    (tmp_path / "taken").write_text("a file where the output directory goes")
    taken = parse_config(WEAK, {"output.dir": str(tmp_path / "taken")})
    assert _sweep_one(("taken", taken)) == ("taken", EXIT_INTERNAL)
    err = capsys.readouterr().err
    assert err.startswith("taken: [Errno 17] File exists: ")
    assert "Traceback" not in err


def test_sweep_rejects_an_empty_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "paper_sis3", "--out", ""]) == EXIT_CONFIG
    assert "output.dir: must be a non-empty string, got ''" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("workers, reason", [("0", "must be >= 1, got 0"),
                                             ("-2", "must be >= 1, got -2"),
                                             ("two", "must be an integer, got 'two'")])
def test_sweep_rejects_a_worker_count_below_one(capsys, workers, reason):
    # a usage error, raised while parsing, before any worker process starts
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "paper_sis3", "--workers", workers])
    assert excinfo.value.code == EXIT_CONFIG
    assert f"argument --workers: {reason}" in capsys.readouterr().err


def test_log_level_env_filters_stderr(tmp_path):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(WEAK)
    env = dict(os.environ, CCBF_LOG="warning")
    loud = subprocess.run(
        [sys.executable, "-m", "ccbf", "run", str(cfg), "--out",
         str(tmp_path / "loud")],
        capture_output=True, text=True, env=env)
    assert loud.returncode == EXIT_INFEASIBLE
    assert "ERROR ccbf.simulate" in loud.stderr
    env["CCBF_LOG"] = "critical"
    quiet = subprocess.run(
        [sys.executable, "-m", "ccbf", "run", str(cfg), "--out",
         str(tmp_path / "quiet")],
        capture_output=True, text=True, env=env)
    assert quiet.returncode == EXIT_INFEASIBLE
    assert "ERROR ccbf.simulate" not in quiet.stderr


def test_console_entry_point_exists():
    proc = subprocess.run([sys.executable, "-m", "ccbf", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ccbf ")


# what `ccbf run` and the bench's samples drive, in a fresh interpreter; the
# last line it prints is the exit code and every module it loaded beyond
# the interpreter's own start-up
RUN_PATH = """\
import sys
started = set(sys.modules)
from pathlib import Path
import ccbf
from ccbf import cli, config
cfg = config.parse_config(cli.read_scenario_text(sys.argv[1]))
code = cli.run_config(cfg, Path(sys.argv[2]))
print(code, *sorted(set(sys.modules) - started))
"""


def test_run_path_loads_only_what_a_run_executes(tmp_path):
    # the per-node reference, the plotter, the command-line parser, the
    # package data reader and the sweep's pool: no run calls any of them.
    # The start-up set is the baseline because a site hook may preload some.
    cfg = tmp_path / "paper.cfg"
    cfg.write_text(_edited(read_scenario_text("paper_sis3"),
                           {"sim.trace": "true", "sim.t_final": "3.0"}), encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", RUN_PATH, str(cfg), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == str(EXIT_OK)
    assert (out / "messages.csv").read_text().count("\n") > 1, "the run negotiated"
    assert "ccbf.simulate" in loaded
    assert sorted(set(loaded) & {"ccbf.collab", "ccbf.geometry", "ccbf.plot", "argparse",
                                 "importlib.resources", "concurrent.futures"}) == []


def test_public_names_resolve_to_their_submodules():
    import ccbf

    star: dict = {}
    exec("from ccbf import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(ccbf.__all__)
    for name in ccbf.__all__:
        value = getattr(ccbf, name)
        assert star[name] is value, name
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    # the reference's modules and names, looked up as on first use
    for name in ccbf._REFERENCE:
        assert ccbf.__getattr__(name) is getattr(ccbf, name), name
    for name in ("collab", "geometry"):
        assert ccbf.__getattr__(name) is sys.modules[f"ccbf.{name}"]
    assert {*ccbf._REFERENCE, *ccbf.__all__} <= set(dir(ccbf))
    with pytest.raises(AttributeError, match="^module 'ccbf' has no attribute 'nope'$"):
        ccbf.nope


def test_bundled_scenario_file_is_packaged():
    import importlib.resources

    text = importlib.resources.files("ccbf").joinpath(
        "scenarios", "paper_sis3.cfg").read_text()
    from ccbf import parse_config

    cfg = parse_config(text)
    assert cfg.nodes == 3
    assert cfg.x_bar == (0.1, 0.12, 0.18)


def test_run_artifacts_land_in_cwd_relative_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "paper_sis3", "--t-final", "0.5"]) == EXIT_OK
    assert Path("out/result.csv").exists()
