"""Scenario text parsing, validation paths, and canonical normalization."""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccbf import ConfigError, normalize_config, parse_config
from ccbf.config import KNOWN_KEYS, ScenarioConfig, _parse_value

GOOD = """\
# demo scenario
graph.nodes = 3
graph.edges = [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]
model.type = sis
model.beta = [[0.5, 0.25, 0.25],
              [0.25, 0.5, 0.25],
              [0.25, 0.25, 0.5]]
model.gamma = 0.3          # scalar broadcasts to every node
model.u_max = [0.75, 0.75, 0.75]
barrier.x_bar = [0.1, 0.12, 0.18]
sim.x0 = [0.04, 0.01, 0.02]
"""


def paths(excinfo) -> list[str]:
    return [p for p, _ in excinfo.value.violations]


def test_parse_good_text_fills_defaults():
    cfg = parse_config(GOOD)
    assert cfg.nodes == 3
    assert cfg.edges == ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    assert cfg.model_type == "sis"
    assert cfg.beta[0] == (0.5, 0.25, 0.25)
    assert cfg.gamma == (0.3, 0.3, 0.3)
    assert cfg.eta == (1.0, 1.0, 1.0)
    assert cfg.kappa == (1.0, 1.0, 1.0)
    assert cfg.udot_policy == "zero"
    assert cfg.nominal == (0.0, 0.0, 0.0)
    assert cfg.dt == 0.01
    assert cfg.t_final == 100.0
    assert cfg.collaboration is True
    assert cfg.weights == "coupling"
    assert (cfg.outer_cap, cfg.inner_cap) == (16, 64)
    assert cfg.trace is False
    assert cfg.continue_on_infeasible is False
    assert cfg.output_dir == "out"


def test_normalization_is_a_fixed_point():
    cfg = parse_config(GOOD)
    dump = normalize_config(cfg)
    again = parse_config(dump)
    assert again == cfg
    assert normalize_config(again) == dump


def test_missing_required_keys_all_reported():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("graph.nodes = 2\ngraph.edges = [[1, 2], [2, 1]]\n")
    got = paths(excinfo)
    for want in ("model.type", "model.beta", "model.gamma", "model.u_max",
                 "barrier.x_bar", "sim.x0"):
        assert want in got


def test_negative_beta_entry_is_path_addressed():
    bad = GOOD.replace("[[0.5, 0.25, 0.25],", "[[0.5, -0.25, 0.25],")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert any(p == "model.beta[0][1]" for p in paths(excinfo))


def test_beta_edge_consistency_both_directions():
    # positive weight with no matching edge
    bad = GOOD.replace("graph.edges = [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]",
                       "graph.edges = [[1, 2], [1, 3], [2, 3], [3, 1], [3, 2]]")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert ("model.beta[0][1]", "positive but edge (2, 1) is missing") \
        in excinfo.value.violations
    # edge present with a zero weight
    bad = GOOD.replace("[0.25, 0.5, 0.25]", "[0.0, 0.5, 0.25]", 1)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert ("model.beta[1][0]", "zero but edge (1, 2) is present") \
        in excinfo.value.violations


def test_edge_element_errors():
    bad = GOOD.replace("[[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]",
                       "[[1, 1], [0, 2], [1, 2, 3]]")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    got = paths(excinfo)
    assert "graph.edges[0]" in got  # self-loop
    assert "graph.edges[1]" in got  # id out of range
    assert "graph.edges[2]" in got  # not a pair


def test_zero_dt_and_bad_horizon():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "sim.dt = 0\n")
    assert "sim.dt" in paths(excinfo)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "sim.dt = 0.5\nsim.t_final = 0.25\n")
    assert "sim.t_final" in paths(excinfo)


@pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (0.1, 0.25)])
def test_horizon_must_be_whole_steps(dt, t_final):
    # 1.0 / 0.3 would end the run at 0.9, and round(2.5) at 0.2
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, {"sim.dt": dt, "sim.t_final": t_final})
    assert excinfo.value.violations == [
        ("sim.t_final", f"must be a whole number of sim.dt ({dt}) steps, got {t_final}")]


@pytest.mark.parametrize("dt", [1e-16, 1e-300, 5e-324])
def test_horizon_beyond_an_array_is_a_violation(dt):
    # 1e18 steps fit one node's rows but not the three nodes' table; 1e-300
    # gives 1e302 steps, and 5e-324 an infinite count.  Numpy would refuse
    # every one of these tables, so nothing here allocates.
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, {"sim.dt": dt})
    assert excinfo.value.violations == [
        ("sim.t_final", f"must take few enough sim.dt ({dt}) steps for a table of 3 nodes "
                        f"to fit in an array, got 100.0")]


def test_horizon_within_rounding_of_whole_steps_is_accepted():
    # 0.3 / 0.01 is 29.999999999999996: sis_quiet_n300's horizon
    assert parse_config(GOOD, {"sim.dt": 0.01, "sim.t_final": 0.3}).t_final == 0.3


def test_vector_bounds_are_per_element():
    bad = GOOD.replace("barrier.x_bar = [0.1, 0.12, 0.18]",
                       "barrier.x_bar = [0.1, 1.2, 0.18]")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert "barrier.x_bar[1]" in paths(excinfo)
    bad = GOOD.replace("sim.x0 = [0.04, 0.01, 0.02]",
                       "sim.x0 = [0.04, 0.01, -0.02]")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert "sim.x0[2]" in paths(excinfo)


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("old, new, violations", [
    # NaN and +-Infinity are JSON literals to the parser, so each is caught by path
    ("[0.25, 0.5, 0.25],", "[0.25, NaN, 0.25],",
     [("model.beta[1][1]", "must be finite, got nan")]),
    ("[0.25, 0.25, 0.5]]", "[-Infinity, 0.25, 0.5]]",
     [("model.beta[2][0]", "must be finite, got -inf")]),
    ("model.gamma = 0.3", "model.gamma = [NaN, 0.3, Infinity]",
     [("model.gamma[0]", "must be finite, got nan"),
      ("model.gamma[2]", "must be finite, got inf")]),
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = NaN",
     [("sim.x0[0]", "must be finite, got nan"), ("sim.x0[1]", "must be finite, got nan"),
      ("sim.x0[2]", "must be finite, got nan")]),
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, 0.02]\nsim.dt = NaN",
     [("sim.dt", "must be finite, got nan")]),
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, 0.02]\nsim.t_final = -Infinity",
     [("sim.t_final", "must be finite, got -inf")]),
    # an integer literal too large for a float would otherwise overflow on conversion
    ("[0.25, 0.5, 0.25],", f"[0.25, 0.5, {HUGE}],",
     [("model.beta[1][2]", f"must be finite, got {HUGE}")]),
    ("sim.x0 = [0.04, 0.01, 0.02]", f"sim.x0 = [0.04, 0.01, 0.02]\nsim.dt = -{HUGE}",
     [("sim.dt", f"must be finite, got -{HUGE}")]),
], ids=["beta-nan", "beta-minus-inf", "vector-entries", "broadcast-scalar", "dt-nan",
        "t-final-minus-inf", "beta-huge-int", "dt-huge-int"])
def test_non_finite_numbers_are_rejected(old, new, violations):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD.replace(old, new))
    assert excinfo.value.violations == violations


def test_a_node_count_too_large_for_memory_is_a_violation():
    # beta cannot hold that many rows, so no scalar is broadcast to every node:
    # each is checked once, under its key, and the defaults add nothing
    text = (GOOD.replace("graph.nodes = 3", f"graph.nodes = {HUGE}")
            .replace("model.gamma = 0.3", "model.gamma = -0.3"))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == [
        ("model.beta", f"must be a {HUGE}x{HUGE} matrix"),
        ("model.gamma", "must be > 0.0, got -0.3"),
        ("model.u_max", f"must have length {HUGE}, got 3"),
        ("barrier.x_bar", f"must have length {HUGE}, got 3"),
        ("sim.x0", f"must have length {HUGE}, got 3"),
    ]


def test_unknown_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "mystery.key = 1\nsim.dt = 0.01\nsim.dt = 0.02\nnoequals\n= 3\n")
    violations = dict.fromkeys(paths(excinfo))
    assert "mystery.key" in violations
    assert "sim.dt" in violations  # duplicate
    assert any(p.startswith("line ") for p in violations)
    assert ("line 16", "missing key before `=`") in excinfo.value.violations


def test_unterminated_array_is_reported():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("graph.edges = [[1, 2],\n")
    assert ("graph.edges", "unterminated array value") in excinfo.value.violations


def test_wrong_shape_and_length():
    bad = GOOD.replace("model.u_max = [0.75, 0.75, 0.75]", "model.u_max = [0.75, 0.75]")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert "model.u_max" in paths(excinfo)
    bad = GOOD.replace("              [0.25, 0.5, 0.25],\n", "")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert "model.beta" in paths(excinfo)


def test_json_booleans_normalize_to_on_off():
    cfg = parse_config(GOOD + "sim.trace = true\nsim.collaboration = false\n")
    assert cfg.trace is True
    assert cfg.collaboration is False
    dump = normalize_config(cfg)
    assert "sim.trace = on" in dump
    assert "sim.collaboration = off" in dump


def test_bad_choice_values():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "barrier.udot_policy = speedy\nsim.weights = magic\n")
    got = paths(excinfo)
    assert "barrier.udot_policy" in got
    assert "sim.weights" in got


def test_builders_produce_runnable_pieces():
    cfg = parse_config(GOOD)
    model = cfg.build_model()
    assert model.graph.node_count == 3
    assert np.allclose(model.params.beta, np.array(cfg.beta))
    specs = cfg.build_specs()
    assert specs[2].threshold == pytest.approx(0.12)
    kwargs = cfg.run_kwargs()
    assert kwargs["dt"] == 0.01
    assert kwargs["collaboration"] is True
    assert kwargs["nominal"] is None


def test_nonzero_nominal_becomes_packed_array():
    cfg = parse_config(GOOD + "sim.nominal = [0.1, 0.0, 0.2]\n")
    nominal = cfg.run_kwargs()["nominal"]
    assert isinstance(nominal, np.ndarray)
    assert nominal.tolist() == [0.1, 0.0, 0.2]


def test_replace_then_normalize_round_trips():
    # an override replaces the text's assignment; the dump reproduces the result
    cfg = parse_config(GOOD + "sim.dt = 0.5\n", {"sim.dt": 0.05, "sim.collaboration": False})
    assert (cfg.dt, cfg.collaboration) == (0.05, False)
    again = parse_config(normalize_config(cfg))
    assert again == cfg


def test_unknown_override_key_is_reported_like_a_text_line():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, {"sim.speed": 2.0, "sim.dt": 0.05, "nodes": 3})
    assert excinfo.value.violations == [("sim.speed", "unknown key"), ("nodes", "unknown key")]


def test_override_is_validated_like_text():
    # an override replaces an invalid file value before validation, and is
    # itself checked with the file's rules and messages, so a new network
    # still has beta zero off its edges
    assert parse_config(GOOD + "sim.dt = -1\n", {"sim.dt": 0.01}).dt == 0.01
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, {"graph.edges": [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1]],
                            "sim.dt": 0.5, "sim.t_final": 0.25, "output.dir": ""})
    assert excinfo.value.violations == [
        ("model.beta[1][2]", "positive but edge (3, 2) is missing"),
        ("sim.t_final", "must be > sim.dt (0.5), got 0.25"),
        ("output.dir", "must be a non-empty string, got ''")]


def test_outer_cap_below_two_is_rejected():
    # one round only measures the margins and never runs a sub-round
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "sim.outer_cap = 1\n")
    assert excinfo.value.violations == [("sim.outer_cap", "must be >= 2, got 1")]
    assert parse_config(GOOD + "sim.outer_cap = 2\n").outer_cap == 2


# one fault in every key but graph.nodes, each reported as one violation
EVERY_KEY_FAULTY = {
    "graph.edges": "x", "model.type": "seir", "model.beta": 7, "model.gamma": "x",
    "model.u_max": [1, 2], "barrier.x_bar": [0.1, 1.5, 0.1], "barrier.eta": [1, 0, 1],
    "barrier.kappa": [1, 1, -1], "barrier.udot_policy": "zro", "sim.x0": [0.1, 0.1, 2],
    "sim.nominal": [-1, 0, 0], "sim.dt": 0, "sim.t_final": -1, "sim.collaboration": "yes",
    "sim.weights": "unifrom", "sim.outer_cap": 1, "sim.inner_cap": 0, "sim.trace": 1,
    "sim.continue_on_infeasible": "x", "output.dir": ""}


def test_violations_come_in_field_order():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, EVERY_KEY_FAULTY)
    got = excinfo.value.violations
    field_keys = [f.metadata["key"] for f in dataclasses.fields(ScenarioConfig)]
    assert [path.split("[")[0] for path, _ in got] == field_keys[1:]
    assert got[7:12] == [
        ("barrier.kappa[2]", "must be > 0.0, got -1.0"),
        ("barrier.udot_policy", "must be one of zero, backward_difference, got 'zro'"),
        ("sim.x0[2]", "must be <= 1.0, got 2.0"),
        ("sim.nominal[0]", "must be >= 0.0, got -1.0"),
        ("sim.dt", "must be > 0, got 0.0")]
    assert got[14] == ("sim.weights", "must be one of coupling, uniform, got 'unifrom'")
    # t_final <= dt is t_final's own violation, reported in its place
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD, {**EVERY_KEY_FAULTY, "sim.dt": 0.5, "sim.t_final": 0.25})
    got = excinfo.value.violations
    assert [path for path, _ in got[10:13]] == ["sim.nominal[0]", "sim.t_final",
                                                 "sim.collaboration"]
    assert got[11] == ("sim.t_final", "must be > sim.dt (0.5), got 0.25")
    # with no node count, the keys shaped by it report nothing
    for nodes, fault in ((0, "must be >= 1, got 0"), (2.5, "must be an integer, got 2.5")):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(GOOD, {**EVERY_KEY_FAULTY, "graph.nodes": nodes})
        assert excinfo.value.violations[0] == ("graph.nodes", fault)
        assert [path for path, _ in excinfo.value.violations] == [
            "graph.nodes", "model.type", "barrier.udot_policy", "sim.dt", "sim.t_final",
            "sim.collaboration", "sim.weights", "sim.outer_cap", "sim.inner_cap", "sim.trace",
            "sim.continue_on_infeasible", "output.dir"]


def test_readme_key_table_is_the_schema():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = []  # (key, default cell), one per key a table row names
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows += [(key, cells[1]) for key in re.findall(r"`([^`]+)`", cells[0])]
    assert [key for key, _ in rows] == list(KNOWN_KEYS)
    listed = dict(rows)
    for f in dataclasses.fields(ScenarioConfig):
        shown, default = listed[f.metadata["key"]], f.metadata["default"]
        if default is None:
            assert shown == "required"
        else:
            assert shown.startswith("`") and shown.endswith("`")
            assert _parse_value(shown[1:-1]) == default


# a beta whose entry faults (bool, string, null, negative) sit beside edge faults:
# beta[0][1] is positive without an edge, and beta[0][2] and beta[1][0] are zero
# with their edges (3, 1) and (1, 2) present
MIXED_EDGES = "graph.edges = [[1, 2], [1, 3], [3, 1]]"
MIXED_BETA = """model.beta = [[0.5, 0.25, 0.0],
              [0.0, true, 0.0],
              [null, "x", -0.25]]"""
MIXED = (GOOD.replace("graph.edges = [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]",
                      MIXED_EDGES)
         .replace("""model.beta = [[0.5, 0.25, 0.25],
              [0.25, 0.5, 0.25],
              [0.25, 0.25, 0.5]]""", MIXED_BETA))


def test_beta_entry_faults_are_listed_in_row_major_order_before_edges():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MIXED)
    # edge consistency is only checked once every entry is a number >= 0
    assert excinfo.value.violations == [
        ("model.beta[1][1]", "must be a number, got True"),
        ("model.beta[2][0]", "must be a number, got None"),
        ("model.beta[2][1]", "must be a number, got 'x'"),
        ("model.beta[2][2]", "must be >= 0, got -0.25"),
    ]


def test_beta_edge_faults_are_listed_in_row_major_order():
    text = (MIXED.replace("[0.0, true, 0.0]", "[0.0, 0.5, 0.0]")
            .replace('[null, "x", -0.25]', "[0.25, 0.125, 0]"))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == [
        ("model.beta[0][1]", "positive but edge (2, 1) is missing"),
        ("model.beta[0][2]", "zero but edge (3, 1) is present"),
        ("model.beta[1][0]", "zero but edge (1, 2) is present"),
        ("model.beta[2][1]", "positive but edge (2, 3) is missing"),
    ]


@pytest.mark.parametrize("old, new, field, want", [
    # outside brackets, after a scalar and after a closing `]`
    ("model.gamma = 0.3", "model.gamma = 0.3 # [not an array]", "gamma", (0.3, 0.3, 0.3)),
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, 0.02]  # start",
     "x0", (0.04, 0.01, 0.02)),
    # on continuation lines, after the line's own brackets close
    ("[0.25, 0.5, 0.25],", "[0.25, 0.5, 0.25],  # row 2", "beta",
     ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))),
    ("[0.25, 0.25, 0.5]]", "[0.25, 0.25, 0.5]]  # last row", "beta",
     ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))),
    # a whole comment line and a blank line inside an open matrix
    ("              [0.25, 0.5, 0.25],",
     "              # the middle row\n\n              [0.25, 0.5, 0.25],", "beta",
     ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))),
    # a continuation line with no brackets of its own
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04,\n  0.01, # two\n  0.02]",
     "x0", (0.04, 0.01, 0.02)),
], ids=["after-scalar", "after-closing-bracket", "continuation-row", "continuation-last-row",
        "comment-and-blank-lines", "continuation-without-brackets"])
def test_comments_outside_brackets_are_stripped(old, new, field, want):
    cfg = parse_config(GOOD.replace(old, new))
    assert getattr(cfg, field) == want


def test_hash_and_brackets_inside_json_strings_are_text():
    cfg = parse_config(GOOD + 'output.dir = "a#b]"  # a comment\nsim.dt = 0.5\n')
    assert (cfg.output_dir, cfg.dt) == ("a#b]", 0.5)
    cfg = parse_config(GOOD + 'output.dir = "a[b"\nsim.dt = 0.5\n')
    assert (cfg.output_dir, cfg.dt) == ("a[b", 0.5)


@pytest.mark.parametrize("out, written", [
    ("out", "out"), ("runs/2024-01", "runs/2024-01"), ("a]", "a]"),
    ("a#b", '"a#b"'), (" lead", '" lead"'), ("123", '"123"'), ("on", '"on"'),
    ("null", '"null"'), ("a[b", '"a[b"'), ('"q"', '"\\"q\\""'),
])
def test_a_string_is_quoted_exactly_when_its_bare_form_would_not_read_back(out, written):
    dump = normalize_config(parse_config(GOOD, {"output.dir": out}))
    assert f"\noutput.dir = {written}\n" in dump


@st.composite
def output_dirs(draw) -> str:
    """Directory names built from pieces that a bare value may misread."""
    tricky = st.sampled_from(["#", "[", "]", '"', "\\", "=", " ", "\t", "\n", "on", "off",
                              "null", "true", "123", "-1.5e3", "NaN", "[1]", "{}"])
    return "".join(draw(st.lists(st.one_of(tricky, st.text(min_size=1, max_size=3)),
                                 min_size=1, max_size=6)))


@settings(max_examples=300)
@given(out=output_dirs())
@example(out="a#b")
@example(out=" lead")
@example(out="on")
@example(out="a[b")
def test_any_output_dir_round_trips_through_normalize(out):
    cfg = parse_config(GOOD, {"output.dir": out})
    dump = normalize_config(cfg)
    assert parse_config(dump) == cfg
    assert normalize_config(parse_config(dump)) == dump


@pytest.mark.parametrize("old, new, key, line", [
    # inside the line's brackets on a first line: kept, so the value is not JSON
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, # one\n 0.01, 0.02]", "sim.x0", 11),
    # inside the line's brackets on a continuation line
    ("[0.25, 0.5, 0.25],", "[0.25, # two\n 0.5, 0.25],", "model.beta", 5),
    # depth is per line: a `]` in the kept comment closes the value early
    ("[[0.5, 0.25, 0.25],", "[[0.5, 0.25, 0.25],  # see ] below", "model.beta", 5),
], ids=["first-line", "continuation-line", "bracket-in-comment"])
def test_comments_inside_brackets_are_kept(old, new, key, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD.replace(old, new))
    _assert_reported_as_bad_json(excinfo.value.violations, key, line)


def _assert_reported_as_bad_json(violations, key, line):
    """One violation names the key, and it carries the JSON error and the line."""
    mine = [msg for path, msg in violations if path.partition("[")[0] == key]
    assert len(mine) == 1, violations
    prefix, suffix = "not valid JSON: ", f" (value starts on line {line})"
    assert mine[0].startswith(prefix) and mine[0].endswith(suffix)
    assert mine[0][len(prefix):-len(suffix)]  # the decoder's wording varies across versions


@pytest.mark.parametrize("old, new, key, line", [
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, 0.02,]", "sim.x0", 11),
    ("[0.25, 0.25, 0.5]]", "[0.25, 0.25, 0.5],]", "model.beta", 5),
    ("graph.edges = [[1, 2],", "graph.edges = [[1 2],", "graph.edges", 3),
    # beyond the interpreter's limit on integer literal digits
    ("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, " + "1" * 5000 + "]", "sim.x0", 11),
], ids=["trailing-comma", "trailing-comma-continuation", "missing-comma", "huge-integer"])
def test_malformed_arrays_name_the_json_error(old, new, key, line):
    text = GOOD.replace(old, new)
    assert text != GOOD
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    _assert_reported_as_bad_json(excinfo.value.violations, key, line)


def test_unterminated_array_is_not_also_missing():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD.replace("sim.x0 = [0.04, 0.01, 0.02]", "sim.x0 = [0.04, 0.01, 0.02"))
    assert excinfo.value.violations == [("sim.x0", "unterminated array value")]
    # nor read as its default: the cross-check of t_final against dt is skipped
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "sim.dt = [0.5\nsim.t_final = 0.005\n")
    assert excinfo.value.violations == [("sim.dt", "unterminated array value")]


def test_unterminated_array_ends_at_the_next_assignment():
    # the open value is reported once; the assignments after it still count,
    # one of an unknown key is reported as such, and one of the same key
    # gives that key its value
    text = importlib.resources.files("ccbf").joinpath(
        "scenarios", "paper_sis3.cfg").read_text()
    closed = "model.u_max = [0.75, 0.75, 0.75]"
    assert closed in text
    open_value = ("model.u_max", "unterminated array value")
    for replacement, expected in [
        (closed[:-1], [open_value]),
        (closed[:-1] + "\nmodel.umax = 3", [open_value, ("model.umax", "unknown key")]),
        (closed[:-1] + "\numax = 3", [open_value, ("umax", "unknown key")]),
        (closed[:-1] + "\nmodel.u_max = [0.75]",
         [open_value, ("model.u_max", "must have length 3, got 1")]),
    ]:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text.replace(closed, replacement))
        assert excinfo.value.violations == expected


_entries = st.one_of(st.integers(0, 9),
                     st.floats(0.0, 9.0, allow_nan=False, allow_infinity=False))


def _rows_text(rows, break_after, comment) -> str:
    """One JSON array per row, some rows on a line of their own."""
    parts = []
    first_line = True
    for k, row in enumerate(rows):
        sep = "" if k == len(rows) - 1 else ","
        text = json.dumps(row) + sep
        if break_after[k] and k < len(rows) - 1:
            # a continuation line's own brackets are closed, so a comment is safe there
            text += ("  # note" if comment[k] and not first_line else "") + "\n    "
            first_line = False
        else:
            text += " "
        parts.append(text)
    return "[" + "".join(parts).rstrip() + "]"


@st.composite
def multiline_configs(draw) -> str:
    n = draw(st.integers(1, 4))
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    beta = [[draw(_entries) if i == j else 0 for j in range(n)] for i in range(n)]
    for j, i in edges:
        beta[i - 1][j - 1] = draw(st.one_of(st.integers(1, 9), st.floats(0.01, 9.0)))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    lines = ["# generated", f"graph.nodes = {n}",
             "graph.edges = " + (_rows_text([list(e) for e in edges],
                                            draw(st.lists(st.booleans(), min_size=len(edges),
                                                          max_size=len(edges))),
                                            [True] * len(edges)) if edges else "[]"),
             "model.type = sis",
             "model.beta = " + _rows_text(beta, draw(flags), draw(flags))]
    for key, low, high in (("model.gamma", 0.01, 5.0), ("model.u_max", 0.0, 5.0),
                           ("barrier.x_bar", 0.01, 1.0), ("sim.x0", 0.0, 1.0)):
        values = draw(st.lists(st.floats(low, high), min_size=n, max_size=n))
        lines.append(f"{key} = " + _rows_text(values, draw(flags), [False] * n)
                     + draw(st.sampled_from(["", "   # trailing"])))
    lines += draw(st.lists(st.sampled_from(["", "# comment", "sim.trace = on",
                                            "sim.dt = 0.02", "sim.weights = uniform"]),
                           unique=True))
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(text=multiline_configs())
def test_multiline_configs_round_trip_through_normalize(text):
    cfg = parse_config(text)
    dump = normalize_config(cfg)
    assert parse_config(dump) == cfg
    assert normalize_config(parse_config(dump)) == dump


def json_dump(cfg) -> str:
    """normalize_config with every value written by json.dumps: the reference."""
    def emit(value):
        if isinstance(value, bool):
            return "on" if value else "off"
        return value if isinstance(value, str) else json.dumps(value)
    return "".join(f"{key} = {emit(getattr(cfg, name))}\n" for key, name in KNOWN_KEYS.items())


_TINY_AND_HUGE = [5e-324, 1e-310, 2.2250738585072014e-308, 1e300]
_diagonals = st.one_of(st.sampled_from([0, 0.0, -0.0, 3, *_TINY_AND_HUGE]),
                       st.floats(0.0, 9.0))
_weights = st.one_of(st.sampled_from([1, *_TINY_AND_HUGE]), st.integers(1, 9),
                     st.floats(5e-324, 1e300))


def _sparse_text(n, edges, beta) -> str:
    return "\n".join([f"graph.nodes = {n}", f"graph.edges = {json.dumps(edges)}",
                      "model.type = sis", f"model.beta = {json.dumps(beta)}",
                      "model.gamma = 0.3", "model.u_max = 0.5", "barrier.x_bar = 0.1",
                      "sim.x0 = 0.01"]) + "\n"


@st.composite
def sparse_configs(draw) -> str:
    """Configs with any edge set (in-degree 0 included), any zero off the edges."""
    n = draw(st.integers(1, 6))
    pairs = [[j, i] for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    beta = [[draw(_diagonals) if i == j else draw(st.sampled_from([0, 0.0, -0.0]))
             for j in range(n)] for i in range(n)]
    for j, i in edges:
        beta[i - 1][j - 1] = draw(_weights)
    return _sparse_text(n, edges, beta)


def _zero_off_edges(cfg):
    """cfg with every beta entry off the diagonal and the edges set to +0.0."""
    kept = {(i - 1, j - 1) for j, i in cfg.edges} | {(k, k) for k in range(cfg.nodes)}
    return dataclasses.replace(cfg, beta=tuple(
        tuple(v if (i, j) in kept else 0.0 for j, v in enumerate(row))
        for i, row in enumerate(cfg.beta)))


@settings(max_examples=300)
@given(text=sparse_configs())
@example(text=_sparse_text(1, [], [[-0.0]]))
@example(text=_sparse_text(3, [], [[0, 0, -0.0], [0.0, 2, 0], [-0.0, 0, 5e-324]]))
@example(text=_sparse_text(3, [[1, 2], [3, 2]], [[1e300, 0, 0], [1e-310, 0, 4], [-0.0, 0, 0]]))
def test_sparse_beta_dump_and_model_match_the_dense_forms(text):
    cfg = parse_config(text)
    dump = normalize_config(cfg)
    # the one difference from json.dumps: an off-edge -0.0 is written 0.0
    dense = _zero_off_edges(cfg)
    assert dump == json_dump(dense)
    assert parse_config(dump) == cfg
    assert normalize_config(parse_config(dump)) == dump
    assert cfg.build_model().params.beta.tobytes() == np.array(dense.beta).tobytes()


def test_off_edge_negative_zero_is_dumped_as_zero():
    text = GOOD.replace("graph.edges = [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]",
                        "graph.edges = [[1, 2], [2, 1], [2, 3], [3, 1], [3, 2]]").replace(
        "[0.25, 0.25, 0.5]]", "[-0.0, 0.25, 0.0]]")
    cfg = parse_config(text)
    assert "[-0.0, 0.25, 0.0]]" in json_dump(cfg)
    dump = normalize_config(cfg)
    assert "model.beta = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.25, 0.0]]\n" in dump
    assert parse_config(dump) == cfg
    assert normalize_config(parse_config(dump)) == dump
