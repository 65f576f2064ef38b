"""Scenario text parsing, validation paths, and canonical normalization."""

from __future__ import annotations

import numpy as np
import pytest

from ccbf import ConfigError, normalize_config, parse_config

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


def test_unknown_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(GOOD + "mystery.key = 1\nsim.dt = 0.01\nsim.dt = 0.02\nnoequals\n")
    violations = dict.fromkeys(paths(excinfo))
    assert "mystery.key" in violations
    assert "sim.dt" in violations  # duplicate
    assert any(p.startswith("line ") for p in violations)


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
    system = cfg.build_system()
    assert system.graph.node_count == 3
    assert np.allclose(system.model.params.beta, np.array(cfg.beta))
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
    cfg = parse_config(GOOD).replace(dt=0.05, collaboration=False)
    again = parse_config(normalize_config(cfg))
    assert again == cfg
