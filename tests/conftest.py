from __future__ import annotations

import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ccbf.simulate as simulate_mod
from ccbf.cli import main
from ccbf.dynamics import SisModel, SisParams
from ccbf.graph import NetworkGraph

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

# parameters of the bundled paper_sis3 scenario, inlined for direct use
PAPER_EDGES = [(2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3)]
PAPER_BETA = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
PAPER_GAMMA = [0.3, 0.3, 0.3]
PAPER_UMAX = [0.75, 0.75, 0.75]
PAPER_XBAR = [0.1, 0.12, 0.18]
PAPER_X0 = [0.04, 0.01, 0.02]


@pytest.fixture(scope="session")
def paper_graph() -> NetworkGraph:
    return NetworkGraph(3, PAPER_EDGES)


@pytest.fixture(scope="session")
def paper_model(paper_graph) -> SisModel:
    params = SisParams(np.array(PAPER_BETA), np.array(PAPER_GAMMA), np.array(PAPER_UMAX))
    return SisModel(paper_graph, params)


# `ccbf run paper_sis3` flags of the bundled scenario's full-horizon runs,
# and the config assignment each flag stands for
PAPER_RUNS = {
    "traced": (["--trace"], {"sim.trace": "on"}),
    "no_collab": (["--no-collab"], {"sim.collaboration": "off"}),
}


def run_paper(case: str, out: Path) -> int:
    """`ccbf run paper_sis3` with the flags of one PAPER_RUNS case, in process."""
    return main(["run", "paper_sis3", "--out", str(out), *PAPER_RUNS[case][0]])


@pytest.fixture(scope="session")
def paper_run(tmp_path_factory):
    """case -> (exit code, output directory, wall seconds) of a PAPER_RUNS case
    on the float kernel, run once per session when first asked for."""
    made = {}

    def get(case: str):
        if case not in made:
            out = tmp_path_factory.mktemp(case)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate_mod, "FLOAT_KERNEL_NODES", 10 ** 9)
                start = time.perf_counter()
                code = run_paper(case, out)
                made[case] = code, out, time.perf_counter() - start
        return made[case]

    return get


ROOT = Path(__file__).resolve().parents[1]


def bench_config_text(workload: str, nodes: int | None = None) -> str:
    """The config text the bench runs for a generated workload's seed 1,
    or its generator's network of another size."""
    scenarios = sys.modules.get("bench_scenarios")
    if scenarios is None:  # bench/ is no package: load its generator by path
        spec = importlib.util.spec_from_file_location("bench_scenarios",
                                                      ROOT / "bench" / "scenarios.py")
        scenarios = sys.modules["bench_scenarios"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scenarios)
    kind = scenarios.WORKLOADS[workload]
    if nodes is not None:
        kind = dataclasses.replace(kind, nodes=nodes)
    return scenarios.scenario_text(kind, 1, ROOT / "src")
