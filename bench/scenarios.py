"""Seeded scenario generator for the benchmark workloads (pure numpy).

A generated scenario is a networked SIS epidemic on a random digraph in
which every node has the same number of in-neighbors.  Its tightness is
set from SIS threshold theory (Mei, Mohagheghi, Zampieri & Bullo, Annu.
Rev. Control 2017): the network is endemic when rho(Gamma^-1 B) > 1, and
its endemic equilibrium x* solves x_i = S_i / (S_i + gamma_i) with
S = B x.  Each node's safety threshold is placed relative to x*:

  * below it (tight): the infection must be held down, so nodes run into
    their thresholds.  Each actuator cap is a multiple of the node's solo
    need, the constant curing effort that holds x_i at its threshold
    while every node sits at its own threshold.  Caps below that need
    force a node to ask its in-neighbors for help, so steps negotiate.
  * above it (quiet): the trajectory settles below every threshold with a
    wide margin, so every node is self-sufficient and no step negotiates.
    A node at such a threshold needs no curing effort, so its solo need,
    and with it its cap, is 0.

The program only ever sees the emitted `.cfg` text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Regime:
    """How a generated network sits relative to its endemic equilibrium."""

    threshold_ratio: float        # x_bar_i = threshold_ratio * x*_i (capped)
    start_ratio: float            # x0_i = start_ratio * x_bar_i
    cap_low: float                # u_max_i / solo need_i drawn from
    cap_high: float               # [cap_low, cap_high]


@dataclass(frozen=True)
class Workload:
    """A named scenario plus the properties the benchmark checks on it."""

    name: str
    nodes: int
    t_final: float
    negotiates: bool              # True: most steps negotiate; False: none do
    regime: Regime | None = None  # None means the bundled paper scenario with its message log


TIGHT = Regime(threshold_ratio=0.6, start_ratio=0.95, cap_low=1.0, cap_high=2.0)
QUIET = Regime(threshold_ratio=1.5, start_ratio=0.3, cap_low=1.0, cap_high=2.0)

WORKLOADS = {
    w.name: w for w in (
        Workload("paper_sis3_trace", nodes=3, t_final=20.0, negotiates=True),
        Workload("sis_tight_n60", nodes=60, t_final=1.0, negotiates=True, regime=TIGHT),
        Workload("sis_quiet_n300", nodes=300, t_final=0.3, negotiates=False, regime=QUIET),
    )
}

R0 = 2.0              # spectral radius of Gamma^-1 B: endemic, since > 1
IN_DEGREE = 4
DT = 0.01
THRESHOLD_CAP = 0.95


def in_degree_edges(rng: np.random.Generator, n: int, k: int) -> list[tuple[int, int]]:
    """Edges (j, i), 1-based: each node i draws k distinct in-neighbors j != i."""
    edges = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        for j in np.sort(rng.choice(others, size=k, replace=False)):
            edges.append((int(j) + 1, i + 1))
    return edges


def endemic_equilibrium(beta: np.ndarray, gamma: np.ndarray,
                        iterations: int = 10_000, tol: float = 1e-14) -> np.ndarray:
    """Nonzero fixed point of x = S / (S + gamma), iterated down from x = 1."""
    x = np.ones_like(gamma)
    for _ in range(iterations):
        s = beta @ x
        nxt = s / (s + gamma)
        if np.max(np.abs(nxt - x)) <= tol:
            return nxt
        x = nxt
    return x


def solo_need(beta: np.ndarray, gamma: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    """Curing effort that holds each x_i at x_bar_i with every node at x_bar."""
    return (1.0 - x_bar) * (beta @ x_bar) / x_bar - gamma


def sis_network(seed: int, n: int, regime: Regime) -> dict:
    """Parameters of one generated network, keyed like the config."""
    rng = np.random.default_rng(seed)
    edges = in_degree_edges(rng, n, IN_DEGREE)
    gamma = rng.uniform(0.25, 0.35, size=n)
    beta = np.zeros((n, n))
    beta[np.arange(n), np.arange(n)] = rng.uniform(0.1, 0.2, size=n)
    for j, i in edges:
        beta[i - 1, j - 1] = rng.uniform(0.5, 1.5)
    rho = float(np.max(np.abs(np.linalg.eigvals(beta / gamma[:, None]))))
    beta *= R0 / rho
    x_star = endemic_equilibrium(beta, gamma)
    x_bar = np.minimum(regime.threshold_ratio * x_star, THRESHOLD_CAP)
    need = solo_need(beta, gamma, x_bar)
    u_max = np.maximum(need, 0.0) * rng.uniform(regime.cap_low, regime.cap_high, size=n)
    return {
        "edges": edges, "beta": beta, "gamma": gamma, "u_max": u_max,
        "x_bar": x_bar, "x0": regime.start_ratio * x_bar,
    }


def _vector(values) -> str:
    return json.dumps([float(v) for v in values])


def network_config(net: dict, t_final: float) -> str:
    """`.cfg` text for a generated network, one beta row per line."""
    n = len(net["gamma"])
    rows = ",\n              ".join(_vector(row) for row in net["beta"])
    return "".join((
        "# Generated SIS network; see bench/scenarios.py.\n",
        f"graph.nodes = {n}\n",
        f"graph.edges = {json.dumps([list(e) for e in net['edges']])}\n",
        "model.type = sis\n",
        f"model.beta = [{rows}]\n",
        f"model.gamma = {_vector(net['gamma'])}\n",
        f"model.u_max = {_vector(net['u_max'])}\n",
        f"barrier.x_bar = {_vector(net['x_bar'])}\n",
        f"sim.x0 = {_vector(net['x0'])}\n",
        f"sim.dt = {DT}\n",
        f"sim.t_final = {t_final}\n",
    ))


def scenario_text(workload: Workload, seed: int, src: Path) -> str:
    """The `.cfg` text the program receives for one workload and seed.

    The paper scenario is the bundled file with the workload's horizon and
    tracing switched on; it does not depend on the seed.
    """
    if workload.regime is None:
        bundled = (src / "ccbf" / "scenarios" / "paper_sis3.cfg").read_text(encoding="utf-8")
        kept = [line for line in bundled.splitlines(keepends=True)
                if not line.startswith(("sim.t_final", "sim.trace"))]
        return "".join(kept) + f"sim.t_final = {workload.t_final}\nsim.trace = on\n"
    net = sis_network(seed, workload.nodes, workload.regime)
    return network_config(net, workload.t_final)
