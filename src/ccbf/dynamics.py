"""Node dynamics, neighborhood snapshots, and the networked SIS instance.

Every node i carries control-affine dynamics

    dx_i/dt = f_i(x_i, x_N) + g_i(x_i) u_i,

where the drift f_i may read in-neighbor states but the control channel
g_i is local.  `NeighborhoodState` packages what node i needs to evaluate
its own drift and each in-neighbor's drift: its own state, one hop of
neighbor states, and those neighbors' own snapshots (two hops of state).

The concrete instance is a networked SIS epidemic,

    dx_i/dt = -(gamma_i + u_i) x_i + (1 - x_i) * sum_j beta_ij x_j,

with x_i in [0, 1] the infected fraction at node i, u_i >= 0 bought-down
healing effort, beta_ii the on-node infection rate, and beta_ij (j != i)
the rate pulled in from in-neighbor j.  For the infection cap constraint
h_i = xbar_i - x_i the model provides closed-form Lie derivatives through
second order, including the cross channels through which neighbor controls
enter.  With S = sum_j beta_ij x_j (diagonal included) and
D = d f_i / d x_i = -gamma_i - S + (1 - x_i) beta_ii:

    L_f h   = -f_i                      L_g h      = x_i
    L_f^2 h = -D f_i                    L_g^2 h    = -x_i
    L_fj L_fi h = -(1 - x_i) beta_ij f_j
    L_gj L_fi h =  (1 - x_i) beta_ij x_j
    L_gi L_fi h =  D x_i                L_fi L_gi h = f_i

Each closed form is pinned to a central finite difference in the tests.
`SisModel` is the network the closed loop runs on.  This module holds the
model and the per-node reference, `lie_table` on a snapshot.  The step
kernels evaluate the same closed forms for every node at once, each in its
own module: `floatkernel` on Python floats and `arraykernel` on arrays over
the graph's edges (`SisModel.layout`); both match `lie_table` bit for bit.
`rk4_step`, the array kernel's RK4 through `packed_flow`, shares only
`SisModel.pressure` with the float kernel's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, NumericsError, ProtocolStateError
from .graph import NetworkGraph, edge_index, edge_layout, in_neighbors


@dataclass(frozen=True)
class NeighborhoodState:
    """State snapshot centered on one node.

    one_hop holds the current state of every in-neighbor; two_hop maps each
    in-neighbor j to j's own snapshot (whose one_hop covers j's
    in-neighbors).  Nested snapshots carry an empty two_hop: two hops of
    state is exactly what second-order chains need.
    """

    self_state: np.ndarray
    one_hop: dict[int, np.ndarray]
    two_hop: dict[int, "NeighborhoodState"] = field(default_factory=dict)


@dataclass(frozen=True)
class LieTable:
    """Closed-form Lie derivatives of one node's constraint, to second order.

    Scalars are floats; control-facing entries keep their vector/matrix
    shape (length M_i, or M_j for the per-neighbor channels).
    """

    lf_h: float
    lg_h: np.ndarray
    lf2_h: float
    lg2_h: np.ndarray
    lfj_lf_h: dict[int, float]
    lgj_lf_h: dict[int, np.ndarray]
    lg_lf_h: np.ndarray
    lf_lg_h: np.ndarray


def neighborhood(graph: NetworkGraph, states: dict[int, np.ndarray], i: int) -> NeighborhoodState:
    """Build node i's two-hop snapshot from a full state map."""
    nbrs = in_neighbors(graph, i)
    one = {j: np.asarray(states[j], dtype=float) for j in nbrs}
    two = {}
    for j in nbrs:
        jn = in_neighbors(graph, j)
        two[j] = NeighborhoodState(
            self_state=np.asarray(states[j], dtype=float),
            one_hop={k: np.asarray(states[k], dtype=float) for k in jn},
        )
    return NeighborhoodState(np.asarray(states[i], dtype=float), one, two)


@dataclass(frozen=True)
class SisParams:
    """Rates and control bounds of a networked SIS epidemic.

    beta[i-1][j-1] is the infection rate from node j into node i (diagonal
    entries are on-node rates), gamma the recovery rates, u_max the per-node
    cap on extra healing effort, so node i's control box is [0, u_max_i].
    """

    beta: np.ndarray
    gamma: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.array(self.beta, dtype=float))
        object.__setattr__(self, "gamma", np.array(self.gamma, dtype=float))
        object.__setattr__(self, "u_max", np.array(self.u_max, dtype=float))

    def validate(self, graph: NetworkGraph) -> list[str]:
        """Shape, finiteness and sign checks plus edge consistency against the graph."""
        n = graph.node_count
        problems = []
        if self.beta.shape != (n, n):
            problems.append(f"beta must be {n}x{n}, got {self.beta.shape}")
            return problems
        if self.gamma.shape != (n,):
            problems.append(f"gamma must have length {n}, got {self.gamma.shape}")
        if self.u_max.shape != (n,):
            problems.append(f"u_max must have length {n}, got {self.u_max.shape}")
        # NaN passes every sign check below
        problems += [f"{name} entries must be finite" for name in ("beta", "gamma", "u_max")
                     if not np.isfinite(getattr(self, name)).all()]
        if problems:
            return problems
        if np.any(self.beta < 0.0):
            problems.append("beta entries must be >= 0")
        if np.any(self.gamma <= 0.0):
            problems.append("gamma entries must be > 0")
        if np.any(self.u_max < 0.0):
            problems.append("u_max entries must be >= 0")
        src, dst = edge_index(graph)
        positive = self.beta > 0.0
        np.fill_diagonal(positive, False)  # on-node rates need no edge
        present = np.zeros((n, n), dtype=bool)
        present[dst, src] = True
        # flat indices are row-major, so problems come in (i, j) order
        for flat in np.flatnonzero(positive != present):
            row, col = divmod(int(flat), n)
            i, j = row + 1, col + 1
            if positive[row, col]:
                problems.append(f"beta[{i - 1}][{j - 1}] > 0 but edge ({j}, {i}) is missing")
            else:
                problems.append(f"edge ({j}, {i}) present but beta[{i - 1}][{j - 1}] is 0")
        return problems


class SisModel:
    """Networked SIS dynamics with scalar state and control per node."""

    def __init__(self, graph: NetworkGraph, params: SisParams):
        bad = params.validate(graph)
        if bad:
            raise DimensionError("; ".join(bad))
        self.graph = graph
        self.params = params
        self.layout = layout = edge_layout(graph)
        # beta_ij of every edge j -> i, in edge order, and every beta_ii
        self.edge_weight = params.beta[layout.target, layout.source]
        self.self_weight = np.diagonal(params.beta).copy()

    def _check_neighborhood(self, nbr: NeighborhoodState, i: int) -> None:
        if np.shape(nbr.self_state) != (1,):
            raise DimensionError(f"node {i}: SIS state must have shape (1,)")
        nbrs = in_neighbors(self.graph, i)
        missing = [j for j in nbrs if j not in nbr.one_hop]
        if missing:
            raise ProtocolStateError(f"node {i}: missing one-hop state for {missing}")
        for j in nbrs:
            if np.shape(nbr.one_hop[j]) != (1,):
                raise DimensionError(f"node {i}: neighbor {j} state must have shape (1,)")

    def _pressure(self, nbr: NeighborhoodState, i: int) -> float:
        """Total infection pressure S = beta_ii x_i + sum_j beta_ij x_j, from +0.0."""
        beta = self.params.beta
        s = 0.0 + float(beta[i - 1, i - 1]) * float(nbr.self_state[0])
        for j in in_neighbors(self.graph, i):
            s += float(beta[i - 1, j - 1]) * float(nbr.one_hop[j][0])
        return s

    def drift(self, nbr: NeighborhoodState, i: int) -> np.ndarray:
        self._check_neighborhood(nbr, i)
        x_i = float(nbr.self_state[0])
        f = -float(self.params.gamma[i - 1]) * x_i + (1.0 - x_i) * self._pressure(nbr, i)
        if not math.isfinite(f):
            raise NumericsError(f"node {i}: drift is not finite")
        return np.array([f])

    def lie_table(self, nbr: NeighborhoodState, i: int) -> LieTable:
        """One node's table from its snapshot: the reference for both step kernels."""
        # The constraint h = xbar - x_i has slope -1 everywhere, so the
        # table does not depend on the threshold.
        self._check_neighborhood(nbr, i)
        x_i = float(nbr.self_state[0])
        beta = self.params.beta
        gamma = float(self.params.gamma[i - 1])
        b_ii = float(beta[i - 1, i - 1])
        pressure = self._pressure(nbr, i)
        f_i = -gamma * x_i + (1.0 - x_i) * pressure
        dfdx = -gamma - pressure + (1.0 - x_i) * b_ii
        lfj: dict[int, float] = {}
        lgj: dict[int, np.ndarray] = {}
        for j in in_neighbors(self.graph, i):
            two = nbr.two_hop.get(j)
            if two is None:
                raise ProtocolStateError(f"node {i}: missing two-hop snapshot for neighbor {j}")
            b_ij = float(beta[i - 1, j - 1])
            x_j = float(nbr.one_hop[j][0])
            f_j = float(self.drift(two, j)[0])
            lfj[j] = -(1.0 - x_i) * b_ij * f_j
            lgj[j] = np.array([(1.0 - x_i) * b_ij * x_j])
        table = LieTable(
            lf_h=-f_i,
            lg_h=np.array([x_i]),
            lf2_h=-dfdx * f_i,
            lg2_h=np.array([[-x_i]]),
            lfj_lf_h=lfj,
            lgj_lf_h=lgj,
            lg_lf_h=np.array([dfdx * x_i]),
            lf_lg_h=np.array([f_i]),
        )
        flat = [table.lf_h, table.lf2_h, *table.lg_h, *table.lg2_h.ravel(),
                *table.lg_lf_h, *table.lf_lg_h, *table.lfj_lf_h.values()]
        flat.extend(v for a in table.lgj_lf_h.values() for v in a)
        if not all(math.isfinite(v) for v in flat):
            raise NumericsError(f"node {i}: non-finite Lie derivative")
        return table

    def clamp_state(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        clipped = x.clip(0.0, 1.0)  # clip keeps a -0.0 state
        # np.maximum.reduce is max()'s reduction without its Python-level wrapper
        return clipped, float(np.maximum.reduce(np.abs(clipped - x)))

    def pressure(self, x) -> np.ndarray:
        """Every node's sum_j beta_ij x_j in one BLAS product, for both kernels' RK4."""
        return self.params.beta @ x

    def packed_flow(self, u: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized full-network derivative under the packed control u.

        Returns x -> dx/dt; it matches drift - x_i * u_i node by node.
        """
        n = self.graph.node_count
        if np.shape(u) != (n,):
            raise DimensionError(f"packed control must have shape ({n},)")
        loss = -(self.params.gamma + u)
        return lambda x: loss * x + (1.0 - x) * self.pressure(x)


def rk4_step(model: SisModel, x: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step with the packed control u held constant."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.graph.node_count,):
        raise DimensionError(f"packed state must have shape ({model.graph.node_count},)")
    deriv = model.packed_flow(np.asarray(u, dtype=float))
    half = 0.5 * dt
    k1 = deriv(x)
    k2 = deriv(x + half * k1)
    k3 = deriv(x + half * k2)
    k4 = deriv(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < out.size:
        node = int(np.flatnonzero(~finite)[0]) + 1
        raise NumericsError(f"node {node}: non-finite state after step")
    return out
