"""Second-order barrier chain and its control-space decomposition.

For a node with scalar barrier h = threshold - x the chain is

    psi0 = h
    psi1 = d(psi0)/dt + eta * psi0
    psi2 = d(psi1)/dt + kappa * psi1

with constant linear gains eta, kappa > 0.  Keeping psi2 >= 0 whenever
psi1 = 0 renders the safe set forward invariant.  Expanding psi2 along the
networked dynamics and grouping by whose control appears gives

    psi2(u_i, {u_j}) = sum_j coupling[j] . u_j + self_term(u_i)

where coupling[j] = L_{g_j} L_{f_i} h_i and self_term is a quadratic in the
node's own control:

    constant  = sum_j L_{f_j} L_{f_i} h_i + L_{f_i}^2 h_i + L_g h . udot
                + eta * L_f h + kappa * (L_f h + eta * h)
    linear    = L_f L_g h + L_g L_f h + (eta + kappa) * L_g h
    quadratic = L_g L_g h

The node's capability is the maximum of self_term over its admissible
control region; everything beyond that must come from neighbors through
the coupling terms.  `decompose_psi2` and `max_capability` are the
per-node reference; the step kernels in `floatkernel` and `arraykernel`
build the same blocks and capabilities for every node, bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

import numpy as np

from .dynamics import LieTable
from .errors import (DimensionError, EmptyRegionError, NumericsError,
                     TerminallyInfeasibleError)

if TYPE_CHECKING:
    from .geometry import ControlRegion

# the protocol's logger: both kernels' negotiations warn under the name the
# per-node one always had
log = logging.getLogger("ccbf.collab")

# a psi1 this far below zero counts as violated
PSI1_TOL = 1e-9
# The own-margin constraint is enforced with this much slack so that a
# negotiation that closed a deficit exactly leaves a nonempty control set.
CERT_TOL = 1e-9
# margins above this are treated as satisfied
MARGIN_TOL = 1e-9
DEFAULT_OUTER_CAP = 16
DEFAULT_INNER_CAP = 64
# how a node weighs its in-neighbors when it splits a request
WEIGHT_MODES = ("coupling", "uniform")
# request normals and split weights smaller than this are treated as absent
NEGLIGIBLE_NORMAL = 1e-12


@dataclass(frozen=True)
class BarrierSpec:
    """Threshold barrier h = threshold - x with linear chain gains."""

    threshold: float
    eta: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "kappa", float(self.kappa))
        if not math.isfinite(self.threshold):
            raise NumericsError("barrier threshold must be finite")
        if not (math.isfinite(self.eta) and math.isfinite(self.kappa)):
            raise NumericsError("chain gains eta and kappa must be finite")
        if self.eta <= 0.0 or self.kappa <= 0.0:
            raise DimensionError("chain gains eta and kappa must be positive")


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Scalar map u -> constant + linear . u + u . quadratic u."""

    constant: float
    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        lin = np.atleast_1d(np.asarray(self.linear, dtype=float))
        quad = np.asarray(self.quadratic, dtype=float)
        if quad.ndim != 2 or quad.shape != (lin.shape[0], lin.shape[0]):
            raise DimensionError("quadratic block must be MxM for linear part of length M")
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    def value(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise DimensionError(f"control has shape {u.shape}, form has dim {self.dim}")
        return float(self.constant + self.linear @ u + u @ self.quadratic @ u)


@dataclass(frozen=True, eq=False)
class Psi2Decomposition:
    """psi2 split into neighbor coupling rows and the node's own quadratic."""

    coupling: Mapping[int, np.ndarray]
    self_term: QuadraticForm

    def __post_init__(self):
        object.__setattr__(
            self,
            "coupling",
            {int(j): np.atleast_1d(np.asarray(a, dtype=float)) for j, a in self.coupling.items()},
        )

    def reassemble(self, u_self: np.ndarray, neighbor_controls: Mapping[int, np.ndarray]) -> float:
        total = self.self_term.value(u_self)
        for j in sorted(self.coupling):
            total += float(self.coupling[j] @ np.asarray(neighbor_controls[j], dtype=float))
        return total


def psi0(spec: BarrierSpec, state: np.ndarray) -> float:
    state = np.atleast_1d(np.asarray(state, dtype=float))
    return spec.threshold - float(state[0])


def psi1(spec: BarrierSpec, lie: LieTable, state: np.ndarray, u: np.ndarray) -> float:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(lie.lf_h + lie.lg_h @ u + spec.eta * psi0(spec, state))


def decompose_psi2(spec: BarrierSpec, lie: LieTable, state: np.ndarray,
                   udot: np.ndarray) -> Psi2Decomposition:
    """Group the psi2 expansion by control ownership.

    udot is the node's model of its own control rate; it enters only the
    constant block, through L_g h . udot.
    """
    udot = np.atleast_1d(np.asarray(udot, dtype=float))
    if udot.shape != lie.lg_h.shape:
        raise DimensionError(f"udot has shape {udot.shape}, expected {lie.lg_h.shape}")
    h0 = psi0(spec, state)
    cross_drift = 0.0  # in order from +0.0: builtin sum() compensates from Python 3.12 on
    for j in sorted(lie.lfj_lf_h):
        cross_drift += lie.lfj_lf_h[j]
    constant = (cross_drift + lie.lf2_h + float(lie.lg_h @ udot)
                + spec.eta * lie.lf_h + spec.kappa * (lie.lf_h + spec.eta * h0))
    linear = lie.lf_lg_h + lie.lg_lf_h + (spec.eta + spec.kappa) * lie.lg_h
    coupling = {j: lie.lgj_lf_h[j] for j in sorted(lie.lgj_lf_h)}
    return Psi2Decomposition(coupling, QuadraticForm(constant, linear, lie.lg2_h))


class BarrierArrays(NamedTuple):
    """Every node's barrier threshold and chain gains, as arrays.

    Entry i-1 belongs to node i.  eta_kappa is eta + kappa, the gain of
    L_g h in the linear block.  They depend only on the specs, so a run
    builds them once.
    """

    threshold: np.ndarray
    eta: np.ndarray
    kappa: np.ndarray
    eta_kappa: np.ndarray


def barrier_arrays(specs: Mapping[int, BarrierSpec], nodes: Iterable[int]) -> BarrierArrays:
    """The specs of `nodes`, in that order, as BarrierArrays."""
    chosen = [specs[i] for i in nodes]
    eta = np.array([s.eta for s in chosen])
    kappa = np.array([s.kappa for s in chosen])
    return BarrierArrays(np.array([s.threshold for s in chosen]), eta, kappa, eta + kappa)


def _max_quadratic_on_interval(c: float, l: float, q: float,
                               lo: float, hi: float) -> tuple[float, float]:
    """Exact maximum of c + l t + q t^2 on [lo, hi]; returns (value, argmax).

    The candidates are lo, hi and the interior stationary point, compared
    in that order; the first of equal values wins.
    """
    best, arg = c + l * lo + q * lo * lo, lo
    f_hi = c + l * hi + q * hi * hi
    if f_hi > best:
        best, arg = f_hi, hi
    if q != 0.0:
        t = -l / (2.0 * q)
        if lo < t < hi:
            f_t = c + l * t + q * t * t
            if f_t > best:
                best, arg = f_t, t
    return best, arg


def max_capability(decomp: Psi2Decomposition, region: ControlRegion
                   ) -> tuple[float, np.ndarray]:
    """Maximum of the node's own quadratic over its 1-D admissible region.

    Exact: a frozen region yields the value at its point, any other the
    best of its interval's ends and the interior stationary point.
    """
    form = decomp.self_term
    if not region.dim == form.dim == 1:
        raise DimensionError(f"max_capability takes 1-D regions and controls, got region dim "
                             f"{region.dim} and control dim {form.dim}")
    if region.frozen:
        p = region.frozen_point
        return form.value(p), p.copy()
    lo, hi = region.interval()
    if lo > hi:
        raise EmptyRegionError(f"admissible interval is empty ({lo} > {hi})")
    val, t = _max_quadratic_on_interval(form.constant, float(form.linear[0]),
                                        float(form.quadratic[0, 0]), lo, hi)
    return val, np.array([t])


def _infeasible(stuck: tuple[int, ...]) -> TerminallyInfeasibleError:
    return TerminallyInfeasibleError(
        "nodes "
        + ", ".join(str(i) for i in stuck)
        + " cannot close their safety margin with every in-neighbor refusing",
        nodes=stuck)


def _split(deficit: float, weights: list[float]) -> list[float] | None:
    """deficit split over weights in proportion; negligible weights get exactly 0.

    None when every weight is negligible.  Each sum runs from +0.0 in list
    order.  NumericsError when the shares do not add up to the deficit.
    """
    total = 0.0
    for w in weights:
        if w > NEGLIGIBLE_NORMAL:
            total += w
    if not total > 0.0:
        return None
    shares = []
    spread = 0.0
    for w in weights:
        share = deficit * (w / total) if w > NEGLIGIBLE_NORMAL else 0.0
        shares.append(share)
        spread += share
    spread -= deficit
    if not abs(spread) <= 1e-12 * max(1.0, abs(deficit)):  # an infinite deficit spreads NaN
        raise NumericsError("partition must conserve the margin")
    return shares
