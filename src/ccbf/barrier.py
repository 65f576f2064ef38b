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
the coupling terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .dynamics import LieArrays, LieTable
from .errors import DimensionError, EmptyRegionError, NumericsError
from .geometry import ControlRegion, IntervalRegions
from .graph import EdgeLayout

# a psi1 this far below zero counts as violated
PSI1_TOL = 1e-9
# The own-margin constraint is enforced with this much slack so that a
# negotiation that closed a deficit exactly leaves a nonempty control set.
CERT_TOL = 1e-9


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
        if not np.isfinite(self.threshold):
            raise NumericsError("barrier threshold must be finite")
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
    cross_drift = sum(lie.lfj_lf_h[j] for j in sorted(lie.lfj_lf_h))
    constant = (cross_drift + lie.lf2_h + float(lie.lg_h @ udot)
                + spec.eta * lie.lf_h + spec.kappa * (lie.lf_h + spec.eta * h0))
    linear = lie.lf_lg_h + lie.lg_lf_h + (spec.eta + spec.kappa) * lie.lg_h
    coupling = {j: lie.lgj_lf_h[j] for j in sorted(lie.lgj_lf_h)}
    return Psi2Decomposition(coupling, QuadraticForm(constant, linear, lie.lg2_h))


class Psi2Arrays(NamedTuple):
    """Every scalar node's psi2 decomposition at one state, as arrays.

    Entry i-1 of constant, linear and quadratic is node i's self term
    constant + linear u + quadratic u^2.  coupling has LieArrays' edge
    layout: coupling[i-1, c] multiplies the control of node i's c-th
    in-neighbor, and padding slots hold 0.
    """

    constant: np.ndarray
    linear: np.ndarray
    quadratic: np.ndarray
    coupling: np.ndarray


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


def decompose_psi2_all(layout: EdgeLayout, gains: BarrierArrays, lie: LieArrays,
                       udot: np.ndarray) -> Psi2Arrays:
    """decompose_psi2 for every scalar node at once, bit for bit.

    layout is the model's EdgeLayout, gains every node's spec
    (barrier_arrays) and udot the packed control rate.  Every block is
    elementwise array arithmetic in decompose_psi2's operation order; the
    cross-drift is one `np.bincount` over layout.in_row (see EdgeLayout).
    """
    x = lie.x
    udot = np.asarray(udot, dtype=float)
    if udot.shape != x.shape:
        raise DimensionError(f"udot has shape {udot.shape}, expected {x.shape}")
    eta = gains.eta
    h0 = gains.threshold - x
    cross_drift = np.bincount(layout.in_row, lie.lfj_lf_h.ravel(), x.shape[0])
    constant = (cross_drift + lie.lf2_h + x * udot
                + eta * lie.lf_h + gains.kappa * (lie.lf_h + eta * h0))
    linear = lie.drift + lie.lg_lf_h + gains.eta_kappa * x
    return Psi2Arrays(constant, linear, -x, lie.lgj_lf_h)


def _max_quadratic_on_interval(c: float, l: float, q: float,
                               lo: float, hi: float) -> tuple[float, float]:
    """Exact maximum of c + l t + q t^2 on [lo, hi]; returns (value, argmax)."""
    cands = [lo, hi]
    if q != 0.0:
        t = -l / (2.0 * q)
        if lo < t < hi:
            cands.append(t)
    best_t = max(cands, key=lambda t: c + l * t + q * t * t)
    return c + l * best_t + q * best_t * best_t, best_t


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


def max_capability_arrays(psi2: Psi2Arrays, region: IntervalRegions) -> np.ndarray:
    """max_capability for every scalar node at once, bit for bit.

    A frozen node takes its own quadratic's value at the frozen point,
    rounded as QuadraticForm.value rounds it; any other node takes the
    exact maximum over [lo, hi], comparing the candidates lo, hi and the
    interior stationary point in that order and keeping the first of equal
    values.
    """
    return capability_function(psi2)(region)


def capability_function(psi2: Psi2Arrays) -> Callable[[IntervalRegions], np.ndarray]:
    """The map region -> max_capability_arrays(psi2, region).

    Each node's interior stationary point and the value there are found
    once, for every region the map is given.
    """
    c, l, q = psi2.constant, psi2.linear, psi2.quadratic
    curved = q != 0.0
    t = np.divide(-l, 2.0 * q, out=np.zeros(q.shape), where=curved)
    f_t = c + l * t + q * t * t

    def capability(region: IntervalRegions) -> np.ndarray:
        lo, hi, frozen, p = region
        if np.count_nonzero(lo > hi):
            empty = ~frozen & (lo > hi)
            if empty.any():
                i = int(np.flatnonzero(empty)[0])
                raise EmptyRegionError(f"node {i + 1}: admissible interval is empty "
                                       f"({lo[i]} > {hi[i]})")
        best = c + l * lo + q * lo * lo
        f_hi = c + l * hi + q * hi * hi
        best = np.where(f_hi > best, f_hi, best)
        best = np.where(curved & (lo < t) & (t < hi) & (f_t > best), f_t, best)
        if np.count_nonzero(frozen):
            # QuadraticForm.value: its one-element dot products add to +0.0
            at_point = (c + (l * p + 0.0)) + ((p * q + 0.0) * p + 0.0)
            best = np.where(frozen, at_point, best)
        return best

    return capability
