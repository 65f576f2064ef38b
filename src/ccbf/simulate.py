"""Closed-loop simulation: snapshot, negotiate, filter, integrate.

Every step runs the same pipeline at the current state: build every
node's Lie terms and psi2 decomposition at once from the model's array
kernel, negotiate admissible control regions
(or hand every node its full box when collaboration is off), pass each
node's nominal control through its safety filter, record a row, then
advance one RK4 step with the controls held constant over the interval.

The recorded row at t = k dt carries the state at t, the control applied
on [t, t+dt), the negotiated capability, and the round counts for that
step; the final row repeats the pipeline at t_final without integrating
further, so a run over N steps yields N+1 rows.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .barrier import (BarrierSpec, Psi2Decomposition, QuadraticForm, decompose_psi2_all,
                      max_capability)
from .collab import CollabMessage, collaborative_safety
from .dynamics import NetworkedSystem, rk4_step
from .errors import EmptyRegionError, GeometryConvergenceError, TerminallyInfeasibleError
from .geometry import NEGLIGIBLE_NORMAL, ControlRegion, Halfspace, project_point

log = logging.getLogger("ccbf.simulate")

PSI1_TOL = 1e-9
# The own-margin constraint is enforced with this much slack so that a
# negotiation that closed a deficit exactly leaves a nonempty control set.
CERT_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioResult:
    """Trajectory plus per-step protocol accounting for one closed-loop run.

    cap_tripped_steps counts the steps whose negotiation hit the outer
    round cap with some node's margin still open: such a step is neither
    halted nor certified safe.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    capabilities: np.ndarray
    outer_rounds: np.ndarray
    inner_rounds: np.ndarray
    thresholds: tuple[float, ...]
    halted_at: float | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp: float = 0.0
    cap_tripped_steps: int = 0
    messages: list[tuple[float, CollabMessage]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    def violations(self) -> np.ndarray:
        """Barrier shortfall min(h, 0) per node per row; zero when safe."""
        margins = np.asarray(self.thresholds) - self.states
        return np.minimum(margins, 0.0)


def _certificate_pieces(form: QuadraticForm, slack: float) -> list[tuple[float, float]]:
    """Intervals where a scalar quadratic is >= -slack; may be 0, 1, or 2."""
    q = float(form.quadratic[0, 0])
    l = float(form.linear[0])
    c = float(form.constant) + slack
    inf = float("inf")
    if abs(q) <= NEGLIGIBLE_NORMAL:
        if abs(l) <= NEGLIGIBLE_NORMAL:
            return [(-inf, inf)] if c >= 0.0 else []
        cut = -c / l
        return [(cut, inf)] if l > 0.0 else [(-inf, cut)]
    disc = l * l - 4.0 * q * c
    if disc <= 0.0:
        return [] if q < 0.0 else [(-inf, inf)]
    root = math.sqrt(disc)
    r1, r2 = sorted(((-l - root) / (2.0 * q), (-l + root) / (2.0 * q)))
    if q < 0.0:
        return [(r1, r2)]
    return [(-inf, r1), (r2, inf)]


class _Psi1Terms(NamedTuple):
    """The Lie terms safety_filter reads: L_f h and L_g h of one node."""

    lf_h: float
    lg_h: np.ndarray


def safety_filter(nominal: np.ndarray, region: ControlRegion, spec: BarrierSpec,
                  lie, state: np.ndarray,
                  certificate: QuadraticForm | None = None) -> tuple[np.ndarray, bool]:
    """Least deviation from the nominal control that keeps psi1 nonnegative.

    `lie` is anything carrying lf_h and lg_h, such as a LieTable.  The
    search stays inside the negotiated region.  `certificate` carries
    the node's own second-order margin (its share of the chain, guaranteed
    neighbor help folded into the constant); it is honored whenever a
    feasible point exists and dropped otherwise, since obligations to
    neighbors and psi1 itself come first.  When even the region's best
    point cannot keep psi1 nonnegative, that point is returned and the
    relaxation is flagged.  Frozen regions leave no choice at all.
    """
    nominal = np.atleast_1d(np.asarray(nominal, dtype=float))
    base = float(lie.lf_h) + spec.eta * (spec.threshold - float(np.atleast_1d(state)[0]))
    a = lie.lg_h
    if region.frozen:
        u = region.frozen_point.copy()
        return u, bool(base + float(a @ u) < -PSI1_TOL)
    if region.dim == 1:
        lo, hi = region.interval()
        if lo > hi:
            raise EmptyRegionError("negotiated region is empty")
        a0 = float(a[0])
        flo, fhi = lo, hi
        if abs(a0) > NEGLIGIBLE_NORMAL:
            bound = -base / a0
            if a0 > 0.0:
                flo = max(flo, bound)
            else:
                fhi = min(fhi, bound)
        elif base < -PSI1_TOL:
            flo, fhi = hi, lo  # control cannot reach psi1 at all
        if flo <= fhi:
            want = float(nominal[0])
            if certificate is not None:
                best = None
                for piece_lo, piece_hi in _certificate_pieces(certificate, CERT_TOL):
                    seg_lo, seg_hi = max(flo, piece_lo), min(fhi, piece_hi)
                    if seg_lo > seg_hi:
                        continue
                    u = min(max(want, seg_lo), seg_hi)
                    if best is None or abs(u - want) < abs(best - want):
                        best = u
                if best is not None:
                    return np.array([best]), False
            return np.array([min(max(want, flo), fhi)]), False
        if abs(a0) <= NEGLIGIBLE_NORMAL:
            u = min(max(float(nominal[0]), lo), hi)
        else:
            u = hi if a0 > 0.0 else lo
        return np.array([u]), True
    live = [h for h in region.requests if float(np.max(np.abs(h.normal))) > NEGLIGIBLE_NORMAL]
    extra = []
    if certificate is not None \
            and float(np.max(np.abs(certificate.quadratic))) <= NEGLIGIBLE_NORMAL \
            and float(np.max(np.abs(certificate.linear))) > NEGLIGIBLE_NORMAL:
        extra = [Halfspace(certificate.linear, float(certificate.constant) + CERT_TOL)]
    if float(np.max(np.abs(a))) > NEGLIGIBLE_NORMAL:
        family = live + extra + [Halfspace(a, base)]
        try:
            return project_point(nominal, region.box, family), False
        except GeometryConvergenceError:
            if extra:
                try:
                    return project_point(nominal, region.box,
                                         live + [Halfspace(a, base)]), False
                except GeometryConvergenceError:
                    pass
    elif base >= -PSI1_TOL:
        return project_point(nominal, region.box, live), False
    linear = QuadraticForm(base, a, np.zeros((region.dim, region.dim)))
    _, point = max_capability(Psi2Decomposition({}, linear), region)
    return point, True


def _udot_for(policy: str, history: list[np.ndarray], dims: int, dt: float,
              warned: list[bool]) -> np.ndarray:
    if policy == "zero":
        return np.zeros(dims)
    if len(history) < 2:
        if not warned[0]:
            log.debug("control-rate history not yet available, using zero rate")
            warned[0] = True
        return np.zeros(dims)
    return (history[-1] - history[-2]) / dt


def run_scenario(system: NetworkedSystem, specs: dict[int, BarrierSpec], x0: np.ndarray,
                 *,
                 dt: float = 0.01,
                 t_final: float = 100.0,
                 nominal=None,
                 udot_policy: str = "zero",
                 collaboration: bool = True,
                 weights_mode: str = "coupling",
                 outer_cap: int = 16,
                 inner_cap: int = 64,
                 continue_on_infeasible: bool = False,
                 persist_allocations: bool = False,
                 collect_messages: bool = False) -> ScenarioResult:
    """Run the closed loop from x0 to t_final and record every step."""
    graph = system.graph
    nodes = list(graph.nodes())
    n = len(nodes)
    total_x = sum(graph.state_dims[i] for i in nodes)
    total_u = sum(graph.control_dims[i] for i in nodes)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (total_x,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({total_x},) for this graph")
    boxes = {i: system.model.control_box(i) for i in nodes}
    control_offsets = graph.control_offsets()
    nsteps = int(round(t_final / dt))

    times = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, total_x))
    controls = np.zeros((nsteps + 1, total_u))
    capabilities = np.zeros((nsteps + 1, n))
    outer_rounds = np.zeros(nsteps + 1, dtype=int)
    inner_rounds = np.zeros(nsteps + 1, dtype=int)
    all_messages: list[tuple[float, CollabMessage]] = []

    model = system.model
    history: list[np.ndarray] = []  # the last two applied packed controls
    warned = [False]
    carried: dict[int, dict[int, float]] | None = None
    halted_at: float | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp = 0.0
    cap_tripped_steps = 0
    rows = 0

    for k in range(nsteps + 1):
        t = k * dt
        sts = system.split_state(x)
        lie = model.lie_arrays(x)
        udot = _udot_for(udot_policy, history, total_u, dt, warned)
        decomps = decompose_psi2_all(specs, lie, udot)

        step_messages: list[CollabMessage] = []
        if collaboration:
            try:
                outcome = collaborative_safety(
                    graph, decomps, boxes,
                    outer_cap=outer_cap, inner_cap=inner_cap, weights_mode=weights_mode,
                    messages=step_messages if collect_messages else None,
                    initial_allocations=carried)
            except TerminallyInfeasibleError as err:
                if not continue_on_infeasible:
                    log.error("t=%.6g: %s", t, err)
                    halted_at = t
                    infeasible_nodes = err.nodes
                    break
                log.warning("t=%.6g: %s; continuing with unconstrained boxes", t, err)
                infeasible_nodes = tuple(sorted(set(infeasible_nodes) | set(err.nodes)))
                outcome = None
        else:
            outcome = None

        if outcome is not None:
            regions = outcome.regions
            caps = {i: outcome.ledgers[i].capability for i in nodes}
            outer_rounds[k] = outcome.outer_rounds
            inner_rounds[k] = outcome.sub_rounds
            cap_tripped_steps += outcome.cap_tripped
            if persist_allocations:
                carried = {i: dict(outcome.ledgers[i].out_alloc) for i in nodes}
        else:
            regions = {i: ControlRegion(boxes[i]) for i in nodes}
            caps = {i: max_capability(decomps[i], regions[i])[0] for i in nodes}

        if collect_messages:
            all_messages.extend((t, m) for m in step_messages)

        u = np.zeros(total_u)
        nom = nominal(t, sts) if callable(nominal) else nominal
        lf_h = lie.lf_h.tolist()
        for i in nodes:
            want = np.zeros(graph.control_dims[i]) if nom is None \
                else np.atleast_1d(np.asarray(nom[i], dtype=float))
            # A node that negotiated help owes its own share of the closed
            # margin; self-sufficient nodes stay minimally invasive.
            certificate = None
            if outcome is not None:
                help_floor = -sum(outcome.ledgers[i].out_alloc.values())
                if help_floor > 0.0:
                    own = decomps[i].self_term
                    certificate = QuadraticForm(own.constant + help_floor,
                                                own.linear, own.quadratic)
            # L_g h of a scalar node is its own state
            terms = _Psi1Terms(lf_h[i - 1], sts[i])
            u_i, relaxed = safety_filter(want, regions[i], specs[i], terms, sts[i],
                                         certificate=certificate)
            if relaxed:
                log.debug("t=%.6g node %d: psi1 constraint relaxed", t, i)
            off = control_offsets[i]
            u[off:off + graph.control_dims[i]] = u_i
        history = [*history[-1:], u]

        times[k] = t
        states[k] = x
        controls[k] = u
        capabilities[k] = [caps[i] for i in nodes]
        rows = k + 1

        if k < nsteps:
            x, moved = model.clamp_state(rk4_step(system, x, u, dt))
            max_clamp = max(max_clamp, moved)

    if cap_tripped_steps:
        log.warning("%d of %d steps hit the outer round cap (%d) with negotiation still open",
                    cap_tripped_steps, rows, outer_cap)
    thresholds = tuple(specs[i].threshold for i in nodes)
    return ScenarioResult(
        times=times[:rows], states=states[:rows], controls=controls[:rows],
        capabilities=capabilities[:rows], outer_rounds=outer_rounds[:rows],
        inner_rounds=inner_rounds[:rows], thresholds=thresholds,
        halted_at=halted_at, infeasible_nodes=infeasible_nodes,
        max_clamp=max_clamp, cap_tripped_steps=cap_tripped_steps, messages=all_messages)


def run_uncontrolled(system: NetworkedSystem, x0: np.ndarray, *,
                     dt: float = 0.01, t_final: float = 100.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop trajectory with zero control; returns (times, states)."""
    nsteps = int(round(t_final / dt))
    n = x0.shape[0] if hasattr(x0, "shape") else len(x0)
    x = np.asarray(x0, dtype=float).copy()
    u = np.zeros(sum(system.graph.control_dims[i] for i in system.graph.nodes()))
    times = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, n))
    states[0] = x
    for k in range(nsteps):
        x, _ = system.model.clamp_state(rk4_step(system, x, u, dt))
        times[k + 1] = (k + 1) * dt
        states[k + 1] = x
    return times, states


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_result_csv(path, result: ScenarioResult) -> None:
    """One row per step: state, control, capability, rounds, violation."""
    n = result.node_count
    viol = result.violations()
    header = (["t"]
              + [f"x_{i}" for i in range(1, n + 1)]
              + [f"u_{i}" for i in range(1, n + 1)]
              + [f"cbar_{i}" for i in range(1, n + 1)]
              + ["outer_rounds", "inner_rounds"]
              + [f"viol_{i}" for i in range(1, n + 1)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(result.times.shape[0]):
            row = ([_fmt(result.times[k])]
                   + [_fmt(v) for v in result.states[k]]
                   + [_fmt(v) for v in result.controls[k]]
                   + [_fmt(v) for v in result.capabilities[k]]
                   + [str(int(result.outer_rounds[k])), str(int(result.inner_rounds[k]))]
                   + [_fmt(v) for v in viol[k]])
            writer.writerow(row)


def write_messages_csv(path, result: ScenarioResult) -> None:
    """Protocol trace: every request and adjustment, in exchange order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sim_time", "sub_round", "kind", "from", "to", "value"])
        for t, m in result.messages:
            writer.writerow([_fmt(t), str(m.sub_round), m.kind,
                             str(m.from_node), str(m.to_node), _fmt(m.value)])
