"""Closed-loop simulation: snapshot, negotiate, filter, integrate.

`run_scenario` runs a `SisModel`.  Every step runs the same pipeline at
the current state: build every node's Lie terms and psi2 blocks at once
with `SisModel.lie_arrays`, negotiate admissible control regions with the
array protocol on the model's edge layout (or hand every node its full
box when collaboration is off), pass the nominal controls through the
array safety filter, record a row, then advance one `rk4_step` with the
controls held constant over the interval.  Every stage works on arrays
over nodes and edges; the per-node `safety_filter` and
`collaborative_safety` are the reference they match bit for bit.

The recorded row at t = k dt carries the state at t, the control applied
on [t, t+dt), the negotiated capability, and the round counts for that
step; the final row repeats the pipeline at t_final without integrating
further, so a run over N steps yields N+1 rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from .barrier import (BarrierSpec, Psi2Arrays, QuadraticForm, barrier_arrays,
                      decompose_psi2_all, max_capability_arrays)
from .collab import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, CollabMessage,
                     collaborative_safety_arrays)
from .dynamics import SisModel, rk4_step
from .errors import (DimensionError, EmptyRegionError, ProtocolStallError,
                     TerminallyInfeasibleError)
from .geometry import NEGLIGIBLE_NORMAL, ControlRegion, IntervalRegions

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
    halted nor certified safe.  relaxed_steps[i-1] counts the rows whose
    safety filter could not keep node i's psi1 nonnegative.  A halted run
    stops at halted_at, and halt_reason says why: "infeasible" (terminal
    infeasibility at infeasible_nodes) or "stall" (no agreement within the
    sub-round cap).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    capabilities: np.ndarray
    outer_rounds: np.ndarray
    inner_rounds: np.ndarray
    thresholds: tuple[float, ...]
    halted_at: float | None = None
    halt_reason: str | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp: float = 0.0
    cap_tripped_steps: int = 0
    relaxed_steps: tuple[int, ...] = ()
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


def safety_filter(nominal: np.ndarray, region: ControlRegion, spec: BarrierSpec,
                  lie, state: np.ndarray,
                  certificate: QuadraticForm | None = None) -> tuple[np.ndarray, bool]:
    """Least deviation from the nominal control that keeps psi1 nonnegative.

    `lie` is anything carrying lf_h and lg_h, such as a LieTable.  The
    search stays inside the negotiated 1-D region.  `certificate` carries
    the node's own second-order margin (its share of the chain, guaranteed
    neighbor help folded into the constant); it is honored whenever a
    feasible point exists and dropped otherwise, since obligations to
    neighbors and psi1 itself come first.  When even the region's best
    point cannot keep psi1 nonnegative, that point is returned and the
    relaxation is flagged.  Frozen regions leave no choice at all.
    """
    if region.dim != 1:
        raise DimensionError(f"safety_filter takes 1-D regions, got dim {region.dim}")
    nominal = np.atleast_1d(np.asarray(nominal, dtype=float))
    base = float(lie.lf_h) + spec.eta * (spec.threshold - float(np.atleast_1d(state)[0]))
    a = lie.lg_h
    if region.frozen:
        u = region.frozen_point.copy()
        return u, bool(base + float(a @ u) < -PSI1_TOL)
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


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(v, lo), hi) elementwise, keeping the first argument on ties."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _certificate_choice(certificate: Psi2Arrays, want: np.ndarray, flo: np.ndarray,
                        fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's certificate step for every node at once.

    Returns the point of the certificate pieces (_certificate_pieces with
    CERT_TOL slack) inside [flo, fhi] nearest the nominal, first piece
    first, and whether any piece met [flo, fhi].
    """
    q, l = certificate.quadratic, certificate.linear
    c = certificate.constant + CERT_TOL
    inf = np.inf
    disc = l * l - 4.0 * q * c
    flat = np.abs(q) <= NEGLIGIBLE_NORMAL
    curved = ~flat
    crossing = curved & (disc > 0.0)
    root = np.sqrt(disc, out=np.zeros(c.shape), where=crossing)
    two_q = 2.0 * q
    neg_l = -l
    ra = np.divide(neg_l - root, two_q, out=np.zeros(c.shape), where=curved)
    rb = np.divide(neg_l + root, two_q, out=np.zeros(c.shape), where=curved)
    swap = rb < ra
    r1, r2 = np.where(swap, rb, ra), np.where(swap, ra, rb)
    concave = q < 0.0
    convex = ~concave
    cup = crossing & convex  # two pieces, outside the roots
    # first piece: between the roots, below the lower root, or the whole
    # line where the curve never crosses zero and opens upward
    lo1 = np.where(crossing & concave, r1, -inf)
    hi1 = np.where(crossing, np.where(concave, r2, r1), inf)
    has1 = crossing | convex
    if np.count_nonzero(flat):
        level = flat & (np.abs(l) <= NEGLIGIBLE_NORMAL)
        sloped = flat & ~level
        cut = np.divide(-c, l, out=np.zeros(c.shape), where=sloped)
        rising = l > 0.0
        lo1 = np.where(sloped & rising, cut, lo1)
        hi1 = np.where(sloped & ~rising, cut, hi1)
        has1 = np.where(level, c >= 0.0, has1 | sloped)
    seg_lo = np.where(lo1 > flo, lo1, flo)
    seg_hi = np.where(hi1 < fhi, hi1, fhi)
    found = has1 & ~(seg_lo > seg_hi)
    best = _clamp(want, seg_lo, seg_hi)
    if np.count_nonzero(cup):
        seg_lo = np.where(r2 > flo, r2, flo)
        usable = cup & ~(seg_lo > fhi)
        u = _clamp(want, seg_lo, fhi)
        better = usable & (~found | (np.abs(u - want) < np.abs(best - want)))
        best = np.where(better, u, best)
        found = found | usable
    return best, found


def safety_filter_arrays(nominal: np.ndarray, regions: IntervalRegions, base: np.ndarray,
                         lg_h: np.ndarray, certificate: Psi2Arrays | None = None,
                         certified: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """safety_filter for every scalar node at once, bit for bit.

    base is each node's psi1 at zero control, L_f h + eta * h, and lg_h its
    L_g h.  The self-term blocks of `certificate` are the own-margin forms
    of the nodes where `certified` is True; the other nodes filter without
    one.  Returns the packed controls and the per-node relaxation flags.
    """
    lo, hi, frozen, point = regions
    if np.count_nonzero(lo > hi):
        empty = ~frozen & (lo > hi)
        if empty.any():
            raise EmptyRegionError(
                f"node {int(np.flatnonzero(empty)[0]) + 1}: negotiated region is empty")
    a = lg_h
    up = a > NEGLIGIBLE_NORMAL
    down = a < -NEGLIGIBLE_NORMAL
    steer = up | down
    bound = np.divide(-base, a, out=np.zeros(a.shape), where=steer)
    flo = np.where(up & (bound > lo), bound, lo)
    fhi = np.where(down & (bound < hi), bound, hi)
    blind = ~steer & (base < -PSI1_TOL)  # control cannot reach psi1 at all
    if np.count_nonzero(blind):
        flo, fhi = np.where(blind, hi, flo), np.where(blind, lo, fhi)
    feasible = flo <= fhi
    u = _clamp(nominal, flo, fhi)
    if certificate is not None and np.count_nonzero(certified):
        best, found = _certificate_choice(certificate, nominal, flo, fhi)
        u = np.where(certified & found, best, u)
    relaxed = ~feasible
    if np.count_nonzero(relaxed):
        u = np.where(feasible, u, np.where(steer, np.where(up, hi, lo), _clamp(nominal, lo, hi)))
    if np.count_nonzero(frozen):
        u = np.where(frozen, point, u)
        relaxed = np.where(frozen, base + a * point < -PSI1_TOL, relaxed)
    return u, relaxed


# psi2's own control rate: zero, or the difference of the last two controls
UDOT_POLICIES = ("zero", "backward_difference")


def _udot_for(policy: str, history: list[np.ndarray], zero: np.ndarray, dt: float,
              warned: list[bool]) -> np.ndarray:
    """The packed control rate for the psi2 blocks; `zero` is the zero rate."""
    if policy == "zero":
        return zero
    if len(history) < 2:
        if not warned[0]:
            log.debug("control-rate history not yet available, using zero rate")
            warned[0] = True
        return zero
    return (history[-1] - history[-2]) / dt


def run_scenario(model: SisModel, specs: dict[int, BarrierSpec], x0: np.ndarray,
                 *,
                 dt: float = 0.01,
                 t_final: float = 100.0,
                 nominal: np.ndarray | None = None,
                 udot_policy: str = "zero",
                 collaboration: bool = True,
                 weights_mode: str = "coupling",
                 outer_cap: int = DEFAULT_OUTER_CAP,
                 inner_cap: int = DEFAULT_INNER_CAP,
                 continue_on_infeasible: bool = False,
                 collect_messages: bool = False) -> ScenarioResult:
    """Run the closed loop from x0 to t_final and record every step.

    nominal is the packed nominal control, zero when None.  Each step runs
    on arrays: the model's Lie terms, the psi2 blocks, the array protocol
    and the array filter.
    A terminally infeasible step halts the run unless continue_on_infeasible
    is set; a stalled negotiation always halts it.
    """
    if udot_policy not in UDOT_POLICIES:
        raise ValueError(f"udot_policy must be one of {', '.join(UDOT_POLICIES)}, "
                         f"got {udot_policy!r}")
    nodes = list(model.graph.nodes())
    n = len(nodes)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},) for this graph")
    want = np.zeros(n) if nominal is None else np.asarray(nominal, dtype=float)
    if want.shape != (n,):
        raise ValueError(f"nominal has shape {want.shape}, expected ({n},) for this graph")
    box_lo, box_hi = np.zeros(n), model.params.u_max.copy()
    full_boxes = IntervalRegions(box_lo, box_hi, np.zeros(n, dtype=bool), np.zeros(n))
    gains = barrier_arrays(specs, nodes)
    zero_rate = np.zeros(n)
    nsteps = int(round(t_final / dt))

    times = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, n))
    controls = np.zeros((nsteps + 1, n))
    capabilities = np.zeros((nsteps + 1, n))
    outer_rounds = np.zeros(nsteps + 1, dtype=int)
    inner_rounds = np.zeros(nsteps + 1, dtype=int)
    all_messages: list[tuple[float, CollabMessage]] = []

    history: list[np.ndarray] = []  # the last two applied packed controls
    warned = [False]
    halted_at: float | None = None
    halt_reason: str | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp = 0.0
    cap_tripped_steps = 0
    relaxed_steps = np.zeros(n, dtype=int)
    rows = 0

    for k in range(nsteps + 1):
        t = k * dt
        lie = model.lie_arrays(x)
        udot = _udot_for(udot_policy, history, zero_rate, dt, warned)
        psi2 = decompose_psi2_all(model.layout, gains, lie, udot)

        step_messages: list[CollabMessage] | None = [] if collect_messages else None
        outcome = None
        if collaboration:
            try:
                outcome = collaborative_safety_arrays(
                    model.layout, psi2, box_lo, box_hi,
                    outer_cap=outer_cap, inner_cap=inner_cap, weights_mode=weights_mode,
                    messages=step_messages)
            except TerminallyInfeasibleError as err:
                if not continue_on_infeasible:
                    log.error("t=%.6g: %s", t, err)
                    halted_at, halt_reason = t, "infeasible"
                    infeasible_nodes = err.nodes
                    break
                log.warning("t=%.6g: %s; continuing with unconstrained boxes", t, err)
                infeasible_nodes = tuple(sorted(set(infeasible_nodes) | set(err.nodes)))
            except ProtocolStallError as err:
                log.error("t=%.6g: negotiation stalled: %s", t, err)
                halted_at, halt_reason = t, "stall"
                break

        certified = None
        if outcome is not None:
            regions = outcome.regions
            caps = outcome.capability
            outer_rounds[k] = outcome.outer_rounds
            inner_rounds[k] = outcome.sub_rounds
            cap_tripped_steps += outcome.cap_tripped
            # A node that negotiated help owes its own share of the closed
            # margin, a floor of -allocated; self-sufficient nodes stay
            # minimally invasive.  (c - a is c + (-a) bit for bit.)
            certified = outcome.allocated < 0.0
            certificate = Psi2Arrays(psi2.constant - outcome.allocated, psi2.linear,
                                     psi2.quadratic, psi2.coupling)
        else:
            regions = full_boxes
            caps = max_capability_arrays(psi2, regions)
            certificate = None

        if collect_messages:
            all_messages.extend(zip(repeat(t), step_messages))

        base = lie.lf_h + gains.eta * (gains.threshold - x)
        # L_g h of a scalar node is its own state
        u, relaxed = safety_filter_arrays(want, regions, base, x, certificate, certified)
        relaxed_steps += relaxed
        if log.isEnabledFor(logging.DEBUG) and relaxed.any():
            for i in np.flatnonzero(relaxed):
                log.debug("t=%.6g node %d: psi1 constraint relaxed", t, i + 1)
        history = [*history[-1:], u]

        times[k] = t
        states[k] = x
        controls[k] = u
        capabilities[k] = caps
        rows = k + 1

        if k < nsteps:
            x, moved = model.clamp_state(rk4_step(model, x, u, dt))
            max_clamp = max(max_clamp, moved)

    if cap_tripped_steps:
        log.warning("%d of %d steps hit the outer round cap (%d) with negotiation still open",
                    cap_tripped_steps, rows, outer_cap)
    thresholds = tuple(specs[i].threshold for i in nodes)
    return ScenarioResult(
        times=times[:rows], states=states[:rows], controls=controls[:rows],
        capabilities=capabilities[:rows], outer_rounds=outer_rounds[:rows],
        inner_rounds=inner_rounds[:rows], thresholds=thresholds,
        halted_at=halted_at, halt_reason=halt_reason, infeasible_nodes=infeasible_nodes,
        max_clamp=max_clamp, cap_tripped_steps=cap_tripped_steps,
        relaxed_steps=tuple(relaxed_steps.tolist()), messages=all_messages)


def run_uncontrolled(model: SisModel, x0: np.ndarray, *,
                     dt: float = 0.01, t_final: float = 100.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop trajectory with zero control; returns (times, states)."""
    nsteps = int(round(t_final / dt))
    n = model.graph.node_count
    x = np.asarray(x0, dtype=float).copy()
    u = np.zeros(n)
    times = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, n))
    states[0] = x
    for k in range(nsteps):
        x, _ = model.clamp_state(rk4_step(model, x, u, dt))
        times[k + 1] = (k + 1) * dt
        states[k + 1] = x
    return times, states


def write_result_csv(path, result: ScenarioResult) -> None:
    """One row per step: state, control, capability, rounds, violation.

    Floats are written with 17 significant digits, enough to read back
    every value bit for bit.  Rows are formatted one at a time, so the
    table's text is never held whole.
    """
    n = result.node_count
    viol = result.violations()
    header = (["t"]
              + [f"x_{i}" for i in range(1, n + 1)]
              + [f"u_{i}" for i in range(1, n + 1)]
              + [f"cbar_{i}" for i in range(1, n + 1)]
              + ["outer_rounds", "inner_rounds"]
              + [f"viol_{i}" for i in range(1, n + 1)])
    floats_before = 1 + n + result.controls.shape[1] + result.capabilities.shape[1]
    row_format = ",".join(["%.17g"] * floats_before + ["%d", "%d"] + ["%.17g"] * n) + "\n"
    rows = zip(result.times.tolist(), result.states, result.controls, result.capabilities,
               result.outer_rounds.tolist(), result.inner_rounds.tolist(), viol)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % (t, *x.tolist(), *u.tolist(), *cbar.tolist(),
                                    outer, inner, *v.tolist())
                      for t, x, u, cbar, outer, inner, v in rows)


def write_messages_csv(path, result: ScenarioResult) -> None:
    """Protocol trace: every request and adjustment, in exchange order."""
    with open(path, "w", newline="") as fh:
        fh.write("sim_time,sub_round,kind,from,to,value\n")
        # the messages of one step share their time, so it is formatted once
        for t, step in groupby(result.messages, key=itemgetter(0)):
            stamp = "%.17g" % t
            fh.writelines("%s,%d,%s,%d,%d,%.17g\n" % (stamp, *m) for _, m in step)
