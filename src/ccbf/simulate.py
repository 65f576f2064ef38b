"""Closed-loop simulation: snapshot, negotiate, filter, integrate.

`run_scenario` runs a `SisModel`.  Every step runs the same pipeline at
the current state: build every node's Lie terms and psi2 blocks,
negotiate admissible control regions with the protocol on the model's
edge layout (or hand every node its full box when collaboration is off),
pass the nominal controls through the certificate filter, record a row,
then advance one RK4 step under those controls and clamp to [0, 1].  A
kernel's `step` runs the pipeline up to the record and its `advance` the
rest; a network with fewer than FLOAT_KERNEL_NODES nodes runs on
`FloatKernel`, a loop over the nodes on Python floats, and a larger one
on `ArrayKernel`, whose every stage works on arrays over nodes and edges.
The two give the same bits; each has its own RK4 around the one shared
`SisModel.pressure` product.  The per-node `safety_filter` and
`collaborative_safety` are the reference.  It shares one copy of each
scalar rule with `FloatKernel`: the certificate filter, the capability on
an interval, the proportional split and the nearest point.  The array
stages share none of them; they are the independent implementation that
both per-node paths are pinned to, bit for bit.

The recorded row at t = k dt carries the state at t, the control applied
on [t, t+dt), the negotiated capability, and the round counts for that
step; the final row repeats the pipeline at t_final without integrating
further, so a run over N steps yields N+1 rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .barrier import (CERT_TOL, PSI1_TOL, BarrierArrays, BarrierSpec, Psi2Arrays,
                      QuadraticForm, barrier_arrays, capability_function, decompose_psi2_all)
from .collab import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, WEIGHT_MODES,
                     collaborative_safety_arrays, exchange_order)
from .dynamics import SisModel, rk4_step
from .errors import (DimensionError, EmptyRegionError, ProtocolStallError,
                     TerminallyInfeasibleError)
from .floatkernel import FloatKernel, filter_point
from .geometry import NEGLIGIBLE_NORMAL, ControlRegion, IntervalRegions
from .graph import EdgeLayout

log = logging.getLogger("ccbf.simulate")


@dataclass(frozen=True)
class ScenarioResult:
    """Trajectory plus per-step protocol accounting for one closed-loop run.

    cap_tripped_steps counts the steps whose negotiation hit the outer
    round cap with some node's margin still open: such a step is neither
    halted nor certified safe.  relaxed_steps[i-1] counts the rows whose
    safety filter could not keep node i's psi1 nonnegative.  A halted run
    stops at halted_at, and halt_reason says why: "infeasible" (terminal
    infeasibility at infeasible_nodes) or "stall" (no agreement within the
    sub-round cap).  messages holds each negotiating step's time and logged
    sub-rounds, a halting step's too; message_rows reads them on layout.
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
    messages: list[tuple[float, list[tuple]]] = field(default_factory=list)
    layout: EdgeLayout | None = None

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    def violations(self) -> np.ndarray:
        """Barrier shortfall min(h, 0) per node per row; zero when safe."""
        margins = np.asarray(self.thresholds) - self.states
        return np.minimum(margins, 0.0)


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
    own = None if certificate is None else (
        certificate.constant, float(certificate.linear[0]), float(certificate.quadratic[0, 0]))
    u, relaxed = filter_point(float(a[0]), base, lo, hi, float(nominal[0]), own)
    return np.array([u]), relaxed


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(v, lo), hi) elementwise, keeping the first argument on ties."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _certificate_choice(certificate: Psi2Arrays, want: np.ndarray, flo: np.ndarray,
                        fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's certificate step for every node at once.

    Returns the point of c + l u + q u^2 >= -CERT_TOL inside [flo, fhi]
    nearest the nominal, first piece first, and whether any piece met
    [flo, fhi] (see floatkernel._certificate_point).
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


def _udot_for(policy: str, history: Sequence[np.ndarray], zero: np.ndarray, dt: float,
              warned: list[bool]) -> np.ndarray:
    """The packed control rate for the psi2 blocks; `zero` is the zero rate.

    history holds the applied packed controls, the latest last.
    """
    if policy == "zero":
        return zero
    if len(history) < 2:
        if not warned[0]:
            log.debug("control-rate history not yet available, using zero rate")
            warned[0] = True
        return zero
    return (history[-1] - history[-2]) / dt


class ArrayKernel:
    """The closed-loop step on arrays over nodes and edges.

    Every stage is array arithmetic: the model's Lie terms, the psi2
    blocks, the array protocol and the array filter.  Its cost per call
    barely grows with the node count, so it serves large networks;
    `FloatKernel` is its twin on Python floats for small ones.  Node i's
    control box is [box_lo[i-1], box_hi[i-1]].
    """

    def __init__(self, model: SisModel, gains: BarrierArrays, nominal: np.ndarray,
                 box_lo: np.ndarray, box_hi: np.ndarray, *,
                 outer_cap: int, inner_cap: int, weights_mode: str):
        n = model.graph.node_count
        self.model, self.gains, self.nominal = model, gains, nominal
        self.box_lo, self.box_hi = box_lo, box_hi
        self.full_boxes = IntervalRegions(box_lo, box_hi, np.zeros(n, dtype=bool), np.zeros(n))
        self.protocol = dict(outer_cap=outer_cap, inner_cap=inner_cap,
                             weights_mode=weights_mode)

    def step(self, x: np.ndarray, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """One step at the packed state x under the packed control rate udot.

        Builds every node's Lie terms and psi2 blocks, then settles.
        """
        lie = self.model.lie_arrays(x)
        psi2 = decompose_psi2_all(self.model.layout, self.gains, lie, udot)
        base = lie.lf_h + self.gains.eta * (self.gains.threshold - x)
        return self.settle(x, base, psi2, records, negotiate)

    def settle(self, x: np.ndarray, base: np.ndarray, psi2: Psi2Arrays,
               records: list[tuple] | None, negotiate: bool) -> tuple:
        """Negotiate the regions, then filter the nominal controls through them.

        base is each node's psi1 at zero control, and x its L_g h.  With
        negotiate set the nodes negotiate their regions, appending each
        sub-round to records (see collaborative_safety_arrays); otherwise
        every node keeps its full box.  Returns (controls, capability,
        outer_rounds, sub_rounds, cap_tripped, relaxed); a halting protocol
        outcome raises.
        """
        certified = certificate = None
        if negotiate:
            outcome = collaborative_safety_arrays(self.model.layout, psi2, self.box_lo,
                                                  self.box_hi, records=records, **self.protocol)
            regions, caps = outcome.regions, outcome.capability
            # A node that negotiated help owes its own share of the closed
            # margin, a floor of -allocated; self-sufficient nodes stay
            # minimally invasive.  (c - a is c + (-a) bit for bit.)
            certified = outcome.allocated < 0.0
            certificate = Psi2Arrays(psi2.constant - outcome.allocated, psi2.linear,
                                     psi2.quadratic, psi2.coupling)
            rounds = outcome.outer_rounds, outcome.sub_rounds, outcome.cap_tripped
        else:
            regions = self.full_boxes
            caps = capability_function(psi2)(regions)
            rounds = 0, 0, False
        u, relaxed = safety_filter_arrays(self.nominal, regions, base, x, certificate, certified)
        return (u, caps, *rounds, relaxed)

    def advance(self, x: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """One rk4_step of dt under the controls u, then the model's clamp_state."""
        return self.model.clamp_state(rk4_step(self.model, x, u, dt))


# A network with fewer nodes than this steps on FloatKernel, any other on
# ArrayKernel: below it numpy's per-call dispatch costs more than a loop
# over the nodes.  On the bench's generated tight networks (seed 1, 1 s,
# every step negotiating) the float kernel's run_scenario time over the
# array kernel's, medians of 15 interleaved runs on a shared 2-core Xeon
# VM, was
#     N        12    20    24    28    32    36    44
#     ratio  0.52  0.78  0.88  0.98  1.08  1.22  1.57
# so the two break even at about 28 nodes; the bench has workloads on both
# sides of it.
FLOAT_KERNEL_NODES = 28


def _kernel(model: SisModel, specs: dict[int, BarrierSpec], nominal: np.ndarray, **protocol):
    """The kernel for the model's node count, every node's box [0, u_max]."""
    nodes = list(model.graph.nodes())
    return (FloatKernel if len(nodes) < FLOAT_KERNEL_NODES else ArrayKernel)(
        model, barrier_arrays(specs, nodes), nominal, np.zeros(len(nodes)),
        model.params.u_max.copy(), **protocol)


def step_count(t_final: float, dt: float, nodes: int = 1) -> int:
    """How many dt steps reach t_final; ValueError unless a whole number, to 1e-9 relative.

    OverflowError when numpy cannot size the run's table: a row of `nodes`
    floats for t = 0 and for every step.
    """
    steps = t_final / dt
    if not math.isfinite(steps) or (round(steps) + 1) * nodes * 8 > np.iinfo(np.intp).max:
        raise OverflowError(f"t_final {t_final} takes too many dt {dt} steps for a table "
                            f"of {nodes} nodes")
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * abs(steps):
        raise ValueError(f"t_final {t_final} is not a whole number of dt {dt} steps")
    return whole


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

    nominal is the packed nominal control, zero when None.  t_final must be
    a whole number of dt steps (see step_count).  Each step runs on
    FloatKernel below FLOAT_KERNEL_NODES nodes and on ArrayKernel from
    there on; both give the same bits.  A terminally infeasible step halts
    the run unless continue_on_infeasible is set, which reruns the step on
    the full boxes; a stalled negotiation always halts it.
    """
    for name, value, allowed in (("udot_policy", udot_policy, UDOT_POLICIES),
                                 ("weights_mode", weights_mode, WEIGHT_MODES)):
        if value not in allowed:
            raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    nodes = list(model.graph.nodes())
    n = len(nodes)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},) for this graph")
    want = np.zeros(n) if nominal is None else np.asarray(nominal, dtype=float)
    if want.shape != (n,):
        raise ValueError(f"nominal has shape {want.shape}, expected ({n},) for this graph")
    nsteps = step_count(t_final, dt, n)
    kernel = _kernel(model, specs, want, outer_cap=outer_cap, inner_cap=inner_cap,
                     weights_mode=weights_mode)
    zero_rate = np.zeros(n)

    times = np.zeros(nsteps + 1)
    states = np.zeros((nsteps + 1, n))
    controls = np.zeros((nsteps + 1, n))
    capabilities = np.zeros((nsteps + 1, n))
    outer_rounds = np.zeros(nsteps + 1, dtype=int)
    inner_rounds = np.zeros(nsteps + 1, dtype=int)
    logged: list[tuple[float, list[tuple]]] = []

    warned = [False]
    halted_at: float | None = None
    halt_reason: str | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp = 0.0
    cap_tripped_steps = 0
    relaxed_steps = np.zeros(n, dtype=int)
    rows = 0

    udot = zero_rate
    for k in range(nsteps + 1):
        t = k * dt
        if udot_policy != "zero":
            # the last two applied controls are the rows before this one
            udot = _udot_for(udot_policy, controls[max(k - 2, 0):k], zero_rate, dt, warned)
        records: list[tuple] | None = [] if collect_messages else None
        try:
            u, caps, outer, sub, tripped, relaxed = kernel.step(x, udot, records, collaboration)
        except TerminallyInfeasibleError as err:
            if not continue_on_infeasible:
                log.error("t=%.6g: %s", t, err)
                halted_at, halt_reason = t, "infeasible"
                infeasible_nodes = err.nodes
                break
            log.warning("t=%.6g: %s; continuing with unconstrained boxes", t, err)
            infeasible_nodes = tuple(sorted(set(infeasible_nodes) | set(err.nodes)))
            # the same step on the full boxes, without a certificate
            u, caps, outer, sub, tripped, relaxed = kernel.step(x, udot, None, False)
        except ProtocolStallError as err:
            log.error("t=%.6g: negotiation stalled: %s", t, err)
            halted_at, halt_reason = t, "stall"
            break
        finally:  # before a halt breaks the loop: its records explain it
            if records:
                logged.append((t, records))

        outer_rounds[k] = outer
        inner_rounds[k] = sub
        cap_tripped_steps += tripped
        if any(relaxed):
            relaxed_steps += relaxed
            if log.isEnabledFor(logging.DEBUG):
                for i in np.flatnonzero(relaxed):
                    log.debug("t=%.6g node %d: psi1 constraint relaxed", t, i + 1)

        times[k] = t
        states[k] = x
        controls[k] = u
        capabilities[k] = caps
        rows = k + 1

        if k < nsteps:
            x, moved = kernel.advance(x, u, dt)
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
        relaxed_steps=tuple(relaxed_steps.tolist()), messages=logged, layout=model.layout)


def run_uncontrolled(model: SisModel, x0: np.ndarray, *,
                     dt: float = 0.01, t_final: float = 100.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop trajectory with zero control; returns (times, states).

    t_final must be a whole number of dt steps, as in run_scenario.
    """
    n = model.graph.node_count
    nsteps = step_count(t_final, dt, n)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise DimensionError(f"packed state must have shape ({n},)")
    # only advance runs, on the zero nominal in the kernel's form: the barrier is moot
    kernel = _kernel(model, dict.fromkeys(model.graph.nodes(), BarrierSpec(1.0)), np.zeros(n),
                     outer_cap=DEFAULT_OUTER_CAP, inner_cap=DEFAULT_INNER_CAP,
                     weights_mode="coupling")
    states = np.zeros((nsteps + 1, n))
    states[0] = x
    for k in range(1, nsteps + 1):
        x, _ = kernel.advance(x, kernel.nominal, dt)
        states[k] = x
    return np.arange(nsteps + 1) * dt, states


def write_result_csv(path, result: ScenarioResult) -> None:
    """One row per step: state, control, capability, rounds, violation.

    Floats are written with 17 significant digits, enough to read back
    every value bit for bit.  Rows are formatted one at a time, so neither
    the table's text nor a whole-table list is ever held: a list entry and
    its Python float take four times the memory of an array entry.
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
    """Protocol trace: every request and adjustment in exchange order, one `%` a sub-round."""
    requests, adjusts, edges = exchange_order(result.layout)
    # one line per message; "\0" stands for its time and sub-round
    request_lines = ["\0request,%d,%d,%%.17g\n" % pair for pair in requests]
    adjust_block = "".join("\0adjust,%d,%d,%%.17g\n" % pair for pair in adjusts)
    with open(path, "w", newline="") as fh:
        fh.write("sim_time,sub_round,kind,from,to,value\n")
        for t, records in result.messages:
            stamp = "%.17g" % t
            for sub_round, eligible, shares, eps in records:
                block = "".join(compress(request_lines, eligible)) + adjust_block
                fh.write(block.replace("\0", "%s,%d," % (stamp, sub_round))
                         % (*compress(shares, eligible), *map(eps.__getitem__, edges)))
