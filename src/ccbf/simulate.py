"""Closed-loop simulation: snapshot, negotiate, filter, integrate, stream.

`run_scenario` runs a `SisModel`.  Every step runs the same pipeline at
the current state: build every node's Lie terms and psi2 blocks,
negotiate admissible control regions with the protocol on the model's
edge layout (or hand every node its full box when collaboration is off),
pass the nominal controls through the certificate filter, record a row,
then advance one RK4 step under those controls and clamp to [0, 1].  A
kernel's `step` runs the pipeline up to the record and its `advance` the
rest; both kernels take the same arguments and return the same fields at
every stage.  A network with fewer than FLOAT_KERNEL_NODES nodes runs on
`floatkernel.FloatKernel`, a loop over the nodes on Python floats, and a
larger one on `arraykernel.ArrayKernel`, whose every stage works on arrays
over nodes and edges.  The two give the same bits; each has its own RK4
around the one shared `SisModel.pressure` product.  Each kernel lives in
its own module; this one holds the loop, the writers and the per-node
reference filter `safety_filter`, which with the other reference modules
(`dynamics`, `barrier`, `geometry`, `collab`) shares one copy of each
scalar rule with `FloatKernel`.  The array kernel shares none of them; it
is the independent implementation that both per-node paths are pinned to,
bit for bit.

The recorded row at t = k dt carries the state at t, the control applied
on [t, t+dt), the negotiated capability, and the round counts for that
step; the final row repeats the pipeline at t_final without integrating
further, so a run over N steps yields N+1 rows.  The loop hands each block
of rows, with the sub-rounds logged at them, to a sink: the CLI's writes it
out, so a run holds one block.  Without a sink the run is one block, the
result.

`write_result_csv` and `write_messages_csv` spell every float as
`'%.17g' % value` does.  They format blocks of at least BLOCK_VALUES
values at once with `ccbf.g17`, which is exact for decimal exponents -6
to 16; a value outside that range, or not finite, goes through `%` by
itself.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import TYPE_CHECKING

import numpy as np

from .arraykernel import ArrayKernel
from .barrier import (DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, PSI1_TOL, WEIGHT_MODES,
                      BarrierSpec, QuadraticForm, barrier_arrays)
from .dynamics import SisModel
from .errors import (DimensionError, EmptyRegionError, ProtocolStallError,
                     TerminallyInfeasibleError)
from .floatkernel import FloatKernel, filter_point
from .g17 import NEWLINE, g17_rows, g17_slots, joined
from .graph import EdgeLayout, exchange_order

if TYPE_CHECKING:
    from .geometry import ControlRegion

log = logging.getLogger("ccbf.simulate")


@dataclass(frozen=True)
class ScenarioResult:
    """Trajectory plus per-step protocol accounting for one closed-loop run.

    times is the exact grid k * dt, one entry per recorded row.
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


# psi2's own control rate: zero, or the difference of the last two controls
UDOT_POLICIES = ("zero", "backward_difference")


# A network with fewer nodes than this steps on FloatKernel, any other on
# ArrayKernel: below it numpy's per-call dispatch costs more than the float
# kernel's code, which a run generates and compiles once.  On the bench's
# generated tight networks (seed 1, 1 s, every step negotiating) the float
# kernel's run_scenario time over the array kernel's, that compile
# included, medians of 21 interleaved runs on a shared 2-core Xeon VM, was
#     N       12   13   14   15   16   17   18   20   22   24   28
#     ratio 0.84 0.90 0.92 0.97 1.05 1.07 1.12 1.22 1.35 1.47 1.77
# so the two break even between 15 and 16 nodes; the bench has workloads
# on both sides of it.  The compile grows with the nodes and edges (about
# 5 ms at 22 nodes, where a step took 139 us against the array kernel's
# 145 us), so on longer runs the float kernel breaks even at more nodes.
FLOAT_KERNEL_NODES = 16


def _kernel(model: SisModel, specs: dict[int, BarrierSpec], nominal: np.ndarray, **protocol):
    """The kernel for the model's node count, every node's box [0, u_max]."""
    nodes = list(model.graph.nodes())
    return (FloatKernel if len(nodes) < FLOAT_KERNEL_NODES else ArrayKernel)(
        model, barrier_arrays(specs, nodes), nominal, np.zeros(len(nodes)),
        model.params.u_max.copy(), **protocol)


def step_count(t_final: float, dt: float, nodes: int = 1) -> int:
    """How many dt steps reach t_final; ValueError unless a whole number, to 1e-9 relative.

    dt must be finite and positive, and t_final finite and >= 0; a
    t_final of 0 takes no step.  OverflowError when numpy cannot size the
    run's table: a row of `nodes` floats for t = 0 and for every step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    steps = t_final / dt
    if not math.isfinite(steps) or (round(steps) + 1) * nodes * 8 > np.iinfo(np.intp).max:
        raise OverflowError(f"t_final {t_final} takes too many dt {dt} steps for a table "
                            f"of {nodes} nodes")
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * abs(steps):
        raise ValueError(f"t_final {t_final} is not a whole number of dt {dt} steps")
    return whole


# A run streams, and the writers format, whole rows (or sub-rounds) of at
# least this many values at once: enough to spread numpy's cost per call, few
# enough that a block's tables, slots and text stay small.
BLOCK_VALUES = 2048


def block_rows(nodes: int) -> int:
    """Rows of a streamed block: whole result.csv rows of at least BLOCK_VALUES values."""
    return -(-BLOCK_VALUES // (4 * nodes + 3))


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
                 collect_messages: bool = False,
                 sink: Callable[[ScenarioResult], object] | None = None) -> ScenarioResult:
    """Run the closed loop from x0 to t_final and record every step.

    specs holds every node's BarrierSpec, and nominal is the packed nominal
    control, zero when None; a node without a spec, or an x0 or nominal of
    the wrong shape, raises DimensionError, and an x0 entry outside [0, 1]
    or NaN raises ValueError: the kernels' negotiation takes every coupling
    (1 - x_i) beta_ij x_j to be nonnegative.  t_final must be a whole number
    of dt steps (see step_count).  Each step runs on
    FloatKernel below FLOAT_KERNEL_NODES nodes and on ArrayKernel from
    there on; both give the same bits.  A terminally infeasible step halts
    the run unless continue_on_infeasible is set, which reruns the step on
    the full boxes and logs one warning for the run; a stalled negotiation
    always halts it.

    Each block of block_rows(n) rows goes to sink as a ScenarioResult of
    its rows and their sub-rounds, the last one partial, with a halting
    step's sub-rounds.  Without a sink the whole run is one block, the
    result returned; with one, that result has the run's fields, no rows.
    """
    for name, value, allowed in (("udot_policy", udot_policy, UDOT_POLICIES),
                                 ("weights_mode", weights_mode, WEIGHT_MODES)):
        if value not in allowed:
            raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    nodes = list(model.graph.nodes())
    missing = [i for i in nodes if i not in specs]
    if missing:
        raise DimensionError(f"specs has no entry for nodes {', '.join(map(str, missing))}")
    n = len(nodes)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise DimensionError(f"x0 has shape {x.shape}, expected ({n},) for this graph")
    outside = np.flatnonzero(~((x >= 0.0) & (x <= 1.0)))
    if len(outside):
        i = int(outside[0])
        raise ValueError(f"x0 entries must be in [0, 1], got {float(x[i])} at node {i + 1}")
    want = np.zeros(n) if nominal is None else np.asarray(nominal, dtype=float)
    if want.shape != (n,):
        raise DimensionError(f"nominal has shape {want.shape}, expected ({n},) for this graph")
    nsteps = step_count(t_final, dt, n)
    kernel = _kernel(model, specs, want, outer_cap=outer_cap, inner_cap=inner_cap,
                     weights_mode=weights_mode)
    thresholds = tuple(specs[i].threshold for i in nodes)
    # without a sink the run is one block, whose tables are the result's
    width = nsteps + 1 if sink is None else block_rows(n)

    def block(stop: int, sub_rounds: list) -> ScenarioResult:
        rows = stop - start  # rows start..stop-1, with the sub-rounds logged at them
        return ScenarioResult(np.arange(start, stop) * dt, states[:rows], controls[2:rows + 2],
                              capabilities[:rows], outer_rounds[:rows], inner_rounds[:rows],
                              thresholds, messages=sub_rounds, layout=model.layout)

    start, logged, carried = 0, [], np.zeros((2, n))

    halted_at: float | None = None
    halt_reason: str | None = None
    infeasible_nodes: tuple[int, ...] = ()
    max_clamp = 0.0
    cap_tripped_steps = continued_steps = 0
    relaxed_steps = np.zeros(n, dtype=int)

    udot = np.zeros(n)
    for k in range(nsteps + 1):
        if k - start == width:  # a full block: hand it on and start the next
            sink(block(k, logged))
            start, logged, carried = k, [], controls[-2:]
        if k == start:  # a block's tables; its controls begin with the two rows before it
            states, capabilities = np.empty((2, width, n))
            outer_rounds, inner_rounds = np.empty((2, width), dtype=int)
            controls = np.concatenate([carried, np.empty((width, n))])
        row = k - start
        t = k * dt
        if udot_policy == "backward_difference" and k >= 2:
            udot = (controls[row + 1] - controls[row]) / dt
        records: list[tuple] | None = [] if collect_messages else None
        try:
            u, caps, outer, sub, tripped, relaxed = kernel.step(x, udot, records, collaboration)
        except TerminallyInfeasibleError as err:
            if not continue_on_infeasible:
                log.error("t=%.6g: %s", t, err)
                halted_at, halt_reason = t, "infeasible"
                infeasible_nodes = err.nodes
                break
            log.debug("t=%.6g: %s; continuing with unconstrained boxes", t, err)
            continued_steps += 1
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

        outer_rounds[row] = outer
        inner_rounds[row] = sub
        cap_tripped_steps += tripped
        if any(relaxed):
            relaxed_steps += relaxed
            if log.isEnabledFor(logging.DEBUG):
                for i in np.flatnonzero(relaxed):
                    log.debug("t=%.6g node %d: psi1 constraint relaxed", t, i + 1)

        states[row] = x
        controls[row + 2] = u
        capabilities[row] = caps

        if k < nsteps:
            x, moved = kernel.advance(x, u, dt)
            max_clamp = max(max_clamp, moved)

    rows = k if halted_at is not None else nsteps + 1
    last = block(rows, logged)
    if sink is not None:
        sink(last)
        last = block(start, [])
    if cap_tripped_steps:
        log.warning("%d of %d steps hit the outer round cap (%d) with negotiation still open",
                    cap_tripped_steps, rows, outer_cap)
    if continued_steps:
        log.warning("%d of %d steps were terminally infeasible at nodes %s and continued "
                    "with unconstrained boxes", continued_steps, rows,
                    ", ".join(map(str, infeasible_nodes)))
    return replace(
        last, halted_at=halted_at, halt_reason=halt_reason, infeasible_nodes=infeasible_nodes,
        max_clamp=max_clamp, cap_tripped_steps=cap_tripped_steps,
        relaxed_steps=tuple(relaxed_steps.tolist()))


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


def _opened(path):
    """A context for writing to path: the file object itself, or the named file opened anew."""
    return nullcontext(path) if hasattr(path, "write") else open(path, "wb")


def write_result_csv(path, result: ScenarioResult) -> None:
    """One row per step: state, control, capability, rounds, violation.

    Floats are written as `'%.17g' % value` spells them, enough to read
    back every value bit for bit, and the round counts as integers, which
    '%.17g' spells as %d does.  Whole rows of at least BLOCK_VALUES values
    at a time are copied into one float table and formatted by `g17_rows`
    (see `ccbf.g17` for its exact range and the per-value fallback), so
    neither the table's text nor a whole-table copy is ever held.  path is
    a file name, or a binary file open for writing, which gets the header
    only at its start: a streamed run appends its blocks to one file.
    """
    n = result.node_count
    thresholds = np.asarray(result.thresholds, dtype=float)
    step = block_rows(n)
    with _opened(path) as fh:
        if not fh.tell():
            fh.write((",".join(["t"] + [f"{name}_{i}" for name in ("x", "u", "cbar")
                                        for i in range(1, n + 1)]
                               + ["outer_rounds", "inner_rounds"]
                               + [f"viol_{i}" for i in range(1, n + 1)]) + "\n").encode())
        for start in range(0, len(result.times), step):
            rows = slice(start, start + step)
            states = result.states[rows]
            fh.write(g17_rows(np.hstack([
                result.times[rows, None], states, result.controls[rows],
                result.capabilities[rows], result.outer_rounds[rows, None],
                result.inner_rounds[rows, None],
                np.minimum(thresholds - states, 0.0)])))  # result.violations() of these rows


def _padded(texts: list[bytes]) -> np.ndarray:
    """Byte strings as rows of words, zero-padded to one whole number of words."""
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


def _flat(lists, dtype, shape: tuple[int, int]) -> np.ndarray:
    """Equal-length lists as the rows of an array: fromiter, twice as fast as np.array."""
    return np.fromiter(chain.from_iterable(lists), dtype, shape[0] * shape[1]).reshape(shape)


def _message_lines(block: list[tuple], edges: list[int], labels: np.ndarray) -> bytes:
    """The messages.csv lines of a block of (t, sub_round, eligible, shares, eps) sub-rounds."""
    times, numbers, eligible, shares, eps = zip(*block)
    stamps = _padded(g17_rows(np.array([times, numbers]).T).split(b"\n")[:-1])
    shape = len(block), len(edges)
    eps = _flat(eps, float, shape)
    written = np.hstack([_flat(eligible, bool, shape), np.ones(shape, bool)])
    values = np.hstack([_flat(shares, float, shape), eps[:, edges]])[written]
    row, column = np.nonzero(written)  # each line's sub-round and label
    slots, rest = g17_slots(values)
    slots[:, -1] ^= NEWLINE
    return joined(np.hstack([stamps[row], labels[column], slots]), rest, values[rest])


# the last layout written, with its labels: a streamed run's blocks share them
_labelled: tuple = (None,)


def _message_labels(layout: EdgeLayout) -> tuple:
    """(layout, each adjust line's edge, every line's ",kind,from,to," as padded words)."""
    global _labelled
    labelled = _labelled
    if labelled[0] is not layout:
        requests, adjusts, edges = exchange_order(layout)
        labelled = _labelled = (layout, edges, _padded(
            [b",request,%d,%d," % pair for pair in requests]
            + [b",adjust,%d,%d," % pair for pair in adjusts]))
    return labelled


def write_messages_csv(path, result: ScenarioResult) -> None:
    """Protocol trace: every request and adjustment in exchange order.

    Times and values are written as `'%.17g' % value` spells them.  Each
    logged sub-round has a request line per edge, kept where the edge is
    eligible, and an adjust line per edge in by-source order; sub-rounds
    with at least BLOCK_VALUES such lines are laid out at once.  A line is
    three zero-padded runs of words, its sub-round's "time,sub_round", its
    ",kind,from,to," and its value's `g17_slots` slot; `g17.joined` drops
    the padding.  path is a file name or an open binary file, as in
    write_result_csv.
    """
    _, edges, labels = _message_labels(result.layout)
    per_block = -(-BLOCK_VALUES // max(1, len(labels)))
    sub_rounds = ((t, *record) for t, records in result.messages for record in records)
    with _opened(path) as fh:
        if not fh.tell():
            fh.write(b"sim_time,sub_round,kind,from,to,value\n")
        while block := list(islice(sub_rounds, per_block)):
            fh.write(_message_lines(block, edges, labels))
