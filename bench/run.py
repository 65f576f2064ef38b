"""ccbf benchmark: scenario workloads, run-level metrics and a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's scenario is generated from
the seed (bench/scenarios.py) and written as `.cfg` text; every sample then
runs in a fresh process (bench/worker.py) that imports ccbf from the
checkout's `src`, parses the text and calls `cli.run_config`, exactly as
`ccbf run` does.  Samples run one after another (a closed loop with one
client) until S seconds have passed and a minimum count is reached.

Every sample passes the correctness gate or counts as failed: exit code,
full row count, no halt, safety margin min h >= -dt^2, identical output
digests across the samples of one invocation, the committed reference
digests when bench/references.json has them for this workload and seed,
and the workload's promised negotiation behaviour.

With `--trace 0` the samples are untraced and the metrics are the
end-to-end ones of BENCHMARK.json, as medians over the samples; times
are in reference seconds (see `_scaled`).  With `--trace 1` untraced and
traced samples alternate; traced samples wrap ccbf's layers from the
outside (bench/spans.py), and the metrics are the per-layer ones.  Counts in a traced run must repeat exactly across its
traced samples.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from scenarios import WORKLOADS, Workload, scenario_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

MIN_RUNS = 3            # untraced samples per --trace 0 invocation
MIN_TRACED = 2          # traced samples per --trace 1 invocation
SETUP_SAMPLES = 21      # set-up measurements per --trace 0 invocation
HARD_LIMIT_S = 165.0    # never start work that could end after this
CALIBRATION_REF_S = 0.030  # the worker's calibration loop on the reference host
# One sample uses one core: BLAS helper threads would compete with the
# interpreter for the second core and add noise.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, within the sample range."""
    if len(values) < 2:
        v = _median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _scaled(sample: dict, seconds: float) -> float:
    """A time of this sample in reference seconds.

    On a shared machine, contention from other tenants slows the host in
    spells that can outlast a whole invocation.  Every worker therefore
    times a fixed loop next to its measurement (`calibration_s`), and a
    time is rescaled to a host on which that loop takes CALIBRATION_REF_S.
    """
    return seconds * CALIBRATION_REF_S / sample["calibration_s"]


class Invocation:
    """Samples of one benchmark invocation and their correctness verdicts."""

    def __init__(self, workload: Workload, seed: int, cfg_path: Path, workdir: Path):
        self.workload = workload
        self.cfg_path = cfg_path
        self.workdir = workdir
        self.started = perf_counter()
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.failed = 0
        self.digests: dict | None = None
        self.counts: dict | None = None
        refs = json.loads((BENCH / "references.json").read_text())
        ref = refs.get(workload.name)
        self.reference = None
        if ref is not None and ref["seed"] in (None, seed):
            self.reference = ref["sha256"]

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def sample(self, mode: str, record: bool = True) -> dict:
        """Run one worker process and gate its outcome."""
        out = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.workdir))
        started = perf_counter()
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(SRC),
               str(self.cfg_path), str(out / "run")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=WORKER_ENV,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise ValueError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            sample = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, ValueError) as exc:
            sample = {"mode": mode, "error": str(exc)}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        sample["mode"] = mode
        sample["wall_s"] = perf_counter() - started
        if record:
            problems = self.check(sample)
            if problems:
                self.failed += 1
                self.failures.extend(f"sample {len(self.samples) + 1} ({mode}): {p}"
                                     for p in problems)
            self.samples.append(sample)
        return sample

    def check(self, s: dict) -> list[str]:
        """Everything that makes a sample count as failed."""
        if "error" in s:
            return [s["error"]]
        if s["mode"] == "setup":
            return []
        problems = []
        w = self.workload
        if s["exit_code"] != 0:
            problems.append(f"exit code {s['exit_code']}, expected 0")
        if s["halted_at"] is not None:
            problems.append(f"halted at t={s['halted_at']}")
        if s["rows"] != s["expected_rows"]:
            problems.append(f"{s['rows']} result rows, expected {s['expected_rows']}")
        if s["min_viol"] < -s["dt"] ** 2:
            problems.append(f"safety margin {s['min_viol']!r} below -dt^2")
        digests = {name: f["sha256"] for name, f in s["files"].items()}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("output digests differ from the first sample's")
        if self.reference is not None and digests != self.reference:
            problems.append(f"output digests {digests} differ from the reference")
        rows = max(s["rows"], 1)
        if w.negotiates and s["negotiating_steps"] / rows <= 0.5:
            problems.append(f"only {s['negotiating_steps']} of {rows} steps negotiated")
        if not w.negotiates and (s["outer_rounds"] != s["rows"] or s["sub_rounds"] != 0):
            problems.append("a step negotiated on a workload promised not to")
        if s["mode"] == "spans":
            counts = exact_counts(s)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                diff = sorted(k for k in counts if counts[k] != self.counts.get(k))
                problems.append(f"exact counts changed between traced samples: {diff}")
        return problems

    def runs(self, mode: str) -> list[dict]:
        return [s for s in self.samples if s["mode"] == mode and "run_s" in s]

    def setups(self) -> list[float]:
        return [s["setup_s"] for s in self.samples if "setup_s" in s]

    def keep_going(self, seconds: float, done: bool) -> bool:
        """Start another sample if it should end within the time, or minimums are unmet."""
        typical = max((s["wall_s"] for s in self.samples), default=0.0)
        if self.elapsed() + 2.0 * typical + 5.0 > HARD_LIMIT_S:
            return False
        # minimums are not chased once failures have shown the program broken
        return self.elapsed() + typical <= seconds or (not done and self.failed < MIN_RUNS)


def exact_counts(s: dict) -> dict:
    """Counts of a traced sample that must repeat exactly."""
    counts = {f"{name}.calls": stats["calls"] for name, stats in s["spans"].items()}
    counts.update({k: s[k] for k in ("rows", "negotiating_steps", "outer_rounds",
                                      "sub_rounds", "requests", "adjust_answers",
                                      "refusals")})
    counts["bytes_written"] = sum(f["bytes"] for f in s["files"].values())
    return counts


def end_to_end(inv: Invocation) -> tuple[dict, dict]:
    """Metrics over the untraced samples, and the samples behind them."""
    runs = inv.runs("run")
    values = {
        "setup_s": [_scaled(s, s["setup_s"]) for s in inv.samples if "setup_s" in s],
        "run_s": [_scaled(s, s["run_s"]) for s in runs],
        "node_steps_per_s": [s["nodes"] * s["rows"] / _scaled(s, s["run_s"]) for s in runs],
        "peak_rss_mb": [s["peak_rss_mb"] for s in runs],
    }
    print(f"# unscaled medians: run_s {_median([s['run_s'] for s in runs]):.6g} s, "
          f"setup_s {_median(inv.setups()):.6g} s, calibration loop "
          f"{_median([s['calibration_s'] for s in inv.samples if 'calibration_s' in s]):.6g} s")
    return {k: _median(v) for k, v in values.items()}, values


def per_layer(inv: Invocation) -> tuple[dict, dict]:
    """Medians of span times over traced samples, plus exact counts."""
    traced = inv.runs("spans")
    untraced = inv.runs("run")
    if not traced:
        return {}, {}
    first = traced[0]
    spans = {name: {stat: _median([_scaled(s, s["spans"][name][stat]) for s in traced])
                    for stat in ("busy_s", "self_s")}
             for name in first["spans"]}
    calls = {name: first["spans"][name]["calls"] for name in first["spans"]}
    rows = max(first["rows"], 1)
    answers = first["adjust_answers"]
    m = {
        "config.parse_config.busy_s": spans["config.parse_config"]["busy_s"],
        "config.normalize_config.busy_s": spans["config.normalize_config"]["busy_s"],
        "dynamics.lie_table.calls": calls["dynamics.lie_table"],
        "dynamics.lie_table.self_s": spans["dynamics.lie_table"]["self_s"],
        "dynamics.neighborhood.self_s": spans["dynamics.neighborhood"]["self_s"],
        "dynamics.rk4_step.calls": calls["dynamics.rk4_step"],
        "dynamics.rk4_step.self_s": spans["dynamics.rk4_step"]["self_s"],
        "barrier.decompose_psi2.self_s": spans["barrier.decompose_psi2"]["self_s"],
        "barrier.max_capability.calls": calls["barrier.max_capability"],
        "barrier.max_capability.self_s": spans["barrier.max_capability"]["self_s"],
        "barrier.max_capability.calls_per_node_step":
            calls["barrier.max_capability"] / (first["nodes"] * rows),
        "geometry.intersect.self_s": spans["geometry.intersect"]["self_s"],
        "geometry.is_empty.self_s": spans["geometry.is_empty"]["self_s"],
        "geometry.closest_point.calls": calls["geometry.closest_point"],
        "collab.collaborative_safety.busy_s": spans["collab.collaborative_safety"]["busy_s"],
        "collab.collaborative_safety.self_s": spans["collab.collaborative_safety"]["self_s"],
        "collab.collaborate.self_s": spans["collab.collaborate"]["self_s"],
        "collab.coordinate.calls": calls["collab.coordinate"],
        "collab.coordinate.self_s": spans["collab.coordinate"]["self_s"],
        "collab.outer_rounds_per_step": first["outer_rounds"] / rows,
        "collab.sub_rounds_per_step": first["sub_rounds"] / rows,
        "collab.negotiating_step_ratio": first["negotiating_steps"] / rows,
        "collab.refusal_ratio": first["refusals"] / answers if answers else 0.0,
        "collab.messages": first["requests"] + answers,
        "simulate.run_scenario.self_s": spans["simulate.run_scenario"]["self_s"],
        "simulate.safety_filter.calls": calls["simulate.safety_filter"],
        "simulate.safety_filter.self_s": spans["simulate.safety_filter"]["self_s"],
        "simulate.write_result_csv.busy_s": spans["simulate.write_result_csv"]["busy_s"],
        "simulate.write_messages_csv.busy_s":
            spans["simulate.write_messages_csv"]["busy_s"],
        "simulate.bytes_written": sum(f["bytes"] for f in first["files"].values()),
        "cli.run_config.busy_s": spans["cli.run_config"]["busy_s"],
        "cli.run_config.unattributed_s": spans["cli.run_config"]["self_s"],
        "trace.overhead_ratio": (_median([_scaled(s, s["run_s"]) for s in traced])
                                 / _median([_scaled(s, s["run_s"]) for s in untraced]) - 1.0
                                 if untraced else 0.0),
        "trace.missing_spans": len(first["missing_spans"]),
    }
    for name, note in first["missing_spans"].items():
        print(f"# {name}: {note}")
    print(f"# per-layer times: medians of {len(traced)} traced samples, in reference seconds; "
          f"trace.overhead_ratio against {len(untraced)} untraced samples")
    return m, {}


def measure(inv: Invocation, seconds: float, traced: bool) -> None:
    inv.sample("setup", record=False)  # compiles bytecode, warms file caches
    if traced:
        schedule = ("run", "spans", "spans")
        k = 0
        while inv.keep_going(seconds, len(inv.runs("spans")) >= MIN_TRACED
                             and len(inv.runs("run")) >= 1):
            inv.sample(schedule[k % len(schedule)])
            k += 1
        return
    # set-up probes are spread over the window so slow spells hit both kinds
    while inv.keep_going(seconds, len(inv.runs("run")) >= MIN_RUNS
                         and len(inv.setups()) >= SETUP_SAMPLES):
        behind = len(inv.setups()) < SETUP_SAMPLES * min(1.0, inv.elapsed() / seconds)
        inv.sample("setup" if behind else "run")


def report(inv: Invocation, traced: bool, catalogue: dict) -> dict:
    """Print every metric by name and unit; return the JSON metrics."""
    wanted = catalogue["per_layer" if traced else "end_to_end"]
    values, samples = per_layer(inv) if traced else end_to_end(inv)
    if not values:  # no traced sample survived; the failures say why
        values = {m["name"]: 0.0 for m in wanted}
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        spread = ""
        if samples.get(name):
            q1, q2, q3 = _quartiles(samples[name])
            spread = (f"  ({len(samples[name])} samples: quartiles {q1:.6g} / "
                      f"median {q2:.6g} / {q3:.6g})")
        print(f"{name:44s} {values[name]:.6g} {unit}{spread}")
    attempted = len(inv.samples)
    print(f"{'fail_ratio':44s} {inv.failed / max(attempted, 1):.6g} "
          f"({inv.failed} failed of {attempted} attempted)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ccbf" / "__init__.py").is_file():
        print(f"no ccbf sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}; "
          f"nproc {os.cpu_count()}, {platform.machine()}, "
          f"python {platform.python_version()}, numpy {np.__version__}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        cfg_path = workdir / f"{workload.name}.cfg"
        cfg_path.write_text(scenario_text(workload, args.seed, SRC), encoding="utf-8")
        inv = Invocation(workload, args.seed, cfg_path, workdir)
        measure(inv, args.seconds, bool(args.trace))
        metrics = report(inv, bool(args.trace), catalogue)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in inv.failures[:20]:
        print(f"# FAIL {line}")
    if len(inv.failures) > 20:
        print(f"# ... and {len(inv.failures) - 20} more failure notes")
    print(json.dumps({"correct": inv.failed == 0, "attempted": len(inv.samples),
                      "failed": inv.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
