"""One benchmark sample in a fresh process: set up, run, describe the output.

    python3 bench/worker.py MODE SRC CFG OUT

MODE is `setup` (import and parse only), `run` (untraced run) or `spans`
(run with every layer wrapped by bench/spans.py).  SRC is the checkout's
`src` directory, CFG the scenario file and OUT an empty output directory.
The run drives the same two calls as `ccbf run`: `config.parse_config` on
the scenario text, then `cli.run_config(cfg, out)`.  The last line of
standard output is one JSON object describing the sample.  Besides the
raw times it carries `calibration_s`, the mean time of a fixed loop run
right after set-up and right after the run, which measures how fast the
host was going while this sample ran.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


CALIBRATION_ITERATIONS = 400_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host speed right now."""
    started = perf_counter()
    total = 0
    for k in range(CALIBRATION_ITERATIONS):
        total += k * k
    return perf_counter() - started


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def describe_outputs(out: Path) -> dict:
    """Digests, sizes, row count, rounds and the lowest safety margin."""
    desc = {"files": {}}
    for name in ("result.csv", "messages.csv"):
        path = out / name
        if path.exists():
            desc["files"][name] = {"sha256": _sha256(path), "bytes": path.stat().st_size}
    rows = negotiating = outer = sub = 0
    min_viol = 0.0
    result = out / "result.csv"
    if result.exists():
        with open(result, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            viol_cols = [k for k, col in enumerate(header) if col.startswith("viol_")]
            outer_col = header.index("outer_rounds")
            sub_col = header.index("inner_rounds")
            for row in reader:
                rows += 1
                rounds = int(row[outer_col])
                outer += rounds
                negotiating += rounds > 1
                sub += int(row[sub_col])
                min_viol = min(min_viol, *(float(row[k]) for k in viol_cols))
    desc.update(rows=rows, negotiating_steps=negotiating, outer_rounds=outer,
                sub_rounds=sub, min_viol=min_viol)
    meta = out / "meta.json"
    desc["halted_at"] = json.loads(meta.read_text())["halted_at"] if meta.exists() else None
    return desc


def main(argv: list[str]) -> int:
    mode, src, cfg_path, out = argv
    src, out = Path(src).resolve(), Path(out)
    sys.path.insert(0, str(src))

    started = perf_counter()
    import ccbf
    from ccbf import cli, config
    if not Path(ccbf.__file__).resolve().is_relative_to(src):
        print(f"ccbf was imported from {ccbf.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "spans":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    text = Path(cfg_path).read_text(encoding="utf-8")
    cfg = config.parse_config(text)
    setup_s = perf_counter() - started
    calibration = [calibrate()]
    sample = {"setup_s": setup_s, "nodes": cfg.nodes,
              "expected_rows": int(round(cfg.t_final / cfg.dt)) + 1, "dt": cfg.dt}
    if mode != "setup":
        started = perf_counter()
        try:
            code = cli.run_config(cfg, out)
        except ccbf.CcbfError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = cli.EXIT_INTERNAL
        sample["run_s"] = perf_counter() - started
        calibration.append(calibrate())
        sample["exit_code"] = code
        sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample.update(describe_outputs(out))
    sample["calibration_s"] = sum(calibration) / len(calibration)
    if tracer is not None:
        sample["spans"] = tracer.summary()
        sample["missing_spans"] = tracer.missing
        sample["requests"] = tracer.requests
        sample["adjust_answers"] = tracer.adjust_answers
        sample["refusals"] = tracer.refusals
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
