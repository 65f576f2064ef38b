"""Command line front end: run, plot, validate, sweep.

Exit codes separate the failure families: 0 success, 1 internal error,
2 configuration or schema error, 3 scenario halted as terminally
infeasible, 4 scenario halted because a negotiation stalled (no agreement
within `sim.inner_cap` sub-rounds).  Halted runs still write their
artifacts up to the halt.  `CCBF_LOG` picks the log level (debug, info,
warning, ...).

A scenario argument is a file path, or the name of a bundled scenario
(`paper_sis3`) when no such file exists (a directory is not one).  `run`
writes result.csv, a meta.json manifest whose embedded normalized config
reproduces the run exactly, and messages.csv when tracing.  `sweep` fans
several scenarios across worker processes, one subdirectory each.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import KNOWN_KEYS, ScenarioConfig, normalize_config, parse_config
from .errors import CcbfError, ConfigError
from .simulate import run_scenario, write_messages_csv, write_result_csv

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_STALL = 4

# what a command reports as a failure instead of a traceback
_FAILURES = (CcbfError, OSError)


def _report_failure(exc: Exception, prefix: str = "") -> int:
    """Print one of _FAILURES on stderr, each line led by prefix; return its exit code."""
    if isinstance(exc, ConfigError):
        for path, msg in exc.violations:
            print(f"{prefix}{path}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{prefix or 'error: '}{exc}", file=sys.stderr)
    return EXIT_INTERNAL


def read_scenario_text(name: str) -> str:
    """File contents, or a bundled scenario by name."""
    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    base = name if name.endswith(".cfg") else name + ".cfg"
    if os.sep not in name and "/" not in name:
        import importlib.resources  # only a bundled name reads the package data

        bundled = importlib.resources.files("ccbf").joinpath("scenarios", base)
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
        raise ConfigError([(name, "no such file or bundled scenario")])
    raise ConfigError([(name, "no such file")])


def _run_flags(args) -> dict[str, object]:
    """Each run flag given in args, as an assignment to its config key."""
    return {key: value for key, value in vars(args).items()
            if key in KNOWN_KEYS and value is not None}


def effective_config(scenario: str, args) -> ScenarioConfig:
    """Scenario text with each run flag given in args assigned to its key."""
    return parse_config(read_scenario_text(scenario), _run_flags(args))


def run_config(cfg: ScenarioConfig, out_dir: Path) -> int:
    """Simulate one validated scenario and write its artifacts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model = cfg.build_model()
    specs = cfg.build_specs()
    x0 = np.array(cfg.x0)
    started = time.perf_counter()
    result = run_scenario(model, specs, x0, **cfg.run_kwargs())
    elapsed = time.perf_counter() - started

    started = time.perf_counter()
    write_result_csv(out_dir / "result.csv", result)
    if cfg.trace:
        write_messages_csv(out_dir / "messages.csv", result)
    written = time.perf_counter() - started
    meta = {
        "config": normalize_config(cfg),
        "versions": {
            "ccbf": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": round(elapsed, 6),
        "write_s": round(written, 6),
        "halted_at": result.halted_at,
        "halt_reason": result.halt_reason,
        "infeasible_nodes": list(result.infeasible_nodes),
        "max_state_clamp": result.max_clamp,
        "cap_tripped_steps": result.cap_tripped_steps,
        "relaxed_steps": list(result.relaxed_steps),
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if result.halt_reason == "stall":
        print(f"negotiation stalled at t={result.halted_at:g} (no agreement within "
              f"{cfg.inner_cap} sub-rounds); partial results in {out_dir}", file=sys.stderr)
        return EXIT_STALL
    if result.halted_at is not None:
        nodes = ", ".join(str(i) for i in result.infeasible_nodes)
        print(f"terminally infeasible at t={result.halted_at:g} (nodes {nodes}); "
              f"partial results in {out_dir}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"wrote {out_dir / 'result.csv'}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = effective_config(args.scenario, args)
    return run_config(cfg, Path(cfg.output_dir))


def cmd_validate(args) -> int:
    cfg = parse_config(read_scenario_text(args.scenario))
    sys.stdout.write(normalize_config(cfg))
    return EXIT_OK


def cmd_plot(args) -> int:
    from .plot import write_plot  # only this command draws

    out = args.out
    if out is None:
        source = Path(args.result)
        out = source.with_suffix(".svg")
    write_plot(args.result, out, meta_path=args.meta)
    print(f"wrote {out}")
    return EXIT_OK


def _sweep_one(job: tuple[str, ScenarioConfig]) -> tuple[str, int]:
    name, cfg = job
    try:
        code = run_config(cfg, Path(cfg.output_dir))
    except _FAILURES as exc:
        code = _report_failure(exc, f"{name}: ")
    return name, code


def cmd_sweep(args) -> int:
    from concurrent.futures import ProcessPoolExecutor

    jobs = []
    used = set()
    flags = _run_flags(args)
    root = flags.get("output.dir", "out")
    if root == "":  # each subdirectory would land in the working directory
        raise ConfigError([("output.dir", "must be a non-empty string, got ''")])
    root = Path(root)
    for scenario in args.scenarios:
        stem = Path(scenario).stem
        name = stem
        serial = 1
        while name in used:
            serial += 1
            name = f"{stem}-{serial}"
        used.add(name)
        overrides = {**flags, "output.dir": str(root / name)}
        jobs.append((name, parse_config(read_scenario_text(scenario), overrides)))

    worst = EXIT_OK
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for name, code in pool.map(_sweep_one, jobs):
            status = {EXIT_OK: "ok", EXIT_INFEASIBLE: "halted",
                      EXIT_STALL: "stalled"}.get(code, "error")
            print(f"{name}: {status}")
            worst = max(worst, code)
    return worst


def _worker_count(text: str) -> int:
    """The --workers value: an integer of at least 1, or a usage error."""
    import argparse

    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    import argparse  # a run driven through run_config parses no command line

    parser = argparse.ArgumentParser(
        prog="ccbf",
        description="Simulate decentralized barrier-certified control of "
                    "coupled networks.")
    parser.add_argument("--version", action="version", version=f"ccbf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        # each flag's dest is the config key it assigns (see _run_flags)
        p.add_argument("--out", dest="output.dir",
                       help="output directory (overrides output.dir)")
        p.add_argument("--trace", dest="sim.trace", action="store_const", const=True,
                       help="record the negotiation message log")
        p.add_argument("--no-collab", dest="sim.collaboration", action="store_const",
                       const=False, help="disable the negotiation protocol")
        p.add_argument("--continue-on-infeasible", dest="sim.continue_on_infeasible",
                       action="store_const", const=True,
                       help="fall back to box-only filtering instead of halting")
        p.add_argument("--dt", dest="sim.dt", type=float, help="integration step override")
        p.add_argument("--t-final", dest="sim.t_final", type=float, help="horizon override")

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario", help="config file or bundled scenario name")
    add_run_flags(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_plot = sub.add_parser("plot", help="render a result table to SVG")
    p_plot.add_argument("result", help="result.csv from a run")
    p_plot.add_argument("--out", help="output SVG path")
    p_plot.add_argument("--meta", help="manifest for threshold and bound lines")
    p_plot.set_defaults(handler=cmd_plot)

    p_val = sub.add_parser("validate", help="check a scenario and print its "
                                            "normalized form")
    p_val.add_argument("scenario", help="config file or bundled scenario name")
    p_val.set_defaults(handler=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run several scenarios in parallel")
    p_sweep.add_argument("scenarios", nargs="+",
                         help="config files or bundled scenario names")
    p_sweep.add_argument("--workers", type=_worker_count, default=None,
                         help="worker process count")
    add_run_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def _configure_logging() -> None:
    wanted = os.environ.get("CCBF_LOG", "").strip().upper()
    level = getattr(logging, wanted, None) if wanted else logging.WARNING
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _FAILURES as exc:
        return _report_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
