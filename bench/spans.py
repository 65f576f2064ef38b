"""Outside-in span tracing of ccbf's layers.

`Tracer.install` replaces chosen functions with timing wrappers from the
outside: every module of the package that holds a reference to the
original function gets the wrapper instead, and methods are replaced on
their class.  Nothing inside the package changes.  Each call records a
span (name, start, end, parent) in memory; `Tracer.summary` turns them
into per-name call counts, busy time (sum of span durations) and self
time (busy time minus the part covered by child spans).

A target that no longer exists, because a later change renamed or inlined
it, is reported as missing and keeps zero calls; tracing goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "cli.run_config": ("ccbf.cli", "run_config"),
    "config.parse_config": ("ccbf.config", "parse_config"),
    "config.normalize_config": ("ccbf.config", "normalize_config"),
    "simulate.run_scenario": ("ccbf.simulate", "run_scenario"),
    "simulate.safety_filter": ("ccbf.simulate", "safety_filter"),
    "simulate.write_result_csv": ("ccbf.simulate", "write_result_csv"),
    "simulate.write_messages_csv": ("ccbf.simulate", "write_messages_csv"),
    "dynamics.neighborhood": ("ccbf.dynamics", "neighborhood"),
    "dynamics.lie_table": ("ccbf.dynamics", "SisModel.lie_table"),
    "dynamics.rk4_step": ("ccbf.dynamics", "rk4_step"),
    "barrier.decompose_psi2": ("ccbf.barrier", "decompose_psi2"),
    "barrier.max_capability": ("ccbf.barrier", "max_capability"),
    "geometry.intersect": ("ccbf.geometry", "intersect"),
    "geometry.is_empty": ("ccbf.geometry", "is_empty"),
    "geometry.closest_point": ("ccbf.geometry", "closest_point"),
    "collab.collaborative_safety": ("ccbf.collab", "collaborative_safety"),
    "collab.collaborate": ("ccbf.collab", "collaborate"),
    "collab.coordinate": ("ccbf.collab", "coordinate"),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self.missing: dict[str, str] = {}
        self.adjust_answers = 0
        self.refusals = 0
        self.requests = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """Timing wrapper around fn; observe(args, result) sees each call."""
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_coordinate(self, args, result) -> None:
        # coordinate(graph, i, ledger, rows, incoming) -> (region, eps):
        # one request message per entry of `incoming`, one adjust answer
        # per entry of `eps`; a positive eps is a refusal.
        _, eps = result
        incoming = args[4] if len(args) > 4 else {}
        self.requests += len(incoming)
        self.adjust_answers += len(eps)
        self.refusals += sum(1 for e in eps.values() if e > 0.0)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        observers = {"collab.coordinate": self._observe_coordinate}
        for name, (module_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"missing span: {module_name}:{path} ({exc})"
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "ccbf" or mod_name.startswith("ccbf.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s; every target is present."""
        count = len(self.starts)
        covered = [0.0] * count
        durations = [self.ends[k] - self.starts[k] for k in range(count)]
        for k in range(count):
            parent = self.parents[k]
            if parent >= 0:
                covered[parent] += durations[k]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in TARGETS}
        for k in range(count):
            stats = out[self.names[self.name_ids[k]]]
            stats["calls"] += 1
            stats["busy_s"] += durations[k]
            stats["self_s"] += durations[k] - covered[k]
        return out
