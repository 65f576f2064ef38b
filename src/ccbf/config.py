"""Scenario configuration: a line-oriented dotted-key text format.

One assignment per line, `dotted.key = value`.  Values are JSON literals
(numbers, strings, nested arrays) or bare tokens; the booleans are written
`on` and `off`.  Numbers must be finite: the JSON literals NaN and
+-Infinity are rejected like any other bad entry.  A `#` outside brackets
and JSON strings starts a comment.  An assignment whose brackets are
still open continues on the following lines, so matrices can be written
one row per line; the next line that assigns any key ends it
unterminated.

`parse_config` collects every violation with a path such as
`model.beta[0][1]` (array indices are 0-based positions, node ids in
messages stay 1-based) instead of stopping at the first.  A bracketed
value that is not valid JSON, or whose brackets never close, is reported
once, under its key, and checked no further.
`normalize_config` emits every key, defaults filled, in one canonical
order, and writes a string bare unless that would not read back, such as
`on`, `123` or `a#b`, which it quotes as JSON; parsing the dump
reproduces the config exactly, and normalizing again reproduces the dump
byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .barrier import BarrierSpec
from .collab import DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP
from .dynamics import SisModel, SisParams
from .errors import ConfigError
from .graph import NetworkGraph, edge_index

# a key such as `model.u_max` or `umax`: a continuation line that assigns one
# ends an open array value, whether or not the key is known
_ASSIGNED_KEY = re.compile(r"[A-Za-z_][\w.]*")
# a JSON string, up to the end of the line when it is not closed: a bracket
# or a `#` inside one is text
_JSON_STRING = re.compile(r'"(?:\\.|[^"\\])*"?')
_COMMENT_TOKENS = re.compile(_JSON_STRING.pattern + r"|[\[\]#]")

UDOT_POLICIES = ("zero", "backward_difference")
WEIGHT_MODES = ("coupling", "uniform")


def _key(key: str, default=None):
    """A field read from `key`; the key is required when default is None.

    The default is the value an absent key reads as, before validation, so
    a scalar default broadcasts to every node like a scalar in the file.
    """
    return dataclasses.field(metadata={"key": key, "default": default})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario with every field filled; plain data, no arrays.

    The fields, in order, are the config schema: each names its key and
    default, and `normalize_config` dumps them in this order.  Build one
    with `parse_config`: it guarantees that every beta entry off the
    diagonal and off the edges is zero, which `build_model` and
    `normalize_config` rely on.
    """

    nodes: int = _key("graph.nodes")
    edges: tuple[tuple[int, int], ...] = _key("graph.edges")
    model_type: str = _key("model.type")
    beta: tuple[tuple[float, ...], ...] = _key("model.beta")
    gamma: tuple[float, ...] = _key("model.gamma")
    u_max: tuple[float, ...] = _key("model.u_max")
    x_bar: tuple[float, ...] = _key("barrier.x_bar")
    eta: tuple[float, ...] = _key("barrier.eta", 1.0)
    kappa: tuple[float, ...] = _key("barrier.kappa", 1.0)
    udot_policy: str = _key("barrier.udot_policy", "zero")
    x0: tuple[float, ...] = _key("sim.x0")
    nominal: tuple[float, ...] = _key("sim.nominal", 0.0)
    dt: float = _key("sim.dt", 0.01)
    t_final: float = _key("sim.t_final", 100.0)
    collaboration: bool = _key("sim.collaboration", True)
    weights: str = _key("sim.weights", "coupling")
    outer_cap: int = _key("sim.outer_cap", DEFAULT_OUTER_CAP)
    inner_cap: int = _key("sim.inner_cap", DEFAULT_INNER_CAP)
    trace: bool = _key("sim.trace", False)
    continue_on_infeasible: bool = _key("sim.continue_on_infeasible", False)
    output_dir: str = _key("output.dir", "out")

    def build_model(self) -> SisModel:
        """The SIS model, read from the diagonal and the edge entries of beta.

        Every other entry must be zero, as `parse_config` guarantees.
        """
        graph = NetworkGraph(self.nodes, self.edges)
        src, dst = edge_index(graph)
        diag = np.arange(self.nodes)
        beta = np.zeros((self.nodes, self.nodes))
        beta[diag, diag] = [row[k] for k, row in enumerate(self.beta)]
        beta[dst, src] = [self.beta[i - 1][j - 1] for j, i in graph.edges]
        params = SisParams(beta, np.array(self.gamma), np.array(self.u_max))
        return SisModel(graph, params)

    def build_specs(self) -> dict[int, BarrierSpec]:
        return {i: BarrierSpec(self.x_bar[i - 1], self.eta[i - 1], self.kappa[i - 1])
                for i in range(1, self.nodes + 1)}

    def run_kwargs(self) -> dict:
        """Keyword arguments for run_scenario, minus the trajectory inputs."""
        nominal = np.array(self.nominal) if any(v != 0.0 for v in self.nominal) else None
        return dict(
            dt=self.dt, t_final=self.t_final, nominal=nominal,
            udot_policy=self.udot_policy, collaboration=self.collaboration,
            weights_mode=self.weights, outer_cap=self.outer_cap,
            inner_cap=self.inner_cap,
            continue_on_infeasible=self.continue_on_infeasible,
            collect_messages=self.trace)


# key -> field name, in dump order; and the value each optional key reads as
KNOWN_KEYS = {f.metadata["key"]: f.name for f in dataclasses.fields(ScenarioConfig)}
_DEFAULTS = {f.metadata["key"]: f.metadata["default"]
             for f in dataclasses.fields(ScenarioConfig) if f.metadata["default"] is not None}


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    depth = 0
    for token in _COMMENT_TOKENS.finditer(line):
        ch = token.group()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "#" and depth <= 0:
            return line[:token.start()]
    return line


def _bracket_depth(text: str) -> int:
    if '"' in text:
        text = _JSON_STRING.sub("", text)
    return text.count("[") - text.count("]")


def _parse_value(text: str):
    """on/off, a JSON value, or a bare token string.

    Raises ValueError for a bracketed value that is not JSON.
    """
    text = text.strip()
    if text == "on":
        return True
    if text == "off":
        return False
    try:
        return json.loads(text)
    except ValueError:
        if text.startswith("["):
            raise
        return text  # bare token string


def _assign(raw: dict[str, object], key: str, text: str, lineno: int,
            problems: list[tuple[str, str]], unread: set[str]) -> None:
    try:
        raw[key] = _parse_value(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        reason = getattr(err, "msg", err)
        problems.append((key, f"not valid JSON: {reason} (value starts on line {lineno})"))
        unread.add(key)


def _raw_assignments(text: str, problems: list[tuple[str, str]]
                     ) -> tuple[dict[str, object], set[str]]:
    """The parsed value of every assignment, and the keys that got no readable value.

    A key whose open array an assignment of the same key ends takes that
    later value, as if the unreadable one had not been written.
    """
    raw: dict[str, object] = {}
    unread: set[str] = set()
    pending_key = None
    pending_line = 0
    pending_pieces: list[str] = []
    depth = 0  # bracket depth of the pending value, counted once per line
    for lineno, original in enumerate(text.splitlines(), start=1):
        line = _strip_comment(original)
        key, sep, value = line.partition("=")
        key = key.strip()
        if pending_key is not None:
            if not (sep and _ASSIGNED_KEY.fullmatch(key)):
                pending_pieces.append(line.strip())
                depth += _bracket_depth(line)
                if depth > 0:
                    continue
                _assign(raw, pending_key, " ".join(pending_pieces), pending_line, problems, unread)
                pending_key, pending_pieces = None, []
                continue
            # an assignment ends a value whose brackets never closed
            problems.append((pending_key, "unterminated array value"))
            unread.add(pending_key)
            pending_key, pending_pieces = None, []
        if not line.strip():
            continue
        if not sep:
            problems.append((f"line {lineno}", "expected `key = value`"))
            continue
        if not key:
            problems.append((f"line {lineno}", "missing key before `=`"))
            continue
        if key in raw:
            problems.append((key, "duplicate key"))
            continue
        if key not in KNOWN_KEYS:
            problems.append((key, "unknown key"))
            continue
        depth = _bracket_depth(value)
        if depth > 0:
            pending_key, pending_line, pending_pieces = key, lineno, [value.strip()]
            continue
        _assign(raw, key, value, lineno, problems, unread)
    if pending_key is not None:
        problems.append((pending_key, "unterminated array value"))
        unread.add(pending_key)
    return raw, unread - raw.keys()


def _number_fault(v) -> str | None:
    """Why a parsed value is not a finite number, or None when it is one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"must be a number, got {v!r}"
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    return None if finite else f"must be finite, got {v}"


def _want_int(key, v, problems, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        problems.append((key, f"must be an integer, got {v!r}"))
        return None
    if minimum is not None and v < minimum:
        problems.append((key, f"must be >= {minimum}, got {v}"))
        return None
    return v


def _want_float(key, v, problems, positive=False):
    fault = _number_fault(v)
    if fault is not None:
        problems.append((key, fault))
        return None
    v = float(v)
    if positive and v <= 0.0:
        problems.append((key, f"must be > 0, got {v}"))
        return None
    return v


def _want_bool(key, v, problems):
    if not isinstance(v, bool):
        problems.append((key, f"must be on or off, got {v!r}"))
        return None
    return v


def _want_choice(key, v, problems, choices):
    if v not in choices:
        problems.append((key, f"must be one of {', '.join(choices)}, got {v!r}"))
        return None
    return v


def _want_text(key, v, problems):
    if not isinstance(v, str) or not v:
        problems.append((key, f"must be a non-empty string, got {v!r}"))
        return None
    return v


def _want_vector(key, v, problems, n, low=None, high=None, strict_low=False):
    """A length-n numeric array; a bare scalar broadcasts to all nodes."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = [v] * n
    if not isinstance(v, list):
        problems.append((key, f"must be an array of {n} numbers"))
        return None
    if len(v) != n:
        problems.append((key, f"must have length {n}, got {len(v)}"))
        return None
    out = []
    ok = True
    for idx, entry in enumerate(v):
        fault = _number_fault(entry)
        if fault is not None:
            problems.append((f"{key}[{idx}]", fault))
            ok = False
            continue
        entry = float(entry)
        if low is not None and (entry < low or (strict_low and entry <= low)):
            op = ">" if strict_low else ">="
            problems.append((f"{key}[{idx}]", f"must be {op} {low}, got {entry}"))
            ok = False
        elif high is not None and entry > high:
            problems.append((f"{key}[{idx}]", f"must be <= {high}, got {entry}"))
            ok = False
        else:
            out.append(entry)
    return tuple(out) if ok else None


def _want_edges(key, v, problems, n):
    if not isinstance(v, list):
        problems.append((key, "must be an array of [source, target] pairs"))
        return None
    edges = []
    ok = True
    for idx, pair in enumerate(v):
        path = f"{key}[{idx}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(e, bool) or not isinstance(e, int) for e in pair)):
            problems.append((path, f"must be a pair of node ids, got {pair!r}"))
            ok = False
            continue
        j, i = pair
        if j == i:
            problems.append((path, f"self-loop ({j}, {i}) is not allowed"))
            ok = False
            continue
        if n is not None and not (1 <= j <= n and 1 <= i <= n):
            problems.append((path, f"node ids must lie in 1..{n}, got ({j}, {i})"))
            ok = False
            continue
        edges.append((j, i))
    return tuple(sorted(set(edges))) if ok else None


def _beta_row_faults(key, i, row) -> list[tuple[str, str]]:
    """Each entry of row i that is not a finite number >= 0, in column order."""
    faults = []
    for j, entry in enumerate(row):
        fault = _number_fault(entry)
        if fault is None and entry < 0:
            fault = f"must be >= 0, got {float(entry)}"
        if fault is not None:
            faults.append((f"{key}[{i}][{j}]", fault))
    return faults


def _want_beta(key, v, problems, n, edges):
    """The n x n infection matrix, checked one row at a time.

    Entry faults come first, in row-major order; edge consistency is only
    checked once every entry is a finite number >= 0.  A row's entries are
    walked one by one only when the row has a fault, to name each one.
    """
    if not isinstance(v, list) or len(v) != n or any(
            not isinstance(row, list) or len(row) != n for row in v):
        problems.append((key, f"must be a {n}x{n} matrix"))
        return None
    faults = []
    beta = []
    for i, row in enumerate(v):
        if set(map(type, row)) <= {float, int}:
            try:
                floats = tuple(map(float, row))  # reuses the parsed float objects
            except OverflowError:  # an integer literal beyond the float range
                floats = (math.inf,)
            if all(map(math.isfinite, floats)) and min(floats) >= 0.0:
                beta.append(floats)
                continue
        faults += _beta_row_faults(key, i, row)
    if not faults and edges is not None:
        # beta rows are 0-based storage; node ids are 1-based
        sources = [set() for _ in range(n)]
        for j, i in edges:
            sources[i - 1].add(j - 1)
        for i, row in enumerate(beta):
            positive = set(compress(range(n), row))
            positive.discard(i)
            for j in sorted(positive ^ sources[i]):
                if j in positive:
                    faults.append((f"{key}[{i}][{j}]",
                                   f"positive but edge ({j + 1}, {i + 1}) is missing"))
                else:
                    faults.append((f"{key}[{i}][{j}]",
                                   f"zero but edge ({j + 1}, {i + 1}) is present"))
    if faults:
        problems.extend(faults)
        return None
    return tuple(beta)


def parse_config(text: str, overrides: dict[str, object] | None = None) -> ScenarioConfig:
    """Parse and validate; raises ConfigError carrying every violation.

    `overrides` maps config keys to parsed values, such as
    `{"sim.dt": 0.05}`; each replaces the text's own assignment before any
    value is validated, so the result is the config of the text with those
    assignments edited in.
    """
    problems: list[tuple[str, str]] = []
    raw, unread = _raw_assignments(text, problems)
    overrides = overrides or {}
    problems += [(key, "unknown key") for key in overrides if key not in KNOWN_KEYS]
    raw = {**_DEFAULTS, **raw, **overrides}

    def read(want, key, *args, **kw):
        if key in unread:
            return None  # reported once, where its text was parsed
        if key not in raw:
            problems.append((key, "required key is missing"))
            return None
        return want(key, raw[key], problems, *args, **kw)

    n = read(_want_int, "graph.nodes", minimum=1)
    edges = read(_want_edges, "graph.edges", n) if n is not None else None
    model_type = read(_want_choice, "model.type", ("sis",))

    beta = gamma = u_max = x_bar = eta = kappa = x0 = nominal = None
    if n is not None:
        beta = read(_want_beta, "model.beta", n, edges)
        gamma = read(_want_vector, "model.gamma", n, low=0.0, strict_low=True)
        u_max = read(_want_vector, "model.u_max", n, low=0.0)
        x_bar = read(_want_vector, "barrier.x_bar", n, low=0.0, high=1.0, strict_low=True)
        eta = read(_want_vector, "barrier.eta", n, low=0.0, strict_low=True)
        kappa = read(_want_vector, "barrier.kappa", n, low=0.0, strict_low=True)
        x0 = read(_want_vector, "sim.x0", n, low=0.0, high=1.0)
        nominal = read(_want_vector, "sim.nominal", n, low=0.0)
    udot_policy = read(_want_choice, "barrier.udot_policy", UDOT_POLICIES)
    dt = read(_want_float, "sim.dt", positive=True)
    t_final = read(_want_float, "sim.t_final", positive=True)
    if dt is not None and t_final is not None and t_final <= dt:
        problems.append(("sim.t_final", f"must be > sim.dt ({dt}), got {t_final}"))
    collaboration = read(_want_bool, "sim.collaboration")
    weights = read(_want_choice, "sim.weights", WEIGHT_MODES)
    # one round only measures the margins; a second is needed to act on them
    outer_cap = read(_want_int, "sim.outer_cap", minimum=2)
    inner_cap = read(_want_int, "sim.inner_cap", minimum=1)
    trace = read(_want_bool, "sim.trace")
    continue_on_infeasible = read(_want_bool, "sim.continue_on_infeasible")
    output_dir = read(_want_text, "output.dir")
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        nodes=n, edges=edges, model_type=model_type, beta=beta, gamma=gamma,
        u_max=u_max, x_bar=x_bar, eta=eta, kappa=kappa, udot_policy=udot_policy,
        x0=x0, nominal=nominal, dt=dt, t_final=t_final, collaboration=collaboration,
        weights=weights, outer_cap=outer_cap, inner_cap=inner_cap, trace=trace,
        continue_on_infeasible=continue_on_infeasible, output_dir=output_dir)


def _emit_beta(cfg: ScenarioConfig) -> str:
    """model.beta as json.dumps writes it, formatting only its n + E entries.

    Every other entry is zero, so each row starts from a row of "0.0"; an
    entry of -0.0 off the diagonal and off the edges is written as 0.0.
    """
    sources = [[i] for i in range(cfg.nodes)]  # the diagonal, then in-edges
    for j, i in cfg.edges:
        sources[i - 1].append(j - 1)
    zeros = ["0.0"] * cfg.nodes
    rows = []
    for row, cols in zip(cfg.beta, sources):
        cells = zeros.copy()
        for j in cols:
            cells[j] = repr(row[j])  # json.dumps writes numbers by repr
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def _emit(cfg: ScenarioConfig, key: str, name: str) -> str:
    if name == "beta":
        return _emit_beta(cfg)
    value = getattr(cfg, name)
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, str):
        # bare when that line reads back as the same string, else quoted
        problems: list[tuple[str, str]] = []
        raw, _ = _raw_assignments(f"{key} = {value}", problems)
        return value if not problems and raw == {key: value} else json.dumps(value)
    return json.dumps(value)


def normalize_config(cfg: ScenarioConfig) -> str:
    """Canonical dump: every key, fixed order, one line per key.

    beta is written from its diagonal and edge entries (see `_emit_beta`),
    so cfg must come from `parse_config`.
    """
    return "".join(f"{key} = {_emit(cfg, key, name)}\n" for key, name in KNOWN_KEYS.items())
