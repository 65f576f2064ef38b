"""Scenario configuration: a line-oriented dotted-key text format.

One assignment per line, `dotted.key = value`.  Values are JSON literals
(numbers, strings, nested arrays) or bare tokens; the booleans are written
`on` and `off`.  Numbers must be finite: the JSON literals NaN and
+-Infinity are rejected like any other bad entry.  A `#` outside brackets
and JSON strings starts a comment.  An assignment whose brackets are
still open continues on the following lines, so matrices can be written
one row per line; the next line that assigns any key ends it
unterminated.

Each key's name, default, reader and limits are declared once, on its
`ScenarioConfig` field.  `parse_config` collects every violation with a
path such as `model.beta[0][1]` (array indices are 0-based positions,
node ids in messages stay 1-based) instead of stopping at the first, and
reports them in field order, which is the dump order.  A bracketed value
that is not valid JSON, or whose brackets never close, is reported once,
under its key, and checked no further.
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
from .collab import DEFAULT_INNER_CAP, DEFAULT_OUTER_CAP, WEIGHT_MODES
from .dynamics import SisModel, SisParams
from .errors import ConfigError
from .graph import NetworkGraph, edge_index
from .simulate import UDOT_POLICIES, step_count

# a key such as `model.u_max` or `umax`: a continuation line that assigns one
# ends an open array value, whether or not the key is known
_ASSIGNED_KEY = re.compile(r"[A-Za-z_][\w.]*")
# a JSON string, up to the end of the line when it is not closed: a bracket
# or a `#` inside one is text
_JSON_STRING = re.compile(r'"(?:\\.|[^"\\])*"?')
_COMMENT_TOKENS = re.compile(_JSON_STRING.pattern + r"|[\[\]#]")


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


def _number_fault(v, low=None, high=None, strict_low=False) -> str | None:
    """Why a parsed value is not a finite number within the limits, or None.

    A limit is printed as given: low=0 reads `must be >= 0`, low=0.0 `>= 0.0`.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"must be a number, got {v!r}"
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        return f"must be finite, got {v}"
    v = float(v)
    if low is not None and (v < low or (strict_low and v <= low)):
        return f"must be {'>' if strict_low else '>='} {low}, got {v}"
    if high is not None and v > high:
        return f"must be <= {high}, got {v}"
    return None


def _want_int(key, v, problems, got, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        problems.append((key, f"must be an integer, got {v!r}"))
        return None
    if minimum is not None and v < minimum:
        problems.append((key, f"must be >= {minimum}, got {v}"))
        return None
    return v


def _want_float(key, v, problems, got, above=None, steps_of=None, **limits):
    """A number within the limits, over the value of the key `above` once
    read, and a whole number of steps of the key `steps_of` that a run's
    table can hold (see step_count)."""
    fault = _number_fault(v, **limits)
    bound = got[KNOWN_KEYS[above]] if above is not None else None
    if fault is None and bound is not None and float(v) <= bound:
        fault = f"must be > {above} ({bound}), got {float(v)}"
    step = got[KNOWN_KEYS[steps_of]] if steps_of is not None else None
    if fault is None and step is not None:
        # a beta read without a fault shows that a row of n entries fits
        nodes = got["nodes"] if got["beta"] is not None else 1
        try:
            step_count(float(v), step, nodes)
        except OverflowError:
            fault = (f"must take few enough {steps_of} ({step}) steps for a table of "
                     f"{nodes} nodes to fit in an array, got {float(v)}")
        except ValueError:
            fault = f"must be a whole number of {steps_of} ({step}) steps, got {float(v)}"
    if fault is not None:
        problems.append((key, fault))
        return None
    return float(v)


def _want_bool(key, v, problems, got):
    if not isinstance(v, bool):
        problems.append((key, f"must be on or off, got {v!r}"))
        return None
    return v


def _want_choice(key, v, problems, got, choices):
    if v not in choices:
        problems.append((key, f"must be one of {', '.join(choices)}, got {v!r}"))
        return None
    return v


def _want_text(key, v, problems, got):
    if not isinstance(v, str) or not v:
        problems.append((key, f"must be a non-empty string, got {v!r}"))
        return None
    return v


def _want_vector(key, v, problems, got, low=None, high=None, strict_low=False):
    """A length-n array of numbers within the limits; a scalar broadcasts to all nodes.

    The entries are walked one by one only when the array has a fault, to
    name each one.  A scalar broadcasts only once model.beta has read
    without a fault, which shows that n entries fit in memory; until then
    it is checked once, under its key.
    """
    n = got["nodes"]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if got["beta"] is None:  # beta has a violation, so the config fails anyway
            fault = _number_fault(v, low, high, strict_low)
            if fault is not None:
                problems.append((key, fault))
            return None
        v = [v] * n
    if not isinstance(v, list):
        problems.append((key, f"must be an array of {n} numbers"))
        return None
    if len(v) != n:
        problems.append((key, f"must have length {n}, got {len(v)}"))
        return None
    if set(map(type, v)) <= {float, int}:
        try:
            floats = tuple(map(float, v))  # reuses the parsed float objects
        except OverflowError:  # an integer literal beyond the float range
            floats = (math.inf,)
        # every entry is within the limits when both extremes are
        if all(map(math.isfinite, floats)) and not (
                _number_fault(min(floats), low, high, strict_low)
                or _number_fault(max(floats), low, high, strict_low)):
            return floats
    ok = True
    for idx, entry in enumerate(v):
        fault = _number_fault(entry, low, high, strict_low)
        if fault is not None:
            problems.append((f"{key}[{idx}]", fault))
            ok = False
    return tuple(map(float, v)) if ok else None


def _want_edges(key, v, problems, got):
    n = got["nodes"]
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
        if not (1 <= j <= n and 1 <= i <= n):
            problems.append((path, f"node ids must lie in 1..{n}, got ({j}, {i})"))
            ok = False
            continue
        edges.append((j, i))
    return tuple(sorted(set(edges))) if ok else None


def _want_beta(key, v, problems, got, **limits):
    """The n x n infection matrix: each row a `_want_vector` with these limits.

    Entry faults come first, in row-major order; edge consistency is only
    checked once every entry is within the limits, and only when the
    edges were read.
    """
    n, edges = got["nodes"], got["edges"]
    if not isinstance(v, list) or len(v) != n or any(
            not isinstance(row, list) or len(row) != n for row in v):
        problems.append((key, f"must be a {n}x{n} matrix"))
        return None
    beta = [_want_vector(f"{key}[{i}]", row, problems, got, **limits)
            for i, row in enumerate(v)]
    if None in beta or edges is None:
        return None
    # beta rows are 0-based storage; node ids are 1-based
    sources = [set() for _ in range(n)]
    for j, i in edges:
        sources[i - 1].add(j - 1)
    faults = []
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
    problems.extend(faults)
    return None if faults else tuple(beta)


# readers of a per-node value, skipped while the node count is unread
_PER_NODE = (_want_edges, _want_beta, _want_vector)


def _key(key: str, want, default=None, **limits):
    """A field read from `key` by `want(key, value, problems, got, **limits)`.

    The reader appends each violation to problems and returns None after
    any; `got` maps each field read before this one to its value, None
    after a fault.  The key is required when default is None.  The default
    is the value an absent key reads as, before validation, so a scalar
    default broadcasts to every node like a scalar in the file.
    """
    return dataclasses.field(
        metadata={"key": key, "want": want, "default": default, "limits": limits})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario with every field filled; plain data, no arrays.

    The fields, in order, are the config schema: each names its key, its
    reader with its limits, and its default.  `parse_config` reads them in
    this order and `normalize_config` dumps them in it.  Build one with
    `parse_config`: it guarantees that every beta entry off the diagonal
    and off the edges is zero, which `build_model` and `normalize_config`
    rely on.
    """

    nodes: int = _key("graph.nodes", _want_int, minimum=1)
    edges: tuple[tuple[int, int], ...] = _key("graph.edges", _want_edges)
    model_type: str = _key("model.type", _want_choice, choices=("sis",))
    beta: tuple[tuple[float, ...], ...] = _key("model.beta", _want_beta, low=0)
    gamma: tuple[float, ...] = _key("model.gamma", _want_vector, low=0.0, strict_low=True)
    u_max: tuple[float, ...] = _key("model.u_max", _want_vector, low=0.0)
    x_bar: tuple[float, ...] = _key("barrier.x_bar", _want_vector,
                                    low=0.0, high=1.0, strict_low=True)
    eta: tuple[float, ...] = _key("barrier.eta", _want_vector, 1.0, low=0.0, strict_low=True)
    kappa: tuple[float, ...] = _key("barrier.kappa", _want_vector, 1.0,
                                    low=0.0, strict_low=True)
    udot_policy: str = _key("barrier.udot_policy", _want_choice, "zero",
                            choices=UDOT_POLICIES)
    x0: tuple[float, ...] = _key("sim.x0", _want_vector, low=0.0, high=1.0)
    nominal: tuple[float, ...] = _key("sim.nominal", _want_vector, 0.0, low=0.0)
    dt: float = _key("sim.dt", _want_float, 0.01, low=0, strict_low=True)
    t_final: float = _key("sim.t_final", _want_float, 100.0, low=0, strict_low=True,
                          above="sim.dt", steps_of="sim.dt")
    collaboration: bool = _key("sim.collaboration", _want_bool, True)
    weights: str = _key("sim.weights", _want_choice, "coupling", choices=WEIGHT_MODES)
    # one round only measures the margins; a second is needed to act on them
    outer_cap: int = _key("sim.outer_cap", _want_int, DEFAULT_OUTER_CAP, minimum=2)
    inner_cap: int = _key("sim.inner_cap", _want_int, DEFAULT_INNER_CAP, minimum=1)
    trace: bool = _key("sim.trace", _want_bool, False)
    continue_on_infeasible: bool = _key("sim.continue_on_infeasible", _want_bool, False)
    output_dir: str = _key("output.dir", _want_text, "out")

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

    got: dict[str, object] = {}
    for f in dataclasses.fields(ScenarioConfig):
        key, want = f.metadata["key"], f.metadata["want"]
        got[f.name] = None
        if key in unread or (want in _PER_NODE and got["nodes"] is None):
            continue  # reported where its text was parsed, or sized by an unread count
        if key not in raw:
            problems.append((key, "required key is missing"))
            continue
        got[f.name] = want(key, raw[key], problems, got, **f.metadata["limits"])
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**got)


def _emit_beta(cfg: ScenarioConfig) -> str:
    """model.beta as json.dumps writes it, formatting only its n + E entries.

    Every other entry is zero, so a row is its entries in column order, each
    after a run of "0.0, " cut from one precomputed string; an entry of -0.0
    off the diagonal and off the edges is written as 0.0.
    """
    columns = [[i] for i in range(cfg.nodes)]  # the diagonal, then in-edges
    for j, i in cfg.edges:
        columns[i - 1].append(j - 1)
    zeros = "0.0, " * cfg.nodes
    rows = []
    for row, cols in zip(cfg.beta, columns):
        cols.sort()
        cells = []
        for last, j in zip([-1] + cols, cols):
            cells += zeros[:5 * (j - last - 1)], repr(row[j]), ", "  # json.dumps writes repr
        cells.append(zeros[:5 * (cfg.nodes - 1 - cols[-1])])
        rows.append("".join(cells)[:-2])
    return "[[" + "], [".join(rows) + "]]"


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
