"""Render a result table to a standalone SVG, no plotting dependencies.

Two stacked 960x480 panels: infection levels on top with one dotted
threshold line per node, controls below with one dashed line per distinct
control bound.  A table with a single row degenerates to dots instead of
polylines.  Schema problems in the CSV are reported as ConfigError
violations naming the offending column or row.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import parse_config
from .errors import ConfigError

log = logging.getLogger("ccbf.plot")

PANEL_W = 960
PANEL_H = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 36, 44
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class ResultTable:
    """The plottable slice of a result table."""

    times: np.ndarray
    states: np.ndarray    # rows x nodes
    controls: np.ndarray  # rows x nodes


def read_result_csv(path) -> ResultTable:
    """Load `t,x_*,u_*` columns; raises ConfigError on schema problems."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError([(str(path), "empty file, expected a header row")])
    header = rows[0]
    if not header or header[0] != "t":
        raise ConfigError([("header", f"first column must be t, got {header[:1]!r}")])
    n = 0
    while len(header) > 1 + n and header[1 + n] == f"x_{n + 1}":
        n += 1
    if n == 0:
        raise ConfigError([("header", "expected column x_1 after t")])
    problems = []
    for k in range(n):
        pos = 1 + n + k
        want = f"u_{k + 1}"
        if pos >= len(header) or header[pos] != want:
            got = header[pos] if pos < len(header) else "nothing"
            problems.append(("header", f"expected column {want}, got {got}"))
    if problems:
        raise ConfigError(problems)
    body = rows[1:]
    if not body:
        raise ConfigError([(str(path), "no rows")])
    width = len(header)
    times, states, controls = [], [], []
    for ridx, row in enumerate(body, start=1):
        if len(row) != width:
            problems.append((f"row {ridx}", f"expected {width} cells, got {len(row)}"))
            continue
        def cell(pos, col):
            try:
                return float(row[pos])
            except ValueError:
                problems.append((col, f"row {ridx}: not a number: {row[pos]!r}"))
                return 0.0
        times.append(cell(0, "t"))
        states.append([cell(1 + k, f"x_{k + 1}") for k in range(n)])
        controls.append([cell(1 + n + k, f"u_{k + 1}") for k in range(n)])
    if problems:
        raise ConfigError(problems)
    return ResultTable(np.array(times), np.array(states), np.array(controls))


def load_reference_lines(meta_path) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Thresholds and control bounds out of a run manifest."""
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    cfg = parse_config(meta["config"])
    return cfg.x_bar, cfg.u_max


def _axis_x(times: np.ndarray):
    lo, hi = float(times[0]), float(times[-1])
    if hi - lo <= 0.0:
        lo, hi = lo - 0.5, hi + 0.5
    span = (PANEL_W - MARGIN_L - MARGIN_R) / (hi - lo)
    return lo, hi, lambda t: MARGIN_L + (t - lo) * span


def _axis_y(values_max: float, y_off: float):
    hi = max(values_max * 1.05, 1e-9)
    span = (PANEL_H - MARGIN_T - MARGIN_B) / hi
    return hi, lambda v: y_off + PANEL_H - MARGIN_B - v * span


def _panel(parts, *, y_off, title, times, series, dashed, dash_class, dash_pattern):
    t_lo, t_hi, sx = _axis_x(times)
    peak = max(float(series.max(initial=0.0)), max(dashed, default=0.0))
    y_hi, sy = _axis_y(peak, y_off)
    left, right = MARGIN_L, PANEL_W - MARGIN_R
    top, bottom = y_off + MARGIN_T, y_off + PANEL_H - MARGIN_B
    parts.append(f'<text x="{left}" y="{top - 12}" class="label">{title}</text>')
    parts.append(f'<line class="axis" x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}"/>')
    parts.append(f'<line class="axis" x1="{left}" y1="{top}" x2="{left}" y2="{bottom}"/>')
    parts.append(f'<text x="{left}" y="{bottom + 16}" class="tick">{t_lo:g}</text>')
    parts.append(f'<text x="{right - 30}" y="{bottom + 16}" class="tick">{t_hi:g}</text>')
    parts.append(f'<text x="{left - 58}" y="{bottom}" class="tick">0</text>')
    parts.append(f'<text x="{left - 58}" y="{top + 8}" class="tick">{y_hi:.3g}</text>')
    for level in dashed:
        y = sy(level)
        parts.append(f'<line class="{dash_class}" stroke-dasharray="{dash_pattern}" '
                     f'x1="{left}" y1="{y:.2f}" x2="{right}" y2="{y:.2f}"/>')
    rows = series.shape[0]
    for k in range(series.shape[1]):
        color = PALETTE[k % len(PALETTE)]
        if rows == 1:
            parts.append(f'<circle class="trace" cx="{sx(times[0]):.2f}" '
                         f'cy="{sy(series[0, k]):.2f}" r="4" fill="{color}"/>')
            continue
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times, series[:, k]))
        parts.append(f'<polyline class="trace" fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')


def render_svg(table: ResultTable, thresholds=(), bounds=()) -> str:
    """Two stacked panels as one SVG document string."""
    height = 2 * PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'viewBox="0 0 {PANEL_W} {height}">',
        '<style>.axis{stroke:#444;stroke-width:1}'
        '.threshold{stroke:#444;stroke-width:1}'
        '.bound{stroke:#444;stroke-width:1}'
        '.label{font:bold 14px sans-serif;fill:#222}'
        '.tick{font:11px sans-serif;fill:#555}</style>',
        f'<rect width="{PANEL_W}" height="{height}" fill="#ffffff"/>',
        '<g id="states">',
    ]
    _panel(parts, y_off=0, title="infection level", times=table.times,
           series=table.states, dashed=tuple(thresholds), dash_class="threshold",
           dash_pattern="2,4")
    parts.append("</g>")
    parts.append('<g id="controls">')
    distinct_bounds = sorted(set(float(b) for b in bounds))
    _panel(parts, y_off=PANEL_H, title="control effort", times=table.times,
           series=table.controls, dashed=distinct_bounds, dash_class="bound",
           dash_pattern="8,6")
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(result_csv, out_svg, meta_path=None) -> None:
    """CSV (+ optional manifest for reference lines) to an SVG file."""
    table = read_result_csv(result_csv)
    thresholds: tuple[float, ...] = ()
    bounds: tuple[float, ...] = ()
    if meta_path is None:
        sibling = Path(result_csv).parent / "meta.json"
        meta_path = sibling if sibling.exists() else None
        if meta_path is None:
            log.warning("no meta.json next to %s; plotting without reference lines",
                        result_csv)
    if meta_path is not None:
        thresholds, bounds = load_reference_lines(meta_path)
    Path(out_svg).write_text(render_svg(table, thresholds, bounds), encoding="utf-8")
