"""Comparison tables and figure data for the two-model experiment.

One row per seed pairs the Markov and RNN scores; win fractions summarize
how often the RNN beats the Markov baseline on each metric. Charts are
emitted as self-contained SVG so no plotting dependency is needed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .metrics import MAX_ENTROPY

_BOUND_SLACK = 1e-9
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class ComparisonRow:
    """Scores for one seed: groove similarity and histogram entropy per model."""

    seed_id: str
    markov_gs: float
    markov_entropy: float
    rnn_gs: float
    rnn_entropy: float

    def __post_init__(self):
        for metric, top, shown in (("gs", 1, "1"), ("entropy", MAX_ENTROPY, "log2 12")):
            for name in (f"markov_{metric}", f"rnn_{metric}"):
                value = getattr(self, name)
                if not (-_BOUND_SLACK <= value <= top + _BOUND_SLACK):
                    raise ValueError(f"{name}={value} outside [0, {shown}]")


# the columns of comparison.csv and the keys of comparison.json's rows
CSV_HEADER = tuple(f.name for f in fields(ComparisonRow))


def win_fractions(rows: Sequence[ComparisonRow]) -> tuple[Fraction, Fraction]:
    """(GS wins, entropy wins) for the RNN, as exact fractions of the rows.

    Higher groove similarity wins; lower entropy wins (clearer tonality).
    Both comparisons are strict, so a tie is not a win.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    gs_wins = sum(1 for r in rows if r.rnn_gs > r.markov_gs)
    entropy_wins = sum(1 for r in rows if r.rnn_entropy < r.markov_entropy)
    return Fraction(gs_wins, len(rows)), Fraction(entropy_wins, len(rows))


def summary_line(rows: Sequence[ComparisonRow]) -> str:
    gs, entropy = win_fractions(rows)
    n = len(rows)
    return (
        f"RNN beats Markov on groove similarity for {float(gs) * 100:.1f}% of seeds "
        f"({int(gs * n)}/{n}) and on histogram entropy for "
        f"{float(entropy) * 100:.1f}% ({int(entropy * n)}/{n})."
    )


def write_comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for seed_id, *scores in map(astuple, rows):
        writer.writerow([seed_id, *(f"{score:.6f}" for score in scores)])
    return out.getvalue()


def read_comparison_csv(text: str) -> list[ComparisonRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty comparison table")
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(CSV_HEADER):
            raise ValueError(f"row {record!r} does not have {len(CSV_HEADER)} fields")
        seed_id, *scores = record
        rows.append(ComparisonRow(seed_id, *map(float, scores)))
    return rows


def rows_as_dicts(rows: Sequence[ComparisonRow]) -> list[dict]:
    return [asdict(row) for row in rows]


# chart geometry, shared by both renderers
_WIDTH = 640
_HEIGHT = 360
_MARGIN = 48
_SPAN_X = _WIDTH - 2 * _MARGIN
_SPAN_Y = _HEIGHT - 2 * _MARGIN


def _chart(title: str, groups: Mapping[str, Sequence[float]], marks, footer: Iterable[str] = ()) -> str:
    """The frame both charts share: header, title and axes, then each group's
    marks(index, values, color) followed by its legend label, then the footer."""
    x0, y0, x1, y1 = _MARGIN, _HEIGHT - _MARGIN, _WIDTH - _MARGIN, _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for i, (label, values) in enumerate(groups.items()):
        color = _PALETTE[i % len(_PALETTE)]
        parts += marks(i, values, color)
        parts.append(
            f'<text x="{x1 - 4}" y="{_MARGIN + 16 * (i + 1)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts += [*footer, "</svg>"]
    return "\n".join(parts) + "\n"


def line_chart_svg(title: str, series: Mapping[str, Sequence[float]]) -> str:
    """Multi-series line chart of values in [0, 1]; x is the index within each series."""
    longest = max((len(v) for v in series.values()), default=0)
    step = _SPAN_X / max(longest - 1, 1)

    def polyline(_, values, color):
        points = " ".join(
            f"{_MARGIN + j * step:.2f},{_HEIGHT - _MARGIN - v * _SPAN_Y:.2f}" for j, v in enumerate(values)
        )
        return [f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'] if values else []

    return _chart(title, series, polyline)


def bar_chart_svg(title: str, groups: Mapping[str, Sequence[float]], bin_labels: Iterable[str]) -> str:
    """Grouped bar chart: one cluster per bin, one bar per group within it."""
    labels = list(bin_labels)
    y_max = max((max(v, default=0.0) for v in groups.values()), default=0.0) or 1.0
    cluster = _SPAN_X / max(len(labels), 1)
    bar = cluster / (max(len(groups), 1) + 1)

    def bars(g, values, color):
        rects = []
        for j, value in enumerate(values):
            height = (value / y_max) * _SPAN_Y
            x = _MARGIN + j * cluster + (g + 0.5) * bar
            rects.append(
                f'<rect x="{x:.2f}" y="{_HEIGHT - _MARGIN - height:.2f}" width="{bar:.2f}" '
                f'height="{height:.2f}" fill="{color}"/>'
            )
        return rects

    footer = (
        f'<text x="{_MARGIN + (j + 0.5) * cluster:.2f}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{text}</text>'
        for j, text in enumerate(labels)
    )
    return _chart(title, groups, bars, footer)
