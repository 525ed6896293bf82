"""Groove pattern similarity and pitch class entropy over note events.

A groove pattern is a 64-slot binary onset grid per bar; similarity between
two bars is one minus the mean XOR of their grids.  The pitch histogram
counts note onsets per pitch class (octave-free), and its base-2 entropy
summarizes pitch diversity.  Positions and scores are accumulated as exact
rationals; floats appear only in returned values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .midi_io import NoteEvent

GRID = 64
PITCH_CLASSES = 12
BAR_LENGTH = Fraction(4)  # quarter notes per 4/4 bar
MAX_ENTROPY = math.log2(PITCH_CLASSES)


class MetricError(ValueError):
    """Metric is undefined for this input (e.g. fewer than two bars)."""


@dataclass(frozen=True)
class GroovePattern:
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != GRID:
            raise ValueError(f"groove pattern needs {GRID} bits, got {len(self.bits)}")
        if any(bit not in (0, 1) for bit in self.bits):
            raise ValueError("groove pattern bits must be 0 or 1")


@dataclass(frozen=True)
class PitchHistogram:
    h: tuple[float, ...]

    def __post_init__(self):
        if len(self.h) != PITCH_CLASSES:
            raise ValueError(f"histogram needs {PITCH_CLASSES} entries, got {len(self.h)}")
        if any(value < 0 for value in self.h):
            raise ValueError("histogram entries must be nonnegative")
        total = sum(self.h)
        if total != 0 and abs(total - 1.0) > 1e-12:
            raise ValueError(f"histogram must sum to 1 (or be the empty sentinel), got {total}")

    @property
    def is_sentinel(self) -> bool:
        return all(value == 0 for value in self.h)


def _bar_and_slot(onset: Fraction, bar_length: Fraction) -> tuple[int, int]:
    """Bar holding onset, and the nearest of 64 evenly spaced slots within it,
    ties rounding up, clamped to 63.

    onset / bar_length = num / den exactly; divmod splits it into the bar and
    rem / den, and floor(GRID * rem / den + 1/2) is one integer division.
    """
    num = onset.numerator * bar_length.denominator
    den = onset.denominator * bar_length.numerator
    bar, rem = divmod(num, den)
    return bar, min((2 * GRID * rem + den) // (2 * den), GRID - 1)


def bar_patterns(events: Sequence[NoteEvent], bar_length: Fraction = BAR_LENGTH) -> list[GroovePattern]:
    """One pattern per bar, tiled from 0; a trailing partial bar counts."""
    events = list(events)
    if not events:
        return []
    span = max(event.end for event in events)
    n_bars = math.ceil(span / bar_length)
    bars = [[0] * GRID for _ in range(n_bars)]
    for event in events:
        if event.is_rest:
            continue
        bar, slot = _bar_and_slot(event.onset, bar_length)
        bars[bar][slot] = 1
    return [GroovePattern(tuple(bits)) for bits in bars]


def groove_similarity(a: GroovePattern, b: GroovePattern) -> float:
    """1 − (1/64)·Σ XOR, computed exactly before the float conversion."""
    if len(a.bits) != len(b.bits):
        raise ValueError("groove patterns differ in dimension")
    disagreements = sum(x ^ y for x, y in zip(a.bits, b.bits))
    return float(1 - Fraction(disagreements, GRID))


def mean_groove_similarity(
    events: Sequence[NoteEvent], bar_length: Fraction = BAR_LENGTH
) -> tuple[float, list[float]]:
    """Mean and series of GS over adjacent bar pairs; needs >= 2 bars."""
    patterns = bar_patterns(events, bar_length)
    if len(patterns) < 2:
        raise MetricError(
            f"groove similarity needs at least 2 bars, composition has {len(patterns)}"
        )
    series = [
        groove_similarity(patterns[i], patterns[i + 1]) for i in range(len(patterns) - 1)
    ]
    mean = float(sum(Fraction(value) for value in series) / len(series))
    return mean, series


def pitch_class_histogram(
    events: Iterable[NoteEvent],
    window: tuple[Fraction, Fraction] | None = None,
) -> PitchHistogram:
    """Onset-count histogram over the 12 pitch classes; rests are ignored.

    window, when given, restricts to events with onset in [start, end).
    A composition with no pitched notes yields the all-zero sentinel.
    """
    counts = [0] * PITCH_CLASSES
    for event in events:
        if event.is_rest:
            continue
        if window is not None and not window[0] <= event.onset < window[1]:
            continue
        counts[event.pitch % PITCH_CLASSES] += 1
    total = sum(counts)
    if total == 0:
        return PitchHistogram((0.0,) * PITCH_CLASSES)
    return PitchHistogram(tuple(float(Fraction(count, total)) for count in counts))


def histogram_entropy(histogram: PitchHistogram) -> float:
    """H = −Σ h_i · log2 h_i with 0·log 0 = 0; the empty sentinel scores 0."""
    if histogram.is_sentinel:
        warnings.warn("entropy of an empty composition is reported as 0")
        return 0.0
    return -sum(value * math.log2(value) for value in histogram.h if value > 0)


@dataclass(frozen=True)
class MetricReport:
    composition_id: str
    mean_gs: float
    gs_series: tuple[float, ...]
    histogram: tuple[float, ...]
    entropy: float


def evaluate_events(
    composition_id: str,
    events: Sequence[NoteEvent],
    bar_length: Fraction = BAR_LENGTH,
) -> MetricReport:
    mean_gs, series = mean_groove_similarity(events, bar_length)
    histogram = pitch_class_histogram(events)
    return MetricReport(
        composition_id=composition_id,
        mean_gs=mean_gs,
        gs_series=tuple(series),
        histogram=histogram.h,
        entropy=histogram_entropy(histogram),
    )
