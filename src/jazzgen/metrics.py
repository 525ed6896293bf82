"""Groove pattern similarity and pitch class entropy over note events.

A groove pattern is a 64-slot binary onset grid per bar; similarity between
two bars is one minus the mean XOR of their grids.  The pitch histogram
counts note onsets per pitch class (octave-free), and its base-2 entropy
summarizes pitch diversity.

Every score comes from one integer core: onsets are ticks on a grid of
`division` ticks per quarter note, bars are 64-bit masks and disagreements
are popcounts.  A tokenized line arrives on that grid already (`evaluate_line`);
arbitrary events, gaps and overlaps included, are put on the coarsest grid
that holds their onsets and ends first.  Floats appear only in returned
values: each GS value and histogram entry is the correctly rounded value
of an exact ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .midi_io import NoteEvent, TickLine

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


def _bar_masks(onsets: Iterable[int], span: int, division: int, bar_length: Fraction) -> list[int]:
    """One 64-bit onset mask per bar, tiled from tick 0 to span; a trailing
    partial bar counts.

    Tick t lies t * b / (division * a) bars in, for bar_length a / b; divmod
    splits that into the bar and rem / den, and the nearest of 64 evenly
    spaced slots, ties rounding up, is floor(GRID * rem / den + 1/2),
    clamped to 63.
    """
    den = division * bar_length.numerator
    scale = bar_length.denominator
    masks = [0] * -(-span * scale // den)
    for tick in onsets:
        bar, rem = divmod(tick * scale, den)
        slot = (2 * GRID * rem + den) // (2 * den)
        masks[bar] |= 1 << (slot if slot < GRID else GRID - 1)
    return masks


def _groove(masks: Sequence[int]) -> tuple[float, list[float]]:
    """Mean and series of GS over adjacent bar pairs; needs >= 2 bars."""
    if len(masks) < 2:
        raise MetricError(f"groove similarity needs at least 2 bars, composition has {len(masks)}")
    agreements = [GRID - (a ^ b).bit_count() for a, b in zip(masks, masks[1:])]
    return sum(agreements) / (GRID * len(agreements)), [count / GRID for count in agreements]


def _histogram(pitches: Iterable[int]) -> PitchHistogram:
    counts = [0] * PITCH_CLASSES
    for pitch in pitches:
        counts[pitch % PITCH_CLASSES] += 1
    total = sum(counts)
    if total == 0:
        return PitchHistogram((0.0,) * PITCH_CLASSES)
    return PitchHistogram(tuple(count / total for count in counts))


def _on_ticks(events: Sequence[NoteEvent]) -> tuple[int, int, list[int], list[int]]:
    """(division, span, pitched onsets, their pitches) on the coarsest grid
    holding every onset and end."""
    division = math.lcm(*{d for ev in events for d in (ev.onset.denominator, ev.end.denominator)})

    def ticks(value: Fraction) -> int:
        return value.numerator * (division // value.denominator)

    pitched = [ev for ev in events if not ev.is_rest]
    span = ticks(max(ev.end for ev in events)) if events else 0
    return division, span, [ticks(ev.onset) for ev in pitched], [ev.pitch for ev in pitched]


def bar_patterns(events: Sequence[NoteEvent], bar_length: Fraction = BAR_LENGTH) -> list[GroovePattern]:
    """One pattern per bar, tiled from 0; a trailing partial bar counts."""
    division, span, onsets, _ = _on_ticks(list(events))
    return [
        GroovePattern(tuple((mask >> slot) & 1 for slot in range(GRID)))
        for mask in _bar_masks(onsets, span, division, bar_length)
    ]


def groove_similarity(a: GroovePattern, b: GroovePattern) -> float:
    """1 − (1/64)·Σ XOR, computed exactly before the float conversion."""
    if len(a.bits) != len(b.bits):
        raise ValueError("groove patterns differ in dimension")
    disagreements = sum(x ^ y for x, y in zip(a.bits, b.bits))
    return (GRID - disagreements) / GRID


def mean_groove_similarity(
    events: Sequence[NoteEvent], bar_length: Fraction = BAR_LENGTH
) -> tuple[float, list[float]]:
    """Mean and series of GS over adjacent bar pairs; needs >= 2 bars."""
    division, span, onsets, _ = _on_ticks(list(events))
    return _groove(_bar_masks(onsets, span, division, bar_length))


def pitch_class_histogram(events: Iterable[NoteEvent]) -> PitchHistogram:
    """Onset-count histogram over the 12 pitch classes; rests are ignored.

    A composition with no pitched notes yields the all-zero sentinel.
    """
    return _histogram(event.pitch for event in events if not event.is_rest)


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


def _report(
    composition_id: str, division: int, span: int, onsets: Sequence[int], pitches: Sequence[int],
    bar_length: Fraction,
) -> MetricReport:
    mean_gs, series = _groove(_bar_masks(onsets, span, division, bar_length))
    histogram = _histogram(pitches)
    return MetricReport(
        composition_id=composition_id,
        mean_gs=mean_gs,
        gs_series=tuple(series),
        histogram=histogram.h,
        entropy=histogram_entropy(histogram),
    )


def evaluate_line(composition_id: str, line: TickLine, bar_length: Fraction = BAR_LENGTH) -> MetricReport:
    """Scores of a tokenized line, equal to evaluate_events on its events."""
    starts = list(accumulate(line.ticks, initial=0))
    onsets = [start for start, pitch in zip(starts, line.pitches) if pitch is not None]
    pitches = [pitch for pitch in line.pitches if pitch is not None]
    return _report(composition_id, line.division, starts[-1], onsets, pitches, bar_length)


def evaluate_events(
    composition_id: str,
    events: Sequence[NoteEvent],
    bar_length: Fraction = BAR_LENGTH,
) -> MetricReport:
    return _report(composition_id, *_on_ticks(list(events)), bar_length)
