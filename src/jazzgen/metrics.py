"""Groove pattern similarity and pitch class entropy of a tokenized line.

A groove pattern is a 64-slot binary onset grid per bar; similarity between
two bars is one minus the mean XOR of their grids.  The pitch histogram
counts note onsets per pitch class (octave-free), and its base-2 entropy
summarizes pitch diversity.

Every score comes from one integer core: onsets are ticks on a grid of
`division` ticks per quarter note, bars are 64-bit masks and disagreements
are popcounts.  A tokenized line arrives on that grid already, and
`evaluate_line` scores the pipeline's generations there.  Floats appear only
in returned values: each GS value and histogram entry is the correctly
rounded value of an exact ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .midi_io import TickLine

GRID = 64
PITCH_CLASSES = 12
BAR_LENGTH = Fraction(4)  # quarter notes per 4/4 bar
MAX_ENTROPY = math.log2(PITCH_CLASSES)


class MetricError(ValueError):
    """Metric is undefined for this input (e.g. fewer than two bars)."""


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


def evaluate_line(composition_id: str, line: TickLine, bar_length: Fraction = BAR_LENGTH) -> MetricReport:
    """Mean GS over adjacent bar pairs with its series (needs >= 2 bars), the
    pitch class histogram of the note onsets (rests ignored) and its entropy
    of a tokenized line."""
    starts = list(accumulate(line.ticks, initial=0))
    onsets = [start for start, pitch in zip(starts, line.pitches) if pitch is not None]
    mean_gs, series = _groove(_bar_masks(onsets, starts[-1], line.division, bar_length))
    histogram = _histogram(pitch for pitch in line.pitches if pitch is not None)
    return MetricReport(
        composition_id=composition_id,
        mean_gs=mean_gs,
        gs_series=tuple(series),
        histogram=histogram.h,
        entropy=histogram_entropy(histogram),
    )
