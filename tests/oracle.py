"""Exact-rational and per-window references for the package's tick pipeline.

The package reads, renders, writes and scores melodies on integer ticks
(`read_line`, `tokenize_line`, `tick_line`, `write_line`, `evaluate_line`)
and samples the network as a batched wavefront (`generate_rnn`). The
functions here compute the same things the plain way, on `Fraction` events
and one window at a time, and the tests require exact agreement. The
scores reuse the package's integer core (`_bar_masks`, `_groove`,
`_histogram`), so there is one scoring rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from jazzgen.metrics import BAR_LENGTH, GRID, PitchHistogram, _bar_masks, _groove, _histogram
from jazzgen.midi_io import MidiDocument, NoteEvent, TickLine, read_line
from jazzgen.neural import lstm_forward, softmax
from jazzgen.rnn import Network
from jazzgen.tokenizer import render_token, tick_line


def events(line: TickLine) -> tuple[NoteEvent, ...]:
    """The line as exact-rational events, onsets accumulated from zero."""
    result, onset = [], Fraction(0)
    for pitch, length in zip(line.pitches, line.ticks):
        result.append(NoteEvent(pitch, Fraction(length, line.division), onset))
        onset = result[-1].end
    return tuple(result)


def read_midi(data: bytes) -> MidiDocument:
    """read_line's line and tempo as a document of exact-rational events."""
    line, tempo = read_line(data)
    return MidiDocument(line.division, tempo, events(line))


def tokenize(notes: Iterable[NoteEvent]) -> list[str]:
    return [render_token(ev.pitch, ev.duration) for ev in notes]


def detokenize(tokens: Iterable[str]) -> tuple[NoteEvent, ...]:
    """Tokens back to contiguous events, onsets accumulated from zero."""
    return events(tick_line(tokens))


@dataclass(frozen=True)
class GroovePattern:
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != GRID:
            raise ValueError(f"groove pattern needs {GRID} bits, got {len(self.bits)}")
        if any(bit not in (0, 1) for bit in self.bits):
            raise ValueError("groove pattern bits must be 0 or 1")


def groove_similarity(a: GroovePattern, b: GroovePattern) -> float:
    """1 − (1/64)·Σ XOR, by evaluate's count on the patterns as 64-bit masks (slot s = bit s)."""
    return _groove([sum(bit << slot for slot, bit in enumerate(p.bits)) for p in (a, b)])[0]


def _on_ticks(notes: Sequence[NoteEvent]) -> tuple[int, int, list[int]]:
    """(division, span, pitched onsets) on the coarsest grid holding every
    onset and end."""
    division = math.lcm(*{d for ev in notes for d in (ev.onset.denominator, ev.end.denominator)})

    def ticks(value: Fraction) -> int:
        return value.numerator * (division // value.denominator)

    span = ticks(max(ev.end for ev in notes)) if notes else 0
    return division, span, [ticks(ev.onset) for ev in notes if not ev.is_rest]


def mean_groove_similarity(
    notes: Iterable[NoteEvent], bar_length: Fraction = BAR_LENGTH
) -> tuple[float, list[float]]:
    """Mean and series of GS over adjacent bar pairs of arbitrary events,
    gaps and overlaps allowed; needs >= 2 bars."""
    division, span, onsets = _on_ticks(list(notes))
    return _groove(_bar_masks(onsets, span, division, bar_length))


def pitch_class_histogram(notes: Iterable[NoteEvent]) -> PitchHistogram:
    """Onset-count histogram over the 12 pitch classes; rests are ignored.

    A composition with no pitched notes yields the all-zero sentinel.
    """
    return _histogram(ev.pitch for ev in notes if not ev.is_rest)


def forward(net: Network, windows, training: bool, rng: np.random.Generator | None = None):
    """The network on whole windows of integer token indices (B, L), each
    LSTM layer over every timestep; returns (logits, head cache), as
    Network.head does."""
    t = net.tensors
    hs1, _ = lstm_forward(windows, t["lstm1/w"], t["lstm1/u"], t["lstm1/b"])
    hs2, _ = lstm_forward(hs1, t["lstm2/w"], t["lstm2/u"], t["lstm2/b"])
    return net.head(hs2[:, -1, :], training, rng)


def next_distribution(net: Network, context: Sequence[int], temperature: float) -> np.ndarray:
    """Softmax over the next token given a full window of indices."""
    logits, _ = forward(net, np.array([context], dtype=np.int64), training=False)
    return softmax(logits[0].astype(np.float64), temperature)
