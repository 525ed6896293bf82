"""Reproducible stand-in corpus: seeded random walks over a blues scale.

The real training data (transcribed solos) is not redistributable, so the
test suite and the example pipeline run on generated material of the same
shape: 20 monophonic 12-bar files plus 8 sixteen-note seed files.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from .midi_io import NoteEvent, event_line, lcm_time_division, write_line

BLUES_PITCH_CLASSES = (0, 3, 5, 6, 7, 10)
DURATIONS = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 6),
    Fraction(2, 3),
)
CORPUS_FILES = 20
CORPUS_BARS = 12
SEED_FILES = 8
SEED_NOTES = 16
TEMPO = 240

# every pitch in the two-octave playing range that lands on the scale
_SCALE = tuple(p for p in range(48, 85) if p % 12 in BLUES_PITCH_CLASSES)
REST_PROBABILITY = 0.1


def _walk_pitches(rng: random.Random):
    """Endless random walk over the scale ladder, steps of at most two degrees."""
    index = rng.randrange(len(_SCALE))
    while True:
        yield _SCALE[index]
        step = rng.choice((-2, -1, -1, 1, 1, 2))
        index = min(max(index + step, 0), len(_SCALE) - 1)


def make_phrase(rng: random.Random, bars: int = CORPUS_BARS) -> tuple[NoteEvent, ...]:
    """One monophonic phrase filling exactly `bars` 4/4 measures."""
    total = Fraction(4) * bars
    events: list[NoteEvent] = []
    onset = Fraction(0)
    pitch_iter = _walk_pitches(rng)
    was_rest = False
    while onset < total:
        duration = min(rng.choice(DURATIONS), total - onset)
        # no consecutive rests: adjacent rests do not survive a MIDI round trip
        if not was_rest and rng.random() < REST_PROBABILITY:
            events.append(NoteEvent.rest(duration, onset))
            was_rest = True
        else:
            events.append(NoteEvent(next(pitch_iter), duration, onset))
            was_rest = False
        onset += duration
    return tuple(events)


def make_seed_phrase(rng: random.Random, n_notes: int = SEED_NOTES) -> tuple[NoteEvent, ...]:
    """Sixteen pitched notes, no rests, for use as a generation seed."""
    events = []
    onset = Fraction(0)
    walk = _walk_pitches(rng)
    for _ in range(n_notes):
        duration = rng.choice(DURATIONS)
        events.append(NoteEvent(next(walk), duration, onset))
        onset += duration
    return tuple(events)


def _midi(events: tuple[NoteEvent, ...]) -> bytes:
    """A phrase as SMF bytes at the coarsest division that holds it."""
    return write_line(event_line(events, lcm_time_division(events)), TEMPO)


def write_corpus(directory: Path | str, seed: int = 0, n_files: int = CORPUS_FILES) -> list[Path]:
    """Write `n_files` corpus MIDI files into `directory`, return their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_files):
        # string seeds hash stably across processes, tuples do not
        rng = random.Random(f"{seed}:corpus:{i}")
        path = directory / f"corpus_{i + 1:02d}.mid"
        path.write_bytes(_midi(make_phrase(rng)))
        paths.append(path)
    return paths


def write_seeds(directory: Path | str, seed: int = 0, n_files: int = SEED_FILES) -> list[Path]:
    """Write `n_files` sixteen-note seed MIDI files into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_files):
        rng = random.Random(f"{seed}:seed:{i}")
        path = directory / f"seed_{i + 1}.mid"
        path.write_bytes(_midi(make_seed_phrase(rng)))
        paths.append(path)
    return paths
