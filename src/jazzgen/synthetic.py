"""Reproducible stand-in corpus: seeded random walks over a blues scale.

The real training data (transcribed solos) is not redistributable, so the
test suite and the example pipeline run on generated material of the same
shape: 20 monophonic 12-bar files plus 8 sixteen-note seed files. Phrases
are drawn on a grid of TICKS_PER_QUARTER ticks, which holds every pooled
duration.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from .midi_io import TickLine, write_line

BLUES_PITCH_CLASSES = (0, 3, 5, 6, 7, 10)
TICKS_PER_QUARTER = 12
# 1, 1/2, 1/4, 1/3, 1/6 and 2/3 of a quarter note, in ticks
DURATIONS = (12, 6, 3, 4, 2, 8)
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


def make_phrase(rng: random.Random) -> TickLine:
    """One monophonic phrase filling exactly CORPUS_BARS 4/4 measures."""
    remaining = 4 * TICKS_PER_QUARTER * CORPUS_BARS
    pitches: list[int | None] = []
    ticks: list[int] = []
    walk = _walk_pitches(rng)
    while remaining > 0:
        length = min(rng.choice(DURATIONS), remaining)
        # no consecutive rests: adjacent rests do not survive a MIDI round trip
        rest = pitches[-1:] != [None] and rng.random() < REST_PROBABILITY
        pitches.append(None if rest else next(walk))
        ticks.append(length)
        remaining -= length
    return TickLine(TICKS_PER_QUARTER, tuple(pitches), tuple(ticks))


def make_seed_phrase(rng: random.Random) -> TickLine:
    """SEED_NOTES pitched notes, no rests, for use as a generation seed."""
    walk = _walk_pitches(rng)
    ticks, pitches = zip(*((rng.choice(DURATIONS), next(walk)) for _ in range(SEED_NOTES)))
    return TickLine(TICKS_PER_QUARTER, pitches, ticks)


def _midi(line: TickLine) -> bytes:
    """A phrase as SMF bytes at the coarsest division that holds it."""
    step = math.gcd(line.division, *line.ticks)
    coarse = TickLine(line.division // step, line.pitches, tuple(length // step for length in line.ticks))
    return write_line(coarse, TEMPO)


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
