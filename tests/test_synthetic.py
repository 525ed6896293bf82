import hashlib
import random
from fractions import Fraction

import pytest

from jazzgen.synthetic import (
    BLUES_PITCH_CLASSES,
    DURATIONS,
    SEED_NOTES,
    TEMPO,
    TICKS_PER_QUARTER,
    make_phrase,
    make_seed_phrase,
    write_corpus,
    write_seeds,
)
from jazzgen.tokenizer import tokenize_line
from oracle import read_midi, tokenize


def test_phrase_fills_twelve_bars_exactly():
    line = make_phrase(random.Random("t1"))
    assert line.division == TICKS_PER_QUARTER
    assert len(line.pitches) == len(line.ticks)
    assert sum(line.ticks) == 48 * TICKS_PER_QUARTER


def test_phrase_durations_from_pool_except_final_truncation():
    line = make_phrase(random.Random("t2"))
    for length in line.ticks[:-1]:
        assert length in DURATIONS
    # the last one is cut short where the twelfth bar ends
    assert 0 < line.ticks[-1] <= max(DURATIONS)


def test_phrase_pitches_on_blues_scale_in_range():
    line = make_phrase(random.Random("t3"))
    pitched = [p for p in line.pitches if p is not None]
    assert pitched
    for pitch in pitched:
        assert pitch % 12 in BLUES_PITCH_CLASSES
        assert 48 <= pitch <= 84


def test_phrase_never_emits_adjacent_rests():
    for trial in range(10):
        pitches = make_phrase(random.Random(f"t4:{trial}")).pitches
        for prev, cur in zip(pitches, pitches[1:]):
            assert not (prev is None and cur is None)


def test_seed_phrase_is_sixteen_pitched_notes():
    line = make_seed_phrase(random.Random("t5"))
    assert len(line.ticks) == SEED_NOTES
    assert None not in line.pitches
    assert all(length in DURATIONS for length in line.ticks)
    assert len(tokenize_line(line)) == SEED_NOTES


def test_write_corpus_is_deterministic(tmp_path):
    a = write_corpus(tmp_path / "a", seed=5)
    b = write_corpus(tmp_path / "b", seed=5)
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_write_corpus_seed_changes_output(tmp_path):
    a = write_corpus(tmp_path / "a", seed=5, n_files=1)
    b = write_corpus(tmp_path / "b", seed=6, n_files=1)
    assert a[0].read_bytes() != b[0].read_bytes()


def test_corpus_files_round_trip(tmp_path):
    paths = write_corpus(tmp_path, seed=0)
    assert len(paths) == 20
    for path in paths:
        doc = read_midi(path.read_bytes())
        assert doc.tempo == TEMPO
        assert sum(e.duration for e in doc.events) == Fraction(48)


def test_seed_files_tokenize_to_sixteen(tmp_path):
    paths = write_seeds(tmp_path, seed=0)
    assert len(paths) == 8
    for path in paths:
        doc = read_midi(path.read_bytes())
        assert len(tokenize(doc.events)) == 16


# sha256 over each file's name and bytes, corpus then 16 seeds: the README
# quick start and the desk and sample benchmarks run on these files
SYNTHETIC_DIGESTS = {
    0: "730e95afd4b3543687bf0e15e40e5a745b6d464ed4aa426067f99de4b85a2396",
    1: "70fd41ab196ee3d28f34a96567e56b7de0167dee850c23a11e9ade216fd0998b",
}


@pytest.mark.parametrize("seed", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_bytes_are_pinned(tmp_path, seed):
    paths = write_corpus(tmp_path / "corpus", seed=seed) + write_seeds(tmp_path / "seeds", seed=seed, n_files=16)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SYNTHETIC_DIGESTS[seed]
