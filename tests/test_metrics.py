import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from jazzgen.metrics import GRID, MAX_ENTROPY, MetricError, PitchHistogram, evaluate_line, histogram_entropy
from jazzgen.midi_io import NoteEvent, TickLine
from jazzgen.tokenizer import tick_line
from oracle import GroovePattern, groove_similarity, mean_groove_similarity, pitch_class_histogram, tokenize


def contiguous(*pairs):
    """Build contiguous events from (pitch, duration) pairs."""
    events = []
    onset = Fraction(0)
    for pitch, duration in pairs:
        duration = Fraction(duration)
        events.append(NoteEvent(pitch, duration, onset))
        onset += duration
    return events


def pattern_from_indices(indices):
    bits = [0] * GRID
    for i in indices:
        bits[i] = 1
    return GroovePattern(tuple(bits))


def bar_pattern(events, bar=0, bar_length=Fraction(4)):
    """The groove pattern mean_groove_similarity gives bar `bar` of events.

    It is read from the GS of that bar against a probe bar after it: the
    pitched onsets up to the bar are kept, and against an empty probe bar a
    pattern P agrees in 64 - |P| slots; with one probe note exactly on slot
    k, in one more if k is in P and in one fewer if not.
    """
    step = bar_length / GRID
    end = (bar + 1) * bar_length
    notes = [NoteEvent(ev.pitch, step, ev.onset) for ev in events if not ev.is_rest and ev.onset < end]

    def agreement(*probe):
        _, series = mean_groove_similarity([*notes, *probe, NoteEvent(None, bar_length, end)], bar_length)
        return series[-1]

    empty = agreement()
    return GroovePattern(tuple(int(agreement(NoteEvent(60, step, end + k * step)) > empty) for k in range(GRID)))


def bar_count(events):
    """How many bars mean_groove_similarity tiles events into."""
    try:
        return len(mean_groove_similarity(events)[1]) + 1
    except MetricError as err:
        return int(str(err).rsplit(" ", 1)[1])


def grid_index_by_enumeration(onset, bar=Fraction(4)):
    """Independent oracle: scan all 64 slot positions for the nearest one,
    breaking distance ties toward the higher slot."""
    within = Fraction(onset) % bar
    best = None
    for i in range(GRID):
        slot = i * bar / GRID
        distance = abs(within - slot)
        if best is None or distance < best[0] or (distance == best[0] and i > best[1]):
            best = (distance, i)
    return best[1]


def test_pattern_validation():
    with pytest.raises(ValueError):
        GroovePattern((0,) * 63)
    with pytest.raises(ValueError):
        GroovePattern((0,) * 63 + (2,))


def test_empty_composition_has_no_bars():
    assert bar_count([]) == 0


def test_four_quarter_notes_hit_beat_positions():
    events = contiguous((60, 1), (62, 1), (64, 1), (65, 1))
    assert bar_count(events) == 1
    assert bar_pattern(events) == pattern_from_indices({0, 16, 32, 48})


def test_sextuplet_onset_rounds_to_slot_three():
    events = contiguous((None, Fraction(1, 6)), (60, Fraction(1, 6)), (None, Fraction(11, 3)))
    # onset 1/6 of a quarter: 64/24 = 2.67 rounds to 3
    assert bar_pattern(events) == pattern_from_indices({3})
    assert grid_index_by_enumeration(Fraction(1, 6)) == 3


@given(st.fractions(min_value=0, max_value=4).filter(lambda f: f.denominator <= 48))
def test_grid_quantization_matches_enumeration_oracle(onset):
    bar = math.floor(onset / 4)
    pattern = bar_pattern([NoteEvent(60, Fraction(1, 48), onset)], bar)
    hit = [i for i, bit in enumerate(pattern.bits) if bit]
    assert hit == [grid_index_by_enumeration(onset)]


def test_rests_set_no_bits():
    events = contiguous((None, 2), (60, 1), (None, 1))
    assert bar_pattern(events) == pattern_from_indices({32})


def test_notes_tile_into_later_bars():
    events = contiguous((60, 4), (62, 4), (64, 2))
    assert bar_count(events) == 3  # two full bars plus a partial one
    assert bar_pattern(events, 0) == pattern_from_indices({0})
    assert bar_pattern(events, 1) == pattern_from_indices({0})
    assert bar_pattern(events, 2) == pattern_from_indices({0})


def test_identical_patterns_score_one():
    p = pattern_from_indices({0, 7, 40})
    assert groove_similarity(p, p) == 1.0


def test_opposite_patterns_score_zero():
    ones = GroovePattern((1,) * GRID)
    zeros = GroovePattern((0,) * GRID)
    assert groove_similarity(ones, zeros) == 0.0


def test_four_bit_difference_scores_0_9375():
    a = pattern_from_indices({0, 1, 2, 3})
    b = pattern_from_indices(set())
    assert groove_similarity(a, b) == 0.9375


bits_strategy = st.tuples(*[st.integers(0, 1)] * GRID)


@given(bits_strategy, bits_strategy)
def test_similarity_symmetry_and_range(bits_a, bits_b):
    a, b = GroovePattern(bits_a), GroovePattern(bits_b)
    assert groove_similarity(a, b) == groove_similarity(b, a)
    assert 0.0 <= groove_similarity(a, b) <= 1.0
    assert groove_similarity(a, a) == 1.0


@given(bits_strategy, st.integers(0, GRID - 1))
def test_single_bit_flip_changes_similarity_by_exactly_one_slot(bits, position):
    a = GroovePattern(bits)
    flipped = list(bits)
    flipped[position] ^= 1
    b = GroovePattern(tuple(flipped))
    delta = abs(
        Fraction(groove_similarity(a, a)) - Fraction(groove_similarity(a, b))
    )
    assert delta == Fraction(1, GRID)


@given(bits_strategy, bits_strategy)
def test_groove_similarity_equals_evaluate_lines_score_of_the_bar_pair(bits_a, bits_b):
    # two bars at 16 ticks per quarter, so slot s of a bar is its tick s
    onsets = {tick for tick, bit in enumerate(bits_a + bits_b) if bit}
    assume(onsets)
    bounds = sorted({0, *onsets, 2 * GRID})  # a rest fills any gap before the first onset
    line = TickLine(
        16,
        tuple(60 if start in onsets else None for start in bounds[:-1]),
        tuple(end - start for start, end in zip(bounds, bounds[1:])),
    )
    gs = groove_similarity(GroovePattern(bits_a), GroovePattern(bits_b))
    assert evaluate_line("pair", line).gs_series == (gs,)


def test_mean_similarity_needs_two_bars():
    with pytest.raises(MetricError):
        mean_groove_similarity(contiguous((60, 2)))


def test_mean_similarity_identical_bars():
    events = contiguous(*[(60, 1)] * 8)  # two identical all-beats bars
    mean, series = mean_groove_similarity(events)
    assert mean == 1.0
    assert series == [1.0]


def test_all_quarter_notes_earn_a_perfect_score():
    # known metric limitation: an unbroken quarter-note stream has identical
    # bars, so the mean adjacent-bar similarity saturates at 1.0
    events = contiguous(*[(60 + i % 5, 1) for i in range(16)])
    mean, series = mean_groove_similarity(events)
    assert mean == 1.0
    assert series == [1.0, 1.0, 1.0]


def test_zero_then_full_bar_scores_zero():
    events = [NoteEvent(None, Fraction(4), Fraction(0))]
    onset = Fraction(4)
    for i in range(GRID):
        events.append(NoteEvent(60, Fraction(4, GRID), onset))
        onset += Fraction(4, GRID)
    mean, series = mean_groove_similarity(events)
    assert mean == 0.0
    assert series == [0.0]


def test_hand_averaged_three_bar_series():
    # bars: {0,16,32,48}, {0,16,32,48}, {0,16,32,48,1,2,3,4} -> GS 1.0 then 0.9375
    quarters = [(60, 1), (62, 1), (64, 1), (65, 1)]
    third_bar = [
        (60, Fraction(1, 16)), (62, Fraction(1, 16)), (64, Fraction(1, 16)),
        (65, Fraction(1, 16)), (67, Fraction(3, 4)), (69, 1), (71, 1), (72, 1),
    ]
    events = contiguous(*quarters, *quarters, *third_bar)
    mean, series = mean_groove_similarity(events)
    assert series == [1.0, 0.9375]
    assert mean == 0.96875


def test_histogram_all_c_notes():
    events = contiguous((60, 1), (48, 1), (72, 1))
    histogram = pitch_class_histogram(events)
    assert histogram.h == (1.0,) + (0.0,) * 11


def test_histogram_uniform_classes():
    events = contiguous(*[(60 + i, 1) for i in range(12)])
    histogram = pitch_class_histogram(events)
    assert histogram.h == (pytest.approx(1 / 12),) * 12


def test_histogram_three_c_one_g():
    events = contiguous((60, 1), (60, 1), (72, 1), (67, 1))
    histogram = pitch_class_histogram(events)
    assert histogram.h[0] == 0.75
    assert histogram.h[7] == 0.25
    assert sum(histogram.h) == 1.0


def test_histogram_ignores_rests_and_durations():
    events = contiguous((60, Fraction(1, 4)), (None, 3), (67, 2))
    histogram = pitch_class_histogram(events)
    assert histogram.h[0] == 0.5
    assert histogram.h[7] == 0.5


def test_histogram_sentinel_for_rest_only():
    histogram = pitch_class_histogram(contiguous((None, 4)))
    assert histogram.is_sentinel
    with pytest.warns(UserWarning):
        assert histogram_entropy(histogram) == 0.0


def test_histogram_validation():
    with pytest.raises(ValueError):
        PitchHistogram((0.5,) * 12)  # sums to 6
    with pytest.raises(ValueError):
        PitchHistogram((1.0,) * 6)  # wrong length
    with pytest.raises(ValueError):
        PitchHistogram((-0.1, 1.1) + (0.0,) * 10)


def test_entropy_single_class_is_zero():
    assert histogram_entropy(PitchHistogram((1.0,) + (0.0,) * 11)) == 0.0


def test_entropy_uniform_is_log2_12():
    histogram = pitch_class_histogram(contiguous(*[(60 + i, 1) for i in range(12)]))
    assert histogram_entropy(histogram) == pytest.approx(MAX_ENTROPY, abs=1e-12)
    assert MAX_ENTROPY == pytest.approx(3.5849625007211562, abs=1e-15)


def test_entropy_two_even_classes_is_one_bit():
    assert histogram_entropy(PitchHistogram((0.5, 0.5) + (0.0,) * 10)) == 1.0


counts_strategy = st.lists(st.integers(0, 20), min_size=12, max_size=12).filter(
    lambda counts: sum(counts) > 0
)


@given(counts_strategy)
def test_entropy_bounds(counts):
    total = sum(counts)
    histogram = PitchHistogram(tuple(float(Fraction(c, total)) for c in counts))
    entropy = histogram_entropy(histogram)
    assert -1e-12 <= entropy <= MAX_ENTROPY + 1e-12
    uniform = len(set(counts)) == 1
    assert (abs(entropy - MAX_ENTROPY) < 1e-9) == uniform


@given(counts_strategy, st.permutations(range(12)))
def test_entropy_permutation_invariance(counts, order):
    total = sum(counts)
    h = tuple(float(Fraction(c, total)) for c in counts)
    shuffled = tuple(h[i] for i in order)
    assert histogram_entropy(PitchHistogram(h)) == pytest.approx(
        histogram_entropy(PitchHistogram(shuffled)), abs=1e-12
    )


@given(st.lists(st.tuples(st.integers(12, 115), st.sampled_from([1, 2])), min_size=1, max_size=20))
def test_histogram_octave_invariance(pairs):
    base = contiguous(*pairs)
    up = contiguous(*[(p + 12, d) for p, d in pairs])
    down = contiguous(*[(p - 12, d) for p, d in pairs])
    assert pitch_class_histogram(base) == pitch_class_histogram(up)
    assert pitch_class_histogram(base) == pitch_class_histogram(down)


def test_evaluate_line_bundles_everything():
    events = contiguous(*[(60, 1), (62, 1), (64, 1), (67, 1)] * 2)
    report = evaluate_line("demo", tick_line(tokenize(events)))
    assert report.composition_id == "demo"
    assert (report.mean_gs, list(report.gs_series)) == mean_groove_similarity(events) == (1.0, [1.0])
    assert report.histogram == pitch_class_histogram(events).h
    # four equally likely classes
    assert report.entropy == histogram_entropy(pitch_class_histogram(events)) == pytest.approx(2.0)
