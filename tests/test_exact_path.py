"""The integer tick path against plain-Fraction references.

The program puts a token list on an integer tick grid once and takes both
the MIDI bytes and the scores from there; ingest reads MIDI onto the same
kind of grid and renders tokens from its ticks. The references below and the
event functions of tests/oracle.py are the NoteEvent/Fraction computations
that path replaced, kept in the tests the way tests/test_neural.py keeps the
per-cell LSTM: every result must agree exactly, errors and warnings included.
"""

import math
import random
import struct
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jazzgen.metrics import (
    GRID,
    MetricError,
    MetricReport,
    evaluate_line,
    histogram_entropy,
)
from jazzgen.midi_io import (
    MAX_DIVISION,
    EmptyTrackError,
    MidiDocument,
    NoteEvent,
    TickResolutionError,
    encode_vlq,
    lcm_time_division,
    read_line,
    write_line,
    write_midi,
)
from jazzgen.synthetic import write_corpus, write_seeds
from jazzgen.tokenizer import TokenError, parse_token, render_token, tick_line, tokenize_line
from oracle import detokenize, mean_groove_similarity, pitch_class_histogram, read_midi, tokenize

TRIPLETS = tuple(Fraction(n, d) for n, d in ((1, 3), (2, 3), (4, 3), (1, 6), (5, 6), (1, 12)))
DOTTED = tuple(Fraction(n, d) for n, d in ((3, 16), (3, 8), (3, 4), (3, 2), (3, 1)))
durations = st.one_of(
    st.builds(Fraction, st.integers(1, 16), st.sampled_from((1, 2, 4, 8, 16, 32, 64, 5, 7))),
    st.sampled_from(TRIPLETS),
    st.sampled_from(DOTTED),
)
pitches = st.one_of(st.none(), st.integers(0, 127))
notes = st.lists(st.tuples(pitches, durations), min_size=1, max_size=40)
BAR_LENGTHS = (Fraction(4), Fraction(3), Fraction(7, 2), Fraction(5, 3), Fraction(6))
bar_lengths = st.sampled_from(BAR_LENGTHS)

# durations of generated token lists: decimals, triplets and sextuplets
DECIMALS = tuple(Fraction(n, d) for d in (1, 2, 4, 8, 16) for n in range(1, 9))
LINE_DURATIONS = DECIMALS + TRIPLETS + DOTTED + (Fraction(7, 6), Fraction(5, 3))
BAD_TOKENS = ("C4_0.50", "H4_1.0", "C4", "C4_2/4", "R_0.0", "G#9_1.0")
OVERFLOW_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23)


def reference_events(pairs):
    """(pitch, duration, onset) with onsets summed from zero."""
    events, onset = [], Fraction(0)
    for pitch, duration in pairs:
        events.append((pitch, duration, onset))
        onset = onset + duration
    return events


def reference_detokenize(texts):
    """Token texts to (pitch, duration, onset), naming the first bad token."""
    pairs = []
    for position, text in enumerate(texts):
        try:
            pairs.append(parse_token(text))
        except TokenError as err:
            raise TokenError(f"token {position} ({text!r}): {err}") from None
    return reference_events(pairs)


def reference_merged(events):
    """Adjacent rests summed into one, as an SMF stream would carry them."""
    merged = []
    for pitch, duration, onset in events:
        if pitch is None and merged and merged[-1][0] is None:
            merged[-1] = (None, merged[-1][1] + duration, merged[-1][2])
        else:
            merged.append((pitch, duration, onset))
    return merged


def reference_division(events):
    """Running lcm of duration and onset denominators, capped at the SMF field."""
    division = 1
    for _, duration, onset in events:
        division = math.lcm(division, duration.denominator, onset.denominator)
        if division > MAX_DIVISION:
            raise TickResolutionError(
                f"time division {division} overflows the 15-bit SMF field (max {MAX_DIVISION})"
            )
    return division


def reference_ticks(value, division):
    scaled = value * division
    return int(scaled) if scaled.denominator == 1 else None


def reference_write_midi(division, tempo, events):
    track = bytearray(encode_vlq(0) + bytes([0xFF, 0x51, 0x03]) + round(60_000_000 / tempo).to_bytes(3, "big"))
    cursor = 0
    for pitch, duration, onset in events:
        if pitch is None:
            continue
        on = reference_ticks(onset, division)
        off = reference_ticks(onset + duration, division)
        track += encode_vlq(on - cursor) + bytes([0x90, pitch, 64])
        track += encode_vlq(off - on) + bytes([0x80, pitch, 0])
        cursor = off
    end = events[-1][2] + events[-1][1] if events else Fraction(0)
    track += encode_vlq(reference_ticks(end, division) - cursor) + bytes([0xFF, 0x2F, 0x00])
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)


def reference_render(texts, tempo):
    """MIDI bytes of a token list, the way the event path rendered them."""
    events = reference_detokenize(texts)
    return reference_write_midi(reference_division(events), tempo, reference_merged(events))


def reference_grid_index(onset, bar_length):
    scaled = GRID * (onset % bar_length) / bar_length
    return min(math.floor(scaled + Fraction(1, 2)), GRID - 1)


def reference_bar_bits(events, bar_length):
    n_bars = math.ceil(max(onset + duration for _, duration, onset in events) / bar_length)
    bars = [[0] * GRID for _ in range(n_bars)]
    for pitch, _, onset in events:
        if pitch is not None:
            bars[math.floor(onset / bar_length)][reference_grid_index(onset, bar_length)] = 1
    return [tuple(bits) for bits in bars]


def reference_report(composition_id, events, bar_length):
    """GS and PCH entropy of (pitch, duration, onset) events, in Fractions."""
    bars = reference_bar_bits(events, bar_length) if events else []
    if len(bars) < 2:
        raise MetricError(f"groove similarity needs at least 2 bars, composition has {len(bars)}")
    series = [float(1 - Fraction(sum(x ^ y for x, y in zip(a, b)), GRID)) for a, b in zip(bars, bars[1:])]
    mean = float(sum(Fraction(value) for value in series) / len(series))
    counts = [0] * 12
    for pitch, _, _ in events:
        if pitch is not None:
            counts[pitch % 12] += 1
    total = sum(counts)
    if total == 0:
        histogram = (0.0,) * 12
        warnings.warn("entropy of an empty composition is reported as 0")
        entropy = 0.0
    else:
        histogram = tuple(float(Fraction(count, total)) for count in counts)
        entropy = -sum(value * math.log2(value) for value in histogram if value > 0)
    return MetricReport(composition_id, mean, tuple(series), histogram, entropy)


def outcome(compute):
    """What compute() returns or raises, with the warnings it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", compute())
        except (MetricError, TickResolutionError, TokenError) as err:
            result = ("error", type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def random_texts(rnd, length, durations=LINE_DURATIONS):
    return [
        render_token(None if rnd.random() < 0.15 else rnd.randint(0, 127), rnd.choice(durations))
        for _ in range(length)
    ]


def public_report(composition_id, events, bar_length):
    """The scores of events from the public event functions."""
    mean, series = mean_groove_similarity(events, bar_length)
    histogram = pitch_class_histogram(events)
    return MetricReport(composition_id, mean, tuple(series), histogram.h, histogram_entropy(histogram))


def marks(onset, bar_length, bar, slot):
    """Whether mean_groove_similarity puts a lone note at onset on (bar, slot).

    A probe note exactly on that slot one bar later then agrees with it, and
    only the empty bar before the note's, if any, disagrees with it, in one
    slot; any other bar or slot gives another GS series.
    """
    step = bar_length / GRID
    after = (bar + 1) * bar_length
    events = [NoteEvent(60, step, onset), NoteEvent(62, step, after + slot * step), NoteEvent(None, bar_length, after)]
    _, series = mean_groove_similarity(events, bar_length)
    return series == [1.0] * (bar - 1) + [1 - 1 / GRID] * (bar > 0) + [1.0]


@settings(max_examples=200, deadline=None)
@given(notes)
def test_detokenize_matches_fraction_reference(pairs):
    events = detokenize([render_token(pitch, duration) for pitch, duration in pairs])
    assert [(ev.pitch, ev.duration, ev.onset) for ev in events] == reference_events(pairs)
    assert all(ev.end == ev.onset + ev.duration for ev in events)


@settings(max_examples=200, deadline=None)
@given(notes, st.integers(1, 48), st.integers(4, 400))
def test_document_validation_and_bytes_match_fraction_reference(pairs, scale, tempo):
    events = detokenize([render_token(pitch, duration) for pitch, duration in pairs])
    unmerged = reference_events(pairs)
    merged = reference_merged(unmerged)
    lcm = 1
    for _, duration, onset in unmerged:
        lcm = math.lcm(lcm, duration.denominator, onset.denominator)
    assert lcm_time_division(events) == lcm
    # scale walks divisions below, at and above the lcm, aligned or not
    division = min(max(1, lcm * scale // 8), MAX_DIVISION)
    aligned = all(reference_ticks(duration, division) is not None for _, duration, _ in merged)
    if not aligned:
        with pytest.raises(TickResolutionError):
            MidiDocument(division, tempo, events)
        return
    doc = MidiDocument(division, tempo, events)
    assert [(ev.pitch, ev.duration, ev.onset) for ev in doc.events] == merged
    if any(pitch is not None for pitch, _, _ in merged):
        assert write_midi(doc) == reference_write_midi(division, tempo, merged)


@settings(max_examples=100, deadline=None)
@given(notes, st.integers(0, 39), st.sampled_from((Fraction(1, 7), Fraction(1), Fraction(-1, 3))))
def test_document_rejects_gap_like_fraction_reference(pairs, at, shift):
    events = list(detokenize([render_token(pitch, duration) for pitch, duration in pairs]))
    at %= len(events)
    moved = events[at].onset + shift
    if moved < 0:
        return
    events[at] = NoteEvent(events[at].pitch, events[at].duration, moved)
    with pytest.raises(ValueError, match="contiguous"):
        MidiDocument(lcm_time_division(events), 240, tuple(events))


@settings(max_examples=200, deadline=None)
@given(notes, bar_lengths)
def test_bar_and_grid_indices_match_fraction_reference(pairs, bar_length):
    events = detokenize([render_token(pitch, duration) for pitch, duration in pairs])
    for ev in events:
        expected = (math.floor(ev.onset / bar_length), reference_grid_index(ev.onset, bar_length))
        assert marks(ev.onset, bar_length, *expected)
    want = outcome(lambda: reference_report("x", reference_events(pairs), bar_length))
    assert outcome(lambda: public_report("x", events, bar_length)) == want


def test_grid_slot_ties_round_up_and_clamp():
    # 4/128 into the second 4/4 bar is exactly half a slot: the tie goes to slot 1
    assert marks(Fraction(4, 128) + 4, Fraction(4), 1, 1)
    assert not marks(Fraction(4, 128) + 4, Fraction(4), 1, 0)
    # just short of the bar line rounds to slot 64, which clamps to 63
    assert marks(Fraction(4) - Fraction(1, 1000), Fraction(4), 0, GRID - 1)
    assert not marks(Fraction(4) - Fraction(1, 1000), Fraction(4), 1, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 600), st.randoms(use_true_random=False), bar_lengths, st.integers(4, 400))
def test_tick_line_bytes_and_scores_match_event_reference(length, rnd, bar_length, tempo):
    texts = random_texts(rnd, length)
    line = tick_line(texts)
    events = reference_detokenize(texts)
    assert line.division == reference_division(events) == lcm_time_division(detokenize(texts))
    assert write_line(line, tempo) == reference_render(texts, tempo)
    want = outcome(lambda: reference_report("x", events, bar_length))
    assert outcome(lambda: evaluate_line("x", line, bar_length)) == want
    assert outcome(lambda: public_report("x", detokenize(texts), bar_length)) == want


@pytest.mark.parametrize("texts", [
    [],
    ["C4_4.0"],
    ["R_4.0", "R_4.0", "R_0.5"],
    ["C4_1.0", "R_3.0", "R_4.0"],
    ["E4_8.0"],
    ["D5_1/6", "R_4.0"],
], ids=["empty", "one-bar", "only-rests", "trailing-rests", "two-bar-note", "sextuplet-then-rest"])
def test_short_and_silent_lines_fail_and_warn_like_the_reference(texts):
    events = reference_detokenize(texts)
    want = outcome(lambda: reference_report("x", events, Fraction(4)))
    assert outcome(lambda: evaluate_line("x", tick_line(texts))) == want
    assert write_line(tick_line(texts), 240) == reference_render(texts, 240)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 80), st.randoms(use_true_random=False), st.sampled_from(BAD_TOKENS))
def test_bad_token_error_names_the_same_position(length, rnd, bad):
    texts = random_texts(rnd, length)
    texts.insert(rnd.randint(0, length), bad)
    if rnd.random() < 0.5:
        texts.insert(rnd.randint(0, len(texts)), rnd.choice(BAD_TOKENS))
    want = outcome(lambda: reference_detokenize(texts))
    assert want[0][0] == "error"
    assert outcome(lambda: tick_line(texts)) == want
    assert outcome(lambda: detokenize(texts)) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.randoms(use_true_random=False), bar_lengths)
def test_division_overflow_matches_reference_and_scoring_ignores_it(length, rnd, bar_length):
    durations = LINE_DURATIONS + tuple(Fraction(1, d) for d in OVERFLOW_DENOMINATORS)
    texts = random_texts(rnd, length, durations)
    events = reference_detokenize(texts)
    assert outcome(lambda: write_line(tick_line(texts), 240)) == outcome(lambda: reference_render(texts, 240))
    # the SMF limit bounds MIDI only; scores take any grid
    want = outcome(lambda: reference_report("x", events, bar_length))
    assert outcome(lambda: evaluate_line("x", tick_line(texts), bar_length)) == want


def test_division_overflow_names_the_first_running_lcm():
    # the lcm runs 7, 77, 1001, 17017, then overflows at 17017 * 19
    texts = ["C4_1/7", "D4_1/11", "E4_1/13", "F4_1/17", "G4_1/19", "A4_1/23"]
    with pytest.raises(TickResolutionError, match=f"time division {17017 * 19} overflows"):
        write_line(tick_line(texts), 240)
    assert tick_line(texts).division == 17017 * 19 * 23


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(pitches, durations, st.builds(Fraction, st.integers(0, 200), st.sampled_from((1, 2, 3, 4, 6, 7, 8)))),
        max_size=40,
    ),
    bar_lengths,
)
def test_events_with_gaps_and_overlaps_score_like_the_reference(triples, bar_length):
    events = [NoteEvent(pitch, duration, onset) for pitch, duration, onset in triples]
    want = outcome(lambda: reference_report("x", triples, bar_length))
    assert outcome(lambda: public_report("x", events, bar_length)) == want


def test_parse_token_memoizes_canonical_texts():
    assert parse_token("D5_1/6") is parse_token("D5_1/6")


@pytest.mark.parametrize("text", ["C4_0.50", "C4_2/4"])
def test_memoized_parse_token_rejects_noncanonical_spelling_every_call(text):
    parse_token("C4_0.5")  # the canonical spelling of the same value is cached
    for _ in range(3):
        with pytest.raises(TokenError):
            parse_token(text)


def test_random_texts_cover_rests_triplets_and_long_lines():
    texts = random_texts(random.Random(0), 600)
    assert len(texts) == 600
    assert any(text.startswith("R_") for text in texts)
    assert any(text.endswith("/3") for text in texts) and any(text.endswith("/6") for text in texts)


def ingest_tokens(data):
    """Tokens as ingest reads them: MIDI onto ticks, then rendered from there."""
    return tokenize_line(read_line(data)[0])


def chromatic_walk(rnd, n_events):
    """A rest-broken chromatic walk over wide-ranging durations, as events."""
    events, onset, pitch = [], Fraction(0), rnd.randint(36, 96)
    for _ in range(n_events):
        duration = Fraction(rnd.choice(("1/6", "1/4", "1/3", "3/8", "1/2", "2/3", "3/4", "1", "4/3", "3/2", "2", "3")))
        rest = bool(events) and not events[-1].is_rest and rnd.random() < 0.1
        events.append(NoteEvent(None if rest else pitch, duration, onset))
        if not rest:
            pitch = min(max(pitch + rnd.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), 0), 127)
        onset = events[-1].end
    return tuple(events)


def test_ingest_tokens_match_the_event_path_on_synthetic_files(tmp_path):
    paths = write_corpus(tmp_path / "corpus", seed=3) + write_seeds(tmp_path / "seeds", seed=3)
    for path in paths:
        data = path.read_bytes()
        assert ingest_tokens(data) == tokenize(read_midi(data).events), path.name


def test_ingest_tokens_match_the_event_path_on_chromatic_walks():
    rnd = random.Random(5)
    for _ in range(20):
        events = chromatic_walk(rnd, 100)
        data = write_midi(MidiDocument(lcm_time_division(events), 240, events))
        assert ingest_tokens(data) == tokenize(read_midi(data).events) == tokenize(events)


# (division, [(delta, note-on?, pitch)], delta before end-of-track): notes of a
# few pitches overlap, leave gaps and retrigger, a final delta leaves a
# trailing rest, and divisions with factors 3 and 5 give triplet and
# quintuplet ticks
tracks = st.sampled_from((1, 3, 5, 12, 15, 60, 96, 120, 480)).flatmap(lambda division: st.tuples(
    st.just(division),
    st.lists(st.tuples(st.integers(0, 3 * division), st.booleans(), st.integers(60, 64)), max_size=60),
    st.integers(0, 2 * division),
))


def track_file(division, messages, tail):
    body = b"".join(encode_vlq(delta) + bytes((0x90 if on else 0x80, pitch, 64 if on else 0))
                    for delta, on, pitch in messages)
    body += encode_vlq(tail) + bytes.fromhex("FF 2F 00")
    return b"MThd" + struct.pack(">IHHH", 6, 0, 1, division) + b"MTrk" + struct.pack(">I", len(body)) + body


@settings(max_examples=300, deadline=None)
@given(tracks)
def test_ingest_tokens_match_the_event_path_on_drawn_tracks(track):
    data = track_file(*track)
    try:
        want = tokenize(read_midi(data).events)
    except EmptyTrackError:
        with pytest.raises(EmptyTrackError):
            ingest_tokens(data)
        return
    assert ingest_tokens(data) == want


def test_drawn_tracks_cover_overlaps_gaps_trailing_rests_and_tuplets():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(tracks)
    def survey(track):
        sounding = set()
        for _, on, pitch in track[1]:
            seen.add(("overlap", on and bool(sounding - {pitch})))
            (sounding.add if on else sounding.discard)(pitch)
        try:
            line, _ = read_line(track_file(*track))
        except EmptyTrackError:
            return
        seen.add(("rest", line.pitches[-1] is None))
        seen.add(("gap", None in line.pitches[:-1]))
        denominators = {Fraction(ticks, line.division).denominator for ticks in line.ticks}
        seen.add(("triplet", any(d % 3 == 0 for d in denominators)))
        seen.add(("quintuplet", any(d % 5 == 0 for d in denominators)))

    survey()
    assert {name for name, hit in seen if hit} == {"overlap", "rest", "gap", "triplet", "quintuplet"}
