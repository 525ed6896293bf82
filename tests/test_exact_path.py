"""The token -> event -> MIDI/metric path against a plain-Fraction reference.

The program does its timing arithmetic on integer numerators and
denominators; the references below do it the obvious way, with Fraction
operators, and every result must agree exactly.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jazzgen.metrics import GRID, _bar_and_slot, bar_patterns
from jazzgen.midi_io import (
    MAX_DIVISION,
    MidiDocument,
    NoteEvent,
    TickResolutionError,
    encode_vlq,
    lcm_time_division,
    write_midi,
)
from jazzgen.tokenizer import Token, TokenError, detokenize, parse_token

TRIPLETS = tuple(Fraction(n, d) for n, d in ((1, 3), (2, 3), (4, 3), (1, 6), (5, 6), (1, 12)))
DOTTED = tuple(Fraction(n, d) for n, d in ((3, 16), (3, 8), (3, 4), (3, 2), (3, 1)))
durations = st.one_of(
    st.builds(Fraction, st.integers(1, 16), st.sampled_from((1, 2, 4, 8, 16, 32, 64, 5, 7))),
    st.sampled_from(TRIPLETS),
    st.sampled_from(DOTTED),
)
pitches = st.one_of(st.none(), st.integers(0, 127))
notes = st.lists(st.tuples(pitches, durations), min_size=1, max_size=40)
bar_lengths = st.sampled_from((Fraction(4), Fraction(3), Fraction(7, 2), Fraction(5, 3), Fraction(6)))


def reference_events(pairs):
    """(pitch, duration, onset) with onsets summed from zero."""
    events, onset = [], Fraction(0)
    for pitch, duration in pairs:
        events.append((pitch, duration, onset))
        onset = onset + duration
    return events


def reference_merged(events):
    """Adjacent rests summed into one, as an SMF stream would carry them."""
    merged = []
    for pitch, duration, onset in events:
        if pitch is None and merged and merged[-1][0] is None:
            merged[-1] = (None, merged[-1][1] + duration, merged[-1][2])
        else:
            merged.append((pitch, duration, onset))
    return merged


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
    pitch, duration, onset = events[-1]
    track += encode_vlq(reference_ticks(onset + duration, division) - cursor) + bytes([0xFF, 0x2F, 0x00])
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)


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


@settings(max_examples=200, deadline=None)
@given(notes)
def test_detokenize_matches_fraction_reference(pairs):
    texts = [Token(pitch, duration).text for pitch, duration in pairs]
    events = detokenize(texts)
    assert [(ev.pitch, ev.duration, ev.onset) for ev in events] == reference_events(pairs)
    assert all(ev.end == ev.onset + ev.duration for ev in events)
    # Token values and texts take the same path
    assert detokenize([parse_token(text) for text in texts]) == events


@settings(max_examples=200, deadline=None)
@given(notes, st.integers(1, 48), st.integers(4, 400))
def test_document_validation_and_bytes_match_fraction_reference(pairs, scale, tempo):
    events = detokenize([Token(pitch, duration).text for pitch, duration in pairs])
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
    events = list(detokenize([Token(pitch, duration).text for pitch, duration in pairs]))
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
    events = detokenize([Token(pitch, duration).text for pitch, duration in pairs])
    for ev in events:
        expected = (math.floor(ev.onset / bar_length), reference_grid_index(ev.onset, bar_length))
        assert _bar_and_slot(ev.onset, bar_length) == expected
    patterns = bar_patterns(events, bar_length)
    assert [pattern.bits for pattern in patterns] == reference_bar_bits(reference_events(pairs), bar_length)


def test_grid_slot_ties_round_up_and_clamp():
    # 4/128 into the second 4/4 bar is exactly half a slot: the tie goes to slot 1
    assert _bar_and_slot(Fraction(4, 128) + 4, Fraction(4)) == (1, 1)
    # just short of the bar line rounds to slot 64, which clamps to 63
    assert _bar_and_slot(Fraction(4) - Fraction(1, 1000), Fraction(4)) == (0, GRID - 1)


def test_parse_token_memoizes_canonical_texts():
    assert parse_token("D5_1/6") is parse_token("D5_1/6")


@pytest.mark.parametrize("text", ["C4_0.50", "C4_2/4"])
def test_memoized_parse_token_rejects_noncanonical_spelling_every_call(text):
    parse_token("C4_0.5")  # the canonical spelling of the same value is cached
    for _ in range(3):
        with pytest.raises(TokenError):
            parse_token(text)
