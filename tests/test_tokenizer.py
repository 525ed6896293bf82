from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jazzgen.midi_io import NoteEvent
from jazzgen.tokenizer import (
    TokenError,
    UnknownTokenError,
    Vocabulary,
    build_vocabulary,
    parse_duration,
    parse_pitch,
    parse_token,
    render_duration,
    render_pitch,
    render_token,
)
from oracle import detokenize, tokenize


@pytest.mark.parametrize(
    "pitch,name",
    [(60, "C4"), (61, "C#4"), (0, "C-1"), (127, "G9"), (69, "A4"), (74, "D5")],
)
def test_pitch_rendering(pitch, name):
    assert render_pitch(pitch) == name
    assert parse_pitch(name) == pitch


def test_rest_pitch():
    assert render_pitch(None) == "R"
    assert parse_pitch("R") is None


@pytest.mark.parametrize("bad", ["H4", "Cb4", "C", "C10", "G#9", "c4", "C04", "C♯4"])
def test_bad_pitch_rejected(bad):
    with pytest.raises(TokenError):
        parse_pitch(bad)


@pytest.mark.parametrize(
    "duration,text",
    [
        (Fraction(1), "1.0"),
        (Fraction(1, 2), "0.5"),
        (Fraction(3, 4), "0.75"),
        (Fraction(1, 64), "0.015625"),
        (Fraction(5, 2), "2.5"),
        (Fraction(1, 6), "1/6"),
        (Fraction(2, 3), "2/3"),
        (Fraction(1, 3), "1/3"),
        (Fraction(4), "4.0"),
        (Fraction(1, 128), "1/128"),
    ],
)
def test_duration_rendering(duration, text):
    assert render_duration(duration) == text
    assert parse_duration(text) == duration


@pytest.mark.parametrize(
    "bad", ["1/2", "2/4", "0.50", ".5", "1", "01.0", "1.", "0.0", "0/3", "-0.5", "3/3", "1e-1"]
)
def test_non_canonical_duration_rejected(bad):
    with pytest.raises(TokenError):
        parse_duration(bad)


def test_parse_token_examples():
    assert parse_token("C4_0.5") == (60, Fraction(1, 2))
    assert parse_token("R_1.0") == (None, Fraction(1))
    assert parse_token("D5_1/6") == (74, Fraction(1, 6))
    assert parse_token("A4_2/3") == (69, Fraction(2, 3))
    assert render_duration(Fraction(3, 8)) == "0.375"


def test_detokenize_error_names_token_and_position():
    with pytest.raises(TokenError, match=r"token 1.*Q9_1\.0"):
        detokenize(["C4_1.0", "Q9_1.0"])


def test_build_vocabulary_requires_tokens():
    with pytest.raises(ValueError):
        build_vocabulary([])
    disjoint = build_vocabulary(["C4_1.0"], ["D4_1.0"])
    assert len(disjoint) == 2


def test_token_text_round_trip():
    assert render_token(61, Fraction(2, 3)) == "C#4_2/3"
    assert parse_token("C#4_2/3") == (61, Fraction(2, 3))
    assert render_token(None, Fraction(1, 4)) == "R_0.25"


@pytest.mark.parametrize("bad", ["C4", "C4_", "_0.5", "C4 0.5", "C4_0.5_x"])
def test_bad_token_rejected(bad):
    with pytest.raises(TokenError):
        parse_token(bad)


durations = st.one_of(
    st.tuples(st.integers(1, 32), st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
    st.tuples(st.integers(1, 32), st.sampled_from([3, 5, 6, 7, 12, 24, 48])),
).map(lambda nd: Fraction(nd[0], nd[1]))
pitches = st.one_of(st.none(), st.integers(0, 127))


@given(pitches, durations)
def test_token_text_bijective(pitch, duration):
    assert parse_token(render_token(pitch, duration)) == (pitch, duration)


@given(durations)
def test_duration_text_bijective(duration):
    text = render_duration(duration)
    assert parse_duration(text) == duration
    assert render_duration(parse_duration(text)) == text


def test_tokenize_detokenize_round_trip():
    events = (
        NoteEvent(60, Fraction(1), Fraction(0)),
        NoteEvent(None, Fraction(1, 2), Fraction(1)),
        NoteEvent(74, Fraction(1, 6), Fraction(3, 2)),
    )
    tokens = tokenize(events)
    assert tokens == ["C4_1.0", "R_0.5", "D5_1/6"]
    assert detokenize(tokens) == events
    assert detokenize(iter(tokens)) == events


def test_detokenize_accumulates_onsets():
    events = detokenize(["C4_0.5", "E4_0.5", "G4_1.0"])
    assert [ev.onset for ev in events] == [Fraction(0), Fraction(1, 2), Fraction(1)]


def test_vocabulary_is_sorted_and_contiguous():
    vocab = build_vocabulary(["C4_1.0", "A3_0.5"], ["R_1.0", "C4_1.0"])
    assert vocab.tokens == ("A3_0.5", "C4_1.0", "R_1.0")
    assert [vocab.encode(t) for t in vocab.tokens] == [0, 1, 2]
    assert len(vocab) == 3
    assert "R_1.0" in vocab
    assert render_token(57, Fraction(1, 2)) in vocab
    assert "B7_1.0" not in vocab


def test_vocabulary_determinism_across_input_order():
    a = build_vocabulary(["C4_1.0", "D4_1.0", "R_0.5"])
    b = build_vocabulary(["R_0.5"], ["D4_1.0"], ["C4_1.0"])
    assert a.tokens == b.tokens


def test_vocabulary_rejects_unknown():
    vocab = build_vocabulary(["C4_1.0"])
    with pytest.raises(UnknownTokenError):
        vocab.encode("D4_1.0")


def test_vocabulary_rejects_unsorted_or_invalid():
    with pytest.raises(ValueError):
        Vocabulary(("C4_1.0", "A3_1.0"))
    with pytest.raises(TokenError):
        Vocabulary(("A3_1/2",))
    with pytest.raises(TokenError, match="not a token text"):
        Vocabulary((1,))
