"""Note token grammar: text form ``<pitch>_<duration>`` with ``R`` for rests.

Pitch names use sharps only (C, C#, D, ... B) with scientific octaves -1..9
and C4 = MIDI 60.  Durations are quarter-note multiples: 1.0 is a quarter,
0.5 an eighth.  A duration whose reduced denominator is a power of two up to
64 renders as the shortest exact decimal (always at least one fractional
digit); anything else renders as a reduced fraction, e.g. ``D5_1/6``.

Rendering and parsing are inverse bijections on their domains; parsing is
strict and rejects any spelling other than the canonical one.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .midi_io import NoteEvent

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
REST_NAME = "R"
MAX_DECIMAL_DENOMINATOR = 64

_PITCH_RE = re.compile(r"^([A-G]#?)(-1|[0-9])$")
_DECIMAL_RE = re.compile(r"^(0|[1-9][0-9]*)\.([0-9]+)$")
_FRACTION_RE = re.compile(r"^([1-9][0-9]*)/([1-9][0-9]*)$")

_NAME_TO_CLASS = {name: i for i, name in enumerate(PITCH_CLASS_NAMES)}


class TokenError(ValueError):
    """Text that does not spell a canonical token."""


class UnknownTokenError(KeyError):
    """Token text absent from a vocabulary."""


def render_pitch(pitch: int | None) -> str:
    if pitch is None:
        return REST_NAME
    if not 0 <= pitch <= 127:
        raise TokenError(f"MIDI pitch {pitch} outside 0..127")
    octave, pitch_class = divmod(pitch, 12)
    return f"{PITCH_CLASS_NAMES[pitch_class]}{octave - 1}"


def parse_pitch(text: str) -> int | None:
    if text == REST_NAME:
        return None
    match = _PITCH_RE.match(text)
    if match is None:
        raise TokenError(f"bad pitch name {text!r}")
    pitch = (int(match.group(2)) + 1) * 12 + _NAME_TO_CLASS[match.group(1)]
    if pitch > 127:
        raise TokenError(f"pitch {text!r} exceeds MIDI 127")
    return pitch


def render_duration(duration: Fraction) -> str:
    """Canonical text for a positive quarter-note duration.

    Powers-of-two denominators up to 64 admit an exact short decimal:
    num/2^j == num*5^j / 10^j, and num*5^j never ends in zero when num is
    odd, so the digit string is already minimal.
    """
    duration = Fraction(duration)
    if duration <= 0:
        raise TokenError(f"duration must be positive, got {duration}")
    den = duration.denominator
    if den <= MAX_DECIMAL_DENOMINATOR and den & (den - 1) == 0:
        j = den.bit_length() - 1
        if j == 0:
            return f"{duration.numerator}.0"
        digits = str(duration.numerator * 5**j).rjust(j + 1, "0")
        return f"{digits[:-j]}.{digits[-j:]}"
    return f"{duration.numerator}/{den}"


def parse_duration(text: str) -> Fraction:
    match = _DECIMAL_RE.match(text)
    if match is not None:
        whole, frac = match.groups()
        value = Fraction(int(whole) * 10 ** len(frac) + int(frac), 10 ** len(frac))
    else:
        match = _FRACTION_RE.match(text)
        if match is None:
            raise TokenError(f"bad duration {text!r}")
        value = Fraction(int(match.group(1)), int(match.group(2)))
    if render_duration(value) != text:
        raise TokenError(f"non-canonical duration spelling {text!r}")
    return value


@dataclass(frozen=True, order=True)
class Token:
    """One note or rest with its quarter-note duration."""

    pitch: int | None
    duration: Fraction

    def __post_init__(self):
        if self.pitch is not None and not 0 <= self.pitch <= 127:
            raise TokenError(f"MIDI pitch {self.pitch} outside 0..127")
        if type(self.duration) is not Fraction:
            object.__setattr__(self, "duration", Fraction(self.duration))
        if self.duration.numerator <= 0:
            raise TokenError(f"duration must be positive, got {self.duration}")

    @property
    def is_rest(self) -> bool:
        return self.pitch is None

    @property
    def pitch_class(self) -> int | None:
        return None if self.pitch is None else self.pitch % 12

    @property
    def octave(self) -> int | None:
        return None if self.pitch is None else self.pitch // 12 - 1

    @property
    def text(self) -> str:
        return f"{render_pitch(self.pitch)}_{render_duration(self.duration)}"

    def __str__(self) -> str:
        return self.text


# A corpus spells a few hundred distinct tokens, each read thousands of times.
# Token is immutable, so one parse per text can be shared; a text that raises
# is not cached and raises again on every call.
@functools.lru_cache(maxsize=4096)
def parse_token(text: str) -> Token:
    head, sep, tail = text.partition("_")
    if not sep or not tail:
        raise TokenError(f"token {text!r} is not <pitch>_<duration>")
    return Token(parse_pitch(head), parse_duration(tail))


TokenLike = Union[str, Token]


def _as_token(value: TokenLike) -> Token:
    return value if isinstance(value, Token) else parse_token(value)


def tokenize(events: Iterable[NoteEvent]) -> list[Token]:
    return [Token(ev.pitch, ev.duration) for ev in events]


def detokenize(tokens: Iterable[TokenLike]) -> tuple[NoteEvent, ...]:
    """Tokens back to contiguous events, onsets accumulated from zero."""
    events = []
    onset = Fraction(0)
    for position, value in enumerate(tokens):
        try:
            token = _as_token(value)
        except TokenError as err:
            raise TokenError(f"token {position} ({value!r}): {err}") from None
        event = NoteEvent(token.pitch, token.duration, onset)
        events.append(event)
        onset = event.end
    return tuple(events)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token inventory with contiguous indices.

    Token texts are stored sorted lexicographically, so index order is
    reproducible from the token set alone.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        if list(self.tokens) != sorted(set(self.tokens)):
            raise ValueError("vocabulary tokens must be unique and sorted")
        for text in self.tokens:
            parse_token(text)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, value: TokenLike) -> bool:
        text = value.text if isinstance(value, Token) else value
        return text in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def encode(self, value: TokenLike) -> int:
        text = value.text if isinstance(value, Token) else value
        try:
            return self._index[text]
        except KeyError:
            raise UnknownTokenError(text) from None

    def decode(self, index: int) -> Token:
        if not 0 <= index < len(self.tokens):
            raise UnknownTokenError(f"index {index} outside 0..{len(self.tokens) - 1}")
        return parse_token(self.tokens[index])


def build_vocabulary(*sequences: Iterable[TokenLike]) -> Vocabulary:
    texts = set()
    for sequence in sequences:
        for value in sequence:
            texts.add(_as_token(value).text)
    if not texts:
        raise ValueError("cannot build a vocabulary from zero tokens")
    return Vocabulary(tuple(sorted(texts)))
