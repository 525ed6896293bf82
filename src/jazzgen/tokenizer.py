"""Note token grammar: text form ``<pitch>_<duration>`` with ``R`` for rests.

Pitch names use sharps only (C, C#, D, ... B) with scientific octaves -1..9
and C4 = MIDI 60.  Durations are quarter-note multiples: 1.0 is a quarter,
0.5 an eighth.  A duration whose reduced denominator is a power of two up to
64 renders as the shortest exact decimal (always at least one fractional
digit); anything else renders as a reduced fraction, e.g. ``D5_1/6``.

A token is its text, everywhere: `tokenize_line` renders a line read from
MIDI as token texts, `parse_token` reads one back as a ``(pitch, duration)``
pair (``None`` for a rest, an exact `Fraction` duration) and `render_token`
writes it again. Parsing accepts exactly the texts the renderers write: a
pitch name is looked up among the names `render_pitch` gives, and a duration
stands only when `render_duration` gives back the same text. Anything else is
a `TokenError` naming the token. `tick_line` puts tokens on an integer grid,
which is all writing MIDI and scoring need.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .midi_io import TickLine

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
REST_NAME = "R"
MAX_DECIMAL_DENOMINATOR = 64

# the shape of every rendered duration; Fraction alone would also read signs,
# spaces, underscores and exponents, and compute 10**exp for "1e999999999"
_DURATION_RE = re.compile(r"[0-9]+[./][0-9]+")


class TokenError(ValueError):
    """Text that does not spell a canonical token."""


class UnknownTokenError(KeyError):
    """A token text absent from a vocabulary."""


def render_pitch(pitch: int | None) -> str:
    if pitch is None:
        return REST_NAME
    if not 0 <= pitch <= 127:
        raise TokenError(f"MIDI pitch {pitch} outside 0..127")
    octave, pitch_class = divmod(pitch, 12)
    return f"{PITCH_CLASS_NAMES[pitch_class]}{octave - 1}"


_PITCHES = {render_pitch(pitch): pitch for pitch in (None, *range(128))}


def parse_pitch(text: str) -> int | None:
    try:
        return _PITCHES[text]
    except KeyError:
        raise TokenError(f"bad pitch name {text!r}") from None


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
    if _DURATION_RE.fullmatch(text) is None:
        raise TokenError(f"bad duration {text!r}")
    try:
        value = Fraction(text)
        canonical = render_duration(value) == text
    except (ValueError, ZeroDivisionError) as err:  # int's digit limit, n/0, or not positive
        raise TokenError(f"bad duration {text!r}: {err}") from None
    if not canonical:
        raise TokenError(f"non-canonical duration spelling {text!r}")
    return value


def render_token(pitch: int | None, duration: Fraction) -> str:
    """Canonical text for a note (or a rest when pitch is None)."""
    return f"{render_pitch(pitch)}_{render_duration(duration)}"


# A corpus spells a few hundred distinct tokens, each read thousands of times.
# The pair is immutable, so one parse per text can be shared; a text that
# raises is not cached and raises again on every call.
@functools.lru_cache(maxsize=4096)
def parse_token(text: str) -> tuple[int | None, Fraction]:
    """(pitch, duration) of a canonical token text, pitch None for a rest."""
    head, sep, tail = text.partition("_")
    if not sep or not tail:
        raise TokenError(f"token {text!r} is not <pitch>_<duration>")
    return parse_pitch(head), parse_duration(tail)


def tokenize_line(line: TickLine) -> list[str]:
    """The line's token texts; each distinct (pitch, ticks) is rendered once."""
    cells = list(zip(line.pitches, line.ticks))
    texts = {cell: render_token(cell[0], Fraction(cell[1], line.division)) for cell in dict.fromkeys(cells)}
    return [texts[cell] for cell in cells]


def _parse_distinct(texts: list[str]) -> dict[str, tuple[int | None, Fraction]]:
    """Each distinct text parsed once, in order of first appearance, so the
    first bad one is the earliest: TokenError names its position."""
    parsed = {}
    for text in dict.fromkeys(texts):
        try:
            parsed[text] = parse_token(text)
        except TokenError as err:
            raise TokenError(f"token {texts.index(text)} ({text!r}): {err}") from None
    return parsed


def tick_line(tokens: Iterable[str]) -> TickLine:
    """Tokens on the coarsest integer grid that holds them.

    The division is the lcm of the duration denominators. Every onset is a
    sum of earlier durations, so it lies on that grid too. The division is
    not capped at the SMF limit here; write_line checks that.
    """
    texts = list(tokens)
    parsed = _parse_distinct(texts)
    division = math.lcm(*{duration.denominator for _, duration in parsed.values()})
    cells = {
        text: (pitch, duration.numerator * (division // duration.denominator))
        for text, (pitch, duration) in parsed.items()
    }
    pitches, ticks = zip(*map(cells.__getitem__, texts)) if texts else ((), ())
    return TickLine(division, pitches, ticks)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable inventory of canonical token texts with contiguous indices.

    The texts are stored sorted lexicographically, so index order is
    reproducible from the token set alone.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        if list(self.tokens) != sorted(set(self.tokens)):
            raise ValueError("vocabulary tokens must be unique and sorted")
        for text in self.tokens:
            if not isinstance(text, str):
                raise TokenError(f"vocabulary entry {text!r} is not a token text")
            parse_token(text)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, text: str) -> bool:
        return text in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def encode(self, text: str) -> int:
        try:
            return self._index[text]
        except KeyError:
            raise UnknownTokenError(text) from None


def build_vocabulary(*sequences: Iterable[str]) -> Vocabulary:
    texts = set().union(*sequences)
    if not texts:
        raise ValueError("cannot build a vocabulary from zero tokens")
    return Vocabulary(tuple(sorted(texts)))
