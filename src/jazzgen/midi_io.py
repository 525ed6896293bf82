"""Standard MIDI File reading and writing for monophonic single-line melodies.

Reads SMF format 0 and 1, emits format 0 only. The program's one timeline is
an integer tick grid: `read_line` parses a file onto a `TickLine` at the file's
own division and `write_line` encodes one, so triplet and sextuplet values
(1/3, 1/6, 2/3) survive round trips without float drift.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# SMF constants
_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"
_META_TEMPO = 0x51
_META_END_OF_TRACK = 0x2F
MAX_DIVISION = 0x7FFF  # division field is 15 bits
DEFAULT_TEMPO = 120
WRITE_VELOCITY = 64


class MidiError(Exception):
    """Base for all MIDI read/write failures."""


class MidiParseError(MidiError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyTrackError(MidiError):
    """No track in the file contains any note events."""


class TickResolutionError(MidiError):
    """A duration or onset is not representable at the chosen time division."""


# kept only for bench/child.py's chromatic inputs: NoteEvent, MidiDocument, lcm_time_division, write_midi
@dataclass(frozen=True)
class NoteEvent:
    """One monophonic note or rest.

    pitch is a MIDI note number 0..127, or None for a rest. duration and
    onset are exact rationals in quarter-note units; end (onset + duration)
    is computed once, at construction.
    """

    pitch: int | None
    duration: Fraction
    onset: Fraction = Fraction(0)

    def __post_init__(self):
        # a Fraction is immutable, so one passed in is kept rather than rebuilt
        duration, onset = self.duration, self.onset
        if type(duration) is not Fraction:
            duration = Fraction(duration)
            object.__setattr__(self, "duration", duration)
        if type(onset) is not Fraction:
            onset = Fraction(onset)
            object.__setattr__(self, "onset", onset)
        if self.pitch is not None and not 0 <= int(self.pitch) <= 127:
            raise ValueError(f"pitch {self.pitch} outside MIDI range 0..127")
        # a Fraction's denominator is positive, so its numerator carries the sign
        if duration.numerator <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if onset.numerator < 0:
            raise ValueError(f"onset must be nonnegative, got {onset}")
        object.__setattr__(self, "end", onset + duration)

    @property
    def is_rest(self) -> bool:
        return self.pitch is None

    @classmethod
    def rest(cls, duration, onset=Fraction(0)) -> "NoteEvent":
        return cls(None, duration, onset)


@dataclass(frozen=True)
class MidiDocument:
    """A monophonic melody plus the timing context needed to serialize it.

    tempo is an integer BPM; the tempo meta event stores round(60e6 / bpm)
    microseconds per quarter, and integer BPM is the largest tempo family
    that survives that encoding exactly.

    Adjacent rests are merged at construction: an SMF byte stream carries no
    message at a rest-to-rest boundary, so the merged form is the only one
    that can round-trip.
    """

    time_division: int
    tempo: int
    events: tuple[NoteEvent, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", _merge_adjacent_rests(self.events))
        if not 1 <= self.time_division <= MAX_DIVISION:
            raise ValueError(f"time division {self.time_division} outside 1..{MAX_DIVISION}")
        _check_tempo(self.tempo)
        cursor = Fraction(0)
        for ev in self.events:
            # events built onset by onset from the previous end pass that end
            # on as the next onset, so for them identity settles the comparison
            if ev.onset is not cursor and ev.onset != cursor:
                raise ValueError(
                    f"events must be contiguous from onset 0: expected onset {cursor}, got {ev.onset}"
                )
            # duration is in lowest terms: whole ticks iff its denominator divides the division
            if self.time_division % ev.duration.denominator:
                raise TickResolutionError(
                    f"duration {ev.duration} of event at onset {ev.onset} "
                    f"is not a whole number of ticks at division {self.time_division}"
                )
            cursor = ev.end


def _check_tempo(tempo) -> None:
    # round(60e6 / bpm) must fit the 3-byte tempo meta payload, so bpm >= 4
    if not (isinstance(tempo, int) and 4 <= tempo <= 60_000_000):
        raise ValueError(f"tempo must be an integer BPM in 4..60000000, got {tempo!r}")


@dataclass(frozen=True)
class TickLine:
    """A contiguous line from tick 0 on an integer grid.

    division is ticks per quarter note; each note or rest has a MIDI pitch
    (None for a rest) and a whole number of ticks.
    """

    division: int
    pitches: tuple[int | None, ...]
    ticks: tuple[int, ...]


def _merge_adjacent_rests(events: Sequence[NoteEvent]) -> tuple[NoteEvent, ...]:
    merged: list[NoteEvent] = []
    for ev in events:
        if ev.is_rest and merged and merged[-1].is_rest and merged[-1].end == ev.onset:
            merged[-1] = NoteEvent(None, merged[-1].duration + ev.duration, merged[-1].onset)
        else:
            merged.append(ev)
    return tuple(merged)


def _division_overflow(division: int) -> TickResolutionError:
    return TickResolutionError(
        f"time division {division} overflows the 15-bit SMF field (max {MAX_DIVISION})"
    )


def lcm_time_division(events: Iterable[NoteEvent]) -> int:
    """Smallest ticks-per-quarter making every duration and onset integral."""
    division = 1
    for ev in events:
        division = math.lcm(division, ev.duration.denominator, ev.onset.denominator)
        if division > MAX_DIVISION:
            raise _division_overflow(division)
    return division


def encode_vlq(value: int) -> bytes:
    """Variable-length quantity: 7 data bits per byte, MSB marks continuation."""
    if value < 0:
        raise ValueError("variable-length quantity must be nonnegative")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, message: str):
        raise MidiParseError(message, self.pos)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail(f"unexpected end of file, wanted {n} bytes")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.byte()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        self.fail("variable-length quantity longer than 4 bytes")


# data byte counts per channel-event high nibble
_CHANNEL_DATA_BYTES = {0x8: 2, 0x9: 2, 0xA: 2, 0xB: 2, 0xC: 1, 0xD: 1, 0xE: 2}


def _parse_track(reader: _Reader, length: int):
    """One MTrk body -> (notes [(on_tick, off_tick, pitch)], first tempo mpqn or None, end tick)."""
    end_pos = reader.pos + length
    tick = 0
    running_status = None
    tempo_mpqn = None
    open_notes: dict[int, int] = {}
    notes: list[tuple[int, int, int]] = []

    def close(pitch: int, at: int):
        start = open_notes.pop(pitch, None)
        if start is not None and at > start:
            notes.append((start, at, pitch))

    while reader.pos < end_pos:
        tick += reader.vlq()
        status = reader.byte()
        if status < 0x80:
            if running_status is None:
                reader.fail("data byte without running status")
            status = running_status
            reader.pos -= 1
        if status == 0xFF:
            running_status = None
            meta_type = reader.byte()
            meta_len = reader.vlq()
            payload = reader.take(meta_len)
            if meta_type == _META_END_OF_TRACK:
                break
            if meta_type == _META_TEMPO and tempo_mpqn is None:
                if meta_len != 3:
                    reader.fail(f"tempo meta event length {meta_len}, expected 3")
                tempo_mpqn = int.from_bytes(payload, "big")
        elif status in (0xF0, 0xF7):
            running_status = None
            reader.take(reader.vlq())
        else:
            running_status = status
            kind = status >> 4
            if kind not in _CHANNEL_DATA_BYTES:
                reader.fail(f"unknown status byte 0x{status:02X}")
            payload = reader.take(_CHANNEL_DATA_BYTES[kind])
            if (payload[0] | payload[-1]) & 0x80:
                bad = 0 if payload[0] & 0x80 else len(payload) - 1
                raise MidiParseError(
                    f"channel data byte 0x{payload[bad]:02X} above 0x7F", reader.pos - len(payload) + bad
                )
            if kind == 0x9 and payload[1] > 0:
                pitch = payload[0]
                if pitch in open_notes:
                    close(pitch, tick)  # retrigger truncates the sounding note
                open_notes[pitch] = tick
            elif kind == 0x8 or (kind == 0x9 and payload[1] == 0):
                close(payload[0], tick)
    for pitch in list(open_notes):
        close(pitch, tick)
    reader.pos = end_pos
    return notes, tempo_mpqn, tick


def _monophonic(notes: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Resolve overlaps by truncating the earlier note at the later onset."""
    result: list[tuple[int, int, int]] = []
    for start, end, pitch in sorted(notes, key=lambda n: n[0]):
        while result and result[-1][1] > start:
            prev_start, _, prev_pitch = result.pop()
            if prev_start < start:
                result.append((prev_start, start, prev_pitch))
                break
        result.append((start, end, pitch))
    return result


def read_line(data: bytes) -> tuple[TickLine, int]:
    """Parse an SMF byte string into its first non-empty note track and tempo.

    The line is at the file's own division. Overlapping notes are truncated
    at the next onset, gaps become rests, and a trailing gap before
    end-of-track is kept as a final rest; rests fall only between or after
    notes, so no two are adjacent.
    """
    reader = _Reader(data)
    if reader.take(4) != _HEADER_MAGIC:
        reader.pos = 0
        reader.fail("missing MThd header")
    header_len = reader.u32()
    if header_len < 6:
        reader.fail(f"header chunk length {header_len}, expected at least 6")
    fmt = reader.u16()
    n_tracks = reader.u16()
    division = reader.u16()
    reader.take(header_len - 6)
    if fmt not in (0, 1):
        reader.fail(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        reader.fail("SMPTE time division is not supported")
    if division == 0:
        reader.fail("time division must be positive")

    tempo_mpqn = None
    note_track = None
    track_end = 0
    for _ in range(n_tracks):
        if reader.pos >= len(reader.data):
            break
        magic = reader.take(4)
        length = reader.u32()
        if magic != _TRACK_MAGIC:
            reader.take(length)  # skip alien chunk
            continue
        if reader.pos + length > len(reader.data):
            reader.fail(f"track chunk length {length} overruns file")
        notes, mpqn, end_tick = _parse_track(reader, length)
        if tempo_mpqn is None and mpqn is not None:
            tempo_mpqn = mpqn
        if note_track is None and notes:
            note_track = notes
            track_end = end_tick
    if note_track is None:
        raise EmptyTrackError("no track contains note events")

    tempo = DEFAULT_TEMPO if tempo_mpqn in (None, 0) else max(4, round(60_000_000 / tempo_mpqn))
    cells: list[tuple[int | None, int]] = []
    cursor = 0
    for start, end, pitch in _monophonic(note_track):
        if start > cursor:
            cells.append((None, start - cursor))
        cells.append((pitch, end - start))
        cursor = end
    if track_end > cursor:
        cells.append((None, track_end - cursor))
    pitches, ticks = zip(*cells)
    return TickLine(division, pitches, ticks), tempo


# the encoder's repeated pieces: delta-times recur, and note messages differ only by pitch
@functools.lru_cache(maxsize=4096)
def _cached_vlq(value: int) -> bytes:
    return encode_vlq(value)


_NOTE_ON = tuple(bytes((0x90, pitch, WRITE_VELOCITY)) for pitch in range(128))
_NOTE_OFF = tuple(bytes((0x80, pitch, 0)) for pitch in range(128))


def write_midi(doc: MidiDocument) -> bytes:
    """The document as SMF format 0 bytes: write_line of its TickLine."""
    division = doc.time_division
    ticks = tuple(ev.duration.numerator * (division // ev.duration.denominator) for ev in doc.events)
    return write_line(TickLine(division, tuple(ev.pitch for ev in doc.events), ticks), doc.tempo)


def write_line(line: TickLine, tempo: int) -> bytes:
    """The line as SMF format 0: tempo meta, contiguous note on/off pairs,
    end-of-track.

    Rests emit no messages; their time passes through delta-times, and the
    end-of-track event is stamped at the line's total end so trailing rests
    survive a round trip.

    A division beyond the 15-bit header field raises the TickResolutionError
    lcm_time_division raises for the same notes: it names the running lcm of
    the duration denominators, in order, at the note where it first overflows.
    """
    _check_tempo(tempo)
    division = line.division
    if division > MAX_DIVISION:
        running = 1
        for length in line.ticks:
            # length / division in lowest terms has denominator division / gcd
            running = math.lcm(running, division // math.gcd(length, division))
            if running > MAX_DIVISION:
                raise _division_overflow(running)
    mpqn = round(60_000_000 / tempo)
    track = bytearray(encode_vlq(0) + bytes([0xFF, _META_TEMPO, 0x03]) + mpqn.to_bytes(3, "big"))
    tick = 0
    cursor = 0  # tick of the last message written
    for pitch, length in zip(line.pitches, line.ticks):
        if pitch is not None:
            track += _cached_vlq(tick - cursor) + _NOTE_ON[pitch] + _cached_vlq(length) + _NOTE_OFF[pitch]
            cursor = tick + length
        tick += length
    track += encode_vlq(tick - cursor) + bytes([0xFF, _META_END_OF_TRACK, 0x00])

    header = _HEADER_MAGIC + struct.pack(">IHHH", 6, 0, 1, division)
    return header + _TRACK_MAGIC + struct.pack(">I", len(track)) + bytes(track)
