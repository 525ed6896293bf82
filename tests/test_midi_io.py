import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jazzgen.midi_io import (
    EmptyTrackError,
    MidiDocument,
    MidiParseError,
    NoteEvent,
    TickLine,
    TickResolutionError,
    encode_vlq,
    lcm_time_division,
    read_line,
    write_midi,
)
from oracle import read_midi


def track_chunk(payload: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(payload)) + payload


def header_chunk(fmt: int, n_tracks: int, division: int) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, n_tracks, division)


def read_both(data: bytes) -> MidiDocument:
    """read_midi(data), once read_line(data) has given the same division,
    tempo and notes, or raised the same exception type with the same message."""
    try:
        doc = read_midi(data)
    except Exception as err:
        with pytest.raises(Exception) as raised:
            read_line(data)
        assert (type(raised.value), str(raised.value)) == (type(err), str(err))
        raise
    line, tempo = read_line(data)
    assert (line.division, tempo) == (doc.time_division, doc.tempo)
    assert len(line.pitches) == len(line.ticks)
    notes = [(pitch, Fraction(ticks, line.division)) for pitch, ticks in zip(line.pitches, line.ticks)]
    assert notes == [(ev.pitch, ev.duration) for ev in doc.events]
    return doc


# Hand-assembled file: division 480, tempo 120 (0x07A120 us/quarter), one
# note-on/note-off pair for pitch 60 lasting one quarter (delta 480 = 0x83 0x60).
SINGLE_NOTE_FILE = header_chunk(0, 1, 480) + track_chunk(
    bytes.fromhex("00 FF 51 03 07 A1 20" "00 90 3C 40" "83 60 80 3C 00" "00 FF 2F 00")
)


def test_read_single_note_file():
    doc = read_both(SINGLE_NOTE_FILE)
    assert doc.time_division == 480
    assert doc.tempo == 120
    assert doc.events == (NoteEvent(60, Fraction(1), Fraction(0)),)


def test_read_empty_track_is_an_error():
    data = header_chunk(0, 1, 480) + track_chunk(bytes.fromhex("00 FF 2F 00"))
    with pytest.raises(EmptyTrackError):
        read_both(data)


def test_read_rejects_bad_magic():
    with pytest.raises(MidiParseError):
        read_both(b"RIFF" + SINGLE_NOTE_FILE[4:])


def test_read_rejects_truncated_track():
    data = header_chunk(0, 1, 480) + b"MTrk" + struct.pack(">I", 999) + b"\x00"
    with pytest.raises(MidiParseError):
        read_both(data)


def test_format1_takes_first_nonempty_note_track():
    tempo_track = track_chunk(bytes.fromhex("00 FF 51 03 03 D0 90" "00 FF 2F 00"))  # 250000 us = 240 bpm
    note_track = track_chunk(bytes.fromhex("00 90 3C 40" "60 80 3C 00" "00 FF 2F 00"))  # delta 96
    doc = read_both(header_chunk(1, 2, 96) + tempo_track + note_track)
    assert doc.tempo == 240
    assert doc.events == (NoteEvent(60, Fraction(1), Fraction(0)),)


def test_overlapping_notes_truncate_earlier():
    # pitch 60 on at 0, pitch 64 on at 240 while 60 still sounding, both off later
    payload = bytes.fromhex(
        "00 90 3C 40"  # on 60 @ 0
        "81 70 90 40 40"  # on 64 @ 240
        "81 70 80 3C 00"  # off 60 @ 480 (would overlap)
        "81 70 80 40 00"  # off 64 @ 720
        "00 FF 2F 00"
    )
    doc = read_both(header_chunk(0, 1, 480) + track_chunk(payload))
    assert doc.events == (
        NoteEvent(60, Fraction(1, 2), Fraction(0)),
        NoteEvent(64, Fraction(1), Fraction(1, 2)),
    )


def test_gap_between_notes_becomes_rest():
    payload = bytes.fromhex(
        "00 90 3C 40" "60 80 3C 00"  # note 0..96
        "60 90 3E 40" "60 80 3E 00"  # gap 96..192, note 192..288
        "00 FF 2F 00"
    )
    doc = read_both(header_chunk(0, 1, 96) + track_chunk(payload))
    assert doc.events == (
        NoteEvent(60, Fraction(1), Fraction(0)),
        NoteEvent(None, Fraction(1), Fraction(1)),
        NoteEvent(62, Fraction(1), Fraction(2)),
    )


def test_running_status_accepted_on_read():
    payload = bytes.fromhex(
        "00 90 3C 40"
        "60 3C 00"  # running status: note-on velocity 0 acts as note-off
        "00 FF 2F 00"
    )
    doc = read_both(header_chunk(0, 1, 96) + track_chunk(payload))
    assert doc.events == (NoteEvent(60, Fraction(1), Fraction(0)),)


def test_write_empty_document_has_only_tempo_and_eot():
    data = write_midi(MidiDocument(480, 240, ()))
    assert data == header_chunk(0, 1, 480) + track_chunk(
        bytes.fromhex("00 FF 51 03 03 D0 90" "00 FF 2F 00")
    )


def test_write_quarter_note_delta_is_480_ticks():
    doc = MidiDocument(480, 120, (NoteEvent(60, Fraction(1)),))
    data = write_midi(doc)
    # note-on, VLQ delta 0x83 0x60 = 480, note-off
    assert bytes.fromhex("00 90 3C 40 83 60 80 3C 00") in data


def test_write_sixth_duration_delta_is_80_ticks():
    doc = MidiDocument(480, 120, (NoteEvent(60, Fraction(1, 6)),))
    data = write_midi(doc)
    assert bytes.fromhex("00 90 3C 40 50 80 3C 00") in data  # 480/6 = 80 = 0x50


def test_write_rejects_unrepresentable_duration():
    with pytest.raises(TickResolutionError):
        MidiDocument(480, 120, (NoteEvent(60, Fraction(1, 7)),))


def test_document_rejects_gap_without_rest():
    with pytest.raises(ValueError):
        MidiDocument(480, 120, (NoteEvent(60, Fraction(1), Fraction(1)),))


def test_document_merges_adjacent_rests():
    doc = MidiDocument(
        4,
        240,
        (
            NoteEvent(60, Fraction(1)),
            NoteEvent(None, Fraction(1), Fraction(1)),
            NoteEvent(None, Fraction(1, 2), Fraction(2)),
        ),
    )
    assert doc.events[1] == NoteEvent(None, Fraction(3, 2), Fraction(1))


@pytest.mark.parametrize(
    "durations,expected",
    [
        ([Fraction(1), Fraction(1, 2)], 2),
        ([Fraction(1, 6), Fraction(2, 3), Fraction(1, 2)], 6),
    ],
)
def test_lcm_time_division(durations, expected):
    events = []
    onset = Fraction(0)
    for d in durations:
        events.append(NoteEvent(60, d, onset))
        onset += d
    assert lcm_time_division(events) == expected


def test_lcm_time_division_overflow():
    with pytest.raises(TickResolutionError):
        lcm_time_division([NoteEvent(60, Fraction(1, 32768))])


def test_vlq_boundaries():
    assert encode_vlq(0) == b"\x00"
    assert encode_vlq(127) == b"\x7f"
    assert encode_vlq(128) == b"\x81\x00"
    assert encode_vlq(480) == b"\x83\x60"
    assert encode_vlq(0x0FFFFFFF) == b"\xff\xff\xff\x7f"


durations = st.tuples(st.integers(1, 8), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16])).map(
    lambda nd: Fraction(nd[0], nd[1])
)
pitches = st.one_of(st.none(), st.integers(0, 127))


@st.composite
def documents(draw):
    body = draw(st.lists(st.tuples(pitches, durations), min_size=1, max_size=30))
    if all(p is None for p, _ in body):
        body[0] = (60, body[0][1])
    events = []
    onset = Fraction(0)
    for pitch, dur in body:
        events.append(NoteEvent(pitch, dur, onset))
        onset += dur
    tempo = draw(st.integers(4, 1000))
    return MidiDocument(lcm_time_division(events), tempo, tuple(events))


@settings(max_examples=150)
@given(documents())
def test_round_trip_identity(doc):
    back = read_both(write_midi(doc))
    assert back.events == doc.events
    assert back.tempo == doc.tempo
    assert back.time_division == doc.time_division


@settings(max_examples=100)
@given(documents())
def test_read_output_is_monophonic_and_contiguous(doc):
    back = read_both(write_midi(doc))
    cursor = Fraction(0)
    for ev in back.events:
        assert ev.onset == cursor
        cursor = ev.end
    assert cursor == (doc.events[-1].end if doc.events else 0)


@pytest.mark.parametrize(
    "track,offset",
    [
        ("00 90 C8 40" "60 80 C8 00" "00 FF 2F 00", 24),  # pitch 200
        ("00 90 3C C0" "60 80 3C 00" "00 FF 2F 00", 25),  # note-on velocity
        ("00 90 3C 40" "60 3C 80" "00 FF 2F 00", 28),  # running-status velocity
        ("00 C0 80" "00 90 3C 40" "60 80 3C 00" "00 FF 2F 00", 24),  # program change
    ],
    ids=["pitch", "velocity", "running-status", "one-data-byte"],
)
def test_channel_data_byte_above_0x7f_is_a_parse_error(track, offset):
    data = header_chunk(0, 1, 96) + track_chunk(bytes.fromhex(track))
    with pytest.raises(MidiParseError, match="channel data byte") as raised:
        read_both(data)
    assert raised.value.offset == offset
    assert data[offset] >= 0x80


ONE_NOTE = "00 90 3C 40" "60 80 3C 00" "00 FF 2F 00"  # pitch 60 for 96 ticks
ONE_NOTE_LINE = TickLine(96, (60,), (96,))


def one_note_file(fmt=0, n_tracks=1, division=96, before=b""):
    return header_chunk(fmt, n_tracks, division) + before + track_chunk(bytes.fromhex(ONE_NOTE))


@pytest.mark.parametrize(
    "data,expected",
    [
        # the header ends at byte 14 and a first track's events start at byte 22
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("00 90 3C")),
         ("unexpected end of file, wanted 2 bytes", 24)),
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("80 80 80 80 00 90 3C 40")),
         ("variable-length quantity longer than 4 bytes", 26)),
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("00 3C 40" + ONE_NOTE)),
         ("data byte without running status", 24)),
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("00 FF 51 02 07 A1" + ONE_NOTE)),
         ("tempo meta event length 2, expected 3", 28)),
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("00 F1 00" + ONE_NOTE)), ("unknown status byte 0xF1", 24)),
        (b"MThd" + struct.pack(">IHHH", 5, 0, 1, 96), ("header chunk length 5, expected at least 6", 8)),
        (one_note_file(fmt=2), ("unsupported SMF format 2", 14)),
        (one_note_file(division=0xE250), ("SMPTE time division is not supported", 14)),
        (one_note_file(division=0), ("time division must be positive", 14)),
        # the second note-on's data bytes lie past the chunk's 10: they would be the next chunk's "MT"
        (header_chunk(1, 2, 96) + track_chunk(bytes.fromhex("00 90 3C 40" "60 80 3C 00" "00 90"))
         + track_chunk(bytes.fromhex(ONE_NOTE)), ("event runs past the end of its track chunk", 32)),
        (header_chunk(0, 1, 96) + track_chunk(bytes.fromhex("00 F0 03 43 12 F7" + ONE_NOTE)), ONE_NOTE_LINE),
        (one_note_file(fmt=1, n_tracks=2, before=b"XFIH" + struct.pack(">I", 3) + b"abc"), ONE_NOTE_LINE),
        (one_note_file(fmt=1, n_tracks=3), ONE_NOTE_LINE),
    ],
    ids=["eof-in-event", "long-vlq", "no-running-status", "tempo-length", "status-0xF1", "short-header",
         "format-2", "smpte", "division-0", "overrun", "sysex-skipped", "alien-chunk-skipped", "fewer-tracks"],
)
def test_reader_rejects_with_message_and_offset_or_reads_the_line(data, expected):
    if isinstance(expected, TickLine):
        assert read_line(data) == (expected, 120)
        return
    message, offset = expected
    with pytest.raises(MidiParseError) as raised:
        read_line(data)
    assert (str(raised.value), raised.value.offset) == (f"{message} (byte offset {offset})", offset)
