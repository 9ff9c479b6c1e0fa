"""Score ingestion: ordered (beat, pitch set) onsets from MIDI or JSON.

Only note-on events matter here; durations, velocities, voices, and tempo
meta events are discarded. Notes that coincide (within a tick tolerance)
form one chord.
"""

import json
import math
import struct
from dataclasses import dataclass

from .errors import ConfigurationError, ScoreError


@dataclass(frozen=True)
class ScoreOnset:
    beat: float
    pitches: tuple[int, ...]  # sorted ascending, deduplicated


@dataclass
class ScoreSequence:
    """Chord onsets in strictly increasing beat order."""

    onsets: list[ScoreOnset]

    def __len__(self) -> int:
        return len(self.onsets)

    @property
    def beats(self) -> list[float]:
        return [o.beat for o in self.onsets]


def _validated(onsets: list[ScoreOnset]) -> ScoreSequence:
    if not onsets:
        raise ScoreError("empty score: no onsets")
    prev = None
    for i, onset in enumerate(onsets):
        if not onset.pitches:
            raise ScoreError(f"empty pitch set at onset {i}")
        for p in onset.pitches:
            if not 0 <= p <= 127:
                raise ScoreError(f"pitch {p} out of MIDI range at onset {i}")
        if not math.isfinite(onset.beat):
            raise ScoreError(f"non-finite beat {onset.beat} at onset {i}")
        if prev is not None and onset.beat <= prev:
            raise ScoreError(
                f"beats not strictly increasing at onset {i} "
                f"({onset.beat} after {prev})")
        prev = onset.beat
    return ScoreSequence(onsets=onsets)


def _group_chords(events: list[tuple[int, int]], chord_tolerance: int,
                  ppq: int) -> list[ScoreOnset]:
    # events sorted by (tick, pitch); a chord collects every event within
    # chord_tolerance ticks of its first (anchor) event
    onsets = []
    anchor_tick = None
    pitches: set[int] = set()
    for tick, pitch in events:
        if anchor_tick is not None and tick - anchor_tick <= chord_tolerance:
            pitches.add(pitch)
            continue
        if anchor_tick is not None:
            onsets.append(ScoreOnset(beat=anchor_tick / ppq,
                                     pitches=tuple(sorted(pitches))))
        anchor_tick = tick
        pitches = {pitch}
    if anchor_tick is not None:
        onsets.append(ScoreOnset(beat=anchor_tick / ppq,
                                 pitches=tuple(sorted(pitches))))
    return onsets


def from_json(path: str) -> ScoreSequence:
    """Load a JSON chord list: [{"beat": number, "pitches": [int, ...]}, ...]."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScoreError(f"cannot open score {path!r}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, text that does not decode, or an integer
        # literal longer than the interpreter converts to an int
        raise ScoreError(f"malformed JSON in {path!r}: {exc}") from exc

    if not isinstance(doc, list):
        raise ScoreError(f"{path!r}: expected a JSON array of onsets")
    onsets = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "beat" not in item \
                or "pitches" not in item:
            raise ScoreError(
                f"{path!r}: onset {i} must be an object with "
                f"'beat' and 'pitches'")
        beat = item["beat"]
        pitches = item["pitches"]
        if not isinstance(beat, (int, float)) or isinstance(beat, bool):
            raise ScoreError(f"{path!r}: onset {i} beat is not a number")
        if not isinstance(pitches, list) or \
                any(not isinstance(p, int) or isinstance(p, bool)
                    for p in pitches):
            raise ScoreError(
                f"{path!r}: onset {i} pitches must be a list of integers")
        try:
            beat = float(beat)
        except OverflowError:
            raise ScoreError(f"{path!r}: onset {i} beat is too large for "
                             f"a float") from None
        onsets.append(ScoreOnset(beat=beat,
                                 pitches=tuple(sorted(set(pitches)))))
    return _validated(onsets)


# --- minimal standard-MIDI-file reader (format 0/1, note-ons only) ---

class _ByteReader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ScoreError(f"truncated MIDI data in {self.what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def varlen(self) -> int:
        value = 0
        for _ in range(4):
            b = self.byte()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise ScoreError(f"overlong variable-length quantity in {self.what}")

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


# operand byte counts for channel messages, by status high nibble
_CHANNEL_OPERANDS = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2,
                     0xC0: 1, 0xD0: 1, 0xE0: 2}


def _track_note_ons(track_data: bytes, index: int) -> list[tuple[int, int]]:
    reader = _ByteReader(track_data, f"track {index}")
    events = []
    tick = 0
    running_status = None
    while not reader.exhausted:
        tick += reader.varlen()
        status = reader.byte()
        if status < 0x80:
            if running_status is None:
                raise ScoreError(
                    f"track {index}: data byte without running status")
            reader.pos -= 1
            status = running_status
        if status == 0xFF:
            meta_type = reader.byte()
            reader.take(reader.varlen())
            running_status = None
            if meta_type == 0x2F:  # end of track
                break
            continue
        if status in (0xF0, 0xF7):
            reader.take(reader.varlen())
            running_status = None
            continue
        kind = status & 0xF0
        if kind not in _CHANNEL_OPERANDS:
            raise ScoreError(
                f"track {index}: unexpected status byte 0x{status:02X}")
        operands = reader.take(_CHANNEL_OPERANDS[kind])
        running_status = status
        if kind == 0x90 and operands[1] > 0:
            events.append((tick, operands[0]))
    return events


def from_midi(path: str, chord_tolerance: int = 0) -> ScoreSequence:
    """Load a standard MIDI file (format 0 or 1, PPQ division).

    Note-ons from all tracks are merged; events within ``chord_tolerance``
    ticks of a chord's first event join that chord. Chord beat = first
    event's tick / PPQ. A negative ``chord_tolerance`` raises
    ConfigurationError.
    """
    if chord_tolerance < 0:
        raise ConfigurationError(
            f"chord_tolerance must be non-negative, got {chord_tolerance}")
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ScoreError(f"cannot open score {path!r}: {exc}") from exc

    reader = _ByteReader(data, path)
    if reader.take(4) != b"MThd":
        raise ScoreError(f"{path!r} is not a standard MIDI file")
    header_len = struct.unpack(">I", reader.take(4))[0]
    if header_len < 6:
        raise ScoreError(f"{path!r}: malformed MThd chunk")
    fmt, num_tracks, division = struct.unpack(">HHH", reader.take(6))
    reader.take(header_len - 6)
    if fmt not in (0, 1):
        raise ScoreError(f"{path!r}: unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise ScoreError(f"{path!r}: SMPTE time division is not supported")
    if division == 0:
        raise ScoreError(f"{path!r}: zero pulses-per-quarter division")

    events: list[tuple[int, int]] = []
    tracks_seen = 0
    while tracks_seen < num_tracks and not reader.exhausted:
        chunk_type = reader.take(4)
        chunk_len = struct.unpack(">I", reader.take(4))[0]
        chunk = reader.take(chunk_len)
        if chunk_type != b"MTrk":
            continue  # skip alien chunks
        events.extend(_track_note_ons(chunk, tracks_seen))
        tracks_seen += 1

    if not events:
        raise ScoreError(f"{path!r} contains no note-on events")
    events.sort()
    return _validated(_group_chords(events, chord_tolerance, division))
