import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoresync import ConfigurationError, ScoreError, from_json, from_midi

from helpers import write_midi


def write_json_score(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestFromMidi:
    def test_single_note(self, tmp_path):
        path = tmp_path / "one.mid"
        write_midi(path, [[(0, 60, 80)]])
        seq = from_midi(str(path))
        assert len(seq) == 1
        assert seq.onsets[0].beat == 0.0
        assert seq.onsets[0].pitches == (60,)

    def test_chord_grouping_by_tick_tolerance(self, tmp_path):
        path = tmp_path / "chord.mid"
        write_midi(path, [[(480, 60, 80), (481, 64, 80), (482, 67, 80)]])
        seq = from_midi(str(path), chord_tolerance=2)
        assert len(seq) == 1
        assert seq.onsets[0].beat == 1.0
        assert seq.onsets[0].pitches == (60, 64, 67)

    def test_zero_tolerance_splits_spread_notes(self, tmp_path):
        path = tmp_path / "spread.mid"
        write_midi(path, [[(0, 60, 80), (480, 60, 80)]])
        seq = from_midi(str(path), chord_tolerance=0)
        assert [o.beat for o in seq.onsets] == [0.0, 1.0]
        assert all(o.pitches == (60,) for o in seq.onsets)

    @pytest.mark.parametrize("tolerance", [-1, -480])
    def test_negative_tolerance_is_config_error(self, tmp_path, tolerance):
        # a negative tolerance never groups, so it would split every chord
        # into notes on one beat
        path = tmp_path / "chord.mid"
        write_midi(path, [[(0, 60, 80), (0, 64, 80), (480, 62, 80)]])
        with pytest.raises(ConfigurationError, match="chord_tolerance"):
            from_midi(str(path), chord_tolerance=tolerance)

    def test_duplicate_pitches_in_chord_deduplicated(self, tmp_path):
        path = tmp_path / "dup.mid"
        write_midi(path, [[(0, 60, 80), (0, 60, 90), (0, 64, 70)]])
        seq = from_midi(str(path))
        assert seq.onsets[0].pitches == (60, 64)

    def test_velocity_zero_note_on_is_ignored(self, tmp_path):
        path = tmp_path / "vel0.mid"
        write_midi(path, [[(0, 60, 80), (480, 62, 0), (960, 64, 80)]])
        seq = from_midi(str(path))
        assert [o.pitches for o in seq.onsets] == [(60,), (64,)]

    def test_format1_tracks_merged(self, tmp_path):
        path = tmp_path / "two.mid"
        write_midi(path, [[(0, 60, 80), (960, 62, 80)],
                          [(0, 48, 80), (480, 50, 80)]])
        seq = from_midi(str(path))
        assert [o.beat for o in seq.onsets] == [0.0, 1.0, 2.0]
        assert seq.onsets[0].pitches == (48, 60)

    def test_running_status_events_parsed(self, tmp_path):
        path = tmp_path / "running.mid"
        write_midi(path, [[(0, 60, 80), (480, 64, 80), (960, 67, 80)]],
                   running_status=True)
        seq = from_midi(str(path))
        assert [o.pitches for o in seq.onsets] == [(60,), (64,), (67,)]

    def test_ppq_division_scales_beats(self, tmp_path):
        path = tmp_path / "ppq.mid"
        write_midi(path, [[(0, 60, 80), (120, 64, 80)]], ppq=96)
        seq = from_midi(str(path))
        assert seq.onsets[1].beat == pytest.approx(1.25)

    def test_other_channel_messages_skipped(self, tmp_path):
        path = tmp_path / "mixed.mid"
        track = (b"\x00\xc0\x05"          # program change (1 operand)
                 b"\x00\xb0\x40\x7f"      # control change (2 operands)
                 b"\x00\x90\x3c\x50"      # note-on C4
                 b"\x10\xe0\x00\x40"      # pitch bend
                 b"\x20\x80\x3c\x40"      # note-off
                 b"\x00\xf0\x02\x01\x02"  # sysex
                 b"\x00\xff\x51\x03\x07\xa1\x20"  # tempo meta event
                 b"\x30\x90\x40\x50"      # note-on E4 at tick 0x60
                 b"\x00\xff\x2f\x00")
        data = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 96)
        data += b"MTrk" + struct.pack(">I", len(track)) + track
        path.write_bytes(data)
        seq = from_midi(str(path))
        assert [(o.beat, o.pitches) for o in seq.onsets] == \
            [(0.0, (60,)), (0x60 / 96, (64,))]

    def test_smpte_division_rejected(self, tmp_path):
        path = tmp_path / "smpte.mid"
        data = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0xE728)
        track = b"\x00\xff\x2f\x00"
        data += b"MTrk" + struct.pack(">I", len(track)) + track
        path.write_bytes(data)
        with pytest.raises(ScoreError, match="SMPTE"):
            from_midi(str(path))

    def test_short_mthd_chunk_rejected(self, tmp_path):
        path = tmp_path / "short.mid"
        path.write_bytes(b"MThd" + struct.pack(">IHH", 4, 0, 1))
        with pytest.raises(ScoreError, match="malformed MThd chunk"):
            from_midi(str(path))

    def test_zero_ppq_rejected(self, tmp_path):
        path = tmp_path / "zero.mid"
        write_midi(path, [[(0, 60, 80)]], ppq=0)
        with pytest.raises(ScoreError, match="zero pulses-per-quarter"):
            from_midi(str(path))

    def test_alien_chunk_skipped(self, tmp_path):
        plain, alien = tmp_path / "plain.mid", tmp_path / "alien.mid"
        write_midi(plain, [[(0, 60, 80), (480, 64, 80)]])
        data = plain.read_bytes()
        # an unknown chunk between the header (14 bytes) and the track
        alien.write_bytes(data[:14] + b"XFIH" + struct.pack(">I", 3)
                          + b"abc" + data[14:])
        seq = from_midi(str(alien))
        assert [(o.beat, o.pitches) for o in seq.onsets] == \
            [(0.0, (60,)), (1.0, (64,))]
        assert seq == from_midi(str(plain))

    def test_no_note_ons_rejected(self, tmp_path):
        path = tmp_path / "empty.mid"
        data = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
        track = b"\x00\xff\x2f\x00"
        data += b"MTrk" + struct.pack(">I", len(track)) + track
        path.write_bytes(data)
        with pytest.raises(ScoreError, match="note-on"):
            from_midi(str(path))

    def test_format2_rejected(self, tmp_path):
        path = tmp_path / "fmt2.mid"
        write_midi(path, [[(0, 60, 80)]], fmt=2)
        with pytest.raises(ScoreError, match="format"):
            from_midi(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.mid"
        write_midi(path, [[(0, 60, 80)]])
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ScoreError):
            from_midi(str(path))

    def test_not_midi_rejected(self, tmp_path):
        path = tmp_path / "nope.mid"
        path.write_bytes(b"RIFFxxxx")
        with pytest.raises(ScoreError):
            from_midi(str(path))

    def test_round_trip_preserves_beats_and_pitches(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            ticks = np.cumsum(rng.integers(1, 960, size=rng.integers(1, 12)))
            ticks = np.concatenate([[0], ticks])
            events = []
            expected = []
            for tick in ticks:
                pitches = sorted(rng.choice(88, size=rng.integers(1, 4),
                                            replace=False) + 21)
                events.extend((int(tick), int(p), 64) for p in pitches)
                expected.append((tick / 480.0, tuple(int(p) for p in pitches)))
            path = tmp_path / f"rt{trial}.mid"
            write_midi(path, [events], ppq=480)
            seq = from_midi(str(path), chord_tolerance=0)
            assert [(o.beat, o.pitches) for o in seq.onsets] == expected


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.mid"


def _read_or_reject(path, data):
    """Feed ``data`` to from_midi: it may return a score or raise
    ScoreError, and nothing else."""
    path.write_bytes(data)
    try:
        from_midi(str(path))
    except ScoreError:
        pass


class TestFromMidiFuzz:
    @given(data=st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_raise_only_score_error(self, fuzz_path, data):
        _read_or_reject(fuzz_path, data)

    @given(fmt=st.integers(0, 1), division=st.integers(1, 960),
           body=st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_track_body_raises_only_score_error(self, fuzz_path, fmt,
                                                       division, body):
        data = b"MThd" + struct.pack(">IHHH", 6, fmt, 1, division) \
            + b"MTrk" + struct.pack(">I", len(body)) + body
        _read_or_reject(fuzz_path, data)


class TestFromJson:
    def test_two_onsets(self, tmp_path):
        path = write_json_score(tmp_path / "ok.json",
                                [{"beat": 0, "pitches": [60]},
                                 {"beat": 1, "pitches": [64, 67]}])
        seq = from_json(path)
        assert len(seq) == 2
        assert seq.onsets[1].pitches == (64, 67)

    def test_non_increasing_beats_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "dup.json",
                                [{"beat": 1, "pitches": [60]},
                                 {"beat": 1, "pitches": [64]}])
        with pytest.raises(ScoreError, match="strictly increasing"):
            from_json(path)

    @pytest.mark.parametrize("beats", [(0.0, float("nan")),
                                       (0.0, float("inf")),
                                       (float("-inf"), 0.0)])
    def test_non_finite_beat_rejected(self, tmp_path, beats):
        # json writes these as the NaN/Infinity literals json.load accepts
        path = write_json_score(tmp_path / "nonfinite.json",
                                [{"beat": b, "pitches": [60]} for b in beats])
        with pytest.raises(ScoreError, match="non-finite beat"):
            from_json(path)

    def test_document_not_an_array_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "object.json",
                                {"beat": 0, "pitches": [60]})
        with pytest.raises(ScoreError, match="expected a JSON array"):
            from_json(path)

    def test_onset_not_an_object_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "number.json",
                                [{"beat": 0, "pitches": [60]}, 1])
        with pytest.raises(ScoreError, match="onset 1 must be an object"):
            from_json(path)

    def test_beat_not_a_number_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "text.json",
                                [{"beat": "0", "pitches": [60]}])
        with pytest.raises(ScoreError, match="onset 0 beat is not a number"):
            from_json(path)

    def test_empty_score_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "empty.json", [])
        with pytest.raises(ScoreError, match="empty score"):
            from_json(path)

    def test_empty_pitch_set_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "nopitch.json",
                                [{"beat": 0, "pitches": []}])
        with pytest.raises(ScoreError, match="empty pitch set"):
            from_json(path)

    def test_out_of_range_pitch_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "oob.json",
                                [{"beat": 0, "pitches": [200]}])
        with pytest.raises(ScoreError, match="out of MIDI range"):
            from_json(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScoreError, match="malformed"):
            from_json(str(path))

    def test_non_integer_pitch_rejected(self, tmp_path):
        path = write_json_score(tmp_path / "floatpitch.json",
                                [{"beat": 0, "pitches": [60.5]}])
        with pytest.raises(ScoreError, match="integers"):
            from_json(path)

    def test_fuzzed_valid_scores_satisfy_invariants(self, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(25):
            beats = np.cumsum(rng.uniform(0.1, 2.0,
                                          size=rng.integers(1, 15)))
            doc = [{"beat": float(b),
                    "pitches": sorted(int(p) for p in rng.choice(
                        128, size=rng.integers(1, 5), replace=False))}
                   for b in beats]
            seq = from_json(write_json_score(
                tmp_path / f"fuzz{trial}.json", doc))
            assert all(b2 > b1 for b1, b2 in zip(seq.beats, seq.beats[1:]))
            assert all(o.pitches for o in seq.onsets)
            assert all(0 <= p <= 127 for o in seq.onsets for p in o.pitches)
