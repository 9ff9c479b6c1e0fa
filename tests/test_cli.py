import argparse
import dataclasses
import errno
import io
import json
import os
import stat
import subprocess
import sys
import types

import numpy as np
import pytest

from scoresync import (AlignmentParams, FilterbankConfig, _gformat, cli,
                       formats, synth_eval)
from scoresync.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_SCORE,
                           main)
from scoresync.errors import (AudioReadError, ConfigurationError,
                              EmptyAudioError, InfeasiblePathError,
                              ScoreError, ScoreSyncError,
                              UnsupportedAudioError)

from helpers import write_midi, write_wav


# the MIDI reader's message, which every score type gets
NEGATIVE_TOLERANCE = \
    "scoresync: config: chord_tolerance must be non-negative, got -1\n"

# JSON scores holding a number that cannot be read: a beat too large for a
# float, and integer literals longer than the interpreter parses
UNREADABLE_NUMBERS = {
    "huge_beat": '[{"beat": 1' + "0" * 399 + ', "pitches": [60]}]',
    "long_beat": '[{"beat": 1' + "0" * 4400 + ', "pitches": [60]}]',
    "long_pitch": '[{"beat": 0, "pitches": [1' + "0" * 4400 + ']}]',
}
unreadable_numbers = pytest.mark.parametrize(
    "doc", UNREADABLE_NUMBERS.values(), ids=UNREADABLE_NUMBERS)


@pytest.fixture
def score_path(tmp_path):
    path = tmp_path / "score.json"
    doc = [{"beat": float(i), "pitches": [60 + 2 * (i % 3), 64]}
           for i in range(6)]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def piece(tmp_path, score_path):
    wav = tmp_path / "piece.wav"
    assert main(["synth", "--score", score_path, "--tempo", "0:120",
                 "--noise-level", "0.01", "--seed", "7",
                 "--out", str(wav)]) == 0
    return {"wav": str(wav), "truth": f"{wav}.truth.csv",
            "score": score_path}


@pytest.fixture
def midi_chords(tmp_path):
    """A MIDI score of six two-note chords, one beat apart."""
    path = tmp_path / "chords.mid"
    write_midi(path, [[(480 * i, p, 80) for i in range(6) for p in (60, 64)]])
    return str(path)


class TestSynth:
    def test_writes_wav_and_truth(self, piece, tmp_path):
        from scoresync import load_wav
        audio = load_wav(piece["wav"])
        assert audio.duration > 2.0
        lines = open(piece["truth"]).read().splitlines()
        assert lines[0] == "score_index,beat,time_s"
        assert len(lines) == 1 + 6

    def test_non_increasing_tempo_map_is_usage_error(self, score_path,
                                                     tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--score", score_path, "--tempo", "0:120,0:90",
                  "--out", str(tmp_path / "x.wav")])
        assert excinfo.value.code == 2

    def test_tempo_map_must_start_at_first_beat(self, score_path, tmp_path):
        assert main(["synth", "--score", score_path, "--tempo", "1:120",
                     "--out", str(tmp_path / "x.wav")]) == EXIT_SCORE

    @pytest.mark.parametrize("flag, value", [
        ("--noise-level", "nan"), ("--noise-level", "inf"),
        ("--noise-level", "-0.01"), ("--sample-rate", "0"),
        ("--sample-rate", "-8000")])
    def test_invalid_level_or_rate_is_config_error(self, score_path,
                                                    tmp_path, capsys, flag,
                                                    value):
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", score_path, "--out", str(out),
                     flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("scoresync: synth: ")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, -2 ** 40])
    def test_negative_seed_is_config_error(self, score_path, tmp_path,
                                           capsys, seed):
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", score_path, "--out", str(out),
                     "--seed", str(seed)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("scoresync: synth: ")
        assert not out.exists()

    def test_overflowing_noise_level_is_config_error(self, score_path,
                                                     tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", score_path, "--out", str(out),
                     "--noise-level", "1e308", "--seed", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "scoresync: synth: noise_level 1e+308 overflows the mix\n"
        assert not out.exists()

    @pytest.mark.parametrize("score", ["midi_chords", "score_path"])
    def test_negative_chord_tolerance_is_config_error(self, request, score,
                                                      tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", request.getfixturevalue(score),
                     "--out", str(out), "--chord-tolerance", "-1"]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == NEGATIVE_TOLERANCE
        assert not out.exists()

    @unreadable_numbers
    def test_unreadable_json_number_is_score_error(self, tmp_path, capsys,
                                                   doc):
        score = tmp_path / "score.json"
        score.write_text(doc)
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", str(score), "--out", str(out)]) \
            == EXIT_SCORE
        assert capsys.readouterr().err.startswith("scoresync: score: ")
        assert not out.exists()

    def test_render_too_large_is_config_error(self, score_path, tmp_path,
                                              capsys, monkeypatch):
        # synth_eval's numpy, whose zeros fails the test
        def zeros(*args, **kwargs):
            pytest.fail("the mix was allocated")
        monkeypatch.setattr(synth_eval, "np", types.SimpleNamespace(
            **{**vars(np), "zeros": zeros}))
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", score_path, "--out", str(out),
                     "--sample-rate", "100000000000"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "scoresync: synth: a render of 3.5 s at 100000000000 Hz is more "
            "than 268435456 samples\n")
        assert sorted(os.listdir(tmp_path)) == ["score.json"]

    def test_missing_truth_directory_leaves_no_wav(self, score_path,
                                                   tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert main(["synth", "--score", score_path, "--out", str(out),
                     "--truth-out", str(tmp_path / "no" / "t.csv")]) \
            == EXIT_IO
        assert capsys.readouterr().err.startswith(
            "scoresync: output: [Errno 2] ")
        assert sorted(os.listdir(tmp_path)) == ["score.json"]

    def test_missing_wav_directory_leaves_no_truth(self, score_path,
                                                   tmp_path, capsys):
        assert main(["synth", "--score", score_path,
                     "--out", str(tmp_path / "no" / "x.wav"),
                     "--truth-out", str(tmp_path / "t.csv")]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            "scoresync: output: [Errno 2] ")
        assert sorted(os.listdir(tmp_path)) == ["score.json"]

    def test_failed_write_keeps_the_files_it_would_replace(
            self, score_path, tmp_path):
        out, truth = tmp_path / "x.wav", tmp_path / "t.csv"
        out.write_bytes(b"old wav")
        truth.write_text("old truth")
        (tmp_path / "dir.csv").mkdir()
        for args in (["--out", str(out), "--truth-out",
                      str(tmp_path / "dir.csv")],
                     ["--out", str(tmp_path / "no" / "x.wav"),
                      "--truth-out", str(truth)]):
            assert main(["synth", "--score", score_path, *args]) == EXIT_IO
        assert out.read_bytes() == b"old wav"
        assert truth.read_text() == "old truth"
        assert sorted(os.listdir(tmp_path)) == [
            "dir.csv", "score.json", "t.csv", "x.wav"]

    def test_link_is_written_through(self, score_path, tmp_path):
        link = tmp_path / "link.wav"
        link.symlink_to(tmp_path / "target.wav")
        assert main(["synth", "--score", score_path, "--out", str(link),
                     "--truth-out", str(tmp_path / "t.csv")]) == 0
        assert link.is_symlink()
        assert (tmp_path / "target.wav").read_bytes()[:4] == b"RIFF"


class TestAlign:
    def test_alignment_csv_row_per_onset(self, piece, tmp_path):
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == \
            "score_index,beat,pitches,frame,time_s,cumulative_cost"
        assert len(lines) == 1 + 6
        assert lines[1].split(",")[2] == "60+64"

    def test_json_output_mirrors_result(self, piece, tmp_path):
        out = tmp_path / "alignment.json"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 6
        assert doc["effective_frame_rate"] == 50.0
        assert doc["entries"][0]["pitches"] == [60, 64]

    def test_json_is_the_result_in_field_order(self, piece, tmp_path):
        args = ["align", "--audio", piece["wav"], "--score", piece["score"]]
        csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
        assert main(args + ["--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        assert list(doc) == ["entries", "total_cost", "effective_frame_rate"]
        header, *rows = csv_out.read_text().splitlines()
        assert len(doc["entries"]) == len(rows)
        for entry, row in zip(doc["entries"], rows):
            assert list(entry) == header.split(",")
            assert ",".join([
                str(entry["score_index"]), f"{entry['beat']:.6g}",
                "+".join(map(str, entry["pitches"])), str(entry["frame"]),
                f"{entry['time_s']:.6g}",
                f"{entry['cumulative_cost']:.6g}"]) == row
        assert doc["total_cost"] == doc["entries"][-1]["cumulative_cost"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_when_no_out_path(self, piece, tmp_path, capsys, fmt):
        args = ["align", "--audio", piece["wav"], "--score", piece["score"],
                "--format", fmt]
        out = tmp_path / f"alignment.{fmt}"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        print("stdout still open")
        assert capsys.readouterr().out == \
            out.read_text() + "stdout still open\n"

    @pytest.mark.parametrize("flag,value", [
        ("--sustain-frames", "1000000000"), ("--stretch-max", "1e19"),
        ("--max-window-frames", "100000000000000000000"),
        ("--initial-window", "1e308")])
    def test_parameter_past_the_frame_count_aligns(self, piece, tmp_path,
                                                   capsys, flag, value):
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], flag, value, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 6
        assert capsys.readouterr().err == ""

    def test_missing_score_file_names_path(self, piece, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.json")
        assert main(["align", "--audio", piece["wav"],
                     "--score", missing]) == EXIT_SCORE
        assert "nowhere.json" in capsys.readouterr().err

    @pytest.mark.parametrize("score", ["midi_chords", "score_path"])
    def test_negative_chord_tolerance_is_config_error(self, request, score,
                                                      piece, tmp_path,
                                                      capsys):
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     request.getfixturevalue(score), "--chord-tolerance",
                     "-1", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == NEGATIVE_TOLERANCE
        assert not out.exists()

    @unreadable_numbers
    def test_unreadable_json_number_is_score_error(self, piece, tmp_path,
                                                   capsys, doc):
        score = tmp_path / "unreadable.json"
        score.write_text(doc)
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", piece["wav"], "--score", str(score),
                     "--out", str(out)]) == EXIT_SCORE
        assert capsys.readouterr().err.startswith("scoresync: score: ")
        assert not out.exists()

    def test_missing_audio_is_io_error(self, score_path, tmp_path):
        assert main(["align", "--audio", str(tmp_path / "no.wav"),
                     "--score", score_path]) == EXIT_IO

    def test_non_finite_sample_is_io_error(self, score_path, tmp_path,
                                           capsys):
        wav = tmp_path / "nan.wav"
        write_wav(wav, 22050, [[0.0] * 22050 + [float("nan")]], fmt="f32")
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", str(wav), "--score", score_path,
                     "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"scoresync: audio: {str(wav)!r} contains non-finite samples\n")
        assert not out.exists()

    def test_pitch_range_mismatch_is_config_error(self, piece, tmp_path,
                                                  capsys):
        bad = tmp_path / "low.json"
        bad.write_text(json.dumps([{"beat": 0, "pitches": [10]}]))
        assert main(["align", "--audio", piece["wav"],
                     "--score", str(bad)]) == EXIT_CONFIG
        assert "pitch 10" in capsys.readouterr().err

    def test_infeasible_alignment_exit_code(self, tmp_path, score_path):
        # a fraction of a second of audio cannot host six chords
        wav = tmp_path / "short.wav"
        write_wav(wav, 22050, [[0] * 6000], fmt="pcm16")
        assert main(["align", "--audio", str(wav),
                     "--score", score_path]) == EXIT_INFEASIBLE

    def test_runs_are_byte_identical(self, piece, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["align", "--audio", piece["wav"], "--score",
                         piece["score"], "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _assert_dump_round_trip(wav, score, tmp_path):
        raw = tmp_path / "raw.csv"
        direct = tmp_path / "direct.csv"
        from_dump = tmp_path / "from_dump.csv"
        assert main(["features", "--audio", wav, "--feature", "raw",
                     "--precision", "full", "--out", str(raw)]) == 0
        assert main(["align", "--audio", wav, "--score", score,
                     "--out", str(direct)]) == 0
        assert main(["align", "--features", str(raw), "--score", score,
                     "--out", str(from_dump)]) == 0
        assert direct.read_bytes() == from_dump.read_bytes()

    def test_align_from_full_precision_dump_matches(self, piece, tmp_path):
        self._assert_dump_round_trip(piece["wav"], piece["score"], tmp_path)

    def test_align_from_full_precision_dump_matches_at_44k(self, score_path,
                                                           tmp_path):
        # at 44.1 kHz every band group runs on a resampled signal
        wav = str(tmp_path / "piece44k.wav")
        assert main(["synth", "--score", score_path, "--tempo", "0:120",
                     "--noise-level", "0.01", "--seed", "7",
                     "--sample-rate", "44100", "--out", wav]) == 0
        self._assert_dump_round_trip(wav, score_path, tmp_path)

    def test_dump_read_by_kernel_and_fallback_matches(self, piece, tmp_path,
                                                      monkeypatch):
        # blocks of 4 kB, so the dump spans many: aligning from it with
        # scipy's compiled float reader and with np.loadtxt alone equals
        # aligning the audio
        from scoresync import _scipy, formats
        monkeypatch.setattr(formats, "_BLOCK_BYTES", 4096)
        raw = tmp_path / "raw.csv"
        direct = tmp_path / "direct.csv"
        assert main(["features", "--audio", piece["wav"], "--feature", "raw",
                     "--precision", "full", "--out", str(raw)]) == 0
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--out", str(direct)]) == 0
        for path, reader in [("kernel", _scipy.array_reader),
                             ("fallback", lambda: None)]:
            monkeypatch.setattr(_scipy, "array_reader", reader)
            from_dump = tmp_path / f"from_dump_{path}.csv"
            assert main(["align", "--features", str(raw), "--score",
                         piece["score"], "--out", str(from_dump)]) == 0
            assert from_dump.read_bytes() == direct.read_bytes()

    def test_bad_row_in_a_late_block_names_its_line(self, piece, tmp_path,
                                                    monkeypatch, capsys):
        from scoresync import formats
        monkeypatch.setattr(formats, "_BLOCK_BYTES", 4096)
        raw, lines = self._dump_rows(piece, tmp_path)
        line = len(lines) - 3
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + ",x"
        assert self._align_dump(piece, raw, lines) == EXIT_IO
        assert f"{str(raw)!r} line {line}: " in capsys.readouterr().err

    def _dump_rows(self, piece, tmp_path):
        raw = tmp_path / "raw.csv"
        assert main(["features", "--audio", piece["wav"], "--feature", "raw",
                     "--precision", "full", "--out", str(raw)]) == 0
        return raw, raw.read_text().splitlines()

    def _align_dump(self, piece, raw, lines):
        raw.write_text("\n".join(lines) + "\n")
        return main(["align", "--features", str(raw), "--score",
                     piece["score"], "--out", str(raw.with_suffix(".out"))])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_or_negative_dump_is_io_error(self, piece, tmp_path,
                                                     capsys, value):
        raw, lines = self._dump_rows(piece, tmp_path)
        fields = lines[5].split(",")
        fields[40] = value
        lines[5] = ",".join(fields)
        assert self._align_dump(piece, raw, lines) == EXIT_IO
        assert "finite and non-negative" in capsys.readouterr().err

    def test_ragged_dump_is_io_error(self, piece, tmp_path):
        raw, lines = self._dump_rows(piece, tmp_path)
        lines[5] = lines[5].rsplit(",", 1)[0]
        assert self._align_dump(piece, raw, lines) == EXIT_IO

    def test_header_only_dump_is_io_error(self, piece, tmp_path):
        raw, lines = self._dump_rows(piece, tmp_path)
        assert self._align_dump(piece, raw, lines[:1]) == EXIT_IO

    def test_dump_without_band_columns_is_io_error(self, piece, tmp_path,
                                                   capsys):
        raw, lines = self._dump_rows(piece, tmp_path)
        frames_only = [line.split(",", 1)[0] for line in lines]
        assert self._align_dump(piece, raw, frames_only) == EXIT_IO
        assert "no band columns" in capsys.readouterr().err

    def test_dump_header_not_utf8_names_the_file(self, tmp_path, capsys):
        score = tmp_path / "score.json"
        score.write_text(json.dumps([{"beat": float(b), "pitches": [60]}
                                     for b in range(4)]))
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"frame,p59\xff,p60,p61\n"
                        + b"".join(b"%d,0.5,0.25,0.5\n" % t
                                   for t in range(300)))
        assert main(["align", "--features", str(raw),
                     "--score", str(score)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"scoresync: features: {str(raw)!r} line 1: 'utf-8' codec "
            f"can't decode byte 0xff in position 9: invalid start byte\n")

    @pytest.mark.parametrize("pitches", [(61, 60), (60, 62)])
    def test_dump_with_band_columns_out_of_step_is_io_error(
            self, tmp_path, capsys, pitches):
        # every score pitch has a column, but the columns do not run up
        # one semitone at a time from the first
        score = tmp_path / "score.json"
        score.write_text(json.dumps([{"beat": float(b),
                                      "pitches": sorted(pitches)}
                                     for b in range(4)]))
        raw = tmp_path / "raw.csv"
        raw.write_text("frame," + ",".join(f"p{p}" for p in pitches) + "\n"
                       + "".join(f"{t},0.5,0.25\n" for t in range(300)))
        assert main(["align", "--features", str(raw),
                     "--score", str(score)]) == EXIT_IO
        assert "band columns" in capsys.readouterr().err

    def test_dump_with_band_columns_past_midi_127_is_io_error(
            self, tmp_path, capsys):
        # `features` can never write p128 (the filterbank stops at 127),
        # so a dump that has it is not one of ours, even though the score
        # only needs p127
        score = tmp_path / "score.json"
        score.write_text(json.dumps([{"beat": float(b), "pitches": [127]}
                                     for b in range(4)]))
        raw = tmp_path / "raw.csv"
        raw.write_text("frame,p126,p127,p128\n"
                       + "".join(f"{t},0.5,0.25,0.125\n" for t in range(300)))
        assert main(["align", "--features", str(raw),
                     "--score", str(score)]) == EXIT_IO
        assert "past MIDI pitch 127" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["gap", "swap", "offset", "fraction"])
    def test_dump_with_frames_out_of_sequence_is_io_error(
            self, piece, tmp_path, capsys, edit):
        # row t is read as frame t, so a dump with missing, reordered or
        # renumbered rows would shift every onset after the edit
        raw, lines = self._dump_rows(piece, tmp_path)
        header, rows = lines[0], lines[1:]
        if edit == "gap":
            del rows[50:80]
        elif edit == "swap":
            rows[50], rows[51] = rows[51], rows[50]
        else:
            shift = 1 if edit == "offset" else 0.5
            rows = [f"{int(row.split(',', 1)[0]) + shift},"
                    f"{row.split(',', 1)[1]}" for row in rows]
        assert self._align_dump(piece, raw, [header] + rows) == EXIT_IO
        assert "frames must run 0, 1, ..." in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--initial-window", "nan"), ("--initial-window", "inf"),
        ("--frame-rate", "nan"), ("--stretch-max", "inf"),
        ("--w-stretch", "nan"), ("--reset-threshold", "nan")])
    def test_non_finite_parameter_is_config_error(self, piece, flag, value):
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], flag, value]) == EXIT_CONFIG

    def test_frame_rate_above_twice_sample_rate_is_config_error(
            self, piece, tmp_path, capsys):
        out = tmp_path / "alignment.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--frame-rate", "1e9",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "scoresync: filterbank: frame rate 1e+09 Hz gives a hop of 0")
        assert not out.exists()

    def test_audio_and_features_mutually_exclusive(self, piece):
        with pytest.raises(SystemExit) as excinfo:
            main(["align", "--audio", piece["wav"], "--features", "x.csv",
                  "--score", piece["score"]])
        assert excinfo.value.code == 2


class TestAlignScoreBands:
    """``align --audio`` filters only the score's register and one band
    either side, with the bytes of a run on the whole bank, and
    ``align --features`` reads the same bands of its dump."""

    @pytest.fixture
    def register_piece(self, tmp_path):
        # chords over MIDI 60-72
        score = tmp_path / "register.json"
        score.write_text(json.dumps(
            [{"beat": float(i), "pitches": sorted({60 + 5 * i % 13, 72})}
             for i in range(8)]))
        wav = tmp_path / "register.wav"
        assert main(["synth", "--score", str(score), "--tempo", "0:120",
                     "--noise-level", "0.01", "--seed", "5",
                     "--out", str(wav)]) == 0
        return str(wav), str(score)

    @staticmethod
    def spy_pitches(monkeypatch, full_bank=False):
        """Record the ``pitches`` each ``compute_spectrogram`` call gets;
        with ``full_bank``, filter the whole bank whatever it gets."""
        calls = []
        compute_spectrogram = cli.compute_spectrogram

        def spy(audio, config, *, pitches=None):
            calls.append(pitches)
            return compute_spectrogram(
                audio, config, pitches=None if full_bank else pitches)
        monkeypatch.setattr(cli, "compute_spectrogram", spy)
        return calls

    def test_filters_the_score_register_and_a_band_either_side(
            self, register_piece, monkeypatch, tmp_path):
        wav, score = register_piece
        calls = self.spy_pitches(monkeypatch)
        assert main(["align", "--audio", wav, "--score", score,
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert calls == [range(59, 74)]

    @pytest.mark.parametrize("flags", [[], ["--reset-threshold", "2.0"]])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_bytes_as_the_whole_bank(self, register_piece, monkeypatch,
                                          tmp_path, fmt, flags):
        wav, score = register_piece
        outputs = []
        for full_bank in (False, True):
            with monkeypatch.context() as patched:
                calls = self.spy_pitches(patched, full_bank)
                out = tmp_path / f"{full_bank}.{fmt}"
                assert main(["align", "--audio", wav, "--score", score,
                             "--format", fmt, "--out", str(out),
                             *flags]) == 0
                assert calls == [range(59, 74)]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("pitch", [20, 109])
    def test_pitch_outside_the_bank_is_config_error(
            self, piece, monkeypatch, tmp_path, capsys, pitch):
        calls = self.spy_pitches(monkeypatch)
        bad = tmp_path / "outside.json"
        bad.write_text(json.dumps([{"beat": 0, "pitches": [60]},
                                   {"beat": 1, "pitches": [pitch, 64]}]))
        assert main(["align", "--audio", piece["wav"],
                     "--score", str(bad)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == (
            f"scoresync: align: pitch {pitch} outside filterbank range "
            f"21..108\n")

    @staticmethod
    def spy_features(monkeypatch):
        """Record the spectrogram each ``extract_features`` call gets."""
        raws = []
        extract_features = cli.extract_features

        def spy(raw):
            raws.append(raw)
            return extract_features(raw)
        monkeypatch.setattr(cli, "extract_features", spy)
        return raws

    def test_pitch_outside_the_bank_fails_before_the_audio_is_read(
            self, monkeypatch, tmp_path, capsys):
        def load_wav(path):
            pytest.fail("the audio was read")
        monkeypatch.setattr(cli, "load_wav", load_wav)
        calls = self.spy_pitches(monkeypatch)
        bad = tmp_path / "outside.json"
        bad.write_text(json.dumps([{"beat": 0, "pitches": [60]},
                                   {"beat": 1, "pitches": [109, 64]}]))
        assert main(["align", "--audio", str(tmp_path / "missing.wav"),
                     "--score", str(bad)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err == (
            "scoresync: align: pitch 109 outside filterbank range 21..108\n")

    def test_audio_and_dump_hand_the_features_the_same_bands(
            self, register_piece, monkeypatch, tmp_path):
        wav, score = register_piece
        dump = tmp_path / "raw.csv"
        assert main(["features", "--audio", wav, "--feature", "raw",
                     "--precision", "full", "--out", str(dump)]) == 0
        raws = self.spy_features(monkeypatch)
        for source in (["--audio", wav], ["--features", str(dump)]):
            assert main(["align", *source, "--score", score,
                         "--out", str(tmp_path / "a.csv")]) == 0
        from_audio, from_dump = raws
        assert from_audio.midi_low == from_dump.midi_low == 59
        assert from_audio.frame_rate == from_dump.frame_rate
        assert from_dump.values.shape[0] == 15
        assert np.array_equal(from_audio.values, from_dump.values)

    def test_pitch_outside_a_partial_dump_is_config_error(
            self, register_piece, monkeypatch, tmp_path, capsys):
        wav, score = register_piece
        config = tmp_path / "part.cfg"
        config.write_text("midi_low=40\nnum_bands=30\n")
        dump = tmp_path / "part.csv"
        assert main(["features", "--audio", wav, "--config", str(config),
                     "--feature", "raw", "--precision", "full",
                     "--out", str(dump)]) == 0
        raws = self.spy_features(monkeypatch)
        assert main(["align", "--features", str(dump),
                     "--score", score]) == EXIT_CONFIG
        assert raws == []
        assert capsys.readouterr().err == (
            "scoresync: align: pitch 72 outside filterbank range 40..69\n")

    def test_top_bands_past_nyquist_fail_a_low_score(self, tmp_path, capsys):
        # the score's bands fit below 4 kHz, but the bank's top ones do not
        low = tmp_path / "low.json"
        low.write_text(json.dumps([{"beat": 0, "pitches": [40]},
                                   {"beat": 1, "pitches": [45]}]))
        wav = tmp_path / "8k.wav"
        write_wav(wav, 8000, [[0] * 16000], fmt="pcm16")
        assert main(["align", "--audio", str(wav),
                     "--score", str(low)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "scoresync: filterbank: band for MIDI pitch 107: band edge ")


class TestFeatures:
    def test_silence_gives_all_zero_rows(self, tmp_path):
        wav = tmp_path / "silence.wav"
        write_wav(wav, 22050, [[0] * 22050], fmt="pcm16")
        out = tmp_path / "feat.csv"
        assert main(["features", "--audio", str(wav),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("frame,p21,p22")
        assert lines[0].endswith("p108")
        assert len(lines) == 1 + 50
        assert all(line.split(",", 1)[1].replace(",", "") == "0" * 88
                   for line in lines[1:])

    def test_tone_energy_lands_in_its_column(self, tmp_path):
        sr = 22050
        t = np.arange(2 * sr) / sr
        samples = (0.5 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(int)
        wav = tmp_path / "tone.wav"
        write_wav(wav, sr, [samples.tolist()], fmt="pcm16")
        out = tmp_path / "feat.csv"
        assert main(["features", "--audio", str(wav), "--feature", "spec",
                     "--out", str(out)]) == 0
        rows = [line.split(",")[1:]
                for line in out.read_text().splitlines()[1:]]
        sums = np.array([[float(v) for v in row] for row in rows]).sum(axis=0)
        assert sums.argmax() == 69 - 21

    def test_frame_rate_above_twice_sample_rate_is_config_error(
            self, piece, tmp_path, capsys):
        out = tmp_path / "feat.csv"
        assert main(["features", "--audio", piece["wav"], "--frame-rate",
                     "1e9", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "scoresync: filterbank: frame rate 1e+09 Hz gives a hop of 0")
        assert not out.exists()

    # a subnormal frame rate makes the hop inf, longer than any signal; a
    # tiny normal one a hop printed in exponent form
    @pytest.mark.parametrize("frame_rate, hop", [("1e-3", "22050000"),
                                                 ("1e-320", "inf"),
                                                 ("1e-300", "2.205e+304")])
    def test_hop_longer_than_audio_is_io_error(self, piece, tmp_path,
                                               capsys, frame_rate, hop):
        out = tmp_path / "feat.csv"
        assert main(["features", "--audio", piece["wav"], "--frame-rate",
                     frame_rate, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("scoresync: audio: audio too short")
        assert err.endswith(f"less than one frame of {hop}\n")
        assert not out.exists()

    def test_invalid_feature_is_usage_error(self, piece):
        with pytest.raises(SystemExit) as excinfo:
            main(["features", "--audio", piece["wav"],
                  "--feature", "chroma"])
        assert excinfo.value.code == 2

    def test_stdout_when_no_out_path(self, piece, capsys):
        assert main(["features", "--audio", piece["wav"]]) == 0
        assert capsys.readouterr().out.startswith("frame,p21")


def _child_env():
    """The environment of a child ``python`` that imports this checkout's
    scoresync and writes no bytecode."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestOutputFiles:
    """Every ``--out`` is written under a temporary name beside its path
    and renamed into place whole: a write that fails or is interrupted
    leaves the file it would replace as it was, and no temporary file."""

    @pytest.fixture
    def long_piece(self, tmp_path):
        """A 13 s piece: more than two 256-frame blocks of a feature CSV."""
        score = tmp_path / "long.json"
        score.write_text(json.dumps([
            {"beat": float(i), "pitches": [48 + i % 24, 67]}
            for i in range(26)]))
        wav = tmp_path / "long.wav"
        assert main(["synth", "--score", str(score), "--seed", "1",
                     "--out", str(wav)]) == 0
        return str(wav)

    def test_interrupted_dump_keeps_the_old_one(self, long_piece, tmp_path,
                                                monkeypatch):
        dump = tmp_path / "d.csv"
        args = ["features", "--audio", long_piece, "--feature", "raw",
                "--precision", "full", "--out", str(dump)]
        assert main(args) == 0
        old = dump.read_bytes()
        calls = []
        format_rows = _gformat.format_rows

        def interrupted(*call):
            calls.append(call)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return format_rows(*call)

        monkeypatch.setattr(_gformat, "format_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(args)
        assert len(calls) == 3
        assert dump.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_file_size_limit_keeps_the_old_dump(self, piece, tmp_path):
        dump = tmp_path / "d.csv"
        args = ["features", "--audio", piece["wav"], "--precision", "full",
                "--out", str(dump)]
        assert main(args) == 0
        old = dump.read_bytes()
        assert len(old) > 65536
        child = subprocess.run(
            [sys.executable, "-c",
             "import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))\n"
             "from scoresync.cli import main\n"
             "sys.exit(main(sys.argv[1:]))", *args],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == EXIT_IO
        assert child.stderr.startswith(
            f"scoresync: output: [Errno {errno.EFBIG}] ")
        assert dump.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_alignment_write_keeps_the_old_file(
            self, piece, tmp_path, monkeypatch, capsys):
        out = tmp_path / "alignment.csv"
        args = ["align", "--audio", piece["wav"], "--score", piece["score"],
                "--out", str(out)]
        assert main(args) == 0
        old = out.read_bytes()
        write_alignment_csv = formats.write_alignment_csv

        def write_part(f, result):
            text = io.StringIO()
            write_alignment_csv(text, result)
            f.write(text.getvalue()[:100])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(formats, "write_alignment_csv", write_part)
        assert main(args) == EXIT_IO
        assert capsys.readouterr().err == (
            f"scoresync: output: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}\n")
        assert out.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_temporary_file_left_unremoved_keeps_the_write_error(
            self, score_path, tmp_path, monkeypatch, capsys):
        # as when the temporary name is too long to create or remove
        def write_none(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def refuse(path):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))

        monkeypatch.setattr(formats, "write_truth_csv", write_none)
        monkeypatch.setattr(os, "remove", refuse)
        assert main(["synth", "--score", score_path,
                     "--out", str(tmp_path / "x.wav")]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"scoresync: output: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}\n")
        assert not (tmp_path / "x.wav").exists()

    def test_dev_stdout_is_written_in_place(self, piece, tmp_path, capfd):
        args = ["align", "--audio", piece["wav"], "--score", piece["score"]]
        out = tmp_path / "alignment.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args + ["--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == out.read_text()

    @pytest.mark.parametrize("command", ["synth", "align", "features"])
    def test_replaced_file_keeps_its_permission_bits(
            self, piece, tmp_path, umask_022, command):
        out = tmp_path / "out"
        outputs = {"synth": [out, tmp_path / "out.truth.csv"],
                   "align": [out], "features": [out]}[command]
        for path in outputs:
            path.write_text("old")
            path.chmod(0o600)
        args = {"synth": ["--score", piece["score"]],
                "align": ["--audio", piece["wav"], "--score", piece["score"]],
                "features": ["--audio", piece["wav"]]}[command]
        assert main([command, *args, "--out", str(out)]) == 0
        for path in outputs:
            assert path.read_text(errors="replace") != "old"
            assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root may write any directory")
    def test_directory_this_process_cannot_write_is_written_in_place(
            self, score_path, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        out = locked / "x.wav"
        out.write_text("old")
        (locked / "x.wav.truth.csv").write_text("old")
        locked.chmod(0o555)
        try:
            assert main(["synth", "--score", score_path,
                         "--out", str(out)]) == 0
        finally:
            locked.chmod(0o755)
        assert out.read_bytes()[:4] == b"RIFF"
        assert (locked / "x.wav.truth.csv").read_text().startswith(
            "score_index,beat,time_s\n")
        assert sorted(os.listdir(locked)) == ["x.wav", "x.wav.truth.csv"]


class TestMidiScore:
    def test_synth_and_align_a_midi_score(self, midi_chords, tmp_path):
        wav, out = tmp_path / "m.wav", tmp_path / "alignment.csv"
        assert main(["synth", "--score", midi_chords, "--out", str(wav)]) \
            == 0
        assert main(["align", "--audio", str(wav), "--score", midi_chords,
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["0", "1", "2", "3", "4", "5"]
        assert {row[2] for row in rows} == {"60+64"}

    def test_chord_tolerance_groups_notes_ticks_apart(self, midi_chords,
                                                      tmp_path):
        wav = tmp_path / "m.wav"
        assert main(["synth", "--score", midi_chords, "--out", str(wav)]) \
            == 0
        spread = tmp_path / "spread.mid"
        write_midi(spread, [[(480 * i + 10 * (p == 64), p, 80)
                             for i in range(6) for p in (60, 64)]])
        for tolerance, onsets in [("0", 12), ("10", 6)]:
            out = tmp_path / f"alignment{tolerance}.csv"
            assert main(["align", "--audio", str(wav), "--score",
                         str(spread), "--chord-tolerance", tolerance,
                         "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 1 + onsets

    def test_unknown_score_extension_is_score_error(self, piece, tmp_path,
                                                    capsys):
        score = tmp_path / "score.txt"
        score.write_text(open(piece["score"]).read())
        assert main(["align", "--audio", piece["wav"],
                     "--score", str(score)]) == EXIT_SCORE
        assert capsys.readouterr().err == (
            f"scoresync: score: cannot detect score format of "
            f"{str(score)!r} (expected .mid, .midi, or .json)\n")


class TestOverflowingAudio:
    """A float WAV whose samples are finite but so large that the band
    filters overflow fails with exit 3 naming the band, on every command
    that filters it."""

    @pytest.fixture
    def wav(self, tmp_path):
        sr = 22050
        t = np.arange(sr) / sr
        path = tmp_path / "overflow.wav"
        write_wav(path, sr, [(1.7e308 * np.sin(2 * np.pi * 440.0 * t))
                             .tolist()], fmt="f64")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["align"], ["features", "--feature", "raw", "--precision", "full"],
        ["features", "--feature", "spec"],
        ["features", "--feature", "onsets"]])
    def test_exits_io_error_naming_the_band(self, wav, score_path, tmp_path,
                                            capsys, argv):
        out = tmp_path / "out.csv"
        score = ["--score", score_path] if argv[0] == "align" else []
        assert main([*argv, "--audio", wav, *score,
                     "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("scoresync: audio: band of MIDI pitch ")
        assert err.endswith(" holds a non-finite value after filtering\n")
        assert not out.exists()


class TestEval:
    def test_perfect_alignment_scores_100(self, piece, tmp_path, capsys):
        aligned = tmp_path / "a.csv"
        # alignment whose times equal the ground truth exactly
        truth_lines = open(piece["truth"]).read().splitlines()
        rows = ["score_index,beat,pitches,frame,time_s,cumulative_cost"]
        for line in truth_lines[1:]:
            idx, beat, time_s = line.split(",")
            rows.append(f"{idx},{beat},60,0,{time_s},0")
        aligned.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == 0
        out = capsys.readouterr().out
        assert "mean_ms" in out and "median_ms" in out
        doc = json.loads(out[out.index("{"):])
        assert doc["mean_ms"] == 0.0
        assert all(v == 100.0 for v in doc["pct_below"].values())

    def test_real_alignment_report(self, piece, tmp_path, capsys):
        aligned = tmp_path / "a.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--out", str(aligned)]) == 0
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["onsets"] == 6

    def test_no_onsets_is_score_error(self, tmp_path, capsys):
        # two header-only CSVs: no onsets have no mean or median
        aligned = tmp_path / "a.csv"
        aligned.write_text(
            "score_index,beat,pitches,frame,time_s,cumulative_cost\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("score_index,beat,time_s\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", str(truth)]) == EXIT_SCORE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scoresync: eval: no onsets to evaluate\n"

    def test_row_count_mismatch_fails(self, piece, tmp_path):
        aligned = tmp_path / "short.csv"
        aligned.write_text(
            "score_index,beat,pitches,frame,time_s,cumulative_cost\n"
            "0,0,60,0,0.0,0\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == EXIT_SCORE

    @staticmethod
    def _perfect_alignment(piece, tmp_path):
        """An alignment CSV whose times equal the piece's ground truth."""
        aligned = tmp_path / "a.csv"
        rows = ["score_index,beat,pitches,frame,time_s,cumulative_cost"]
        for line in open(piece["truth"]).read().splitlines()[1:]:
            idx, beat, time_s = line.split(",")
            rows.append(f"{idx},{beat},60,0,{time_s},0")
        aligned.write_text("\n".join(rows) + "\n")
        return aligned

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_is_io_error(self, piece, tmp_path, unbuffered):
        # the reader of stdout has gone before the report is written, as
        # with `eval ... | head -1`; Python buffers stdout on a pipe unless
        # PYTHONUNBUFFERED is set
        aligned = self._perfect_alignment(piece, tmp_path)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "scoresync.cli", "eval",
                 "--alignment", str(aligned), "--truth", piece["truth"]],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120)
        finally:
            os.close(write_end)
        assert child.returncode == EXIT_IO
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith("scoresync: output: ")

    @pytest.mark.parametrize("line", [1, 4])
    @pytest.mark.parametrize("which", ["alignment", "truth"])
    def test_line_not_utf8_names_the_file_and_line(self, piece, tmp_path,
                                                   capsys, which, line):
        files = {"alignment": self._perfect_alignment(piece, tmp_path),
                 "truth": tmp_path / "truth.csv"}
        files["truth"].write_text(open(piece["truth"]).read())
        bad = files[which]
        lines = bad.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        assert main(["eval", "--alignment", str(files["alignment"]),
                     "--truth", str(files["truth"])]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"scoresync: eval: {str(bad)!r} line {line}: 'utf-8' codec "
            f"can't decode byte 0xff in position {len(lines[line - 1]) - 1}")

    def test_blank_truth_line_skipped(self, piece, tmp_path, capsys):
        aligned = self._perfect_alignment(piece, tmp_path)
        truth = tmp_path / "truth.csv"
        truth.write_text(open(piece["truth"]).read() + "\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["onsets"] == 6

    def test_blank_alignment_line_skipped(self, piece, tmp_path, capsys):
        aligned = self._perfect_alignment(piece, tmp_path)
        aligned.write_text(aligned.read_text() + "  \n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["onsets"] == 6

    def test_short_truth_row_names_line(self, piece, tmp_path, capsys):
        aligned = self._perfect_alignment(piece, tmp_path)
        truth = tmp_path / "truth.csv"
        truth.write_text(open(piece["truth"]).read() + "6,7.5\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", str(truth)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "truth.csv" in err and "line 8" in err

    def test_short_alignment_row_names_line(self, piece, tmp_path, capsys):
        aligned = self._perfect_alignment(piece, tmp_path)
        aligned.write_text(aligned.read_text() + "6,7.5,60\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == EXIT_IO
        err = capsys.readouterr().err
        assert "a.csv" in err and "line 8" in err

    @staticmethod
    def _reverse_rows(path):
        header, *rows = open(path).read().splitlines()
        return "\n".join([header, *rows[::-1]]) + "\n"

    def test_reversed_alignment_rows_rejected(self, piece, tmp_path,
                                              capsys):
        aligned = tmp_path / "a.csv"
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--out", str(aligned)]) == 0
        aligned.write_text(self._reverse_rows(aligned))
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a.csv" in captured.err and "line 2" in captured.err
        assert "score_index" in captured.err

    def test_reversed_truth_rows_rejected(self, piece, tmp_path, capsys):
        aligned = self._perfect_alignment(piece, tmp_path)
        truth = tmp_path / "truth.csv"
        truth.write_text(self._reverse_rows(piece["truth"]))
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", str(truth)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truth.csv" in captured.err and "line 2" in captured.err
        assert "score_index" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_alignment_time_rejected(self, piece, tmp_path,
                                                capsys, value):
        aligned = self._perfect_alignment(piece, tmp_path)
        lines = aligned.read_text().splitlines()
        fields = lines[3].split(",")
        fields[4] = value
        lines[3] = ",".join(fields)
        aligned.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", piece["truth"]]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 4" in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_truth_time_rejected(self, piece, tmp_path, capsys,
                                            value):
        aligned = self._perfect_alignment(piece, tmp_path)
        lines = open(piece["truth"]).read().splitlines()
        idx, beat, _ = lines[2].split(",")
        lines[2] = f"{idx},{beat},{value}"
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--alignment", str(aligned),
                     "--truth", str(truth)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err and "finite" in captured.err


# one valid non-default value per field of both parameter dataclasses
FIELD_VALUES = {
    "num_bands": 40, "midi_low": 30, "reference_pitch": 57,
    "reference_freq": 220.0, "frame_rate": 25.0, "window_factor": 2,
    "stretch_min": 0.5, "stretch_max": 2.5, "w_onset": 0.5,
    "w_stretch": 2.0, "w_spec": 1.5, "bp_init": 30.0, "bp_alpha": 0.25,
    "sustain_frames": 4, "reset_threshold": 2.0, "pitch_aggregation": "min",
    "initial_window": 3.0, "bp_min": 6.0, "bp_max": 200.0,
    "max_window_frames": 100,
}
ALIGN_PARAM_FLAGS = [
    "--frame-rate", "--window-factor", "--stretch-min", "--stretch-max",
    "--w-onset", "--w-stretch", "--w-spec", "--bp-init", "--bp-alpha",
    "--sustain-frames", "--reset-threshold", "--pitch-aggregation",
    "--initial-window", "--bp-min", "--bp-max", "--max-window-frames"]


def _option_strings(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [opt for action in sub.choices[command]._actions
            for opt in action.option_strings]


class TestConfigFile:
    def make_args(self, *flags):
        return cli.build_parser().parse_args(
            ["align", "--audio", "a.wav", "--score", "s.json", *flags])

    def built(self, *flags):
        settings = cli._merge_settings(self.make_args(*flags))
        return (cli._build(FilterbankConfig, settings),
                cli._build(AlignmentParams, settings))

    def test_field_values_cover_every_field(self):
        for cls in (FilterbankConfig, AlignmentParams):
            for f in dataclasses.fields(cls):
                assert FIELD_VALUES[f.name] != f.default, f.name

    def test_flag_sets(self):
        assert _option_strings("align") == [
            "-h", "--help", "--audio", "--features", "--score", "--out",
            "--format", "--config", "--chord-tolerance", *ALIGN_PARAM_FLAGS]
        assert _option_strings("features") == [
            "-h", "--help", "--audio", "--out", "--feature", "--precision",
            "--config", *ALIGN_PARAM_FLAGS[:2]]

    def test_every_field_is_a_config_key(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in FIELD_VALUES.items()))
        assert len(cli._CONFIG_KEYS) == 20
        for obj in self.built("--config", str(cfg)):
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) == FIELD_VALUES[f.name], f.name

    def test_every_flag_reaches_its_field(self):
        flagged = {opt[2:].replace("-", "_") for opt in ALIGN_PARAM_FLAGS}
        argv = [arg for name in flagged
                for arg in ("--" + name.replace("_", "-"),
                            str(FIELD_VALUES[name]))]
        for obj in self.built(*argv):
            for f in dataclasses.fields(obj):
                expected = FIELD_VALUES[f.name] if f.name in flagged \
                    else f.default
                assert getattr(obj, f.name) == expected, f.name

    def test_bp_min_max_set_the_bounds(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("bp_max=120\n")
        params = self.built("--config", str(cfg))[1]
        assert (params.bp_min, params.bp_max) == (5.0, 120.0)
        cfg.write_text("bp_min=10\nbp_max=120\n")
        params = self.built("--config", str(cfg))[1]
        assert (params.bp_min, params.bp_max) == (10.0, 120.0)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("# comment\nstretch_max=4.0\nbp_init=30\n")
        settings = cli._merge_settings(
            self.make_args("--config", str(cfg), "--bp-init", "20"))
        assert settings["stretch_max"] == 4.0
        assert settings["bp_init"] == 20.0

    def test_none_clears_optional_keys(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("reset_threshold=2.0\nmax_window_frames=9\n")
        settings = cli._merge_settings(self.make_args(
            "--config", str(cfg)))
        assert settings == {"reset_threshold": 2.0, "max_window_frames": 9}
        cfg.write_text("reset_threshold=none\nmax_window_frames=None\n")
        settings = cli._merge_settings(self.make_args("--config", str(cfg)))
        assert settings["reset_threshold"] is None
        assert settings["max_window_frames"] is None
        params = cli._build(AlignmentParams, settings)
        assert params.reset_threshold is None
        assert params.max_window_frames is None

    def test_unknown_key_rejected(self, tmp_path, piece):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("warp_speed=9\n")
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--config", str(cfg)]) == EXIT_CONFIG

    def test_invalid_params_from_file_rejected(self, tmp_path, piece):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("stretch_min=2.0\n")
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["pitch_aggregation=median",
                                      "sustain_frames=2.5",
                                      "initial_window=nan"])
    def test_invalid_value_in_file_is_config_error(self, tmp_path,
                                                   score_path, line):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        assert main(["align", "--audio", str(tmp_path / "missing.wav"),
                     "--score", score_path, "--config", str(cfg)]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["align", "features"])
    def test_negative_midi_low_is_config_error(self, tmp_path, piece,
                                               capsys, command):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("midi_low=-5\n")
        extra = ["--score", piece["score"]] if command == "align" else []
        assert main([command, "--audio", piece["wav"], *extra,
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "scoresync: config: bands must lie within MIDI 0..127\n"

    @pytest.mark.parametrize("command", ["align", "features"])
    def test_config_line_not_utf8_names_the_line(self, tmp_path, piece,
                                                 capsys, command):
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(b"# tuning\nframe_rate=50\xff\n")
        out = tmp_path / "out.csv"
        extra = ["--score", piece["score"]] if command == "align" else []
        assert main([command, "--audio", piece["wav"], *extra,
                     "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"scoresync: config: {str(cfg)!r} line 2: 'utf-8' codec can't "
            f"decode byte 0xff in position 13: invalid start byte\n")
        assert not out.exists()

    def test_line_without_equals_names_the_file_and_line(self, tmp_path,
                                                         piece, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("frame_rate 50\n")
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"scoresync: config: {str(cfg)!r} line 1: expected key=value, "
            f"got 'frame_rate 50'\n")

    def test_missing_config_file_names_it(self, tmp_path, piece, capsys):
        cfg = str(tmp_path / "missing.cfg")
        assert main(["align", "--audio", piece["wav"], "--score",
                     piece["score"], "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"scoresync: config: cannot read config {cfg!r}: [Errno 2] ")

    def test_unknown_pitch_aggregation_flag_is_usage_error(self, score_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["align", "--audio", "a.wav", "--score", score_path,
                  "--pitch-aggregation", "median"])
        assert excinfo.value.code == 2

    def test_config_applies_to_features_command(self, tmp_path, piece):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("frame_rate=25\n")
        out = tmp_path / "f.csv"
        assert main(["features", "--audio", piece["wav"],
                     "--config", str(cfg), "--out", str(out)]) == 0
        duration = 3.5  # beats 0..5 at 120 BPM plus the final second
        n_rows = len(out.read_text().splitlines()) - 1
        assert n_rows == pytest.approx(duration * 25, abs=2)


def _error_classes(cls=ScoreSyncError):
    """``cls`` and every subclass of it, however deep."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


# the exit code and stderr prefix README documents for a package error
# raised in a stage named "x"; a class missing here fails the test
DOCUMENTED_EXITS = {
    ScoreSyncError: (EXIT_CONFIG, "x: "),
    AudioReadError: (EXIT_IO, "audio: "),
    UnsupportedAudioError: (EXIT_IO, "audio: "),
    EmptyAudioError: (EXIT_IO, "audio: "),
    ScoreError: (EXIT_SCORE, "x: "),
    ConfigurationError: (EXIT_CONFIG, "x: "),
    InfeasiblePathError: (EXIT_INFEASIBLE, "x: "),
}


class TestStage:
    def test_every_error_class_exits_as_documented(self):
        for cls in _error_classes():
            assert cls in DOCUMENTED_EXITS, f"{cls.__name__} has no entry"
            extra = (0,) if issubclass(cls, InfeasiblePathError) else ()
            with pytest.raises(cli._Exit) as excinfo:
                with cli._stage("x"):
                    raise cls("boom", *extra)
            code, prefix = DOCUMENTED_EXITS[cls]
            assert (excinfo.value.code, str(excinfo.value)) \
                == (code, prefix + "boom"), cls.__name__

    def test_listed_builtin_exits_with_the_stage_code(self):
        with pytest.raises(cli._Exit) as excinfo:
            with cli._stage("x", (OSError,), EXIT_INFEASIBLE):
                raise FileNotFoundError("gone")
        assert (excinfo.value.code, str(excinfo.value)) \
            == (EXIT_INFEASIBLE, "x: gone")

    def test_unlisted_builtin_passes_through(self):
        with pytest.raises(ValueError, match="^bad$"):
            with cli._stage("x", (OSError,)):
                raise ValueError("bad")
