import argparse
import dataclasses
import json

import numpy as np
import pytest

from scoresync import AlignmentParams, FilterbankConfig, cli
from scoresync.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_SCORE,
                           main)

from helpers import write_wav


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

    def test_missing_audio_is_io_error(self, score_path, tmp_path):
        assert main(["align", "--audio", str(tmp_path / "no.wav"),
                     "--score", score_path]) == EXIT_IO

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
        # at 44.1 kHz the filterbank runs on audio decimated by 3
        wav = str(tmp_path / "piece44k.wav")
        assert main(["synth", "--score", score_path, "--tempo", "0:120",
                     "--noise-level", "0.01", "--seed", "7",
                     "--sample-rate", "44100", "--out", wav]) == 0
        self._assert_dump_round_trip(wav, score_path, tmp_path)

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

    # a subnormal frame rate makes the hop inf, longer than any signal
    @pytest.mark.parametrize("frame_rate, hop", [("1e-3", "22050000"),
                                                 ("1e-320", "inf")])
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
    "initial_window": 3.0, "bp_bounds": (6.0, 200.0),
    "max_window_frames": 100,
}
ALIGN_PARAM_FLAGS = [
    "--frame-rate", "--window-factor", "--stretch-min", "--stretch-max",
    "--w-onset", "--w-stretch", "--w-spec", "--bp-init", "--bp-alpha",
    "--sustain-frames", "--reset-threshold", "--pitch-aggregation",
    "--initial-window", "--max-window-frames"]


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
        low, high = FIELD_VALUES["bp_bounds"]
        cfg.write_text("".join(f"{k}={v}\n" for k, v in FIELD_VALUES.items()
                               if k != "bp_bounds")
                       + f"bp_min={low}\nbp_max={high}\n")
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
        assert self.built("--config", str(cfg))[1].bp_bounds == (5.0, 120.0)
        cfg.write_text("bp_min=10\nbp_max=120\n")
        assert self.built("--config", str(cfg))[1].bp_bounds == (10.0, 120.0)

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
