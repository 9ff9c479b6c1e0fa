import importlib.util
import pathlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoresync import (ConfigurationError, TempoMap, beat_to_seconds,
                       evaluate, synth_eval, synthesize)
from scoresync.synth_eval import ERROR_THRESHOLDS_MS

from helpers import make_score


def tempo(*segments):
    return TempoMap(segments=tuple(segments))


class TestTempoMap:
    def test_non_increasing_segments_rejected(self):
        with pytest.raises(ValueError):
            tempo((0.0, 120.0), (0.0, 90.0))

    def test_nonpositive_bpm_rejected(self):
        with pytest.raises(ValueError):
            tempo((0.0, 0.0))

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            TempoMap(segments=())


class TestBeatToSeconds:
    def test_constant_tempo(self):
        assert beat_to_seconds(4.0, tempo((0.0, 120.0))) == 2.0

    def test_two_segment_integration(self):
        tm = tempo((0.0, 120.0), (2.0, 60.0))
        assert beat_to_seconds(4.0, tm) == pytest.approx(3.0)

    def test_map_start_is_zero_seconds(self):
        assert beat_to_seconds(0.0, tempo((0.0, 97.0))) == 0.0

    def test_beat_before_map_start_rejected(self):
        with pytest.raises(ValueError):
            beat_to_seconds(-0.5, tempo((0.0, 120.0)))

    def test_strictly_increasing_in_beat(self):
        tm = tempo((0.0, 120.0), (3.0, 180.0), (7.0, 64.0))
        beats = np.linspace(0.0, 12.0, 40)
        seconds = [beat_to_seconds(float(b), tm) for b in beats]
        assert all(b > a for a, b in zip(seconds, seconds[1:]))


class TestSynthesize:
    def test_single_chord_ground_truth_and_spectrum(self):
        score = make_score([0.0], [[69]])
        audio, truth = synthesize(score, tempo((0.0, 120.0)),
                                  sample_rate=22050)
        assert truth == [0.0]
        spectrum = np.abs(np.fft.rfft(audio.samples))
        freqs = np.fft.rfftfreq(len(audio.samples), 1.0 / 22050)
        assert abs(freqs[spectrum.argmax()] - 440.0) < 2.0

    def test_scale_fragment_ground_truth(self):
        score = make_score([0.0, 1.0, 2.0, 3.0],
                           [[60], [62], [64], [65]])
        _, truth = synthesize(score, tempo((0.0, 120.0)))
        assert truth == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_noiseless_synthesis_is_deterministic(self):
        score = make_score([0.0, 1.0], [[60, 64], [67]])
        a, _ = synthesize(score, tempo((0.0, 100.0)), noise_level=0.0)
        b, _ = synthesize(score, tempo((0.0, 100.0)), noise_level=0.0)
        assert np.array_equal(a.samples, b.samples)

    def test_seeded_noise_is_reproducible(self):
        score = make_score([0.0], [[72]])
        a, _ = synthesize(score, tempo((0.0, 120.0)), noise_level=0.05,
                          rng=np.random.default_rng(9))
        b, _ = synthesize(score, tempo((0.0, 120.0)), noise_level=0.05,
                          rng=np.random.default_rng(9))
        c, _ = synthesize(score, tempo((0.0, 120.0)), noise_level=0.05,
                          rng=np.random.default_rng(10))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_peak_normalized(self):
        score = make_score([0.0, 0.5], [[48, 60, 72], [50]])
        audio, _ = synthesize(score, tempo((0.0, 140.0)))
        assert np.abs(audio.samples).max() == pytest.approx(0.9)

    def test_truth_length_matches_score(self):
        score = make_score(np.arange(7.0), [[60 + i] for i in range(7)])
        _, truth = synthesize(score, tempo((0.0, 120.0)))
        assert len(truth) == 7

    def test_tempo_change_shifts_truth(self):
        score = make_score([0.0, 2.0, 4.0], [[60], [64], [67]])
        _, truth = synthesize(score, tempo((0.0, 120.0), (2.0, 60.0)))
        assert truth == pytest.approx([0.0, 1.0, 3.0])

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), -0.01])
    def test_invalid_noise_level_rejected(self, level):
        score = make_score([0.0], [[60]])
        with pytest.raises(ConfigurationError, match="noise_level"):
            synthesize(score, tempo((0.0, 120.0)), noise_level=level)

    def test_noise_level_that_overflows_the_mix_rejected(self):
        # checked before the noise is scaled, so no RuntimeWarning (an
        # error under this suite) comes first
        score = make_score([0.0, 1.0], [[60, 64], [67]])
        with pytest.raises(ConfigurationError, match="noise_level 1e"):
            synthesize(score, tempo((0.0, 120.0)), noise_level=1e308,
                       rng=np.random.default_rng(1))
        audio, _ = synthesize(score, tempo((0.0, 120.0)), noise_level=1e306,
                              rng=np.random.default_rng(1))
        assert np.abs(audio.samples).max() == pytest.approx(0.9)

    @pytest.mark.parametrize("rate", [0, -22050, 0.5, float("nan")])
    def test_sample_rate_below_one_hz_rejected(self, rate):
        score = make_score([0.0], [[60]])
        with pytest.raises(ConfigurationError, match="sample_rate"):
            synthesize(score, tempo((0.0, 120.0)), sample_rate=rate)

    @staticmethod
    def refuse_allocation(monkeypatch):
        """Fail the test if a render allocates its mix: synth_eval's numpy
        becomes one whose zeros fails."""
        def zeros(*args, **kwargs):
            pytest.fail("the mix was allocated")
        monkeypatch.setattr(synth_eval, "np", types.SimpleNamespace(
            **{**vars(np), "zeros": zeros}))

    @pytest.mark.parametrize("rate", [10 ** 11, 2 ** 28 + 1, 10 ** 400],
                             ids=["1e11", "cap+1", "past-float-range"])
    def test_render_past_the_cap_rejected_before_allocating(
            self, monkeypatch, rate):
        score = make_score([0.0, 1.0], [[60], [64]])
        self.refuse_allocation(monkeypatch)
        with pytest.raises(ConfigurationError,
                           match="is more than 268435456 samples"):
            synthesize(score, tempo((0.0, 120.0)), sample_rate=rate)

    def test_render_that_never_ends_rejected_before_allocating(
            self, monkeypatch):
        # 60 / 1e-320 BPM is an infinite beat
        score = make_score([0.0, 1.0], [[60], [64]])
        self.refuse_allocation(monkeypatch)
        with pytest.raises(ConfigurationError, match="render of inf s"):
            synthesize(score, tempo((0.0, 1e-320)))

    def test_render_of_exactly_the_cap_admitted(self, monkeypatch):
        # 0.5 s to the last chord and the 1 s it rings: 1,500 samples
        score = make_score([0.0, 1.0], [[60], [64]])
        monkeypatch.setattr(synth_eval, "_MAX_SAMPLES", 1500)
        audio, _ = synthesize(score, tempo((0.0, 120.0)), sample_rate=1000)
        assert len(audio.samples) == 1500
        monkeypatch.setattr(synth_eval, "_MAX_SAMPLES", 1499)
        with pytest.raises(ConfigurationError, match="more than 1499"):
            synthesize(score, tempo((0.0, 120.0)), sample_rate=1000)

    def test_cap_admits_every_benchmark_piece(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
            / "workloads.py"
        spec = importlib.util.spec_from_file_location("_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for w in workloads.WORKLOADS.values():
            assert w.seconds * w.sample_rate <= synth_eval._MAX_SAMPLES


class TestEvaluate:
    def test_perfect_prediction(self):
        report = evaluate([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert report.mean_ms == 0.0
        assert report.median_ms == 0.0
        assert all(report.pct_below[t] == 100.0
                   for t in ERROR_THRESHOLDS_MS)

    def test_uniform_offset(self):
        truth = [0.1 * i for i in range(10)]
        predicted = [t + 0.020 for t in truth]
        report = evaluate(predicted, truth)
        assert report.mean_ms == pytest.approx(20.0)
        assert report.median_ms == pytest.approx(20.0)
        assert report.pct_below[50.0] == 100.0

    def test_mixed_errors_with_even_count_median(self):
        report = evaluate([0.010, 0.060], [0.0, 0.0])
        assert report.mean_ms == pytest.approx(35.0)
        assert report.median_ms == pytest.approx(35.0)
        assert report.pct_below[50.0] == 50.0
        assert report.pct_below[100.0] == 100.0

    def test_threshold_comparison_is_strict(self):
        report = evaluate([0.050], [0.0])
        assert report.pct_below[50.0] == 0.0
        assert report.pct_below[100.0] == 100.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            evaluate([0.0, 1.0], [0.0])

    def test_no_onsets_rejected(self):
        with pytest.raises(ValueError, match="no onsets"):
            evaluate([], [])

    @given(st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_in_error_sign(self, offsets):
        truth = [0.5 * i for i in range(len(offsets))]
        plus = evaluate([t + o for t, o in zip(truth, offsets)], truth)
        minus = evaluate([t - o for t, o in zip(truth, offsets)], truth)
        assert plus.mean_ms == pytest.approx(minus.mean_ms, abs=1e-9)
        assert plus.median_ms == pytest.approx(minus.median_ms, abs=1e-9)
        assert plus.pct_below == minus.pct_below

    @given(st.lists(st.floats(0.0, 0.6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_percentages_non_decreasing_in_threshold(self, errors):
        report = evaluate(errors, [0.0] * len(errors))
        pcts = [report.pct_below[t] for t in ERROR_THRESHOLDS_MS]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))
        assert all(0.0 <= p <= 100.0 for p in pcts)
