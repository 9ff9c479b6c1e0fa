import os
import sys

import numpy as np
import pytest
from scipy import signal

from scoresync import (AudioBuffer, ConfigurationError, EmptyAudioError,
                       FilterbankConfig, align, band_edges, center_frequency,
                       compute_spectrogram, design_bandpass,
                       design_filterbank, evaluate, extract_features,
                       synthesize)
from scoresync import filterbank
from scoresync.filterbank import _frame_maxima

from helpers import (magnitude_db, random_piece, reference_bandpass,
                     reference_spectrogram, warped_center)


class TestCenterFrequency:
    def test_reference_pitch(self):
        assert center_frequency(69) == 440.0

    def test_lowest_piano_key(self):
        assert center_frequency(21) == pytest.approx(27.5)

    def test_middle_c(self):
        # 440 * 2^(-9/12), evaluated independently
        assert center_frequency(60) == pytest.approx(261.6256, abs=1e-3)

    def test_rejects_out_of_range_pitch(self):
        with pytest.raises(ValueError):
            center_frequency(128)

    def test_alternate_tuning(self):
        config = FilterbankConfig(reference_freq=442.0)
        assert center_frequency(69, config) == 442.0


class TestBandEdges:
    def test_quarter_tone_edges_at_a4(self):
        lo, hi = band_edges(69)
        assert lo == pytest.approx(427.474, abs=1e-2)
        assert hi == pytest.approx(452.893, abs=1e-2)

    def test_geometric_mean_is_center(self):
        for pitch in (21, 60, 108):
            lo, hi = band_edges(pitch)
            assert np.sqrt(lo * hi) == pytest.approx(
                center_frequency(pitch), rel=1e-12)

    def test_top_band_upper_edge(self):
        # 4186.009 * 2^(1/24), evaluated independently
        _, hi = band_edges(108)
        assert hi == pytest.approx(4308.67, abs=0.5)


class TestDesignBandpass:
    def test_matches_textbook_reference(self):
        lo, hi = band_edges(69)
        coeffs = design_bandpass(lo, hi, 44100)
        b_ref, a_ref = reference_bandpass(lo, hi, 44100)
        b, a = coeffs.ba
        assert b == pytest.approx(b_ref, rel=1e-9, abs=1e-15)
        assert a == pytest.approx(a_ref, rel=1e-9, abs=1e-15)

    def test_unit_gain_near_center_and_3db_edges(self):
        lo, hi = band_edges(69)
        coeffs = design_bandpass(lo, hi, 44100)
        b, a = coeffs.ba
        peak = magnitude_db(b, a, np.linspace(lo, hi, 201), 44100).max()
        assert abs(magnitude_db(b, a, [440.0], 44100)[0] - peak) < 1.0
        for edge in (lo, hi):
            assert magnitude_db(b, a, [edge], 44100)[0] - peak \
                == pytest.approx(-3.0, abs=1.0)

    def test_poles_inside_unit_circle(self):
        lo, hi = band_edges(21)
        coeffs = design_bandpass(lo, hi, 48000)
        assert np.all(coeffs.pole_magnitudes() < 1.0)

    def test_zeros_at_dc_and_nyquist(self):
        lo, hi = band_edges(60)
        b, a = design_bandpass(lo, hi, 44100).ba
        assert abs(np.polyval(b, 1.0) / np.polyval(a, 1.0)) \
            == pytest.approx(0.0, abs=1e-12)
        assert abs(np.polyval(b, -1.0) / np.polyval(a, -1.0)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_edge_at_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            design_bandpass(3000.0, 4000.0, 8000)

    def test_inverted_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            design_bandpass(500.0, 400.0, 44100)


class TestDesignFilterbank:
    @pytest.mark.parametrize("sample_rate", [22050, 44100, 48000])
    def test_all_default_bands_stable(self, sample_rate):
        bank = design_filterbank(FilterbankConfig(), sample_rate)
        assert len(bank) == 88
        for coeffs in bank:
            assert np.all(coeffs.pole_magnitudes() < 1.0)

    def test_band_reaching_nyquist_raises_with_pitch(self):
        # at 8 kHz the top piano bands exceed the 4 kHz Nyquist limit
        with pytest.raises(ConfigurationError, match="pitch"):
            design_filterbank(FilterbankConfig(), 8000)


def window_max(x, hop, window):
    """Window maxima of a 1-D signal as ``compute_spectrogram`` frames its
    bands, for windows of whole hops."""
    return _frame_maxima(np.maximum.reduceat(x, np.arange(0, len(x), hop)),
                         window // hop, len(x) // hop)


class TestWindowMax:
    def test_frame_count_is_floor(self):
        frames = window_max(np.arange(10.0), hop=3, window=3)
        assert frames.tolist() == [2.0, 5.0, 8.0]

    def test_permutation_within_window_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 30)
        shuffled = x.copy()
        shuffled[10:20] = rng.permutation(shuffled[10:20])
        assert np.array_equal(window_max(x, 10, 10),
                              window_max(shuffled, 10, 10))

    def test_wide_window_truncated_at_end(self):
        frames = window_max(np.arange(10.0), hop=3, window=6)
        assert frames.tolist() == [5.0, 8.0, 9.0]

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_block_maxima_match_per_frame_loop(self, factor):
        rng = np.random.default_rng(factor)
        for hop in (1, 3, 7):
            for length in (hop, 5 * hop - 1, 5 * hop, 5 * hop + 2, 41):
                x = rng.uniform(0, 1, length)
                window = factor * hop
                expected = [x[t * hop:t * hop + window].max()
                            for t in range(length // hop)]
                assert window_max(x, hop, window).tolist() == expected


class TestComputeSpectrogram:
    def test_silence_gives_zero_frames(self):
        audio = AudioBuffer(samples=np.zeros(44100), sample_rate=44100)
        spec = compute_spectrogram(audio)
        assert spec.values.shape == (88, 50)
        assert not spec.values.any()
        assert spec.frame_rate == 50.0

    def test_non_divisible_rate_uses_effective_rate(self):
        audio = AudioBuffer(samples=np.zeros(48000), sample_rate=48000)
        spec = compute_spectrogram(audio)
        assert spec.num_frames == 50  # hop 960
        assert spec.frame_rate == 50.0

    def test_sine_peaks_in_its_band(self):
        sr = 44100
        t = np.arange(2 * sr) / sr
        audio = AudioBuffer(samples=0.5 * np.sin(2 * np.pi * 440.0 * t),
                            sample_rate=sr)
        spec = compute_spectrogram(audio)
        steady = spec.values[:, 25:75]
        row_a4 = spec.pitch_row(69)
        assert steady.max(axis=1).argmax() == row_a4
        for octave_pitch in (57, 81):
            ratio = steady[row_a4].max() \
                / steady[spec.pitch_row(octave_pitch)].max()
            assert ratio >= 10.0

    def test_scaling_input_scales_output_exactly(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.4, 0.4, 22050)
        a = compute_spectrogram(AudioBuffer(samples, 22050))
        b = compute_spectrogram(AudioBuffer(2.0 * samples, 22050))
        assert np.array_equal(b.values, 2.0 * a.values)

    def test_scaling_approximate_for_general_factor(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-0.4, 0.4, 22050)
        a = compute_spectrogram(AudioBuffer(samples, 22050))
        b = compute_spectrogram(AudioBuffer(1.7 * samples, 22050))
        assert b.values == pytest.approx(1.7 * a.values, rel=1e-12)

    def test_empty_audio_rejected(self):
        with pytest.raises(EmptyAudioError):
            compute_spectrogram(AudioBuffer(np.zeros(10), 44100))

    def test_band_above_nyquist_rejected(self):
        audio = AudioBuffer(samples=np.zeros(8000), sample_rate=8000)
        with pytest.raises(ConfigurationError):
            compute_spectrogram(audio)

    @pytest.mark.parametrize("frame_rate", [1e9, 44100.0])
    def test_frame_rate_above_twice_sample_rate_rejected(self, frame_rate):
        # round(22050 / 44100) is round(0.5), which is 0
        with pytest.raises(ConfigurationError, match="hop of 0 samples"):
            compute_spectrogram(AudioBuffer(np.zeros(22050), 22050),
                                FilterbankConfig(frame_rate=frame_rate))

    def test_huge_window_factor_equals_whole_signal_window(self):
        rng = np.random.default_rng(6)
        audio = AudioBuffer(rng.uniform(-0.4, 0.4, 22050 + 100), 22050)
        hops = 51  # 50 whole hops of 441 samples and a partial one
        whole = compute_spectrogram(audio,
                                    FilterbankConfig(window_factor=hops))
        huge = compute_spectrogram(audio,
                                   FilterbankConfig(window_factor=10 ** 9))
        assert np.array_equal(huge.values, whole.values)

    def test_window_factor_widens_windows(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-0.4, 0.4, 22050)
        narrow = compute_spectrogram(AudioBuffer(samples, 22050))
        wide = compute_spectrogram(AudioBuffer(samples, 22050),
                                   FilterbankConfig(window_factor=2))
        assert wide.values.shape == narrow.values.shape
        assert np.all(wide.values >= narrow.values)


class TestBlockwiseFiltering:
    """Block-wise, threaded filtering gives exactly the values of one
    full-length pass per band."""

    SAMPLE_RATE = 11025
    HOP = 220  # round(11025 / 50)

    def assert_matches_oracle(self, samples, config=FilterbankConfig()):
        audio = AudioBuffer(samples, self.SAMPLE_RATE)
        values = compute_spectrogram(audio, config).values
        assert np.array_equal(values, reference_spectrogram(audio, config))
        return values

    @staticmethod
    def use_block_hops(monkeypatch, block_hops):
        """Patch ``_BLOCK_HOPS`` unless None; return the value in force."""
        if block_hops is None:
            return filterbank._BLOCK_HOPS
        monkeypatch.setattr(filterbank, "_BLOCK_HOPS", block_hops)
        return block_hops

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("block_hops", [1, 2, 3, None])
    def test_matches_full_length_oracle(self, monkeypatch, block_hops,
                                        factor):
        block_hops = self.use_block_hops(monkeypatch, block_hops)
        rng = np.random.default_rng([block_hops, factor])
        config = FilterbankConfig(window_factor=factor)
        whole = (2 * block_hops + 1) * self.HOP
        # a short signal, and three blocks with the last one partial;
        # ragged lengths leave a partial last hop
        for length in (self.HOP + 5, whole, whole + 1,
                       whole + self.HOP - 1):
            self.assert_matches_oracle(rng.uniform(-0.5, 0.5, length),
                                       config)

    @pytest.mark.parametrize("block_hops", [2, None])
    def test_state_carries_across_block_edge(self, monkeypatch, block_hops):
        block_hops = self.use_block_hops(monkeypatch, block_hops)
        samples = np.zeros(3 * block_hops * self.HOP)
        samples[block_hops * self.HOP - 1] = 1.0  # last sample of block 0
        values = self.assert_matches_oracle(samples)
        # the frame after the edge holds only the ringing of the impulse,
        # which a reset filter state would zero
        assert values[:, block_hops].all()

    @pytest.mark.parametrize("cores", [1, 8])
    def test_matches_oracle_with_one_or_more_workers_than_cores(
            self, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(filterbank, "_BLOCK_HOPS", 2)
        assert filterbank._num_workers(88) == cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = np.random.default_rng(cores)
            self.assert_matches_oracle(
                rng.uniform(-0.5, 0.5, 7 * self.HOP + 3))
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_per_core_at_most_one_per_band(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        assert filterbank._num_workers(88) == 4
        assert filterbank._num_workers(3) == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert filterbank._num_workers(88) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert filterbank._num_workers(88) == 1


class TestDecimatedFiltering:
    """Where a factor q > 1 divides the hop, the signal is resampled to
    1/q of its rate before filtering, and the spectrogram is exactly that
    of one full-length pass per band over the resampled signal."""

    @pytest.mark.parametrize("sample_rate, q", [
        (44100, 3), (48000, 4), (96000, 8), (22050, 1), (11025, 1),
        (8000, 1)])
    def test_factor_divides_hop_and_keeps_top_band(self, sample_rate, q):
        config = FilterbankConfig()
        hop = int(round(sample_rate / config.frame_rate))
        assert filterbank._decimation_factor(sample_rate, hop, config) == q

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("block_hops", [1, 2, None])
    @pytest.mark.parametrize("sample_rate, q", [(44100, 3), (48000, 4)])
    def test_matches_full_length_oracle(self, monkeypatch, sample_rate, q,
                                        block_hops, factor):
        block_hops = TestBlockwiseFiltering.use_block_hops(monkeypatch,
                                                           block_hops)
        rng = np.random.default_rng([sample_rate, block_hops, factor])
        config = FilterbankConfig(window_factor=factor)
        hop = int(round(sample_rate / config.frame_rate))
        whole = (2 * block_hops + 1) * hop
        # lengths that leave a partial last hop also leave a partial last
        # group of q samples
        for length in (hop + 5, whole, whole + 1, whole + hop - 1):
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, length), sample_rate)
            values = compute_spectrogram(audio, config).values
            assert values.shape == (88, length // hop)
            assert np.array_equal(values,
                                  reference_spectrogram(audio, config, q))

    def test_scaling_input_scales_output_exactly(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-0.4, 0.4, 44100)
        a = compute_spectrogram(AudioBuffer(samples, 44100))
        b = compute_spectrogram(AudioBuffer(2.0 * samples, 44100))
        assert np.array_equal(b.values, 2.0 * a.values)

    def test_end_to_end_accuracy_at_44k(self):
        """Pooled over seeded pieces rendered at 44.1 kHz: median error
        <= 20 ms, >= 90% of onsets below 50 ms, mean <= 40 ms (the bounds
        of the 22.05 kHz synthetic suite)."""
        errors = []
        for seed in range(1000, 1004):
            score, tempo_map, rng = random_piece(seed=seed)
            audio, truth = synthesize(score, tempo_map, sample_rate=44100,
                                      noise_level=0.01, rng=rng)
            result = align(score, extract_features(compute_spectrogram(audio)))
            errors.extend(evaluate(result.times, truth).errors_ms)
        errors = np.asarray(errors)
        assert np.median(errors) <= 20.0
        assert np.mean(errors < 50.0) >= 0.9
        assert errors.mean() <= 40.0


class TestConfigValidation:
    def test_band_range_beyond_midi_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterbankConfig(midi_low=60, num_bands=88)

    def test_positive_rates_required(self):
        with pytest.raises(ConfigurationError):
            FilterbankConfig(frame_rate=0)
        with pytest.raises(ConfigurationError):
            FilterbankConfig(reference_freq=-1.0)

    @pytest.mark.parametrize("field", ["frame_rate", "reference_freq"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            FilterbankConfig(**{field: value})


# 14700 and 12000 Hz are the decimated rates of 44.1 and 48 kHz
@pytest.mark.parametrize("sample_rate", [44100, 48000, 14700, 12000])
def test_response_criteria_all_bands(sample_rate):
    """Every default band: stable poles, warped center within 1 dB of the
    peak, quarter-tone edges at -3 dB (within 1 dB) of the peak."""
    config = FilterbankConfig()
    for pitch in config.band_pitches:
        lo, hi = band_edges(int(pitch))
        coeffs = design_bandpass(lo, hi, sample_rate)
        b, a = coeffs.ba
        assert np.all(coeffs.pole_magnitudes() < 1.0)
        grid = np.linspace(lo, hi, 101)
        peak = magnitude_db(b, a, grid, sample_rate).max()
        center = warped_center(lo, hi, sample_rate)
        assert abs(magnitude_db(b, a, [center], sample_rate)[0] - peak) <= 1.0
        for edge in (lo, hi):
            assert magnitude_db(b, a, [edge], sample_rate)[0] - peak \
                == pytest.approx(-3.0, abs=1.0)
