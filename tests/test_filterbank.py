import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal

from scoresync import (AudioBuffer, AudioReadError, ConfigurationError,
                       EmptyAudioError, FilterbankConfig, align, band_edges,
                       center_frequency, compute_spectrogram,
                       design_bandpass, design_filterbank, evaluate,
                       extract_features, synthesize)
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
        b, a = design_bandpass(lo, hi, 44100)
        b_ref, a_ref = reference_bandpass(lo, hi, 44100)
        assert b == pytest.approx(b_ref, rel=1e-9, abs=1e-15)
        assert a == pytest.approx(a_ref, rel=1e-9, abs=1e-15)

    def test_unit_gain_near_center_and_3db_edges(self):
        lo, hi = band_edges(69)
        b, a = design_bandpass(lo, hi, 44100)
        peak = magnitude_db(b, a, np.linspace(lo, hi, 201), 44100).max()
        assert abs(magnitude_db(b, a, [440.0], 44100)[0] - peak) < 1.0
        for edge in (lo, hi):
            assert magnitude_db(b, a, [edge], 44100)[0] - peak \
                == pytest.approx(-3.0, abs=1.0)

    def test_poles_inside_unit_circle(self):
        lo, hi = band_edges(21)
        _, a = design_bandpass(lo, hi, 48000)
        assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_zeros_at_dc_and_nyquist(self):
        lo, hi = band_edges(60)
        b, a = design_bandpass(lo, hi, 44100)
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
        for _, a in bank:
            assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_band_reaching_nyquist_raises_with_pitch(self):
        # at 8 kHz the top piano bands exceed the 4 kHz Nyquist limit
        with pytest.raises(ConfigurationError, match="pitch"):
            design_filterbank(FilterbankConfig(), 8000)

    # at A = 415 Hz (baroque pitch) some bands' squared pre-warped center
    # differs in the last bit between Python's float power, which scipy
    # uses, and a product
    @pytest.mark.parametrize("reference_freq", [440.0, 415.0])
    @pytest.mark.parametrize("frame_rate", [50.0, 100.0])
    @pytest.mark.parametrize("sample_rate", [8000, 11025, 16000, 22050,
                                             44100, 48000, 96000])
    def test_equals_scipy_butter_at_every_group_rate(
            self, sample_rate, frame_rate, reference_freq):
        # the one-pass design takes scipy's steps, so every band below
        # Nyquist equals signal.butter float for float at each rate a
        # band group runs at
        config = FilterbankConfig(frame_rate=frame_rate,
                                  reference_freq=reference_freq)
        hop = int(round(sample_rate / frame_rate))
        rates = {sample_rate * group_hop / hop for _, group_hop in
                 filterbank._band_groups(config, hop, sample_rate / hop)}
        for rate in sorted(rates):
            edges = [band_edges(int(pitch), config)
                     for pitch in config.band_pitches]
            below = [(lo, hi) for lo, hi in edges if hi < rate / 2]
            bank = design_filterbank(replace(config, num_bands=len(below)),
                                     rate)
            assert len(bank) == len(below)
            for (lo, hi), (b, a) in zip(below, bank):
                b_ref, a_ref = signal.butter(1, [lo, hi], "bandpass",
                                             fs=rate)
                assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)
                b, a = design_bandpass(lo, hi, rate)
                assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)


def window_max(x, hop, window):
    """Window maxima of a 1-D signal as ``compute_spectrogram`` frames its
    bands, for windows of whole hops."""
    hop_maxima = np.maximum.reduceat(x, np.arange(0, len(x), hop))
    return _frame_maxima(hop_maxima[np.newaxis], window // hop)[
        0, :len(x) // hop]


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

    @pytest.mark.parametrize("pitches, first", [(None, 21),
                                                (range(60, 70), 60)])
    def test_overflowing_samples_name_their_band(self, pitches, first):
        # finite samples near the float64 limit overflow the band filters
        sr = 22050
        t = np.arange(sr) / sr
        audio = AudioBuffer(1.7e308 * np.sin(2 * np.pi * 440.0 * t), sr)
        with pytest.raises(AudioReadError,
                           match=f"band of MIDI pitch {first} holds a "
                                 f"non-finite value"):
            compute_spectrogram(audio, pitches=pitches)

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

    @pytest.mark.parametrize("fields, message", [
        ({"num_bands": 0}, "num_bands must be >= 1"),
        ({"window_factor": 0}, "window_factor must be >= 1")])
    def test_config_below_one_rejected(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            FilterbankConfig(**fields)

    def test_huge_window_factor_equals_whole_signal_window(self):
        rng = np.random.default_rng(6)
        audio = AudioBuffer(rng.uniform(-0.4, 0.4, 22050 + 100), 22050)
        hops = 51  # 50 whole hops of 441 samples and a partial one
        whole = compute_spectrogram(audio,
                                    FilterbankConfig(window_factor=hops))
        huge = compute_spectrogram(audio,
                                   FilterbankConfig(window_factor=10 ** 9))
        assert np.array_equal(huge.values, whole.values)

    def test_huge_window_factor_on_many_hops_is_fast(self):
        # a 2-sample hop gives 22,050 hops from 2 s of audio: a window
        # taken one hop offset at a time would make that many passes over
        # the 88 x 22,050 hop maxima
        rng = np.random.default_rng(8)
        audio = AudioBuffer(rng.uniform(-0.4, 0.4, 2 * 22050), 22050)
        hops = 22050
        started = time.time()
        whole = compute_spectrogram(audio, FilterbankConfig(
            frame_rate=11025.0, window_factor=hops))
        huge = compute_spectrogram(audio, FilterbankConfig(
            frame_rate=11025.0, window_factor=10 ** 9))
        elapsed = time.time() - started
        assert np.array_equal(huge.values, whole.values)
        assert elapsed < 2.0

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

    def test_working_memory_does_not_grow_with_the_recording(self):
        # the signal streams through the resample cascade block by block,
        # so all that grows with the recording is the output matrix
        rng = np.random.default_rng(9)
        extra = []
        for seconds in (60, 240):
            audio = AudioBuffer(
                rng.uniform(-0.5, 0.5, seconds * self.SAMPLE_RATE),
                self.SAMPLE_RATE)
            tracemalloc.start()
            try:
                values = compute_spectrogram(audio).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - values.nbytes)
        assert extra[1] - extra[0] < 1e6

    def test_same_values_for_any_worker_count_and_block_size(
            self, monkeypatch):
        # one task per band group and block, queued behind the next
        # block's resample: a single worker runs them in turn without
        # waiting on itself, and more workers change no value
        rng = np.random.default_rng(10)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 384 * 441 + 5000), 22050)
        config = FilterbankConfig(window_factor=2)
        values = []
        for block_hops in (1, 384):
            monkeypatch.setattr(filterbank, "_BLOCK_HOPS", block_hops)
            for workers in (1, 2, 3):
                monkeypatch.setattr(filterbank, "_num_workers",
                                    lambda num_groups, workers=workers:
                                    workers)
                done = []
                thread = threading.Thread(
                    target=lambda: done.append(
                        compute_spectrogram(audio, config).values),
                    daemon=True)
                thread.start()
                thread.join(timeout=120)
                assert not thread.is_alive() and len(done) == 1
                values.append(done[0])
        assert np.array_equal(values[0], reference_spectrogram(audio, config))
        for other in values[1:]:
            assert np.array_equal(other, values[0])

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
    """Each group of 12 bands runs at its own rate, reached by a cascade of
    ``resample_poly`` calls, and the spectrogram is exactly that of one
    full-length pass per band over its group's signal."""

    # hop of each group, top group first, at 50 and 100 frames per second
    @pytest.mark.parametrize("sample_rate, frame_rate, hops", [
        pytest.param(96000, 50.0, [216, 108] + [64] * 6, id="96000-50"),
        pytest.param(48000, 50.0, [216, 108] + [64] * 6, id="48000-50"),
        pytest.param(44100, 50.0, [216, 108] + [64] * 6, id="44100-50"),
        pytest.param(22050, 50.0, [216, 108] + [64] * 6, id="22050-50"),
        pytest.param(11025, 50.0, [215, 108] + [64] * 6, id="11025-50"),
        pytest.param(96000, 100.0, [108] + [64] * 7, id="96000-100"),
        pytest.param(48000, 100.0, [108] + [64] * 7, id="48000-100"),
        pytest.param(44100, 100.0, [108] + [64] * 7, id="44100-100"),
        pytest.param(22050, 100.0, [108] + [64] * 7, id="22050-100"),
        pytest.param(11025, 100.0, [108] + [64] * 7, id="11025-100")])
    def test_group_plan_keeps_every_band_below_its_rate(
            self, sample_rate, frame_rate, hops):
        config = FilterbankConfig(frame_rate=frame_rate)
        hop = int(round(sample_rate / frame_rate))
        groups = filterbank._band_groups(config, hop, sample_rate / hop)
        assert [group_hop for _, group_hop in groups] == hops
        # 12 bands a group from the top down, every band in one group
        assert [list(rows) for rows, _ in groups] == \
            [list(range(max(0, stop - 12), stop))
             for stop in range(88, 0, -12)]
        for rows, group_hop in groups:
            _, top = band_edges(int(config.band_pitches[rows[-1]]), config)
            assert top <= 0.4 * sample_rate * group_hop / hop
            assert group_hop <= hop

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("block_hops", [1, 2, None])
    # ids name each rate with its former single decimation factor, so
    # these results keep their names across versions
    @pytest.mark.parametrize("sample_rate", [44100, 48000],
                             ids=["44100-3", "48000-4"])
    def test_matches_full_length_oracle(self, monkeypatch, sample_rate,
                                        block_hops, factor):
        block_hops = TestBlockwiseFiltering.use_block_hops(monkeypatch,
                                                           block_hops)
        rng = np.random.default_rng([sample_rate, block_hops, factor])
        config = FilterbankConfig(window_factor=factor)
        hop = int(round(sample_rate / config.frame_rate))
        whole = (2 * block_hops + 1) * hop
        # a short signal, and three blocks with the last one partial;
        # ragged lengths leave a partial last hop
        for length in (hop + 5, whole, whole + 1, whole + hop - 1):
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, length), sample_rate)
            values = compute_spectrogram(audio, config).values
            assert values.shape == (88, length // hop)
            assert np.array_equal(values,
                                  reference_spectrogram(audio, config))

    # the widest reaches of resample_poly's filter: 441 -> 216 is 24/49 at
    # 22.05 kHz, and 1920 -> 216 is 9/80 at 96 kHz
    @pytest.mark.parametrize("block_hops", [1, 2])
    @pytest.mark.parametrize("sample_rate", [22050, 96000])
    def test_streamed_cascade_matches_full_length_oracle(
            self, monkeypatch, sample_rate, block_hops):
        monkeypatch.setattr(filterbank, "_BLOCK_HOPS", block_hops)
        rng = np.random.default_rng([sample_rate, block_hops])
        config = FilterbankConfig(window_factor=2)
        hop = int(round(sample_rate / config.frame_rate))
        # a short signal, and many blocks; ragged lengths leave a partial
        # last hop
        for length in (hop + 5, 7 * hop, 7 * hop + 1, 9 * hop - 1):
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, length), sample_rate)
            values = compute_spectrogram(audio, config).values
            assert values.shape == (88, length // hop)
            assert np.array_equal(values,
                                  reference_spectrogram(audio, config))

    @pytest.mark.parametrize("block_hops", [1, 2, 3, 7, 384])
    @pytest.mark.parametrize("frame_rate", [50.0, 100.0])
    @pytest.mark.parametrize("sample_rate",
                             [11025, 16000, 22050, 44100, 48000, 96000])
    def test_cascade_windows_equal_the_whole_signal(
            self, sample_rate, frame_rate, block_hops):
        config = FilterbankConfig(frame_rate=frame_rate)
        hop = int(round(sample_rate / frame_rate))
        groups = filterbank._band_groups(config, hop, sample_rate / hop)
        hops = sorted({hop, *(group_hop for _, group_hop in groups)},
                      reverse=True)
        levels = filterbank._resample_levels(hops)
        assert [level[0] for level in levels] == hops
        rng = np.random.default_rng([sample_rate, int(frame_rate),
                                     block_hops])
        # three blocks or more, the last one partial, and a partial hop
        num_hops = 2 * block_hops + block_hops // 2 + 2
        samples = rng.uniform(-0.5, 0.5, (num_hops - 1) * hop + hop // 3)
        whole = [samples]
        for (parent, *_), (_, up, down, _, _) in zip(levels, levels[1:]):
            # a window that starts on a parent hop starts on a multiple of
            # down, so it meets the whole signal's filter phases
            assert parent % down == 0
            whole.append(signal.resample_poly(whole[-1], up, down))
        blocks = range(0, num_hops, block_hops)
        for t0 in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
            t1 = min(t0 + block_hops, num_hops)
            signals = filterbank._block_signals(samples, levels, t0, t1)
            assert len(signals) == len(levels)
            for x, level_hop, expected in zip(signals, hops, whole):
                assert np.array_equal(
                    x, expected[t0 * level_hop:t1 * level_hop]), \
                    (level_hop, t0, t1)

    def test_scaling_input_scales_output_exactly(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-0.4, 0.4, 44100)
        a = compute_spectrogram(AudioBuffer(samples, 44100))
        b = compute_spectrogram(AudioBuffer(2.0 * samples, 44100))
        assert np.array_equal(b.values, 2.0 * a.values)

    @staticmethod
    def assert_end_to_end_accuracy(sample_rate):
        """Pooled over seeded pieces rendered at ``sample_rate``: median
        error <= 20 ms, >= 90% of onsets below 50 ms, mean <= 40 ms (the
        bounds of the 22.05 kHz synthetic suite)."""
        errors = []
        for seed in range(1000, 1004):
            score, tempo_map, rng = random_piece(seed=seed)
            audio, truth = synthesize(score, tempo_map,
                                      sample_rate=sample_rate,
                                      noise_level=0.01, rng=rng)
            result = align(score, extract_features(compute_spectrogram(audio)))
            errors.extend(evaluate(result.times, truth).errors_ms)
        errors = np.asarray(errors)
        assert np.median(errors) <= 20.0
        assert np.mean(errors < 50.0) >= 0.9
        assert errors.mean() <= 40.0

    def test_end_to_end_accuracy_at_44k(self):
        self.assert_end_to_end_accuracy(44100)

    @pytest.mark.parametrize("sample_rate", [11025, 22050])
    def test_end_to_end_accuracy_below_44k(self, sample_rate):
        self.assert_end_to_end_accuracy(sample_rate)


class TestPitches:
    """``pitches`` keeps a range of rows, each equal to its row of the full
    bank, and filters only the bands in it."""

    # a single pitch, the bank edges, a range inside the group of MIDI
    # 61-72, one across four groups, the benchmark scores' bands, and the
    # whole bank
    RANGES = [range(60, 61), range(21, 23), range(107, 109), range(62, 71),
              range(55, 90), range(35, 98), range(21, 109)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block_hops", [1, 384])
    @pytest.mark.parametrize("window_factor", [1, 3])
    @pytest.mark.parametrize("sample_rate", [11025, 22050, 44100, 48000])
    def test_rows_equal_the_full_bank(self, monkeypatch, sample_rate,
                                      window_factor, block_hops, workers):
        monkeypatch.setattr(filterbank, "_BLOCK_HOPS", block_hops)
        monkeypatch.setattr(filterbank, "_num_workers",
                            lambda num_groups: workers)
        rng = np.random.default_rng([sample_rate, window_factor])
        # 12 whole hops and a partial one
        hop = int(round(sample_rate / 50.0))
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 12 * hop + hop // 3),
                            sample_rate)
        config = FilterbankConfig(window_factor=window_factor)
        full = compute_spectrogram(audio, config).values
        for pitches in self.RANGES:
            part = compute_spectrogram(audio, config, pitches=pitches)
            assert part.midi_low == pitches.start
            assert part.frame_rate == sample_rate / hop
            assert np.array_equal(part.values, full[pitches.start - 21:
                                                    pitches.stop - 21])

    # each resample of the 22.05 kHz cascade, as up / down: 441 -> 216,
    # 216 -> 108 and 108 -> 64 samples per hop
    @pytest.mark.parametrize("pitches, resamples", [
        (range(100, 109), {(24, 49)}),
        (range(86, 90), {(24, 49), (1, 2)}),
        (range(90, 101), {(24, 49), (1, 2)}),
        (range(60, 62), {(24, 49), (1, 2), (16, 27)}),
        (range(21, 22), {(24, 49), (1, 2), (16, 27)})])
    def test_filters_and_resamples_only_what_the_rows_need(
            self, monkeypatch, pitches, resamples):
        sample_rate, hop = 22050, 441
        monkeypatch.setattr(filterbank, "_BLOCK_HOPS", 4)
        filtered, resampled = [], []
        filter_group, resampler = filterbank._filter_group, \
            filterbank._scipy.resampler

        def spy_filter_group(bank, samples, group_hop, states, out):
            # a band an octave up at twice the rate has the same
            # coefficients, so the group hop tells the two apart
            filtered.extend((group_hop, tuple(a)) for _, a in bank)
            return filter_group(bank, samples, group_hop, states, out)

        def spy_resampler(fir, up, down):
            resample = resampler(fir, up, down)

            def spy(x):
                resampled.append((up, down))
                return resample(x)
            return spy
        monkeypatch.setattr(filterbank, "_filter_group", spy_filter_group)
        monkeypatch.setattr(filterbank._scipy, "resampler", spy_resampler)

        rng = np.random.default_rng(pitches.start)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 10 * hop), sample_rate)
        config = FilterbankConfig()
        compute_spectrogram(audio, config, pitches=pitches)
        # each band designed at the rate of its group
        designed = {}
        for rows, group_hop in filterbank._band_groups(config, hop, 50.0):
            bank = design_filterbank(
                replace(config, midi_low=21 + rows[0], num_bands=len(rows)),
                sample_rate * group_hop / hop)
            for row, (_, a) in zip(rows, bank):
                designed[group_hop, tuple(a)] = 21 + row
        assert sorted(designed[band] for band in set(filtered)) == \
            list(pitches)
        assert len(filtered) == 3 * len(pitches)  # blocks of 4, 4, 2 hops
        assert set(resampled) == resamples

    @pytest.mark.parametrize("pitches", [
        range(60, 60), range(61, 60), range(20, 22), range(108, 110),
        range(0, 10), range(60, 70, 2), range(70, 60, -1), [60, 61]])
    def test_bad_range_rejected(self, pitches):
        audio = AudioBuffer(np.zeros(22050), 22050)
        with pytest.raises(ConfigurationError, match="pitches"):
            compute_spectrogram(audio, pitches=pitches)

    def test_band_above_nyquist_rejected_outside_the_rows(self):
        # the kept rows fit below 4 kHz, but every band is still designed
        audio = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(ConfigurationError, match="Nyquist"):
            compute_spectrogram(audio, pitches=range(21, 40))


class TestConfigValidation:
    def test_band_range_beyond_midi_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterbankConfig(midi_low=60, num_bands=88)

    def test_negative_midi_low_rejected(self):
        with pytest.raises(ConfigurationError, match="within MIDI 0..127"):
            FilterbankConfig(midi_low=-1)
        assert FilterbankConfig(midi_low=0, num_bands=128).band_pitches[-1] \
            == 127

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


def assert_response_criteria(pitch, sample_rate):
    """Stable poles, warped center within 1 dB of the peak, quarter-tone
    edges at -3 dB (within 1 dB) of the peak."""
    lo, hi = band_edges(int(pitch))
    b, a = design_bandpass(lo, hi, sample_rate)
    assert np.all(np.abs(np.roots(a)) < 1.0)
    grid = np.linspace(lo, hi, 101)
    peak = magnitude_db(b, a, grid, sample_rate).max()
    center = warped_center(lo, hi, sample_rate)
    assert abs(magnitude_db(b, a, [center], sample_rate)[0] - peak) <= 1.0
    for edge in (lo, hi):
        assert magnitude_db(b, a, [edge], sample_rate)[0] - peak \
            == pytest.approx(-3.0, abs=1.0)


# 14700 and 12000 Hz are a third and a quarter of 44.1 and 48 kHz
@pytest.mark.parametrize("sample_rate", [44100, 48000, 14700, 12000])
def test_response_criteria_all_bands(sample_rate):
    """Every default band meets the response criteria at one rate."""
    for pitch in FilterbankConfig().band_pitches:
        assert_response_criteria(pitch, sample_rate)


@pytest.mark.parametrize("sample_rate", [11025, 22050, 44100, 48000])
def test_response_criteria_at_group_rates(sample_rate):
    """Every default band meets the response criteria at the rate of its
    group, as ``compute_spectrogram`` designs it for this input rate."""
    config = FilterbankConfig()
    hop = int(round(sample_rate / config.frame_rate))
    for rows, group_hop in filterbank._band_groups(config, hop,
                                                   sample_rate / hop):
        for row in rows:
            assert_response_criteria(config.band_pitches[row],
                                     sample_rate * group_hop / hop)
