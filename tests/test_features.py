import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scoresync import (AudioBuffer, Spectrogram, compute_spectrogram,
                       extract_features, normalize_bins, superflux_onsets)
from scoresync.features import SILENT_BIN_EPS


def spectro(values):
    return Spectrogram(values=np.asarray(values, dtype=np.float64),
                       frame_rate=50.0, midi_low=21)


nonneg_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 6), st.integers(1, 12)),
    elements=st.floats(0.0, 1.0, allow_nan=False))


class TestNormalizeBins:
    def test_divides_by_row_max(self):
        out = normalize_bins(spectro([[0.2, 0.4, 0.1]]))
        assert out.values.tolist() == [[0.5, 1.0, 0.25]]

    def test_zero_row_stays_zero(self):
        out = normalize_bins(spectro([[0.0, 0.0, 0.0]]))
        assert out.values.tolist() == [[0.0, 0.0, 0.0]]
        assert np.all(np.isfinite(out.values))

    def test_row_with_max_one_unchanged(self):
        row = [[0.3, 1.0, 0.7]]
        assert normalize_bins(spectro(row)).values.tolist() == row

    def test_subthreshold_row_zeroed(self):
        tiny = SILENT_BIN_EPS / 2
        out = normalize_bins(spectro([[tiny, tiny]]))
        assert out.values.tolist() == [[0.0, 0.0]]

    @given(nonneg_matrices)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values):
        once = normalize_bins(spectro(values))
        twice = normalize_bins(once)
        assert np.array_equal(once.values, twice.values)

    @given(arrays(dtype=np.float64,
                  shape=st.tuples(st.integers(2, 6), st.integers(1, 12)),
                  elements=st.one_of(st.just(0.0),
                                     st.floats(1e-6, 1.0))),
           st.integers(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_power_of_two_scaling(self, values, exponent):
        # power-of-two scaling is lossless while values stay normal,
        # so normalization must cancel it exactly
        base = normalize_bins(spectro(values))
        scaled = normalize_bins(spectro(values * 2.0 ** exponent))
        assert np.array_equal(base.values, scaled.values)

    def test_invariant_to_general_scaling(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 1.0, (4, 9))
        base = normalize_bins(spectro(values))
        scaled = normalize_bins(spectro(values * 1.37))
        assert scaled.values == pytest.approx(base.values, rel=1e-12)


class TestSuperflux:
    def test_constant_spectrogram_gives_zero(self):
        values = np.tile(np.array([[0.3], [0.8], [0.1]]), (1, 6))
        assert not superflux_onsets(spectro(values)).values.any()

    def test_single_impulse_traced_through_max_filter(self):
        values = np.zeros((80, 20))
        values[40, 10] = 0.8
        out = superflux_onsets(spectro(values)).values
        # rows 39..41 at t=11 subtract the 0.8 impulse and rectify to zero;
        # the only survivor is the impulse itself, normalized to one
        expected = np.zeros((80, 20))
        expected[40, 10] = 1.0
        assert np.array_equal(out, expected)

    def test_monotonically_decreasing_rows_give_zero(self):
        values = np.linspace(1.0, 0.0, 15)[np.newaxis, :] \
            * np.array([[1.0], [0.5], [0.2]])
        assert not superflux_onsets(spectro(values)).values.any()

    def test_edge_rows_compare_against_two_neighbors(self):
        # energy appearing in row 1 at t=1 is masked for rows 0..2,
        # but not for row 3 (its neighborhood is rows 2..4)
        values = np.zeros((5, 3))
        values[1, 0] = 1.0
        values[:, 1] = 1.0
        out = superflux_onsets(spectro(values)).values
        assert out[0, 1] == 0.0 and out[1, 1] == 0.0 and out[2, 1] == 0.0
        assert out[3, 1] > 0.0 and out[4, 1] > 0.0

    @given(nonneg_matrices)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_with_zero_first_column(self, values):
        out = superflux_onsets(spectro(values)).values
        assert np.all(out >= 0.0)
        assert not out[:, 0].any()

    def test_lag_parameter_shifts_reference_frame(self):
        values = np.zeros((3, 8))
        values[1, 3] = 0.5
        values[1, 5] = 1.0
        lag2 = superflux_onsets(spectro(values), lag=2).values
        # with lag 2 the 1.0 at t=5 is compared against t=3 (0.5)
        assert lag2[1, 5] == pytest.approx(0.5 / 0.5)

    def test_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError):
            superflux_onsets(spectro(np.zeros((2, 4))), lag=0)


class TestExtractFeatures:
    def test_zero_input_gives_zero_pair(self):
        pair = extract_features(spectro(np.zeros((4, 10))))
        assert not pair.onsets.values.any()
        assert not pair.spec.values.any()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_band_rejected_with_its_pitch(self, value):
        values = np.random.default_rng(2).uniform(0, 1, (88, 20))
        values[40, 7] = value
        with pytest.raises(ValueError, match="MIDI pitch 61 holds a non-"):
            extract_features(Spectrogram(values=values, frame_rate=50.0))

    def test_shapes_match_input(self):
        pair = extract_features(spectro(np.random.default_rng(1)
                                        .uniform(0, 1, (5, 7))))
        assert pair.onsets.values.shape == (5, 7)
        assert pair.spec.values.shape == (5, 7)

    def test_tone_with_attack_lands_in_correct_rows(self):
        sr = 22050
        silence = np.zeros(sr)  # attack at exactly 1.0 s
        t = np.arange(sr) / sr
        tone = np.minimum(t / 0.005, 1.0) * np.sin(2 * np.pi * 440.0 * t)
        audio = AudioBuffer(np.concatenate([silence, 0.7 * tone]), sr)
        pair = extract_features(compute_spectrogram(audio))
        row = pair.spec.pitch_row(69)
        attack_frame = 50
        assert abs(int(pair.onsets.values[row].argmax()) - attack_frame) <= 2
        # sustained plateau near one after the attack
        assert pair.spec.values[row, attack_frame + 2:attack_frame + 20] \
            .min() > 0.5

    def test_sequential_tones_keep_temporal_order(self):
        sr = 22050
        t = np.arange(sr) / sr

        def tone(freq):
            return np.minimum(t / 0.005, 1.0) * np.sin(2 * np.pi * freq * t)

        audio = AudioBuffer(
            0.7 * np.concatenate([tone(261.6256), tone(329.6276)]), sr)
        pair = extract_features(compute_spectrogram(audio))
        first = int(pair.onsets.values[pair.onsets.pitch_row(60)].argmax())
        second = int(pair.onsets.values[pair.onsets.pitch_row(64)].argmax())
        assert first < second


def formula_normalize(v):
    """``normalize_bins``' values by its original formula."""
    values = v.copy()
    row_max = v.max(axis=1)
    live = row_max > SILENT_BIN_EPS
    values[live] /= row_max[live, np.newaxis]
    values[~live] = 0.0
    return values


def formula_onsets(v, lag=1):
    """``superflux_onsets``' values by its original formula."""
    maxfilt = v.copy()
    maxfilt[:-1] = np.maximum(maxfilt[:-1], v[1:])
    maxfilt[1:] = np.maximum(maxfilt[1:], v[:-1])
    onset = np.zeros_like(v)
    if v.shape[1] > lag:
        onset[:, lag:] = np.maximum(v[:, lag:] - maxfilt[:, :-lag], 0.0)
    return formula_normalize(onset)


class TestInPlaceFeatures:
    """The features are built in place, with the values of the formulas
    that built them from copies."""

    @pytest.mark.parametrize("shape", [(88, 300), (5, 40), (1, 30), (6, 1),
                                       (1, 1), (3, 2)])
    def test_values_equal_the_formulas(self, shape):
        rng = np.random.default_rng(list(shape))
        for trial in range(4):
            v = rng.uniform(0.0, 1.0, shape) ** 3
            if shape[0] > 2:
                v[rng.integers(shape[0])] = 0.0  # silent
                v[rng.integers(shape[0])] *= SILENT_BIN_EPS  # below the cut
            if trial == 3:
                v[:, ::2] = v[:, :1]  # repeated values leave exact zeros
            original = v.copy()
            pair = extract_features(spectro(v))
            assert np.array_equal(pair.onsets.values, formula_onsets(v))
            assert np.array_equal(pair.spec.values, formula_normalize(v))
            for lag in (1, 2, 3, 50):
                assert np.array_equal(
                    superflux_onsets(spectro(v), lag=lag).values,
                    formula_onsets(v, lag))
            assert np.array_equal(normalize_bins(spectro(v)).values,
                                  formula_normalize(v))
            # the public functions leave their input as it was
            assert np.array_equal(v, original)

    def test_extract_features_peaks_at_twice_the_matrix(self):
        # the onsets and the spectral matrix, and no third matrix
        values = np.random.default_rng(4).uniform(0.0, 1.0, (88, 9521))
        raw = spectro(values)
        tracemalloc.start()
        try:
            extract_features(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * values.nbytes
