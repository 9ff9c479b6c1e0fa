import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoresync import (AlignmentParams, ConfigurationError,
                       InfeasiblePathError, align, stretch_cost, synthesize,
                       update_beat_period)
from scoresync import dp_align
from scoresync import AudioBuffer, TempoMap, compute_spectrogram, \
    extract_features
from helpers import (_clamped_bp, _scalar_step_cost, _scalar_stretch,
                     _scalar_window, enumerate_paths_min, make_features,
                     make_score, path_cost, random_instance, random_piece,
                     reference_align)

DEFAULT = AlignmentParams()


def compute_frame_window(j, bp, dscore, params, num_frames):
    """The window ``align`` uses for a transition out of frame j, as a
    range (empty when the window is)."""
    lo, hi = dp_align._frame_windows(j, bp, dscore, params, num_frames)
    return range(int(lo), int(hi) + 1)


class TestComputeFrameWindow:
    def test_unit_beat_window(self):
        window = compute_frame_window(100, 25.0, 1.0, DEFAULT, 500)
        assert window == range(109, 176)  # ceil(25/3)=9, floor(75)=75

    def test_short_gap_keeps_minimum_advance(self):
        window = compute_frame_window(0, 25.0, 0.04, DEFAULT, 500)
        assert window == range(1, 4)  # max(1, ceil(1/3)) .. floor(3)

    def test_empty_at_last_frame(self):
        window = compute_frame_window(499, 25.0, 1.0, DEFAULT, 500)
        assert len(window) == 0

    def test_clipped_to_frame_count(self):
        window = compute_frame_window(100, 25.0, 1.0, DEFAULT, 120)
        assert window == range(109, 120)

    def test_max_window_frames_caps_width(self):
        params = dataclasses.replace(DEFAULT, max_window_frames=10)
        window = compute_frame_window(100, 25.0, 1.0, params, 500)
        assert window == range(109, 119)


class TestStretchCost:
    def test_exact_prediction_is_free(self):
        assert stretch_cost(25.0, 25.0, 1.0, DEFAULT) == 0.0

    def test_stretch_limit_costs_one(self):
        assert stretch_cost(75.0, 25.0, 1.0, DEFAULT) \
            == pytest.approx(1.0, abs=1e-12)

    def test_double_tempo_cost(self):
        # log2(2) / log2(3), evaluated independently
        assert stretch_cost(50.0, 25.0, 1.0, DEFAULT) \
            == pytest.approx(0.6309297535714574, abs=1e-12)

    def test_clipped_to_unit_interval(self):
        assert stretch_cost(1.0, 25.0, 1.0, DEFAULT) == 1.0
        assert stretch_cost(1000.0, 25.0, 1.0, DEFAULT) == 1.0

    def test_vectorized_matches_scalar(self):
        dframes = np.arange(5.0, 40.0)
        vec = stretch_cost(dframes, 25.0, 0.7, DEFAULT)
        scalars = [stretch_cost(float(d), 25.0, 0.7, DEFAULT)
                   for d in dframes]
        assert np.array_equal(vec, np.array(scalars))


class TestUpdateBeatPeriod:
    def test_confirming_observation_is_fixed_point(self):
        assert update_beat_period(25.0, 1.0, 25.0, DEFAULT) == 25.0

    def test_midpoint_smoothing(self):
        assert update_beat_period(35.0, 1.0, 25.0, DEFAULT) == 30.0

    def test_clamped_to_bounds(self):
        assert update_beat_period(10000.0, 1.0, 25.0, DEFAULT) == 250.0
        assert update_beat_period(1.0, 1.0, 5.0, DEFAULT) == 5.0

    def test_alpha_zero_tracks_observation(self):
        params = dataclasses.replace(DEFAULT, bp_alpha=0.0)
        assert update_beat_period(40.0, 2.0, 25.0, params) == 20.0


def _two_chord_setup(n=40, bp=4.0, sustain=3):
    onsets = np.zeros((6, n))
    spec = np.zeros((6, n))
    feats = make_features(onsets, spec, midi_low=60)
    score = make_score([1.0, 2.0], [[62], [62]])
    params = dataclasses.replace(DEFAULT, bp_init=bp, bp_min=1.0, bp_max=60.0,
                                 sustain_frames=sustain)
    return feats, score, params


def transition_cost(target, j, j_new, feats, score, bp, params):
    """Step cost of placing onset ``target`` at ``j_new`` coming from ``j``,
    from the oracle's scalar terms (no stretch charge for ``target == 0``).
    """
    rows_per = [[feats.onsets.pitch_row(p) for p in o.pitches]
                for o in score.onsets]
    c_st = 0.0
    if target > 0:
        dscore = score.beats[target] - score.beats[target - 1]
        c_st = _scalar_stretch(float(j_new - j), bp * dscore, params)
    return _scalar_step_cost(feats, rows_per, params, target, c_st, j_new)


class TestTransitionCost:
    def test_perfect_match_costs_nothing(self):
        feats, score, params = _two_chord_setup()
        row = feats.onsets.pitch_row(62)
        feats.onsets.values[row, 14] = 1.0
        feats.spec.values[row, 15:18] = 1.0
        # from frame 10, one beat at bp=4 predicts frame 14 exactly
        assert transition_cost(1, 10, 14, feats, score, 4.0, params) == 0.0

    def test_dead_features_saturate_at_weight_sum(self):
        feats, score, params = _two_chord_setup()
        assert transition_cost(1, 10, 14, feats, score, 4.0, params) == 2.0

    def test_mean_aggregation_averages_over_chord(self):
        feats, score, params = _two_chord_setup()
        score = make_score([1.0, 2.0], [[60, 64], [60, 64]])
        feats.onsets.values[feats.onsets.pitch_row(60), 14] = 1.0
        feats.spec.values[:] = 1.0
        assert transition_cost(1, 10, 14, feats, score, 4.0, params) == 0.5

    def test_min_aggregation_takes_best_pitch(self):
        feats, score, params = _two_chord_setup()
        params = dataclasses.replace(params, pitch_aggregation="min")
        score = make_score([1.0, 2.0], [[60, 64], [60, 64]])
        feats.onsets.values[feats.onsets.pitch_row(60), 14] = 1.0
        feats.spec.values[:] = 1.0
        assert transition_cost(1, 10, 14, feats, score, 4.0, params) == 0.0

    def test_sustain_lookup_clamped_at_end(self):
        feats, score, params = _two_chord_setup(n=16)
        row = feats.onsets.pitch_row(62)
        feats.onsets.values[row, 15] = 1.0
        feats.spec.values[row, 15] = 1.0  # frames beyond the end clamp to 15
        cost = transition_cost(1, 11, 15, feats, score, 4.0, params)
        assert cost == 0.0

    def test_first_onset_has_no_stretch_charge(self):
        feats, score, params = _two_chord_setup()
        row = feats.onsets.pitch_row(62)
        feats.onsets.values[row, 3] = 1.0
        feats.spec.values[row, :] = 1.0
        assert transition_cost(0, 0, 3, feats, score, 4.0, params) == 0.0


def _assert_matches_reference(rng, instances, overrides=None, **sizes):
    """Exact agreement (cost and frames) with the brute-force oracle on
    random instances (``sizes`` go to ``random_instance``, ``overrides``
    replace parameters), including which ones are infeasible."""
    for _ in range(instances):
        score, feats, params = random_instance(rng, **sizes)
        params = dataclasses.replace(params, **(overrides or {}))
        ref_cost, ref_path = reference_align(score, feats, params)
        if np.isinf(ref_cost):
            with pytest.raises(InfeasiblePathError):
                align(score, feats, params)
            continue
        result = align(score, feats, params)
        assert result.total_cost == ref_cost
        assert result.frames == ref_path


class TestAlign:
    def test_single_tone_attack_recovered(self):
        score = make_score([0.0], [[69]])
        tone, _ = synthesize(score, TempoMap(segments=((0.0, 120.0),)),
                             sample_rate=22050)
        silence = np.zeros(2 * 22050)
        audio = AudioBuffer(np.concatenate([silence, tone.samples]), 22050)
        feats = extract_features(compute_spectrogram(audio))
        result = align(score, feats)
        assert result.entries[0].time_s == pytest.approx(2.0, abs=0.04)

    def test_three_chord_instance_matches_bruteforce(self):
        rng = np.random.default_rng(99)
        score = make_score([0.5, 1.0, 1.7], [[60], [61, 63], [65]])
        feats = make_features(rng.uniform(0, 1, (6, 12)),
                              rng.uniform(0, 1, (6, 12)), midi_low=60)
        params = dataclasses.replace(DEFAULT, bp_init=3.0,
                                     bp_min=1.0, bp_max=60.0,
                                     initial_window=0.1)
        result = align(score, feats, params)
        ref_cost, ref_path = reference_align(score, feats, params)
        assert result.total_cost == ref_cost
        assert result.frames == ref_path
        # on this instance the per-cell merge is lossless, so the path
        # enumeration minimum coincides as well
        enum_cost, enum_path = enumerate_paths_min(score, feats, params)
        assert result.total_cost == enum_cost
        assert result.frames == enum_path

    def test_reference_equivalence_random_instances(self):
        _assert_matches_reference(np.random.default_rng(1234), 40)

    @given(seed=st.integers(0, 2 ** 32 - 1), num_chords=st.integers(1, 6),
           num_frames=st.integers(10, 60))
    @settings(max_examples=100, deadline=None)
    def test_reference_equivalence_at_random_sizes(self, seed, num_chords,
                                                   num_frames):
        _assert_matches_reference(np.random.default_rng(seed), 1,
                                  num_chords=num_chords,
                                  num_frames=num_frames)

    def test_cost_accounting_against_path_enumeration(self):
        # the returned cost is exactly the path-wise cost of the returned
        # frames and never undercuts the exhaustive path-space minimum
        rng = np.random.default_rng(4321)
        for _ in range(25):
            score, feats, params = random_instance(rng)
            enum_cost, _ = enumerate_paths_min(score, feats, params)
            if np.isinf(enum_cost):
                with pytest.raises(InfeasiblePathError):
                    align(score, feats, params)
                continue
            result = align(score, feats, params)
            assert result.total_cost == path_cost(score, feats, params,
                                                  result.frames)
            assert result.total_cost >= enum_cost

    def test_output_frames_strictly_increase(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            score, feats, params = random_instance(rng, max_chords=4,
                                                   num_frames=30)
            try:
                result = align(score, feats, params)
            except InfeasiblePathError:
                continue
            frames = result.frames
            assert all(b > a for a, b in zip(frames, frames[1:]))

    def test_total_cost_bounded_by_weight_sum(self):
        rng = np.random.default_rng(555)
        for _ in range(25):
            score, feats, params = random_instance(rng)
            try:
                result = align(score, feats, params)
            except InfeasiblePathError:
                continue
            bound = len(score.onsets) * (params.w_onset + params.w_stretch
                                         + params.w_spec)
            assert result.total_cost <= bound + 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    def test_uniform_weight_scaling_keeps_path(self, alpha):
        rng = np.random.default_rng(31)
        for _ in range(10):
            score, feats, params = random_instance(rng)
            scaled = dataclasses.replace(params,
                                         w_onset=alpha * params.w_onset,
                                         w_stretch=alpha * params.w_stretch,
                                         w_spec=alpha * params.w_spec)
            try:
                base = align(score, feats, params)
            except InfeasiblePathError:
                continue
            assert align(score, feats, scaled).frames == base.frames

    def test_generous_beam_matches_no_pruning(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            beats = np.cumsum(rng.uniform(0.5, 1.0, size=m))
            pitch_sets = [[60 + int(rng.integers(0, 6))] for _ in range(m)]
            score = make_score(beats, pitch_sets)
            feats = make_features(rng.uniform(0, 1, (6, 120)),
                                  rng.uniform(0, 1, (6, 120)), midi_low=60)
            params = dataclasses.replace(
                DEFAULT, bp_init=5.0, bp_min=1.0, bp_max=8.0,
                initial_window=0.2)
            beam = dataclasses.replace(
                params,
                reset_threshold=m * (params.w_onset + params.w_stretch
                                     + params.w_spec))
            base = align(score, feats, params)
            pruned = align(score, feats, beam)
            assert pruned.entries == base.entries
            assert pruned.total_cost == base.total_cost

    def test_score_longer_than_audio_is_infeasible(self):
        score = make_score(np.arange(100.0), [[60]] * 100)
        feats = make_features(np.zeros((6, 10)), np.zeros((6, 10)),
                              midi_low=60)
        with pytest.raises(InfeasiblePathError) as excinfo:
            align(score, feats)
        assert excinfo.value.score_index >= 1

    def test_pitch_outside_band_range_rejected(self):
        score = make_score([0.0], [[10]])
        feats = make_features(np.zeros((6, 10)), np.zeros((6, 10)),
                              midi_low=60)
        with pytest.raises(ConfigurationError, match="pitch 10"):
            align(score, feats)

    def test_tie_breaks_toward_smaller_frame(self):
        onsets = np.zeros((6, 60))
        spec = np.zeros((6, 60))
        row = 0  # midi 60
        onsets[row, 40] = onsets[row, 41] = 1.0
        spec[row, 41:45] = 1.0  # sustain windows of frames 40 and 41 agree
        feats = make_features(onsets, spec, midi_low=60)
        result = align(make_score([0.0], [[60]]), feats)
        assert result.entries[0].frame == 40


class TestParametersPastTheFrameCount:
    """A window end, window cap or sustain length past the last frame acts
    as the frame count: no overflow, no hang, the oracle's result."""

    @pytest.mark.parametrize("overrides", [
        {"sustain_frames": 13}, {"sustain_frames": 40},
        {"stretch_max": 1e19}, {"max_window_frames": 10 ** 20},
        {"stretch_max": 1e19, "max_window_frames": 10 ** 20}])
    def test_matches_reference(self, overrides):
        _assert_matches_reference(np.random.default_rng(2026), 30,
                                  overrides, num_frames=12)

    def test_huge_sustain_equals_frame_count(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            score, feats, params = random_instance(rng, num_frames=20)
            assert _outcome(score, feats, dataclasses.replace(
                params, sustain_frames=10 ** 9)) == _outcome(
                score, feats, dataclasses.replace(params, sustain_frames=20))

    def test_huge_sustain_on_a_long_recording_is_fast(self):
        # 40,000 frames: a lookahead taken one frame offset at a time
        # would make about n passes over each band row
        rng = np.random.default_rng(90)
        n = 40_000
        feats = make_features(rng.uniform(0.0, 1.0, (3, n)),
                              rng.uniform(0.0, 1.0, (3, n)))
        score = make_score(np.arange(20.0), [[60 + k % 3] for k in range(20)])
        started = time.time()
        huge = _outcome(score, feats, dataclasses.replace(
            DEFAULT, sustain_frames=10 ** 9))
        whole = _outcome(score, feats, dataclasses.replace(
            DEFAULT, sustain_frames=n))
        elapsed = time.time() - started
        assert huge == whole
        assert elapsed < 2.0

    def test_huge_opening_window_spans_every_frame(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            score, feats, params = random_instance(rng, num_frames=20)
            every = 20 / feats.frame_rate
            assert _outcome(score, feats, dataclasses.replace(
                params, initial_window=1e308)) == _outcome(
                score, feats, dataclasses.replace(params,
                                                  initial_window=every))


class TestPairChunks:
    """Rows relaxed in many small pair chunks must agree with the oracle
    exactly, ties across chunk boundaries included."""

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_small_chunks_match_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(dp_align, "_PAIR_CHUNK", chunk)
        _assert_matches_reference(np.random.default_rng(2024 + chunk), 30)

    @pytest.mark.parametrize("chunk", [1, 4, 1 << 15])
    def test_cross_chunk_tie_goes_to_smaller_source(self, monkeypatch,
                                                    chunk):
        # chord 0 costs exactly 0 at frames 5 and 7; with no stretch
        # charge both reach frame 20 of chord 1 at cost 0, and the pairs
        # (5, 20) and (7, 20) lie 52 pairs apart
        monkeypatch.setattr(dp_align, "_PAIR_CHUNK", chunk)
        onsets = np.zeros((6, 40))
        spec = np.zeros((6, 40))
        onsets[0, [5, 7]] = 1.0
        spec[0, 6:11] = 1.0
        onsets[2, 20] = 1.0
        spec[2, 21:24] = 1.0
        feats = make_features(onsets, spec, midi_low=60)
        score = make_score([0.0, 1.0], [[60], [62]])
        params = dataclasses.replace(DEFAULT, w_stretch=0.0, bp_init=10.0,
                                     bp_min=1.0, bp_max=60.0)
        result = align(score, feats, params)
        assert result.frames == [5, 20]
        assert result.total_cost == 0.0
        assert reference_align(score, feats, params) == (0.0, [5, 20])


def _pruning_instance(tied_minimum=False):
    """Two chords, no stretch charge. Chord 0 costs 0 at frame 2 and 0.5
    at frame 5 (0 too with ``tied_minimum``), 2 elsewhere; chord 1 costs
    0 only at frame 16, which frame 5 reaches and frame 2 does not."""
    onsets = np.zeros((6, 30))
    spec = np.zeros((6, 30))
    onsets[0, 2] = 1.0
    onsets[0, 5] = 1.0 if tied_minimum else 0.5
    spec[0, [3, 6]] = 1.0
    onsets[2, 16] = 1.0
    spec[2, 17] = 1.0
    feats = make_features(onsets, spec, midi_low=60)
    score = make_score([0.0, 1.0], [[60], [62]])
    params = dataclasses.replace(DEFAULT, w_stretch=0.0, bp_init=4.0,
                                 bp_min=1.0, bp_max=60.0, sustain_frames=1,
                                 initial_window=0.2)
    return score, feats, params


class TestPruning:
    """``reset_threshold`` drops the chord cells above the row minimum
    plus the threshold, and only those."""

    def test_cell_at_min_plus_threshold_survives(self):
        score, feats, params = _pruning_instance()
        result = align(score, feats,
                       dataclasses.replace(params, reset_threshold=0.5))
        assert result.frames == [5, 16]
        assert result.total_cost == 0.5
        assert align(score, feats, params).entries == result.entries

    def test_cell_just_above_is_pruned(self):
        score, feats, params = _pruning_instance()
        beam = dataclasses.replace(params,
                                   reset_threshold=np.nextafter(0.5, 0.0))
        result = align(score, feats, beam)
        # only frame 2 is left for chord 0; chord 1 costs 2 in all its
        # window and takes the smallest frame
        assert result.frames == [2, 4]
        assert result.total_cost == 2.0

    def test_zero_threshold_keeps_tied_minima(self):
        score, feats, params = _pruning_instance(tied_minimum=True)
        result = align(score, feats,
                       dataclasses.replace(params, reset_threshold=0.0))
        assert result.frames == [5, 16]
        assert result.total_cost == 0.0


def _outcome(score, feats, params):
    """Everything ``align`` reports: the entries and total cost, or the
    score index and message of its InfeasiblePathError."""
    try:
        result = align(score, feats, params)
    except InfeasiblePathError as exc:
        return "infeasible", exc.score_index, str(exc)
    return result.entries, result.total_cost


def _outcome_with_bound(score, feats, params, bound):
    """``_outcome`` with the upper bound of the default pass forced to
    ``bound`` (+inf: the plain unpruned pass), and whether the bounded
    pass fell back to a second, unpruned one."""
    fill = dp_align._fill_tables
    passes = []

    def spy(*args):
        passes.append(args)
        return fill(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp_align, "_beam_bound", lambda *args: bound)
        mp.setattr(dp_align, "_fill_tables", spy)
        return _outcome(score, feats, params), len(passes) > 1


def _feasible_paths(score, feats, params):
    """Every window-feasible path as (frames, step costs), each step priced
    with the beat period of the path's own history."""
    n = feats.num_frames
    m = len(score.onsets)
    beats = score.beats
    rows_per = [[feats.onsets.pitch_row(p) for p in o.pitches]
                for o in score.onsets]
    paths = []

    def extend(frames, steps, bp):
        target = len(frames)
        if target == m:
            paths.append((list(frames), list(steps)))
            return
        if target == 0:
            hi = min(n - 1, int(params.initial_window * feats.frame_rate))
            options = [(jp, 0.0, bp) for jp in range(hi + 1)]
        else:
            j = frames[-1]
            dscore = beats[target] - beats[target - 1]
            lo, hi = _scalar_window(j, bp * dscore, params, n)
            options = [(jp, _scalar_stretch(float(jp - j), bp * dscore,
                                            params),
                        _clamped_bp(float(jp - j), dscore, bp, params))
                       for jp in range(lo, hi + 1)]
        for jp, c_st, bp_next in options:
            frames.append(jp)
            steps.append(_scalar_step_cost(feats, rows_per, params, target,
                                           c_st, jp))
            extend(frames, steps, bp_next)
            frames.pop()
            steps.pop()

    extend([], [], float(params.bp_init))
    return paths


class TestBoundPruning:
    """Without a beam, ``align`` prunes every cell whose cost plus a lower
    bound on its cost-to-go exceeds an upper bound on the optimum, and
    reports exactly what the plain unpruned pass does."""

    @given(seed=st.integers(0, 2 ** 32 - 1), num_chords=st.integers(1, 6),
           num_frames=st.integers(10, 60))
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_pass_at_any_bound(self, seed, num_chords,
                                             num_frames):
        rng = np.random.default_rng(seed)
        score, feats, params = random_instance(rng, num_chords=num_chords,
                                               num_frames=num_frames)
        plain, _ = _outcome_with_bound(score, feats, params, np.inf)
        assert _outcome(score, feats, params) == plain
        opt, _ = reference_align(score, feats, params)
        if np.isinf(opt):
            # a finite bound on an infeasible problem empties a row; the
            # plain pass then reports the row it fails at
            assert _outcome_with_bound(score, feats, params, 1.0)[0] == plain
            return
        for bound in (opt, 1.3 * opt + 0.1):
            outcome, fell_back = _outcome_with_bound(score, feats, params,
                                                     bound)
            assert outcome == plain
            assert not fell_back
        # a bound below the optimum cuts a row empty and is ignored
        outcome, fell_back = _outcome_with_bound(score, feats, params,
                                                 0.5 * opt - 0.1)
        assert outcome == plain
        assert fell_back

    def test_cost_to_go_is_admissible(self):
        # h[r, f_r] never exceeds what rows r + 1 .. M - 1 add along any
        # feasible path through (r, f_r), found by enumeration
        rng = np.random.default_rng(606)
        cost_to_go = dp_align._cost_to_go
        tables = []

        def spy(*args):
            tables.append(cost_to_go(*args))
            return tables[-1]

        checked = 0
        for _ in range(30):
            score, feats, params = random_instance(rng, max_chords=4,
                                                   num_frames=14)
            with pytest.MonkeyPatch.context() as mp:
                # any finite bound makes align compute h
                mp.setattr(dp_align, "_beam_bound", lambda *args: 1e9)
                mp.setattr(dp_align, "_cost_to_go", spy)
                try:
                    align(score, feats, params)
                except InfeasiblePathError:
                    pass
            h = tables.pop()
            for frames, steps in _feasible_paths(score, feats, params):
                for r, j in enumerate(frames):
                    suffix = sum(steps[r + 1:])
                    assert h[r, j] <= suffix + 1e-12
                    checked += 1
        assert checked > 1000

    def test_infeasible_error_unchanged(self):
        # the same failing score index and message as the plain pass, by
        # default and under a finite bound
        rng = np.random.default_rng(77)
        found = 0
        while found < 10:
            score, feats, params = random_instance(rng, max_chords=6,
                                                   num_frames=10)
            plain, _ = _outcome_with_bound(score, feats, params, np.inf)
            if plain[0] != "infeasible":
                continue
            found += 1
            assert _outcome(score, feats, params) == plain
            assert _outcome_with_bound(score, feats, params, 5.0)[0] == plain

    def test_rendered_piece_relaxes_few_cells(self):
        score, tempo_map, rng = random_piece(seed=2024)
        audio, _ = synthesize(score, tempo_map, sample_rate=22050,
                              noise_level=0.01, rng=rng)
        feats = extract_features(compute_spectrogram(audio))
        relax = dp_align._relax_row
        sources = []

        def spy(d_src, *args):
            sources.append(int(np.isfinite(d_src).sum()))
            return relax(d_src, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dp_align, "_relax_row", spy)
            outcome = _outcome(score, feats, DEFAULT)
        # the beam pass and the bounded pass together
        assert sum(sources) < 0.1 * len(score) * feats.num_frames
        assert outcome == _outcome_with_bound(score, feats, DEFAULT,
                                              np.inf)[0]


class TestPathReadout:
    """Every entry carries the path-wise cost of its prefix of the path
    and its frame in seconds, with and without a beam."""

    @pytest.mark.parametrize("reset_threshold", [None, 0.5, 2.0])
    def test_entries_carry_prefix_cost_and_time(self, reset_threshold):
        rng = np.random.default_rng(808)
        checked = 0
        for _ in range(40):
            score, feats, params = random_instance(rng, max_chords=5,
                                                   num_frames=30)
            params = dataclasses.replace(params,
                                         reset_threshold=reset_threshold)
            try:
                result = align(score, feats, params)
            except InfeasiblePathError:
                continue
            frames = result.frames
            for i, entry in enumerate(result.entries):
                assert entry.cumulative_cost == path_cost(
                    score, feats, params, frames[:i + 1])
                assert entry.time_s == entry.frame / feats.frame_rate
                checked += 1
            assert result.total_cost == result.entries[-1].cumulative_cost
        assert checked >= 40


class TestRowStorage:
    """Rows are stored over their live spans, so with a beam the DP's
    memory follows the surviving cells, not chords x frames."""

    def test_beam_memory_stays_far_below_dense_tables(self):
        # one chord every 500 frames over 20,000 frames; every other
        # cell costs at least 2.5, so the beam keeps about one per row
        m, n, gap = 40, 20_000, 500
        onsets = np.zeros((6, n))
        spec = np.zeros((6, n))
        true = 100 + gap * np.arange(m)
        rows = np.arange(m) % 6
        onsets[rows, true] = 1.0
        for k in range(1, 4):
            spec[rows, true + k] = 1.0
        feats = make_features(onsets, spec)
        score = make_score(20.0 * np.arange(m), [[60 + r] for r in rows])
        params = dataclasses.replace(DEFAULT, reset_threshold=2.0,
                                     w_onset=1.5)
        tracemalloc.start()
        try:
            result = align(score, feats, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.frames == true.tolist()
        # dense cost and backpointer tables alone take m * n * 12 bytes
        assert peak < m * n * 12 / 4

class TestParamsValidation:
    def test_stretch_limits_ordered(self):
        with pytest.raises(ConfigurationError):
            AlignmentParams(stretch_min=1.5)
        with pytest.raises(ConfigurationError):
            AlignmentParams(stretch_max=0.9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            AlignmentParams(w_onset=-0.1)

    def test_bp_init_within_bounds(self):
        with pytest.raises(ConfigurationError):
            AlignmentParams(bp_init=1.0, bp_min=5.0, bp_max=250.0)

    @pytest.mark.parametrize("field,value", [
        ("stretch_min", float("nan")), ("stretch_max", float("inf")),
        ("w_onset", float("-inf")), ("w_stretch", float("nan")),
        ("w_spec", float("inf")), ("bp_init", float("nan")),
        ("bp_alpha", float("nan")), ("reset_threshold", float("nan")),
        ("reset_threshold", float("inf")), ("initial_window", float("nan")),
        ("initial_window", float("inf")),
        ("bp_min", float("nan")), ("bp_max", float("inf"))])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            AlignmentParams(**{field: value})

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ConfigurationError):
            AlignmentParams(pitch_aggregation="median")

    def test_negative_reset_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            AlignmentParams(reset_threshold=-1.0)
