"""Shared test utilities: WAV/SMF builders, random instances, a
per-group filterbank oracle, and an exhaustive path-enumeration oracle
for the aligner."""

import math
import os
import struct

import numpy as np
import scipy
from scipy import signal

from scoresync import (AlignmentParams, FeaturePair, ScoreOnset,
                       ScoreSequence, Spectrogram, TempoMap, band_edges,
                       design_bandpass)

# scipy 1.12 and later ship the Matrix Market kernel that reads feature
# CSVs (``scoresync._scipy.array_reader``)
HAS_MATRIX_MARKET_KERNEL = os.path.isdir(os.path.join(
    os.path.dirname(scipy.__file__), "io", "_fast_matrix_market"))

# --- WAV construction -------------------------------------------------

_WAV_PACK = {
    "pcm16": (1, 2, lambda v: struct.pack("<h", v)),
    "pcm32": (1, 4, lambda v: struct.pack("<i", v)),
    "pcm24": (1, 3, lambda v: struct.pack("<i", v << 8)[1:4]),
    "pcm8": (1, 1, lambda v: struct.pack("<B", v)),
    "f32": (3, 4, lambda v: struct.pack("<f", v)),
    "f64": (3, 8, lambda v: struct.pack("<d", v)),
}


def write_wav(path, sample_rate, channels, fmt="pcm16", format_code=None):
    """Write a RIFF/WAVE file from per-channel sample sequences.

    ``channels`` is a list of equal-length sequences (one per channel).
    ``format_code`` overrides the fmt-chunk code (to fake compressed files).
    """
    code, width, pack = _WAV_PACK[fmt]
    if format_code is not None:
        code = format_code
    n_ch = len(channels)
    n = len(channels[0])
    frames = b"".join(pack(channels[c][i])
                      for i in range(n) for c in range(n_ch))
    block = n_ch * width
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<IHHIIHH", 16, code, n_ch,
                                      sample_rate, sample_rate * block,
                                      block, width * 8))
        f.write(b"data" + struct.pack("<I", len(frames)) + frames)


# --- standard-MIDI-file construction -----------------------------------

def _varlen(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def write_midi(path, tracks, ppq=480, fmt=None, running_status=False):
    """Write an SMF from tracks of (tick, pitch, velocity) note-ons.

    Each note-on gets a matching note-off one tick before the next event
    (contents irrelevant to the reader under test, but keeps files sane).
    """
    if fmt is None:
        fmt = 0 if len(tracks) == 1 else 1
    chunks = [b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), ppq)]
    for events in tracks:
        data = b""
        tick = 0
        last_status = None
        for ev_tick, pitch, velocity in sorted(events):
            data += _varlen(ev_tick - tick)
            tick = ev_tick
            if running_status and last_status == 0x90:
                data += struct.pack("BB", pitch, velocity)
            else:
                data += struct.pack("BBB", 0x90, pitch, velocity)
                last_status = 0x90
        data += _varlen(1) + b"\xff\x2f\x00"
        chunks.append(b"MTrk" + struct.pack(">I", len(data)) + data)
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


# --- filter response probes ---------------------------------------------

def reference_bandpass(lo, hi, sample_rate):
    """Textbook design, independent of the implementation under test:
    first-order analog lowpass -> bandpass transform -> bilinear transform
    with pre-warped edges. Returns (b, a)."""
    w_lo = 2.0 * sample_rate * np.tan(np.pi * lo / sample_rate)
    w_hi = 2.0 * sample_rate * np.tan(np.pi * hi / sample_rate)
    bw = w_hi - w_lo
    w0_sq = w_lo * w_hi
    c = 2.0 * sample_rate
    norm = c * c + bw * c + w0_sq
    b = np.array([bw * c, 0.0, -bw * c]) / norm
    a = np.array([norm, 2.0 * (w0_sq - c * c), c * c - bw * c + w0_sq]) / norm
    return b, a


def magnitude_db(b, a, freqs, sample_rate):
    _, h = signal.freqz(b, a, worN=2.0 * np.pi * np.asarray(freqs)
                        / sample_rate)
    return 20.0 * np.log10(np.abs(h))


def warped_center(lo, hi, sample_rate):
    """Digital frequency where the pre-warped analog design peaks."""
    w_lo = 2.0 * sample_rate * np.tan(np.pi * lo / sample_rate)
    w_hi = 2.0 * sample_rate * np.tan(np.pi * hi / sample_rate)
    return sample_rate / np.pi * np.arctan(np.sqrt(w_lo * w_hi)
                                           / (2.0 * sample_rate))


def reference_spectrogram(audio, config):
    """Per-group oracle for ``compute_spectrogram(audio, config).values``.

    The bands are taken 12 at a time from the top band down. Group g runs
    at the hop ``h_g = min(h_prev, max(64, ceil(2.5 * top edge / rate)))``,
    with ``rate`` the effective frame rate and ``h_prev`` the hop of the
    group above (the input hop for the top group). Its signal is the
    previous group's, resampled by ``h_g / h_prev`` in lowest terms with
    ``resample_poly`` when the hop falls. Each band is designed at
    ``h_g * rate`` and filtered by one lfilter pass over the whole group
    signal; frame t of the input is the maximum of ``|y|`` over the slice
    ``[t * h_g, t * h_g + h_g * window_factor)``."""
    samples = np.asarray(audio.samples, dtype=np.float64)
    hop = int(round(audio.sample_rate / config.frame_rate))
    num_frames = len(samples) // hop
    pitches = [int(p) for p in config.band_pitches]
    rows = {}
    h_prev = hop
    for top in range(len(pitches), 0, -12):
        edge = band_edges(pitches[top - 1], config)[1]
        h = min(h_prev, max(64, math.ceil(2.5 * edge * hop
                                          / audio.sample_rate)))
        if h < h_prev:
            g = math.gcd(h, h_prev)
            samples = signal.resample_poly(samples, h // g, h_prev // g)
        h_prev = h
        w = h * config.window_factor
        for pitch in pitches[max(0, top - 12):top]:
            coeffs = design_bandpass(*band_edges(pitch, config),
                                     audio.sample_rate * h / hop)
            y = np.abs(signal.lfilter(*coeffs, samples))
            rows[pitch] = [y[t * h:t * h + w].max()
                           for t in range(num_frames)]
    return np.array([rows[pitch] for pitch in pitches])


# --- feature / score factories -----------------------------------------

def make_features(onset_values, spec_values, frame_rate=50.0, midi_low=60):
    """Wrap two band x frame matrices as a FeaturePair."""
    onset_values = np.asarray(onset_values, dtype=np.float64)
    spec_values = np.asarray(spec_values, dtype=np.float64)
    return FeaturePair(
        onsets=Spectrogram(values=onset_values, frame_rate=frame_rate,
                           midi_low=midi_low),
        spec=Spectrogram(values=spec_values, frame_rate=frame_rate,
                         midi_low=midi_low))


def make_score(beats, pitch_sets):
    return ScoreSequence(onsets=[
        ScoreOnset(beat=float(b), pitches=tuple(sorted(p)))
        for b, p in zip(beats, pitch_sets)])


def random_instance(rng, max_chords=3, num_frames=None, num_bands=6,
                    midi_low=60, num_chords=None):
    """Random small alignment problem plus random valid parameters."""
    n = int(num_frames if num_frames is not None
            else rng.integers(8, 16))
    m = int(num_chords if num_chords is not None
            else rng.integers(1, max_chords + 1))
    beats = np.cumsum(rng.uniform(0.4, 1.0, size=m))
    pitch_sets = [
        rng.choice(np.arange(midi_low, midi_low + num_bands),
                   size=int(rng.integers(1, 4)), replace=False).tolist()
        for _ in range(m)
    ]
    score = make_score(beats, pitch_sets)
    feats = make_features(rng.uniform(0.0, 1.0, size=(num_bands, n)),
                          rng.uniform(0.0, 1.0, size=(num_bands, n)),
                          midi_low=midi_low)
    bp_init = float(rng.uniform(2.0, 5.0))
    params = AlignmentParams(
        stretch_min=float(rng.uniform(0.25, 0.7)),
        stretch_max=float(rng.uniform(1.8, 3.2)),
        w_onset=float(rng.uniform(0.0, 2.0)),
        w_stretch=float(rng.uniform(0.0, 2.0)),
        w_spec=float(rng.uniform(0.0, 2.0)),
        bp_init=bp_init,
        bp_alpha=float(rng.uniform(0.0, 1.0)),
        sustain_frames=int(rng.integers(1, 5)),
        pitch_aggregation=str(rng.choice(["mean", "min"])),
        initial_window=int(rng.integers(2, n)) / 50.0,
        bp_min=1.0, bp_max=60.0,
    )
    return score, feats, params


def _scalar_step_cost(feats, rows_per, params, target, c_st, jp):
    """Per-transition cost, re-derived with scalar arithmetic in the
    documented evaluation order (pitch accumulation first, then
    (w_onset*on + w_stretch*st) + w_spec*sp)."""
    onsets_v = feats.onsets.values
    spec_v = feats.spec.values
    n = feats.num_frames
    k_max = params.sustain_frames
    rows = rows_per[target]
    if params.pitch_aggregation == "mean":
        c_on = 0.0
        c_sp = 0.0
        for r in rows:
            c_on += 1.0 - onsets_v[r, jp]
            sustained = spec_v[r, min(jp + 1, n - 1)]
            for k in range(2, k_max + 1):
                sustained = min(sustained, spec_v[r, min(jp + k, n - 1)])
            c_sp += 1.0 - sustained
        c_on /= len(rows)
        c_sp /= len(rows)
    else:
        c_on = np.inf
        c_sp = np.inf
        for r in rows:
            c_on = min(c_on, 1.0 - onsets_v[r, jp])
            sustained = spec_v[r, min(jp + 1, n - 1)]
            for k in range(2, k_max + 1):
                sustained = min(sustained, spec_v[r, min(jp + k, n - 1)])
            c_sp = min(c_sp, 1.0 - sustained)
    return (params.w_onset * c_on + params.w_stretch * c_st) \
        + params.w_spec * c_sp


def _scalar_window(j, span, params, n):
    lo = j + max(1, math.ceil(params.stretch_min * span))
    hi = j + math.floor(params.stretch_max * span)
    if params.max_window_frames is not None:
        hi = min(hi, lo + params.max_window_frames - 1)
    return lo, min(hi, n - 1)


def _scalar_stretch(dframes, span, params):
    return np.clip(np.abs(np.log2(dframes / span))
                   / np.log2(params.stretch_max), 0.0, 1.0)


def _clamped_bp(dframes, dscore, bp, params):
    bp_next = params.bp_alpha * bp \
        + (1.0 - params.bp_alpha) * (dframes / dscore)
    return min(max(bp_next, params.bp_min), params.bp_max)


def reference_align(score, feats, params):
    """Independent scalar re-implementation of the aligner's recurrence.

    Brute-force relaxation of every window-feasible transition with plain
    Python loops, no pruning, matching tie-breaking and floating-point
    evaluation order. A correct production aligner must agree exactly.
    Returns (total_cost, frames); (inf, None) when no chord placement
    survives.
    """
    n = feats.num_frames
    m = len(score.onsets)
    beats = score.beats
    rows_per = [[feats.onsets.pitch_row(p) for p in o.pitches]
                for o in score.onsets]
    d = [[np.inf] * n for _ in range(m + 1)]
    back = [[-1] * n for _ in range(m + 1)]
    bp = [[float(params.bp_init)] * n for _ in range(m + 1)]
    d[0][0] = 0.0

    hi0 = min(n - 1, math.floor(params.initial_window * feats.frame_rate))
    for jp in range(hi0 + 1):
        cand = d[0][0] + _scalar_step_cost(feats, rows_per, params, 0,
                                           0.0, jp)
        if cand < d[1][jp]:
            d[1][jp] = cand
            back[1][jp] = 0

    for target in range(1, m):
        dscore = beats[target] - beats[target - 1]
        for j in range(n):
            if d[target][j] == np.inf:
                continue
            bp_j = bp[target][j]
            span = bp_j * dscore
            lo, hi = _scalar_window(j, span, params, n)
            for jp in range(lo, hi + 1):
                dframes = float(jp - j)
                c_st = _scalar_stretch(dframes, span, params)
                cand = d[target][j] + _scalar_step_cost(
                    feats, rows_per, params, target, c_st, jp)
                if cand < d[target + 1][jp]:
                    d[target + 1][jp] = cand
                    back[target + 1][jp] = j
                    bp[target + 1][jp] = _clamped_bp(dframes, dscore, bp_j,
                                                     params)

    best_cost = np.inf
    best_j = -1
    for j in range(n):
        if d[m][j] < best_cost:
            best_cost = d[m][j]
            best_j = j
    if best_j < 0:
        return np.inf, None
    frames = [0] * m
    j = best_j
    for row in range(m, 0, -1):
        frames[row - 1] = j
        j = back[row][j]
    return best_cost, frames


def enumerate_paths_min(score, feats, params):
    """Exhaustive minimum over all monotone paths whose every step stays
    inside the window implied by that path's own beat-period history.

    The greedy per-cell recurrence is not guaranteed to reach this
    minimum (it merges paths per cell, keeping one beat period), so the
    aligner's cost is checked as >= this bound, with equality holding on
    instances where the merge loses nothing.
    Returns (min_cost, best_path); (inf, None) when no path completes.
    """
    n = feats.num_frames
    m = len(score.onsets)
    beats = score.beats
    rows_per = [[feats.onsets.pitch_row(p) for p in o.pitches]
                for o in score.onsets]
    best_cost = np.inf
    best_path = None

    def extend(target, j, bp, acc, path):
        nonlocal best_cost, best_path
        if target == m:
            if acc < best_cost:
                best_cost = acc
                best_path = list(path)
            return
        if target == 0:
            hi = min(n - 1, math.floor(params.initial_window
                                       * feats.frame_rate))
            for jp in range(0, hi + 1):
                step = _scalar_step_cost(feats, rows_per, params, 0, 0.0, jp)
                path.append(jp)
                extend(1, jp, bp, acc + step, path)
                path.pop()
            return
        dscore = beats[target] - beats[target - 1]
        span = bp * dscore
        lo, hi = _scalar_window(j, span, params, n)
        for jp in range(lo, hi + 1):
            dframes = float(jp - j)
            c_st = _scalar_stretch(dframes, span, params)
            step = _scalar_step_cost(feats, rows_per, params, target,
                                     c_st, jp)
            path.append(jp)
            extend(target + 1, jp, _clamped_bp(dframes, dscore, bp, params),
                   acc + step, path)
            path.pop()

    extend(0, 0, float(params.bp_init), 0.0, [])
    return best_cost, best_path


def path_cost(score, feats, params, frames):
    """Cost of one concrete frame assignment, recomputed path-wise
    (beat period evolving along the given frames). None if any step
    leaves its window."""
    n = feats.num_frames
    beats = score.beats
    rows_per = [[feats.onsets.pitch_row(p) for p in o.pitches]
                for o in score.onsets]
    hi0 = min(n - 1, math.floor(params.initial_window * feats.frame_rate))
    if not 0 <= frames[0] <= hi0:
        return None
    acc = 0.0 + _scalar_step_cost(feats, rows_per, params, 0, 0.0, frames[0])
    bp = float(params.bp_init)
    for target in range(1, len(frames)):
        j, jp = frames[target - 1], frames[target]
        dscore = beats[target] - beats[target - 1]
        span = bp * dscore
        lo, hi = _scalar_window(j, span, params, n)
        if not lo <= jp <= hi:
            return None
        dframes = float(jp - j)
        c_st = _scalar_stretch(dframes, span, params)
        acc = acc + _scalar_step_cost(feats, rows_per, params, target,
                                      c_st, jp)
        bp = _clamped_bp(dframes, dscore, bp, params)
    return acc


# --- synthetic piece factory (for end-to-end suites) --------------------

def random_piece(seed, min_chords=20, max_chords=50, pitch_lo=36,
                 pitch_hi=96, bpm_lo=60.0, bpm_hi=180.0,
                 segment_beats=8.0, max_notes=4):
    """Seeded random score plus a piecewise tempo map with <= +-25% jumps."""
    rng = np.random.default_rng(seed)
    n_chords = int(rng.integers(min_chords, max_chords + 1))
    beats = []
    beat = 0.0
    for _ in range(n_chords):
        beats.append(beat)
        beat += float(rng.choice([0.5, 1.0]))
    pitch_sets = [
        rng.choice(np.arange(pitch_lo, pitch_hi + 1),
                   size=int(rng.integers(1, max_notes + 1)),
                   replace=False).tolist()
        for _ in range(n_chords)
    ]
    score = make_score(beats, pitch_sets)

    segments = [(0.0, float(rng.uniform(bpm_lo, bpm_hi)))]
    from_beat = segment_beats
    while from_beat < beats[-1]:
        bpm = segments[-1][1] * (1.0 + rng.uniform(-0.25, 0.25))
        segments.append((from_beat, float(np.clip(bpm, bpm_lo, bpm_hi))))
        from_beat += segment_beats
    return score, TempoMap(segments=tuple(segments)), rng
