"""Synthetic test audio with known onset times, and alignment metrics.

The synthesizer renders each chord as a sum of harmonic tones with a sharp
attack and an exponential decay. That is nowhere near a real instrument,
but it excites the right filterbank bands, produces crisp onset activations,
and is fully deterministic, which is what an evaluation harness needs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import ConfigurationError
from .filterbank import center_frequency
from .score import ScoreSequence

ERROR_THRESHOLDS_MS = (50.0, 100.0, 200.0, 500.0)

ATTACK_S = 0.005
DECAY_TIME_CONSTANT_S = 0.4
HARMONIC_AMPLITUDES = (1.0, 0.5, 0.25, 0.125)
LAST_CHORD_DURATION_S = 1.0
PEAK_LEVEL = 0.9
# most samples a render may hold: 2 GiB of float64 mix, over 100 minutes
# at 44.1 kHz, so that a mistyped sample rate or tempo fails before the
# mix is allocated; a float32 WAV of it is 1 GiB, within the format's
# 4 GiB
_MAX_SAMPLES = 2 ** 28


@dataclass(frozen=True)
class TempoMap:
    """Piecewise-constant tempo: (from_beat, bpm) segments."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("tempo map needs at least one segment")
        prev = None
        for from_beat, bpm in self.segments:
            if prev is not None and from_beat <= prev:
                raise ValueError("tempo segment beats must strictly increase")
            if not (bpm > 0 and np.isfinite(bpm)):
                raise ValueError(f"invalid tempo {bpm} BPM")
            prev = from_beat


@dataclass
class EvalReport:
    mean_ms: float
    median_ms: float
    pct_below: dict[float, float]  # threshold (ms) -> % of |errors| below it
    errors_ms: np.ndarray


def beat_to_seconds(beat: float, tempo_map: TempoMap) -> float:
    """Integrate the tempo map from its first beat up to ``beat``."""
    segments = tempo_map.segments
    if beat < segments[0][0]:
        raise ValueError(
            f"beat {beat} precedes tempo map start {segments[0][0]}")
    seconds = 0.0
    for k, (from_beat, bpm) in enumerate(segments):
        end = segments[k + 1][0] if k + 1 < len(segments) else beat
        span = min(beat, end) - from_beat
        if span <= 0:
            break
        seconds += span * 60.0 / bpm
    return seconds


def synthesize(score: ScoreSequence, tempo_map: TempoMap,
               sample_rate: int = 22050, noise_level: float = 0.0,
               rng: "np.random.Generator | None" = None
               ) -> tuple[AudioBuffer, list[float]]:
    """Render a score under a tempo map; returns audio plus the true onset
    times in seconds.

    Each note carries four harmonics at amplitudes 1, 1/2, 1/4, 1/8 (those
    above Nyquist are skipped), a 5 ms linear attack, and an exponential
    decay; it sounds until the next chord starts (the last chord rings for
    one second). White noise, when requested, is scaled to ``noise_level``
    RMS relative to the clean peak and drawn from ``rng`` so runs stay
    reproducible. The mix is peak-normalized to 0.9. A sample rate below
    1 Hz, a render of more than ``_MAX_SAMPLES`` (2**28) samples, checked
    before the mix is allocated, a negative or non-finite
    ``noise_level``, or one so large that the noisy mix could overflow
    float64 raises ConfigurationError.
    """
    if not sample_rate >= 1:
        raise ConfigurationError(
            f"sample_rate must be at least 1 Hz, got {sample_rate}")
    if not (np.isfinite(noise_level) and noise_level >= 0.0):
        raise ConfigurationError(
            f"noise_level must be finite and non-negative, got {noise_level}")
    truth = [beat_to_seconds(o.beat, tempo_map) for o in score.onsets]
    total = truth[-1] + LAST_CHORD_DURATION_S
    # a render lasts at least a second, so a rate above the cap is refused
    # before the product, which an integer rate past the float range
    # would overflow
    if sample_rate > _MAX_SAMPLES or not total * sample_rate <= _MAX_SAMPLES:
        raise ConfigurationError(
            f"a render of {total:g} s at {sample_rate} Hz is more than "
            f"{_MAX_SAMPLES} samples")
    n = int(np.ceil(total * sample_rate))
    out = np.zeros(n)

    for idx, onset in enumerate(score.onsets):
        start = int(round(truth[idx] * sample_rate))
        end_s = truth[idx + 1] if idx + 1 < len(truth) \
            else truth[idx] + LAST_CHORD_DURATION_S
        length = min(int(round(end_s * sample_rate)), n) - start
        if length <= 0:
            continue
        t = np.arange(length) / sample_rate
        env = np.minimum(t / ATTACK_S, 1.0) * np.exp(-t / DECAY_TIME_CONSTANT_S)
        chord = np.zeros(length)
        for pitch in onset.pitches:
            f0 = center_frequency(pitch)
            for h, amp in enumerate(HARMONIC_AMPLITUDES, start=1):
                if h * f0 >= sample_rate / 2.0:
                    break
                chord += amp * np.sin(2.0 * np.pi * (h * f0) * t)
        out[start:start + length] += env * chord

    peak = np.abs(out).max()
    if noise_level > 0.0 and peak > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = rng.standard_normal(n)
        scale = noise_level * float(peak)
        # the largest noisy sample, bounded in Python floats, which
        # overflow to inf without the warning numpy's arrays would raise
        reach = float(max(noise.max(), -noise.min()))
        if not math.isfinite(reach * scale + float(peak)):
            raise ConfigurationError(
                f"noise_level {noise_level} overflows the mix")
        # in place, and the noise dropped before the peak's temporary, so
        # that no more than two signal-length arrays are held at once
        noise *= scale
        out += noise
        del noise
        peak = np.abs(out).max()
    if peak > 0.0:
        out *= PEAK_LEVEL / peak
    return AudioBuffer(samples=out, sample_rate=sample_rate), truth


def evaluate(predicted: list[float], ground_truth: list[float]) -> EvalReport:
    """Absolute per-onset errors in milliseconds with summary statistics.

    Threshold percentages count errors strictly below each threshold.
    ValueError unless both lists hold the same number of onsets and that
    number is at least one, since no onsets have no mean or median.
    """
    if len(predicted) != len(ground_truth):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs "
            f"{len(ground_truth)} ground-truth onsets")
    if not predicted:
        raise ValueError("no onsets to evaluate")
    errors = np.abs(np.asarray(predicted, dtype=np.float64)
                    - np.asarray(ground_truth, dtype=np.float64)) * 1000.0
    pct = {thr: float(np.mean(errors < thr) * 100.0)
           for thr in ERROR_THRESHOLDS_MS}
    return EvalReport(mean_ms=float(errors.mean()),
                      median_ms=float(np.median(errors)),
                      pct_below=pct,
                      errors_ms=errors)
