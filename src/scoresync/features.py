"""Onset and spectral activation features from the framed filterbank output.

The onset feature is a superflux-style half-wave-rectified difference: each
frame is compared against the previous frame after a maximum filter across
three vertically adjacent bands, which keeps slow pitch drift and spillover
between neighboring bands from registering as onsets. The spectral feature
is the framed signal itself. Both are normalized to a maximum of one per
band, so downstream costs live on a fixed [0, 1] scale.
"""

from dataclasses import dataclass

import numpy as np

from .filterbank import Spectrogram

SILENT_BIN_EPS = 1e-12


@dataclass
class FeaturePair:
    """Onset and spectral activation matrices of identical shape."""

    onsets: Spectrogram
    spec: Spectrogram

    @property
    def num_frames(self) -> int:
        return self.onsets.num_frames

    @property
    def frame_rate(self) -> float:
        return self.onsets.frame_rate


def _band_maxima(m: Spectrogram) -> np.ndarray:
    """Maximum of each band over time; ValueError naming the pitch of the
    first band whose maximum is NaN or +inf."""
    row_max = m.values.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(row_max))
    if len(bad):
        raise ValueError(f"band of MIDI pitch {m.midi_low + bad[0]} "
                         f"holds a non-finite value")
    return row_max


def normalize_bins(m: Spectrogram) -> Spectrogram:
    """Scale each band to a maximum of one over time.

    Bands whose maximum is at or below SILENT_BIN_EPS come out all-zero
    (never divided, so silence cannot produce NaN or amplified noise). A
    band holding NaN or +inf raises ValueError naming its pitch.
    """
    values = m.values.copy()
    row_max = _band_maxima(m)
    live = row_max > SILENT_BIN_EPS
    values[live] /= row_max[live, np.newaxis]
    values[~live] = 0.0
    return Spectrogram(values=values, frame_rate=m.frame_rate,
                       midi_low=m.midi_low)


def superflux_onsets(raw: Spectrogram, lag: int = 1) -> Spectrogram:
    """Half-wave-rectified difference against the max-filtered past frame.

    The maximum filter spans rows p-1..p+1, truncated at the first and last
    band (no padding, so the register edges see only two rows). Columns
    before ``lag`` are zero. The result is bin-wise normalized.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    v = raw.values
    maxfilt = v.copy()
    maxfilt[:-1] = np.maximum(maxfilt[:-1], v[1:])
    maxfilt[1:] = np.maximum(maxfilt[1:], v[:-1])

    onset = np.zeros_like(v)
    if v.shape[1] > lag:
        onset[:, lag:] = np.maximum(v[:, lag:] - maxfilt[:, :-lag], 0.0)
    return normalize_bins(Spectrogram(values=onset, frame_rate=raw.frame_rate,
                                      midi_low=raw.midi_low))


def extract_features(raw: Spectrogram) -> FeaturePair:
    """Build the normalized onset/spectral feature pair from a raw spectrogram.

    The raw bands are checked first, so a NaN or +inf raw band is named
    itself, not a neighbor that the onset max filter spread it to.
    """
    _band_maxima(raw)
    return FeaturePair(onsets=superflux_onsets(raw),
                       spec=normalize_bins(raw))
