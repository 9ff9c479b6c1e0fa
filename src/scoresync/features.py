"""Onset and spectral activation features from the framed filterbank output.

The onset feature is a superflux-style half-wave-rectified difference: each
frame is compared against the previous frame after a maximum filter across
three vertically adjacent bands, which keeps slow pitch drift and spillover
between neighboring bands from registering as onsets. The spectral feature
is the framed signal itself. Both are normalized to a maximum of one per
band, so downstream costs live on a fixed [0, 1] scale.
"""

from dataclasses import dataclass, replace

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


def _band_maxima(values: np.ndarray, midi_low: int) -> np.ndarray:
    """Maximum of each band over time; ValueError naming the pitch of the
    first band whose maximum is NaN or +inf."""
    row_max = values.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(row_max))
    if len(bad):
        raise ValueError(f"band of MIDI pitch {midi_low + bad[0]} "
                         f"holds a non-finite value")
    return row_max


def _scale_bins(values: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """Divide each band of ``values`` by its maximum ``row_max`` in place,
    zeroing the silent bands, and return ``values``."""
    live = row_max > SILENT_BIN_EPS
    np.divide(values, row_max[:, np.newaxis], out=values,
              where=live[:, np.newaxis])
    values[~live] = 0.0
    return values


def _onsets(v: np.ndarray, lag: int, midi_low: int,
            maxfilt: np.ndarray) -> np.ndarray:
    """Normalized onset matrix of ``v``: ``v`` minus its band max filter
    ``lag`` frames earlier, clamped at zero, the max filter built in the
    work matrix ``maxfilt`` (of ``v``'s shape)."""
    np.maximum(v[:-1], v[1:], out=maxfilt[:-1])
    maxfilt[-1:] = v[-1:]
    np.maximum(maxfilt[1:], v[:-1], out=maxfilt[1:])
    onset = np.zeros_like(v)
    if v.shape[1] > lag:
        flux = onset[:, lag:]
        np.subtract(v[:, lag:], maxfilt[:, :-lag], out=flux)
        np.maximum(flux, 0.0, out=flux)
    return _scale_bins(onset, _band_maxima(onset, midi_low))


def _score_bands(score, bank: Spectrogram) -> range:
    """Pitches of the bands of ``bank`` that the features of ``score`` (a
    ``ScoreSequence``) read: its register and one band either side, for
    the onsets' three-band maximum (``_onsets``), clipped to the bank. A
    score pitch outside the bank raises its ConfigurationError
    (``Spectrogram.pitch_row``)."""
    rows = [bank.pitch_row(p) for onset in score.onsets for p in onset.pitches]
    return range(bank.midi_low + max(min(rows) - 1, 0),
                 bank.midi_low + min(max(rows) + 2, bank.num_bands))


def normalize_bins(m: Spectrogram) -> Spectrogram:
    """Scale each band to a maximum of one over time.

    Bands whose maximum is at or below SILENT_BIN_EPS come out all-zero
    (never divided, so silence cannot produce NaN or amplified noise). A
    band holding NaN or +inf raises ValueError naming its pitch.
    """
    return replace(m, values=_scale_bins(
        m.values.copy(), _band_maxima(m.values, m.midi_low)))


def superflux_onsets(raw: Spectrogram, lag: int = 1) -> Spectrogram:
    """Half-wave-rectified difference against the max-filtered past frame.

    The maximum filter spans rows p-1..p+1, truncated at the first and last
    band (no padding, so the register edges see only two rows). Columns
    before ``lag`` are zero. The result is bin-wise normalized.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    return replace(raw, values=_onsets(raw.values, lag, raw.midi_low,
                                       np.empty_like(raw.values)))


def extract_features(raw: Spectrogram) -> FeaturePair:
    """Build the normalized onset/spectral feature pair from a raw spectrogram.

    The raw bands are checked first, so a NaN or +inf raw band is named
    itself, not a neighbor that the onset max filter spread it to. Only
    the rows of ``raw`` are checked: a spectrogram of some bands (as
    ``align`` hands it, from the audio or a dump alike) says nothing of
    the bands left out.

    The values equal ``superflux_onsets(raw)`` and ``normalize_bins(raw)``,
    but the onsets' max filter is built in the spectral matrix before it
    takes its copy of ``raw``, and both are scaled in place, so the pair
    takes twice the memory of ``raw`` at its peak.
    """
    row_max = _band_maxima(raw.values, raw.midi_low)
    spec = np.empty_like(raw.values)
    onset = _onsets(raw.values, 1, raw.midi_low, maxfilt=spec)
    np.copyto(spec, raw.values)
    _scale_bins(spec, row_max)
    return FeaturePair(onsets=replace(raw, values=onset),
                       spec=replace(raw, values=spec))
