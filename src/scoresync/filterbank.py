"""Semitone-spaced IIR filterbank and window-max framing.

One second-order Butterworth bandpass per piano key, centered on the
equal-tempered key frequencies and bounded by the quarter-tone midpoints
to the neighboring keys. Each band is filtered causally in double
precision, rectified, and aggregated into frames by the maximum absolute
value per window, giving an 88 x T activation matrix at (nominally)
50 frames per second.

The bank only needs the signal below the top band's upper edge (about
4.3 kHz for the piano keys), so before filtering the signal is decimated
by the largest integer ``q`` that divides the hop and keeps the rate
``sample_rate / q`` at no less than ``_DECIMATION_MARGIN`` times that
edge: 3 at 44.1 kHz, 4 at 48 kHz, 8 at 96 kHz, and 1 (no resampling) at
22.05 and 11.025 kHz. ``scipy.signal.resample_poly`` does it with its
zero-phase FIR, so onsets do not move, and the bank is designed at the
decimated rate with the hop ``hop // q``.

A band is filtered in blocks of ``_BLOCK_HOPS`` hops, with the filter
state carried from block to block, so the result equals one pass over
the whole signal; each block is reduced to per-hop maxima
(``np.maximum.reduceat``) before the next is filtered. Frame t is then the
maximum of hops t .. t + window_factor - 1 of that band x hop matrix
(``_frame_maxima``), truncated at the end of the signal. Bands run on
one thread per available core. Beyond the input samples and the output
matrix, the front end therefore holds the 1/q decimated copy (none when
``q == 1``) and one block per thread, however long the recording is.

The hop is ``round(sample_rate / frame_rate)``, and a frame rate that
makes it 0 (above twice the sample rate) is a ConfigurationError. All
frame/seconds conversions use the effective rate ``sample_rate / hop``,
so sample rates that do not divide evenly stay exact.
"""

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .audio_io import AudioBuffer
from .errors import ConfigurationError, EmptyAudioError, check_finite

# hops per filtering block: small enough to stay in cache, large enough
# that the per-call cost of lfilter stays small against the filtering
_BLOCK_HOPS = 256
# lowest decimated rate, in multiples of the top band's upper edge: the
# edge then sits at no more than 0.8 of the decimated Nyquist frequency,
# inside the passband of resample_poly's lowpass (ripple under 0.02 dB)
_DECIMATION_MARGIN = 2.5


@dataclass(frozen=True)
class FilterbankConfig:
    """Temperament, register, and framing parameters of the filterbank.

    ``num_bands`` semitone bands start at MIDI ``midi_low``, tuned so that
    MIDI ``reference_pitch`` sits at ``reference_freq`` Hz. ``frame_rate``
    (Hz) sets the hop ``round(sample_rate / frame_rate)``; the aggregation
    window is ``window_factor`` hops wide. Both floats must be finite.
    """

    num_bands: int = 88
    midi_low: int = 21
    reference_pitch: int = 69
    reference_freq: float = 440.0
    frame_rate: float = 50.0
    window_factor: int = 1

    def __post_init__(self):
        check_finite(self)
        if self.num_bands < 1:
            raise ConfigurationError("num_bands must be >= 1")
        if self.midi_low + self.num_bands - 1 > 127:
            raise ConfigurationError("band range exceeds MIDI pitch 127")
        if self.reference_freq <= 0:
            raise ConfigurationError("reference_freq must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame_rate must be positive")
        if self.window_factor < 1:
            raise ConfigurationError("window_factor must be >= 1")

    @property
    def band_pitches(self) -> np.ndarray:
        return np.arange(self.midi_low, self.midi_low + self.num_bands)


DEFAULT_CONFIG = FilterbankConfig()


@dataclass(frozen=True)
class BandpassCoefficients:
    """One second-order section: y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2]
    - a1 y[n-1] - a2 y[n-2]."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float
    center_freq: float

    @property
    def ba(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([self.b0, self.b1, self.b2]),
                np.array([1.0, self.a1, self.a2]))

    def pole_magnitudes(self) -> np.ndarray:
        return np.abs(np.roots([1.0, self.a1, self.a2]))


@dataclass
class Spectrogram:
    """Non-negative band x frame activation matrix.

    ``frame_rate`` is the effective rate (sample_rate / hop), and
    ``band_pitches[r]`` gives the MIDI pitch of row ``r``.
    """

    values: np.ndarray
    frame_rate: float
    band_pitches: np.ndarray = field(
        default_factory=lambda: DEFAULT_CONFIG.band_pitches)

    @property
    def num_bands(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]

    def pitch_row(self, midi_pitch: int) -> int:
        """Row index of a MIDI pitch; ConfigurationError if out of range."""
        row = int(midi_pitch) - int(self.band_pitches[0])
        if row < 0 or row >= self.num_bands or \
                self.band_pitches[row] != midi_pitch:
            raise ConfigurationError(
                f"pitch {midi_pitch} outside filterbank range "
                f"{self.band_pitches[0]}..{self.band_pitches[-1]}")
        return row


def center_frequency(midi_pitch: int,
                     config: FilterbankConfig = DEFAULT_CONFIG) -> float:
    """Equal-tempered frequency of a MIDI pitch under the config's tuning."""
    if not 0 <= midi_pitch <= 127:
        raise ValueError(f"MIDI pitch out of range: {midi_pitch}")
    return config.reference_freq * 2.0 ** (
        (midi_pitch - config.reference_pitch) / 12.0)


def band_edges(midi_pitch: int,
               config: FilterbankConfig = DEFAULT_CONFIG
               ) -> tuple[float, float]:
    """Quarter-tone passband limits around a pitch's center frequency."""
    fc = center_frequency(midi_pitch, config)
    return fc * 2.0 ** (-1.0 / 24.0), fc * 2.0 ** (1.0 / 24.0)


def design_bandpass(lo: float, hi: float,
                    sample_rate: float) -> BandpassCoefficients:
    """Second-order Butterworth bandpass with -3 dB points at lo and hi.

    First-order lowpass prototype transformed to bandpass and discretized
    by the bilinear transform with both edges pre-warped, i.e. unit gain
    at the warp-consistent center and exactly -3 dB at the edges.
    """
    if not 0.0 < lo < hi:
        raise ConfigurationError(f"invalid band edges ({lo}, {hi})")
    if hi >= sample_rate / 2.0:
        raise ConfigurationError(
            f"band edge {hi:.2f} Hz reaches Nyquist at sample rate "
            f"{sample_rate:g} Hz")
    b, a = signal.butter(1, [lo, hi], btype="bandpass", fs=sample_rate)
    coeffs = BandpassCoefficients(
        b0=float(b[0]), b1=float(b[1]), b2=float(b[2]),
        a1=float(a[1]), a2=float(a[2]),
        center_freq=float(np.sqrt(lo * hi)))
    if np.any(coeffs.pole_magnitudes() >= 1.0):
        raise ConfigurationError(
            f"unstable design for band ({lo:.3f}, {hi:.3f}) Hz "
            f"at {sample_rate:g} Hz")
    return coeffs


def design_filterbank(config: FilterbankConfig,
                      sample_rate: float) -> list[BandpassCoefficients]:
    """Design all bands; any edge at/above Nyquist is an error (bands are
    never dropped silently, which would desynchronize rows from pitches)."""
    bank = []
    for pitch in config.band_pitches:
        lo, hi = band_edges(int(pitch), config)
        try:
            bank.append(design_bandpass(lo, hi, sample_rate))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"band for MIDI pitch {pitch}: {exc}") from exc
    return bank


def _frame_maxima(hop_maxima: np.ndarray, window_factor: int,
                  num_frames: int) -> np.ndarray:
    """Frame t is the maximum of ``hop_maxima[..., t:t + window_factor]``,
    the window truncated at the end."""
    out = np.full(hop_maxima.shape[:-1] + (num_frames,), -np.inf)
    # offsets past the last hop add nothing to any frame
    for k in range(min(window_factor, hop_maxima.shape[-1])):
        size = min(num_frames, hop_maxima.shape[-1] - k)
        np.maximum(out[..., :size], hop_maxima[..., k:k + size],
                   out=out[..., :size])
    return out


def _num_workers(num_bands: int) -> int:
    """One thread per core this process may run on, at most one per band."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, num_bands)


def _decimation_factor(sample_rate: float, hop: int,
                       config: FilterbankConfig) -> int:
    """Largest divisor ``q`` of the hop with ``sample_rate / q`` at least
    ``_DECIMATION_MARGIN`` times the upper edge of the top band; 1 when
    no larger divisor qualifies."""
    _, top = band_edges(int(config.band_pitches[-1]), config)
    q = max(1, min(hop, int(sample_rate // (_DECIMATION_MARGIN * top))))
    while hop % q:
        q -= 1
    return q


def _filter_band(coeffs: BandpassCoefficients, samples: np.ndarray,
                 hop: int, out: np.ndarray) -> None:
    """Write the per-hop maxima of |filtered samples| into ``out``, the
    partial last hop included.

    The signal is filtered ``_BLOCK_HOPS`` hops at a time, and the lfilter
    state carries from one block to the next, so the filtered samples are
    those of a single pass.
    """
    b, a = coeffs.ba
    state = np.zeros(2)
    step = _BLOCK_HOPS * hop
    for start in range(0, len(samples), step):
        y, state = signal.lfilter(b, a, samples[start:start + step],
                                  zi=state)
        heads = np.maximum.reduceat(np.abs(y, out=y),
                                    np.arange(0, len(y), hop))
        out[start // hop:start // hop + len(heads)] = heads


def compute_spectrogram(audio: AudioBuffer,
                        config: FilterbankConfig = DEFAULT_CONFIG
                        ) -> Spectrogram:
    """Filter the signal through the bank and frame it by window maxima.

    The signal is first decimated by ``q = _decimation_factor(...)`` with
    ``resample_poly`` when ``q > 1``; the bank is designed at
    ``sample_rate / q`` and frames are taken on the decimated samples
    with the hop ``hop // q``. The frame count ``len(samples) // hop``
    and the frame rate ``sample_rate / hop`` are those of the input.
    Each band is filtered causally (forward pass, zero initial state); a
    frame holds the maximum of |filtered| over its window. Window width is
    ``window_factor * hop`` (default: non-overlapping windows). Bands are
    filtered block by block on one thread per available core.
    """
    from concurrent.futures import ThreadPoolExecutor

    samples = np.asarray(audio.samples, dtype=np.float64)
    ratio = audio.sample_rate / config.frame_rate
    # clipped before round(), which cannot take the inf a tiny frame rate
    # gives; a hop past the end of the signal leaves no frame either way
    hop = int(round(min(ratio, len(samples) + 1)))
    if hop < 1:
        raise ConfigurationError(
            f"frame rate {config.frame_rate:g} Hz gives a hop of 0 samples "
            f"at {audio.sample_rate:g} Hz")
    num_frames = len(samples) // hop
    if num_frames == 0:
        raise EmptyAudioError(
            f"audio too short: {len(samples)} samples is less than one "
            f"frame of {ratio:.0f}")

    q = _decimation_factor(audio.sample_rate, hop, config)
    bank = design_filterbank(config, audio.sample_rate / q)
    if q > 1:
        samples = signal.resample_poly(samples, 1, q)
    filter_hop = hop // q
    hop_maxima = np.empty((config.num_bands,
                           -(-len(samples) // filter_hop)))
    with ThreadPoolExecutor(_num_workers(config.num_bands)) as pool:
        # reading every result re-raises an exception from a worker
        list(pool.map(lambda coeffs, row: _filter_band(coeffs, samples,
                                                       filter_hop, row),
                      bank, hop_maxima))
    values = _frame_maxima(hop_maxima, config.window_factor, num_frames)

    return Spectrogram(values=values,
                       frame_rate=audio.sample_rate / hop,
                       band_pitches=config.band_pitches)
