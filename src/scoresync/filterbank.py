"""Semitone-spaced IIR filterbank and window-max framing.

One second-order Butterworth bandpass per piano key, centered on the
equal-tempered key frequencies and bounded by the quarter-tone midpoints
to the neighboring keys. Each band is filtered causally in double
precision, rectified, and aggregated into frames by the maximum absolute
value per window, giving an 88 x T activation matrix at (nominally)
50 frames per second. Each band's filter is scipy's ``(b, a)`` pair, the
bands of a group designed together in one numpy pass that equals
``scipy.signal.butter`` float for float (``_design_bands``), and the
matrix records only its lowest pitch: row ``r`` of a ``Spectrogram`` is
MIDI pitch ``midi_low + r``.

A band only needs the signal below its own upper edge, so the bank runs
in groups of ``_GROUP_BANDS`` bands (one octave), counted from the top
band down, each at its own rate ``hop_g * frame_rate``, where
``frame_rate`` is the effective frame rate. ``hop_g`` is the smallest
whole hop that keeps the group's rate at no less than
``_DECIMATION_MARGIN`` times its top band's upper edge, raised to
``_MIN_GROUP_HOP`` and capped at the hop of the group above, so no signal
is upsampled (``_band_groups``). At 50 frames per second the group hops
are 216, 108 and then 64 for the lowest 64 bands at 44.1 and 22.05 kHz
(and at 48 and 96 kHz), and 215, 108 and then 64 at 11.025 kHz. That is
7,984 filtered samples per frame (7,972 at 11.025 kHz), where one
full-rate pass per band would filter 88 hops: 77,616 samples at 44.1 kHz,
38,808 at 22.05 kHz and 19,360 at 11.025 kHz. Each group's signal is the
previous group's resampled as ``scipy.signal.resample_poly`` resamples it
with the two hops in lowest terms (a zero-phase FIR, so onsets do not
move); a group whose hop does not fall reuses the previous signal. Each
group is designed at its own rate. The resampling and the band filters
run scipy's own polyphase and ``lfilter`` kernels, reached through
``_scipy`` without importing ``scipy.signal``.

The distinct hops form a resample cascade, the input its first level
(``_resample_levels``, which designs and lays out each level's FIR once),
and the recording streams through it ``_BLOCK_HOPS`` input hops at a time
(``_block_signals``) in whole hops. Hop t of a level starts at sample
``t * hop``, and hop t of its parent at a multiple of the resample's
``down``, so a parent window that starts on a hop is resampled onto the
filter phases of the whole signal, its first output sample the child's
sample at that hop. Each level's window of a block is the block's hops
and ``margin`` hops more on each side: none for the bottom level, and
for each level above it enough more to cover the reach of its child's
``resample_poly`` filter. The margins are computed once per call, and
each level's block equals that slice of the whole-signal resample. Each
band filters its group's window of the block from the lfilter state the
previous block left, so its filtered samples are those of a single pass
over the whole group signal, and reduces it to per-hop maxima
(``np.maximum.reduceat``), written straight into the block's columns of
one band x hop matrix. Every group has ``ceil(len(samples) / hop)`` hops,
the partial last hop included, so the matrix has a column per hop, and
frame t is the maximum of hops t .. t + window_factor - 1 of it
(``_frame_maxima``), truncated at the last hop: one sliding-maximum pass
per band in place (``_scipy.forward_extremum``), O(hops log window)
however wide the window. The spectrogram is the matrix's first
``len(samples) // hop`` columns, a view. A band that filtering left
holding a NaN or an infinity (samples near the float64 limit overflow
the filters) is an AudioReadError naming its pitch.

A block's band groups are filtered on one thread per available core, one
pool task per group, and one of those threads resamples the next block.
scipy's ``lfilter`` kernel releases the interpreter lock while it filters,
so the groups filter in parallel. A task per group (8 for the 88 keys)
rather than per band keeps the pool's own cost per block small. Beyond
the input samples and the output matrix, the front end holds the
cascade's windows of two blocks and one block of filtered samples per
thread, however long the recording is.

A caller that reads only some bands passes ``compute_spectrogram`` their
``pitches``: the plan and the design stay those of the whole bank, but
only the groups holding those bands are filtered, and the cascade stops
at the level of the lowest of them, so each row equals the whole bank's.
``align --audio`` keeps the score's register and one band either side
(the onset feature's three-band maximum reads them): for a score of MIDI
36-96 at 50 frames per second and 22.05 or 44.1 kHz, that is 63 bands
and 4,712 filtered samples per frame instead of 7,984. ``features``
still filters every band.

The hop is ``round(sample_rate / frame_rate)``, and a frame rate that
makes it 0 (above twice the sample rate) is a ConfigurationError. All
frame/seconds conversions use the effective rate ``sample_rate / hop``,
so sample rates that do not divide evenly stay exact.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _scipy
from .audio_io import AudioBuffer
from .errors import (AudioReadError, ConfigurationError, EmptyAudioError,
                     check_finite)

# input hops per block of the resample cascade and the filtering: small
# enough that two blocks of group signals and a block of filtered samples
# per thread take no more memory than the whole-signal groups of a 36 s
# recording, large enough that the per-block costs stay small: a pool task
# per band group, a polyphase kernel call per cascade level and an lfilter
# kernel call per band
_BLOCK_HOPS = 384
# lowest rate of a band group, in multiples of its top band's upper edge:
# the edge then sits at no more than 0.8 of the group's Nyquist frequency,
# inside the passband of resample_poly's lowpass (ripple under 0.02 dB)
_DECIMATION_MARGIN = 2.5
# bands per group, counted down from the top band: one octave
_GROUP_BANDS = 12
# fewest samples per hop of any group: 3.2 kHz at 50 frames per second
_MIN_GROUP_HOP = 64


@dataclass(frozen=True)
class FilterbankConfig:
    """Temperament, register, and framing parameters of the filterbank.

    ``num_bands`` semitone bands run from MIDI ``midi_low`` up, all within
    MIDI 0..127, tuned so that MIDI ``reference_pitch`` sits at
    ``reference_freq`` Hz. ``frame_rate`` (Hz) sets the hop
    ``round(sample_rate / frame_rate)``; the aggregation window is
    ``window_factor`` hops wide. Both floats must be finite.
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
        if not 0 <= self.midi_low <= 128 - self.num_bands:
            raise ConfigurationError("bands must lie within MIDI 0..127")
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


@dataclass
class Spectrogram:
    """Non-negative band x frame activation matrix.

    ``frame_rate`` is the effective rate (sample_rate / hop), and row
    ``r`` holds MIDI pitch ``midi_low + r``: the bands are contiguous.
    """

    values: np.ndarray
    frame_rate: float
    midi_low: int = DEFAULT_CONFIG.midi_low

    @property
    def num_bands(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]

    def pitch_row(self, midi_pitch: int) -> int:
        """Row index of a MIDI pitch; ConfigurationError if out of range."""
        row = int(midi_pitch) - self.midi_low
        if not 0 <= row < self.num_bands:
            raise ConfigurationError(
                f"pitch {midi_pitch} outside filterbank range "
                f"{self.midi_low}..{self.midi_low + self.num_bands - 1}")
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


def _design_bands(edges: np.ndarray, sample_rate: float,
                  labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth bandpass of each row ``(lo, hi)`` of
    ``edges``, as scipy's ``b`` and ``a`` with one row of three
    coefficients per band; a ConfigurationError for the first bad band
    starts with its entry in ``labels``.

    One numpy pass over all rows takes the steps of
    ``signal.butter(1, [lo, hi], "bandpass", fs=sample_rate)`` with the
    same operations in the same order, so each row equals that design
    float for float: pre-warp both edges at scipy's normalized rate of 2,
    turn the first-order lowpass prototype's pole at -1 into a bandpass
    pole pair around the pre-warped center ``wo`` with the pre-warped
    bandwidth ``bw``, and discretize the pair by the bilinear transform,
    with the zeros at DC and Nyquist and unit gain at the warp-consistent
    center. ``a`` is ``1, -(re p + re q), re p * re q - im p * im q`` for
    the poles ``p`` and ``q``: the dot products by which ``np.convolve``
    expands them (numpy's elementwise complex product can differ from
    them in the last bit). The poles also give the stability check.
    """
    edges = np.asarray(edges, dtype=np.float64)
    for label, (lo, hi) in zip(labels, edges.tolist()):
        if not 0.0 < lo < hi:
            raise ConfigurationError(f"{label}invalid band edges ({lo}, {hi})")
        if hi >= sample_rate / 2.0:
            raise ConfigurationError(
                f"{label}band edge {hi:.2f} Hz reaches Nyquist at sample "
                f"rate {sample_rate:g} Hz")
    warped = 2 * 2.0 * np.tan(np.pi * (edges / (sample_rate / 2)) / 2.0)
    bw = warped[:, 1] - warped[:, 0]
    wo = np.sqrt(warped[:, 0] * warped[:, 1])
    # scipy squares the Python float, whose power can differ from
    # wo * wo in the last bit
    wo_squared = np.array([w ** 2 for w in wo.tolist()])
    # the prototype's pole, -exp(0j), scaled to half the bandwidth and
    # shifted to +-wo
    half = complex(-1.0, -0.0) * bw / 2
    shift = np.sqrt(half ** 2 - wo_squared)
    poles = np.stack((half + shift, half - shift), axis=1)
    gain = bw * np.real(4.0 / np.prod(4.0 - poles, axis=1))
    poles = (4.0 + poles) / (4.0 - poles)
    unstable = np.flatnonzero(np.any(np.abs(poles) >= 1.0, axis=1))
    if unstable.size:
        lo, hi = edges[unstable[0]].tolist()
        raise ConfigurationError(
            f"{labels[unstable[0]]}unstable design for band ({lo:.3f}, "
            f"{hi:.3f}) Hz at {sample_rate:g} Hz")
    b = gain[:, None] * np.array([1.0, 0.0, -1.0])
    p, q = poles.T
    a = np.stack((np.ones_like(bw), -(p.real + q.real),
                  p.real * q.real - p.imag * q.imag), axis=1)
    return b, a


def design_bandpass(lo: float, hi: float,
                    sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth bandpass with -3 dB points at lo and hi,
    as scipy's ``(b, a)`` (three coefficients each, ``a[0] == 1``).

    First-order lowpass prototype transformed to bandpass and discretized
    by the bilinear transform with both edges pre-warped, i.e. unit gain
    at the warp-consistent center and exactly -3 dB at the edges: one row
    of ``_design_bands``, equal to ``signal.butter(1, [lo, hi],
    "bandpass", fs=sample_rate)``.
    """
    b, a = _design_bands([[lo, hi]], sample_rate, [""])
    return b[0], a[0]


def design_filterbank(config: FilterbankConfig, sample_rate: float
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Design all bands in one pass of ``_design_bands``; any edge
    at/above Nyquist is an error (bands are never dropped silently, which
    would desynchronize rows from pitches)."""
    pitches = config.band_pitches.tolist()
    b, a = _design_bands(
        [band_edges(pitch, config) for pitch in pitches], sample_rate,
        [f"band for MIDI pitch {pitch}: " for pitch in pitches])
    return list(zip(b, a))


def _frame_maxima(hop_maxima: np.ndarray, window_factor: int) -> np.ndarray:
    """Turn a band x hop matrix of per-hop maxima into frame maxima, in
    place: column t becomes the maximum of hops t .. t + window_factor - 1,
    the window truncated at the last hop.

    One O(hops log window) sliding-maximum pass per band, nothing to do
    for a window of one hop; a window wider than the hops reads nothing
    more. The pass overwrites ``hop_maxima`` row by row and returns it, so
    framing allocates no more than one row and its window at a time.
    """
    if window_factor > 1:
        for row in hop_maxima:
            _scipy.forward_extremum(np.maximum, row, window_factor, -np.inf,
                                    out=row)
    return hop_maxima


def _num_workers(num_tasks: int) -> int:
    """One worker per core this process may run on, at most one per task
    (a band group)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, num_tasks)


def _band_groups(config: FilterbankConfig, hop: int,
                 frame_rate: float) -> list[tuple[range, int]]:
    """Rows and hop of each band group, from the top group down.

    A group holds ``_GROUP_BANDS`` rows counted down from the top band
    (the lowest group may hold fewer) and is filtered at
    ``hop_g * frame_rate``, with ``hop_g`` the smallest whole hop that puts
    the group's top band edge at no more than ``1 / _DECIMATION_MARGIN`` of
    that rate, raised to ``_MIN_GROUP_HOP`` and capped at the hop of the
    group above (the input hop for the top group), so that no signal is
    ever upsampled.
    """
    groups = []
    for stop in range(config.num_bands, 0, -_GROUP_BANDS):
        _, top = band_edges(int(config.band_pitches[stop - 1]), config)
        hop = min(hop, max(_MIN_GROUP_HOP, math.ceil(
            _DECIMATION_MARGIN * top / frame_rate)))
        groups.append((range(max(0, stop - _GROUP_BANDS), stop), hop))
    return groups


def _resample_levels(hops: list[int]) -> list[tuple]:
    """``(hop, up, down, resample, margin)`` of each level of the resample
    cascade, given its hops in falling order: level 0 is the input (no
    ``resample``), and level k is level k - 1 resampled by ``up / down =
    hops[k] / hops[k - 1]`` in lowest terms through ``resample``, which
    equals ``scipy.signal.resample_poly(x, up, down)``.

    The lowpass is the one ``resample_poly`` designs for ``up / down``
    with its default window (cutoff ``1 / max(up, down)`` of Nyquist,
    ``10 * max(up, down)`` taps each side of the center, Kaiser beta 5),
    designed once here by ``_scipy.firwin_kaiser``, and
    ``_scipy.resampler`` scales, pads and transposes it once, so a block
    costs one polyphase kernel call per level.

    ``margin`` is the number of hops a level's window of a block reaches
    past the block on each side (``_block_signals``): 0 for the bottom
    level, and for each level above it the margin of its child plus the
    child's filter reach, ``len(fir) // 2 // up + 2`` of this level's
    samples, in whole hops of this level.
    """
    levels, reaches = [(hops[0], 1, 1, None)], []
    for parent, hop in zip(hops, hops[1:]):
        g = math.gcd(hop, parent)
        up, down = hop // g, parent // g
        fir = _scipy.firwin_kaiser(20 * max(up, down) + 1,
                                   1.0 / max(up, down), 5.0)
        levels.append((hop, up, down, _scipy.resampler(fir, up, down)))
        reaches.append(-(-(len(fir) // 2 // up + 2) // parent))
    margins = list(itertools.accumulate(reversed(reaches), initial=0))
    return [(*level, margin) for level, margin in zip(levels, margins[::-1])]


def _block_signals(samples: np.ndarray, levels: list[tuple],
                   t0: int, t1: int) -> list[np.ndarray]:
    """Each level's samples of hops ``t0 .. t1 - 1`` (the partial last hop
    included), equal to that slice of the level's whole signal.

    A level's window is its hops ``t0 - margin .. t1 + margin - 1``,
    clipped to the signal, resampled from its parent's window. Hop t of a
    level starts at sample ``t * hop`` and hop t of its parent at ``t *
    hop * down / up``, a multiple of ``down``, so a parent window that
    starts on a hop is resampled onto the filter phases of the whole
    signal and its first output sample is the child's sample at that hop.
    The parent's margin covers the filter's reach past the child's window,
    so the child's window reads nothing past the parent's but the zeros
    the whole-signal call reads past the ends of the signal.
    """
    hop, *_, margin = levels[0]
    first = max(0, t0 - margin)
    window = samples[first * hop:(t1 + margin) * hop]
    signals = [samples[t0 * hop:t1 * hop]]
    for hop, _, _, resample, margin in levels[1:]:
        child = max(0, t0 - margin)
        window = resample(window)[(child - first) * hop:
                                  (t1 + margin - first) * hop]
        first = child
        signals.append(window[(t0 - first) * hop:(t1 - first) * hop])
    return signals


def _filter_group(bank: list[tuple[np.ndarray, np.ndarray]],
                  samples: np.ndarray, hop: int, states: list[np.ndarray],
                  out: np.ndarray) -> list[np.ndarray]:
    """Filter one block of a band group's signal through each band of
    ``bank`` from that band's lfilter state in ``states``, write band i's
    per-hop maxima of |filtered samples| into ``out[i]`` (the partial
    last hop included), and return the states after the block."""
    starts = np.arange(0, len(samples), hop)
    following = []
    for (b, a), zi, row in zip(bank, states, out):
        y, zi = _scipy.lfilter(b, a, samples, zi)
        np.maximum.reduceat(np.abs(y, out=y), starts, out=row)
        following.append(zi)
    return following


def _pitch_rows(config: FilterbankConfig, pitches: range | None) -> range:
    """Rows of the full bank that hold ``pitches`` (all rows for None); a
    ConfigurationError unless ``pitches`` is a non-empty range of step 1
    inside the bank."""
    low, top = config.midi_low, config.midi_low + config.num_bands - 1
    if pitches is None:
        return range(config.num_bands)
    if not isinstance(pitches, range) or pitches.step != 1 or not pitches:
        raise ConfigurationError(
            f"pitches must be a non-empty range of step 1, got {pitches!r}")
    if pitches.start < low or pitches[-1] > top:
        raise ConfigurationError(
            f"pitches {pitches.start}..{pitches[-1]} outside filterbank "
            f"range {low}..{top}")
    return range(pitches.start - low, pitches.stop - low)


def compute_spectrogram(audio: AudioBuffer,
                        config: FilterbankConfig = DEFAULT_CONFIG, *,
                        pitches: range | None = None) -> Spectrogram:
    """Filter the signal through the bank and frame it by window maxima.

    The bands run in the groups of ``_band_groups``: each group's bands
    are designed at its rate ``sample_rate * hop_g / hop`` and filtered on
    its level of the resample cascade (``_resample_levels``), with the hop
    ``hop_g``. The frame count ``len(samples) // hop`` and the frame rate
    ``sample_rate / hop`` are those of the input. Each band is filtered
    causally (forward pass, zero initial state); a frame holds the
    maximum of |filtered| over its window. Window width is
    ``window_factor`` hops (default: non-overlapping windows).

    ``pitches``, a range of step 1 inside the bank, keeps only those rows
    (``midi_low`` is then ``pitches.start``), each equal to its row of the
    full bank: the plan is the full bank's and every band is still
    designed, so a band at or above Nyquist is an error either way, but
    only the bands in ``pitches`` are filtered, and no cascade level below
    the lowest group that holds one is resampled. ``align --audio`` passes
    the score's register and one band either side, which the onset
    feature's three-band maximum reads; ``features`` filters every band.

    The signal streams through the cascade ``_BLOCK_HOPS`` input hops at
    a time (``_block_signals``), each band's lfilter state carried from
    block to block, so the values equal those of one resample and one
    filter pass over each whole group signal. A block's band groups are
    filtered on one thread per available core, one task per group, and
    one of those threads resamples the next block meanwhile; the memory
    this takes beyond the input samples and the output matrix does not
    grow with the recording. A kept band holding a NaN or an infinity
    after filtering raises AudioReadError naming its pitch.
    """
    rows = _pitch_rows(config, pitches)
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
            f"frame of {ratio:.10g}")

    frame_rate = audio.sample_rate / hop
    # the bands of each group that holds any of rows, their slice of the
    # output, the group's hop and its level of the cascade, whose hops
    # fall from the input's; every group is designed, so a band at or
    # above Nyquist is an error whichever rows are kept
    hops, kept = [hop], []
    for group_rows, group_hop in _band_groups(config, hop, frame_rate):
        bank = design_filterbank(
            replace(config, midi_low=config.midi_low + group_rows[0],
                    num_bands=len(group_rows)),
            audio.sample_rate * group_hop / hop)
        if group_hop < hops[-1]:
            hops.append(group_hop)
        start = max(group_rows.start, rows.start)
        stop = min(group_rows.stop, rows.stop)
        if start < stop:
            kept.append((bank[start - group_rows.start:
                              stop - group_rows.start],
                         slice(start - rows.start, stop - rows.start),
                         group_hop, len(hops) - 1))
    banks, out_rows, group_hops, group_levels = zip(*kept)
    # the cascade down to the level of the lowest kept group
    levels = _resample_levels(hops[:group_levels[-1] + 1])

    num_hops = -(-len(samples) // hop)
    hop_maxima = np.empty((len(rows), num_hops))
    states = [[np.zeros(2)] * len(bank) for bank in banks]
    with ThreadPoolExecutor(_num_workers(len(banks))) as pool:
        following = pool.submit(_block_signals, samples, levels, 0,
                                _BLOCK_HOPS)
        for t0 in range(0, num_hops, _BLOCK_HOPS):
            signals = following.result()
            t1 = min(t0 + _BLOCK_HOPS, num_hops)
            if t1 < num_hops:
                # queued ahead of this block's groups, so one worker
                # resamples while the others filter
                following = pool.submit(_block_signals, samples, levels, t1,
                                        t1 + _BLOCK_HOPS)
            # list() waits for the block and re-raises an exception from
            # a worker
            states = list(pool.map(
                _filter_group, banks, [signals[k] for k in group_levels],
                group_hops, states, [hop_maxima[o, t0:t1] for o in out_rows]))
    # the partial last hop, if any, is read by the last frames' windows
    values = _frame_maxima(hop_maxima, config.window_factor)[:, :num_frames]
    midi_low = config.midi_low + rows.start
    bad = np.flatnonzero(~np.isfinite(values.max(axis=1)))
    if len(bad):
        raise AudioReadError(f"band of MIDI pitch {midi_low + bad[0]} holds "
                             f"a non-finite value after filtering")
    return Spectrogram(values=values, frame_rate=frame_rate, midi_low=midi_low)
