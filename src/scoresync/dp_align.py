"""Score-to-audio alignment by dynamic programming over (chord, frame) pairs.

The aligner walks the score one chord at a time. For every surviving
placement of the previous chord it scores a window of candidate frames for
the next one, charging three things: missing onset activation at the
candidate frame, missing sustained spectral activation in the few frames
right after it, and deviation from the tempo the path has implied so far.
Every cell carries its own beat-period estimate (frames per beat), smoothed
after each accepted transition, so the stretch penalty tracks local tempo
instead of assuming a global one.

Row r holds the placements of chord r, stored over its live span only:
its first frame plus cost, backpointer and beat-period arrays from its
first to its last finite cell (the beat periods are kept only until the
next row is filled). Every frame outside the span is unreachable, so the
rows take memory in proportion to the cells that survive pruning, not to
chords x frames, and chord costs are computed only on each row's span.
Chord 0 is reached from a virtual start at frame 0, which needs no row of
its own: it scans a fixed-length opening window with no stretch charge,
since leading silence says nothing about tempo. After each row the
accumulated costs can be pruned against the row minimum
(``reset_threshold``), a beam that bounds the work per chord, so the time
grows linearly with the recording length. Without a beam the search stays
exact and is pruned by bounds instead: a beam pass prices a real path as
the upper bound, a backward pass gives a lower bound on every cell's
cost-to-go, and a cell whose cost plus that bound exceeds the upper bound
is dropped. The output is that of relaxing every window pair, and the
work grows with the cells that survive (1.6-2.7% of chords x frames on
the synthetic etude pieces). That lower-bound table is the one dense
M x N array left, 8 bytes a cell, built on this default path only; the
per-band sustained-spectral vectors are as long as the features. Both
forward windows, the sustained lookahead of every frame and the widened
window of the cost-to-go bound, are sliding minima (``_forward_min``):
one numpy doubling pass each, O(N log w) for a window of w frames and
exact, with a window wider than the recording clipped to it.

The path is read off the backpointers, from the cheapest cell of the last
row (the smallest frame on a tie) down to row 1; the source of row 0 is
always the virtual start.

Each row is relaxed in one vectorized pass. The windows of all finite
source cells are computed at once and expanded into (source, destination)
pairs in ascending source order, in chunks of a fixed pair budget. Each
chunk takes the per-destination minimum and the first pair reaching it,
and is merged into the row with a strict ``<``. A NaN candidate never
wins, and on equal costs the smaller source frame wins, both within a
chunk and across chunks. The new row is laid out over the union of the
windows and trimmed to its finite cells once it is pruned.

The cost is defined only in ``align``'s ``chord_costs`` (sustained
lookahead, pitch aggregation, onset and spectral weights) and in
``_step_cost`` (stretch weight and sum), which row 0, every relaxation and
the cost-to-go bound call. Both keep a fixed evaluation order; exhaustive
path enumeration over the same terms reproduces the costs exactly.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Literal, NamedTuple, get_args

import numpy as np

from . import _scipy
from .errors import (ConfigurationError, EmptyAudioError, InfeasiblePathError,
                     ScoreError, check_finite)
from .features import FeaturePair
from .score import ScoreSequence

PitchAggregation = Literal["mean", "min"]


@dataclass(frozen=True)
class AlignmentParams:
    """Tuning knobs of the dynamic program.

    ``stretch_min``/``stretch_max`` bound how far a transition may deviate
    from the beat-period prediction; ``w_onset``/``w_stretch``/``w_spec``
    weight the onset, stretch and sustained-spectral costs. ``bp_init`` is
    the starting beat period (frames per beat), ``bp_min``/``bp_max`` the
    range every update is clamped to, and ``bp_alpha`` the smoothing
    weight kept on the old beat period at each update. ``sustain_frames``
    is how many frames after a candidate must still show spectral energy;
    ``pitch_aggregation`` combines the per-pitch costs of a chord by their
    mean or minimum. ``reset_threshold`` (optional) prunes cells whose
    cost exceeds the row minimum by more than the threshold; unset, the
    search is exact. ``initial_window`` (seconds) is the search range for
    the first chord; ``max_window_frames`` (optional) caps every window.
    Every float must be finite.
    """

    stretch_min: float = 1.0 / 3.0
    stretch_max: float = 3.0
    w_onset: float = 1.0
    w_stretch: float = 1.0
    w_spec: float = 1.0
    bp_init: float = 25.0
    bp_alpha: float = 0.5
    sustain_frames: int = 3
    reset_threshold: float | None = None
    pitch_aggregation: PitchAggregation = "mean"
    initial_window: float = 5.0
    bp_min: float = 5.0
    bp_max: float = 250.0
    max_window_frames: int | None = None

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.stretch_min < 1.0 < self.stretch_max:
            raise ConfigurationError(
                "stretch limits must satisfy 0 < stretch_min < 1 < stretch_max")
        if min(self.w_onset, self.w_stretch, self.w_spec) < 0:
            raise ConfigurationError("cost weights must be non-negative")
        if self.bp_min < 1 or self.bp_min > self.bp_max:
            raise ConfigurationError("invalid beat-period bounds")
        if not self.bp_min <= self.bp_init <= self.bp_max:
            raise ConfigurationError("bp_init outside bp_min..bp_max")
        if not 0.0 <= self.bp_alpha <= 1.0:
            raise ConfigurationError("bp_alpha must lie in [0, 1]")
        if self.sustain_frames < 1:
            raise ConfigurationError("sustain_frames must be >= 1")
        if self.pitch_aggregation not in get_args(PitchAggregation):
            raise ConfigurationError(
                f"unknown pitch aggregation {self.pitch_aggregation!r}")
        if self.initial_window <= 0:
            raise ConfigurationError("initial_window must be positive")
        if self.reset_threshold is not None and self.reset_threshold < 0:
            raise ConfigurationError("reset_threshold must be non-negative")
        if self.max_window_frames is not None and self.max_window_frames < 1:
            raise ConfigurationError("max_window_frames must be >= 1")


@dataclass(frozen=True)
class AlignmentEntry:
    score_index: int
    beat: float
    pitches: tuple[int, ...]
    frame: int
    time_s: float
    cumulative_cost: float


@dataclass
class AlignmentResult:
    entries: list[AlignmentEntry]
    total_cost: float
    effective_frame_rate: float

    @property
    def frames(self) -> list[int]:
        return [e.frame for e in self.entries]

    @property
    def times(self) -> list[float]:
        return [e.time_s for e in self.entries]


def _frame_windows(j, bp, dscore: float, params: AlignmentParams,
                  num_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last candidate target frames for transitions out of the
    source frames ``j`` with beat periods ``bp`` (arrays or scalars).

    The window is ``[j + max(1, ceil(stretch_min * bp * dscore)),
    j + floor(stretch_max * bp * dscore)]`` clipped to the valid frame
    range; it is empty (``hi < lo``) near the end of the recording.
    Offsets and the cap are clipped to ``num_frames`` before the integer
    conversion, which would overflow on huge ones; a clipped offset or
    cap already reaches past the last frame, so the window is the same.
    """
    span = np.asarray(bp, dtype=np.float64) * dscore
    lo = j + np.clip(np.ceil(params.stretch_min * span), 1,
                     num_frames).astype(np.int64)
    hi = j + np.minimum(np.floor(params.stretch_max * span),
                        num_frames).astype(np.int64)
    if params.max_window_frames is not None:
        hi = np.minimum(hi, lo + min(params.max_window_frames,
                                     num_frames) - 1)
    return lo, np.minimum(hi, num_frames - 1)


def stretch_cost(dframes, bp, dscore: float, params: AlignmentParams):
    """Tempo-deviation cost in [0, 1]; zero when a transition of
    ``dframes`` frames matches the predicted ``bp * dscore`` exactly.

    Frame deltas and beat periods may be scalars or arrays.
    """
    ratio = dframes / (bp * dscore)
    cost = np.abs(np.log2(ratio)) / np.log2(params.stretch_max)
    return np.clip(cost, 0.0, 1.0)


def update_beat_period(dframes, dscore: float, bp,
                       params: AlignmentParams):
    """Exponentially smoothed beat period after observing a transition
    (elementwise over array arguments)."""
    observed = dframes / dscore
    bp_new = params.bp_alpha * bp + (1.0 - params.bp_alpha) * observed
    return np.clip(bp_new, params.bp_min, params.bp_max)


# (source, destination) pairs relaxed per vectorized step; bounds the
# temporary arrays of one row at a few MB whatever the window widths
_PAIR_CHUNK = 1 << 15


def _forward_min(values: np.ndarray, width: int, pad: float) -> np.ndarray:
    """min of ``values[j + 1 .. j + width]`` per frame j, reading ``pad``
    past the last frame, in one sliding-minimum pass
    (``_scipy.forward_extremum``)."""
    # nxt[j] belongs to frame j + 1, so the window [j, j + width) of nxt
    # is the window [j + 1, j + width] of the frames
    nxt = np.append(values[1:], pad)
    return _scipy.forward_extremum(np.minimum, nxt, width, pad)


def _step_cost(w_con, w_csp, stretch, params: AlignmentParams):
    """Cost of a step onto a cell with weighted chord costs ``w_con`` and
    ``w_csp`` and stretch cost ``stretch``, summed in that order (scalars
    or arrays). Row 0 and the cost-to-go bound charge no stretch."""
    return (w_con + params.w_stretch * stretch) + w_csp


def align(score: ScoreSequence, features: FeaturePair,
          params: AlignmentParams | None = None) -> AlignmentResult:
    """Assign an audio frame to every score onset.

    Without ``reset_threshold`` the result is that of relaxing every
    window pair, found by bound pruning (``_bounded_tables``). Raises
    InfeasiblePathError (with the failing score index) when the candidate
    windows run out of frames, and ConfigurationError when a score pitch
    has no filterbank band.
    """
    if params is None:
        params = AlignmentParams()
    m = len(score)
    if m == 0:
        raise ScoreError("empty score: nothing to align")
    onsets_values = features.onsets.values
    spec_values = features.spec.values
    if onsets_values.shape != spec_values.shape:
        raise ConfigurationError("onset/spec feature shapes differ")
    n = features.num_frames
    if n == 0:
        raise EmptyAudioError("features contain no frames")
    rate = features.frame_rate
    beats = score.beats
    chord_rows = [
        np.array([features.onsets.pitch_row(p) for p in o.pitches])
        for o in score.onsets
    ]
    # min of spec over the frames j + 1 .. j + sustain_frames (frame N - 1
    # past the end), once per band row however many chords share it
    k_max = min(params.sustain_frames, n)
    sustained = {r: _forward_min(spec_values[r], k_max, spec_values[r, -1])
                 for r in set(np.concatenate(chord_rows).tolist())}
    mean = params.pitch_aggregation == "mean"
    combine = np.add if mean else np.minimum

    def chord_costs(target, start=0, stop=n):
        """Weighted onset and sustained-spectral costs of chord ``target``
        at the frames ``start .. stop - 1``: the mean or minimum of ``1 -
        value`` over its band rows, accumulated in row order (keep it
        fixed: results must match scalar re-evaluation bit for bit)."""
        rows = chord_rows[target]
        con = np.full(stop - start, 0.0 if mean else np.inf)
        csp = con.copy()
        for r in rows:
            combine(con, 1.0 - onsets_values[r, start:stop], out=con)
            combine(csp, 1.0 - sustained[r][start:stop], out=csp)
        if mean:
            con /= len(rows)
            csp /= len(rows)
        return params.w_onset * con, params.w_spec * csp

    if params.reset_threshold is None:
        rows = _bounded_tables(beats, n, rate, chord_costs, params)
    else:
        rows = _fill_tables(beats, n, rate, chord_costs, params,
                            partial(_beam, params.reset_threshold))

    frames = [0] * m
    # first occurrence: smallest frame
    frames[-1] = rows[-1].lo + int(np.argmin(rows[-1].d))
    for target in range(m - 1, 0, -1):
        row = rows[target]
        frames[target - 1] = int(row.back[frames[target] - row.lo])
    entries = [AlignmentEntry(score_index=idx, beat=onset.beat,
                              pitches=onset.pitches, frame=frame,
                              time_s=frame / rate,
                              cumulative_cost=float(row.d[frame - row.lo]))
               for idx, (onset, frame, row) in enumerate(
                   zip(score.onsets, frames, rows))]
    return AlignmentResult(entries=entries,
                           total_cost=entries[-1].cumulative_cost,
                           effective_frame_rate=rate)


class _Row(NamedTuple):
    """The cells of one chord at the frames ``lo .. lo + len(d) - 1``:
    accumulated costs and backpointers (source frames of the row before).
    Every frame outside that span is unreachable."""
    lo: int
    d: np.ndarray
    back: np.ndarray


def _fill_tables(beats, n: int, rate: float, chord_costs,
                 params: AlignmentParams, prune=None):
    """The rows of the DP, one ``_Row`` per chord.

    ``chord_costs(r, start, stop)`` gives the weighted onset and
    sustained-spectral costs of chord ``r`` at the frames from ``start``
    up to ``stop``. A row is first laid out over the union of its live
    sources' windows; then ``prune(r, lo, d)``, if given, sets the costs
    ``d`` of the cells it drops to inf, where ``d[0]`` is frame ``lo``. A
    row with no finite cell left raises InfeasiblePathError. It is stored
    trimmed to its first and last finite cell, so the rows take memory in
    proportion to their live spans, not to the frame count.
    """
    rows = []
    for target in range(len(beats)):
        if target == 0:
            # the virtual start (cost 0.0 at frame 0) reaches the opening
            # window with no stretch charge and the beat period left at
            # bp_init; fmin keeps a NaN step from winning. The end is
            # clipped as a float: a huge window gives inf, which floor()
            # cannot take
            lo = 0
            width = math.floor(min(params.initial_window * rate, n - 1)) + 1
            w_con, w_csp = chord_costs(0, 0, width)
            d = np.fmin(np.inf, 0.0 + _step_cost(w_con, w_csp, 0.0, params))
            back = np.full(width, -1, dtype=np.int32)
            bp = np.full(width, float(params.bp_init))
        else:
            dscore = beats[target] - beats[target - 1]
            lo, d, back, bp = _relax_row(rows[-1].d, bp, rows[-1].lo,
                                         partial(chord_costs, target),
                                         dscore, params, n)

        if prune is not None:
            prune(target, lo, d)
        live = np.flatnonzero(np.isfinite(d))
        if not len(live):
            raise InfeasiblePathError(
                f"no feasible frame for score onset {target} "
                f"(beat {beats[target]:g})", score_index=target)
        first, stop = int(live[0]), int(live[-1]) + 1
        # copies, so the untrimmed arrays are freed
        rows.append(_Row(lo + first, d[first:stop].copy(),
                         back[first:stop].copy()))
        bp = bp[first:stop]
    return rows


def _beam(threshold: float, target: int, lo: int, d: np.ndarray) -> None:
    """Prune a row's cells whose cost exceeds its minimum by more than
    ``threshold``; an empty row stays empty."""
    d[d > np.min(d, initial=np.inf) + threshold] = np.inf


# beam of the pass whose total cost bounds the exact search from above
_BOUND_BEAM = 2.0


def _bounded_tables(beats, n: int, rate: float, chord_costs,
                    params: AlignmentParams):
    """``_fill_tables`` without a beam, pruned by a bound that keeps every
    kept cell's cost, backpointer and beat period exact.

    The upper bound U is the total cost of a ``_BOUND_BEAM`` pass, a real
    path priced by the same arithmetic. A cell is pruned when its cost
    plus the lower bound ``h`` on its cost-to-go exceeds U, plus 1e-9
    relative for the cells of the optimal path, whose sums round
    differently from U's. A kept cell's best source is then kept too: its
    ``h`` is at most the kept cell's chord cost plus the kept cell's
    ``h``, and the step between them costs at least that chord cost. The
    two sums are rounded in different orders, a few ulps apart, so the
    cut loosens by more than that from each row to the one before.
    U is no bound when the problem is infeasible after all, or when the
    beam's path beats the unpruned optimum (the unpruned pass keeps one
    beat period per cell, so a pruned pass can reach a cheaper path).
    The beam pass or the cut then empties a row, and the tables are
    filled again unpruned, which reports an infeasible problem itself.
    """
    try:
        bound = _beam_bound(beats, n, rate, chord_costs, params)
        ulps = 4 * np.finfo(np.float64).eps * np.arange(len(beats))[::-1]
        cut = bound + max(1.0, bound) * (1e-9 + ulps)
        h = _cost_to_go(beats, n, chord_costs, params)

        def below_cut(target, lo, d):
            d[d + h[target, lo:lo + len(d)] > cut[target]] = np.inf

        return _fill_tables(beats, n, rate, chord_costs, params, below_cut)
    except InfeasiblePathError:
        return _fill_tables(beats, n, rate, chord_costs, params)


def _beam_bound(beats, n: int, rate: float, chord_costs,
                params: AlignmentParams) -> float:
    """Total cost of a ``_BOUND_BEAM`` pass; InfeasiblePathError when it
    finds no path."""
    rows = _fill_tables(beats, n, rate, chord_costs, params,
                        partial(_beam, _BOUND_BEAM))
    return float(rows[-1].d.min())


def _cost_to_go(beats, n: int, chord_costs,
                params: AlignmentParams) -> np.ndarray:
    """Lower bound h[r, j] on what rows r + 1 .. M - 1 add to a path
    through cell (r, j); +inf where no window path reaches the last row.

    It drops the stretch cost (never negative) and widens every window to
    ``[j + 1, j + w]``, where ``w`` is the widest window any beat period
    up to ``bp_max`` opens, so ``h[r]`` is a forward sliding minimum of
    the stretch-free step costs of row r + 1 plus ``h[r + 1]``.
    """
    m = len(beats)
    h = np.empty((m, n))
    h[-1] = 0.0
    for r in range(m - 1, 0, -1):
        w_con, w_csp = chord_costs(r)
        _, w = _frame_windows(0, params.bp_max,
                              beats[r] - beats[r - 1], params, n)
        w = int(w)
        if w < 1:
            h[r - 1] = np.inf
            continue
        h[r - 1] = _forward_min(_step_cost(w_con, w_csp, 0.0, params) + h[r],
                                w, np.inf)
    return h


def _relax_row(d_src: np.ndarray, bp_src: np.ndarray, src_lo: int,
               costs, dscore: float, params: AlignmentParams,
               n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Relax every window pair out of the finite cells of ``d_src``, a
    row over the frames ``src_lo ..`` with beat periods ``bp_src``, into a
    new row over the union of their windows. ``costs(start, stop)`` gives
    the weighted chord costs ``w_con``/``w_csp`` of the destination frames
    ``start .. stop - 1``. Returns the new row's first frame, costs,
    backpointers and beat periods; all empty when no window is.

    Pairs run in ascending source order, ``_PAIR_CHUNK`` at a time. A
    chunk wins a destination with its smallest candidate, taken by the
    first pair reaching it, and only if that beats the row strictly; so a
    tie goes to the smaller source, whichever chunks the pairs fall in.
    """
    src = np.flatnonzero(np.isfinite(d_src))
    lo, hi = _frame_windows(src_lo + src, bp_src[src], dscore, params, n)
    keep = hi >= lo
    src, lo, hi = src[keep], lo[keep], hi[keep]
    if not len(src):
        return 0, np.empty(0), np.empty(0, dtype=np.int32), np.empty(0)
    # destination frames are counted from start, the new row's first
    start, stop = int(lo.min()), int(hi.max()) + 1
    w_con, w_csp = costs(start, stop)
    d_dst = np.full(stop - start, np.inf)
    b_dst = np.full(stop - start, -1, dtype=np.int32)
    bp_dst = np.full(stop - start, float(params.bp_init))
    widths = hi - lo + 1
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1])
    shift = lo - start - starts  # destination of pair p is p + shift[source]
    j_s = src_lo - start + src
    bp_s = bp_src[src]
    d_s = d_src[src]

    for p0 in range(0, total, _PAIR_CHUNK):
        p1 = min(p0 + _PAIR_CHUNK, total)
        # sources with pairs in [p0, p1), and how many each
        s0 = int(np.searchsorted(ends, p0, side="right"))
        s1 = int(np.searchsorted(starts, p1, side="left"))
        counts = np.minimum(ends[s0:s1], p1) - np.maximum(starts[s0:s1], p0)
        j = np.repeat(j_s[s0:s1], counts)
        dst = np.arange(p0, p1) + np.repeat(shift[s0:s1], counts)
        dframes = (dst - j).astype(np.float64)
        bp = np.repeat(bp_s[s0:s1], counts)
        st = stretch_cost(dframes, bp, dscore, params)
        cand = np.repeat(d_s[s0:s1], counts) + _step_cost(
            w_con[dst], w_csp[dst], st, params)

        base = int(dst.min())
        local = dst - base
        width = int(local.max()) + 1
        best = np.full(width, np.inf)
        np.fmin.at(best, local, cand)
        hit = np.flatnonzero(cand == best[local])
        first = np.full(width, len(cand))
        np.minimum.at(first, local[hit], hit)
        won = np.flatnonzero(best < d_dst[base:base + width])
        pair = first[won]
        won += base
        d_dst[won] = cand[pair]
        b_dst[won] = start + j[pair]
        bp_dst[won] = update_beat_period(dframes[pair], dscore, bp[pair],
                                         params)
    return start, d_dst, b_dst, bp_dst
