"""Score-to-audio alignment by dynamic programming over (chord, frame) pairs.

The aligner walks the score one chord at a time. For every surviving
placement of the previous chord it scores a window of candidate frames for
the next one, charging three things: missing onset activation at the
candidate frame, missing sustained spectral activation in the few frames
right after it, and deviation from the tempo the path has implied so far.
Every cell carries its own beat-period estimate (frames per beat), smoothed
after each accepted transition, so the stretch penalty tracks local tempo
instead of assuming a global one.

The cost and backpointer tables are M x N: row r holds the placements of
chord r. Chord 0 is reached from a virtual start at frame 0, which needs
no row of its own: it scans a fixed-length opening window with no stretch
charge, since leading silence says nothing about tempo. After each row the
accumulated costs can be pruned against the row minimum
(``reset_threshold``), a beam that bounds the work per chord, so the time
grows linearly with the recording length. Without a beam the search stays
exact and is pruned by bounds instead: a beam pass prices a real path as
the upper bound, a backward pass gives a lower bound on every cell's
cost-to-go, and a cell whose cost plus that bound exceeds the upper bound
is dropped. The output is that of relaxing every window pair, the work
grows with the cells that survive (1.6-2.7% of chords x frames on the
synthetic etude pieces), and the lower-bound table adds M x N x 8 bytes.

The path is read off the backpointers, from the cheapest cell of the last
row (the smallest frame on a tie) down to row 1; the source of row 0 is
always the virtual start.

Each row is relaxed in one vectorized pass. The windows of all finite
source cells are computed at once and expanded into (source, destination)
pairs in ascending source order, in chunks of a fixed pair budget. Each
chunk takes the per-destination minimum and the first pair reaching it,
and is merged into the row with a strict ``<``. A NaN candidate never
wins, and on equal costs the smaller source frame wins, both within a
chunk and across chunks.

All cost arithmetic keeps a fixed evaluation order; exhaustive path
enumeration over the same terms reproduces the accumulated costs exactly.
"""

import math
from dataclasses import dataclass, replace
from typing import Literal, get_args

import numpy as np
from scipy.ndimage import minimum_filter1d

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
    the starting beat period (frames per beat), ``bp_bounds`` the range
    every update is clamped to, and ``bp_alpha`` the smoothing weight kept
    on the old beat period at each update. ``sustain_frames`` is how many
    frames after a candidate must still show spectral energy;
    ``pitch_aggregation`` combines the per-pitch costs of a chord by their
    mean or minimum. ``reset_threshold`` (optional) prunes cells whose
    cost exceeds the row minimum by more than the threshold; unset, the
    search is exact. ``initial_window`` (seconds) is the search range for
    the first chord; ``max_window_frames`` (optional) caps every window.
    Every float, both ends of ``bp_bounds`` included, must be finite.
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
    bp_bounds: tuple[float, float] = (5.0, 250.0)
    max_window_frames: int | None = None

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.stretch_min < 1.0 < self.stretch_max:
            raise ConfigurationError(
                "stretch limits must satisfy 0 < stretch_min < 1 < stretch_max")
        if min(self.w_onset, self.w_stretch, self.w_spec) < 0:
            raise ConfigurationError("cost weights must be non-negative")
        if self.bp_bounds[0] < 1 or self.bp_bounds[0] > self.bp_bounds[1]:
            raise ConfigurationError("invalid beat-period bounds")
        if not self.bp_bounds[0] <= self.bp_init <= self.bp_bounds[1]:
            raise ConfigurationError("bp_init outside bp_bounds")
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
    return np.clip(bp_new, params.bp_bounds[0], params.bp_bounds[1])


# (source, destination) pairs relaxed per vectorized step; bounds the
# temporary arrays of one row at a few MB whatever the window widths
_PAIR_CHUNK = 1 << 15


def _sustained_spec(spec_values: np.ndarray, row: int, k_max: int) -> np.ndarray:
    """min over k = 1..k_max of spec[row, min(j + k, N - 1)], per frame j.

    Every k >= N - 1 reads frame N - 1 alone, so k stops there.
    """
    n = spec_values.shape[1]
    base = np.arange(n)
    out = spec_values[row, np.minimum(base + 1, n - 1)].copy()
    for k in range(2, min(k_max, n - 1) + 1):
        np.minimum(out, spec_values[row, np.minimum(base + k, n - 1)], out=out)
    return out


def _chord_cost_vectors(onsets_values: np.ndarray,
                        sustained: dict[int, np.ndarray], rows: np.ndarray,
                        params: AlignmentParams
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame onset and sustained-spectral costs for one chord, from
    the ``_sustained_spec`` vectors of its band rows: ``1 - value`` over
    the rows, summed with ``np.add`` and divided for the mean, or folded
    with ``np.minimum`` for the minimum, in one loop.

    Pitches accumulate in row order; keep that order fixed, results must be
    bit-reproducible against scalar re-evaluation.
    """
    mean = params.pitch_aggregation == "mean"
    combine = np.add if mean else np.minimum
    con = np.full(onsets_values.shape[1], 0.0 if mean else np.inf)
    csp = con.copy()
    for r in rows:
        combine(con, 1.0 - onsets_values[r], out=con)
        combine(csp, 1.0 - sustained[r], out=csp)
    if mean:
        con /= len(rows)
        csp /= len(rows)
    return con, csp


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
    # once per distinct band row, however many chords share it
    sustained = {r: _sustained_spec(spec_values, r, params.sustain_frames)
                 for r in np.unique(np.concatenate(chord_rows))}

    def weighted_costs(target):
        con, csp = _chord_cost_vectors(onsets_values, sustained,
                                       chord_rows[target], params)
        return params.w_onset * con, params.w_spec * csp

    if params.reset_threshold is None:
        d, back = _bounded_tables(beats, n, rate, weighted_costs, params)
    else:
        d, back = _fill_tables(beats, n, rate, weighted_costs, params)

    frames = [0] * m
    frames[-1] = int(np.argmin(d[-1]))  # first occurrence: smallest frame
    for target in range(m - 1, 0, -1):
        frames[target - 1] = int(back[target, frames[target]])
    entries = [AlignmentEntry(score_index=idx, beat=onset.beat,
                              pitches=onset.pitches, frame=frame,
                              time_s=frame / rate,
                              cumulative_cost=float(d[idx, frame]))
               for idx, (onset, frame) in enumerate(zip(score.onsets,
                                                        frames))]
    return AlignmentResult(entries=entries,
                           total_cost=entries[-1].cumulative_cost,
                           effective_frame_rate=rate)


def _fill_tables(beats, n: int, rate: float, weighted_costs,
                 params: AlignmentParams, h=None, cut=None):
    """The cost and backpointer tables, row by row.

    ``weighted_costs(r)`` gives the weighted onset and sustained-spectral
    cost vectors of chord ``r``. A ``reset_threshold`` beam prunes each row
    against its minimum. With a cost-to-go bound ``h`` every cell with
    ``d + h[r] > cut[r]`` is pruned; a row left empty then returns None,
    since it cannot tell an infeasible problem from a cut below the
    optimum.
    """
    m = len(beats)
    d = np.full((m, n), np.inf)
    back = np.full((m, n), -1, dtype=np.int32)
    bp_row = np.full(n, float(params.bp_init))

    for target in range(m):
        w_con, w_csp = weighted_costs(target)
        if target == 0:
            # the virtual start (cost 0.0 at frame 0) reaches the opening
            # window with no stretch charge and the beat period left at
            # bp_init; fmin keeps a NaN step from winning. The end is
            # clipped as a float: a huge window gives inf, which floor()
            # cannot take
            hi = math.floor(min(params.initial_window * rate, n - 1))
            sl = slice(0, hi + 1)
            np.fmin(d[0, sl], 0.0 + (w_con[sl] + w_csp[sl]), out=d[0, sl])
        else:
            dscore = beats[target] - beats[target - 1]
            bp_row = _relax_row(d[target - 1], bp_row, d[target],
                                back[target], w_con, w_csp, dscore, params)

        row = d[target]
        if h is not None:
            row[row + h[target] > cut[target]] = np.inf
        if not np.isfinite(row).any():
            if h is not None:
                return None
            raise InfeasiblePathError(
                f"no feasible frame for score onset {target} "
                f"(beat {beats[target]:g})", score_index=target)
        if params.reset_threshold is not None:
            row[row > row.min() + params.reset_threshold] = np.inf
    return d, back


# beam of the pass whose total cost bounds the exact search from above
_BOUND_BEAM = 2.0


def _bounded_tables(beats, n: int, rate: float, weighted_costs,
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
    The cut then empties a row, and the tables are filled again
    unpruned.
    """
    bound = _beam_bound(beats, n, rate, weighted_costs, params)
    if bound < math.inf:
        m = len(beats)
        scale = max(1.0, bound)
        ulps = 4 * np.finfo(np.float64).eps * np.arange(m - 1, -1, -1)
        cut = bound + scale * (1e-9 + ulps)
        tables = _fill_tables(beats, n, rate, weighted_costs, params,
                              _cost_to_go(beats, n, weighted_costs, params),
                              cut)
        if tables is not None:
            return tables
    return _fill_tables(beats, n, rate, weighted_costs, params)


def _beam_bound(beats, n: int, rate: float, weighted_costs,
                params: AlignmentParams) -> float:
    """Total cost of a ``_BOUND_BEAM`` pass; +inf when it finds no path."""
    beam = replace(params, reset_threshold=_BOUND_BEAM)
    try:
        d, _ = _fill_tables(beats, n, rate, weighted_costs, beam)
    except InfeasiblePathError:
        return math.inf
    return float(d[-1].min())


def _cost_to_go(beats, n: int, weighted_costs,
                params: AlignmentParams) -> np.ndarray:
    """Lower bound h[r, j] on what rows r + 1 .. M - 1 add to a path
    through cell (r, j); +inf where no window path reaches the last row.

    It drops the stretch cost (never negative) and widens every window to
    ``[j + 1, j + w]``, where ``w`` is the widest window any beat period
    in ``bp_bounds`` opens, so ``h[r]`` is a forward sliding minimum of
    the weighted chord costs of row r + 1 plus ``h[r + 1]``.
    """
    m = len(beats)
    h = np.empty((m, n))
    h[-1] = 0.0
    for r in range(m - 1, 0, -1):
        w_con, w_csp = weighted_costs(r)
        _, w = _frame_windows(0, params.bp_bounds[1],
                              beats[r] - beats[r - 1], params, n)
        w = int(w)
        if w < 1:
            h[r - 1] = np.inf
            continue
        # nxt[j] belongs to frame j + 1, so the window [j, j + w) of nxt
        # is the window [j + 1, j + w] of the frames
        nxt = np.append((w_con + w_csp + h[r])[1:], np.inf)
        h[r - 1] = minimum_filter1d(nxt, w, mode="constant", cval=np.inf,
                                    origin=-(w // 2))
    return h


def _relax_row(d_src: np.ndarray, bp_src: np.ndarray, d_dst: np.ndarray,
               b_dst: np.ndarray, w_con: np.ndarray, w_csp: np.ndarray,
               dscore: float, params: AlignmentParams) -> np.ndarray:
    """Relax every window pair out of the finite cells of ``d_src`` into
    ``d_dst``/``b_dst`` (updated in place), charging the weighted chord
    costs ``w_con``/``w_csp`` of each destination; returns the beat
    periods of the destination row.

    Pairs run in ascending source order, ``_PAIR_CHUNK`` at a time. A
    chunk wins a destination with its smallest candidate, taken by the
    first pair reaching it, and only if that beats the row strictly; so a
    tie goes to the smaller source, whichever chunks the pairs fall in.
    """
    n = len(d_dst)
    bp_dst = np.full(n, float(params.bp_init))
    src = np.flatnonzero(np.isfinite(d_src))
    lo, hi = _frame_windows(src, bp_src[src], dscore, params, n)
    keep = hi >= lo
    src, lo, widths = src[keep], lo[keep], (hi - lo + 1)[keep]
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1]) if len(ends) else 0
    shift = lo - starts  # destination of pair p is p + shift[source]
    bp_s = bp_src[src]
    d_s = d_src[src]

    for p0 in range(0, total, _PAIR_CHUNK):
        p1 = min(p0 + _PAIR_CHUNK, total)
        # sources with pairs in [p0, p1), and how many each
        s0 = int(np.searchsorted(ends, p0, side="right"))
        s1 = int(np.searchsorted(starts, p1, side="left"))
        counts = np.minimum(ends[s0:s1], p1) - np.maximum(starts[s0:s1], p0)
        j = np.repeat(src[s0:s1], counts)
        dst = np.arange(p0, p1) + np.repeat(shift[s0:s1], counts)
        dframes = (dst - j).astype(np.float64)
        bp = np.repeat(bp_s[s0:s1], counts)
        st = stretch_cost(dframes, bp, dscore, params)
        step = w_con[dst] + params.w_stretch * st
        step = step + w_csp[dst]
        cand = np.repeat(d_s[s0:s1], counts) + step

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
        b_dst[won] = j[pair]
        bp_dst[won] = update_beat_period(dframes[pair], dscore, bp[pair],
                                         params)
    return bp_dst
