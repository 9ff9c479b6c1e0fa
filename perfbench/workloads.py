"""Seeded synthetic pieces and the CLI commands each workload runs.

A workload fixes the sample rate, the chord count, the duration, the
number of pieces per run and the command line; the seed only draws the
notes and the shape of the tempo map. The tempo map is scaled so a piece
lasts exactly the workload's duration, which keeps the size of a command
(samples, frames, DP cells) the same for every seed. A run cycles through
its pieces, so timings and accuracy pool over several inputs.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from scoresync import synth_eval
from scoresync.score import from_json

NOISE_LEVEL = 0.01
BPM_RANGE = (60.0, 180.0)
SEGMENT_BEATS = 8.0
PITCH_RANGE = (36, 96)
MAX_NOTES = 4
NOMINAL_FRAME_RATE = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sample_rate: int
    num_chords: int
    seconds: float
    pieces: int  # distinct pieces per run, each aligned at least once
    align_flags: tuple[str, ...] = ()  # appended to every `align` call
    # when set, the user dumps raw features with this window factor first
    # and aligns from the dump
    dump_window_factor: int | None = None

    @property
    def hop(self) -> int:
        return int(round(self.sample_rate / NOMINAL_FRAME_RATE))

    @property
    def frame_rate(self) -> float:
        """Effective frame rate, as the filterbank computes it."""
        return self.sample_rate / self.hop


WORKLOADS = {w.name: w for w in (
    Workload(
        name="concert_44k_beam",
        why="CD-rate recording with the beam on: the 88 full-rate IIR "
            "passes dominate and the DP is small, so front-end work shows "
            "here and barely on etude_22k_full",
        sample_rate=44100, num_chords=200, seconds=143.0, pieces=3,
        align_flags=("--reset-threshold", "2.0")),
    Workload(
        name="etude_22k_full",
        why="short 22.05 kHz piece with default params (no beam): the "
            "per-cell Python DP relaxation dominates, so banded-DP work "
            "shows here and front-end work barely does",
        sample_rate=22050, num_chords=100, seconds=36.0, pieces=5),
    Workload(
        name="archive_11k_dump",
        why="long 11.025 kHz piece dumped to a full-precision feature CSV "
            "then aligned from it: CSV I/O, overlapping window-max framing "
            "and the dense DP tables that set the peak RSS",
        sample_rate=11025, num_chords=500, seconds=190.0, pieces=3,
        align_flags=("--reset-threshold", "2.0"),
        dump_window_factor=2),
)}


@dataclass
class Piece:
    wav: str
    score_json: str
    score: object  # scoresync.score.ScoreSequence
    truth: list[float]
    num_samples: int


def _draw_score(rng, num_chords):
    # as many half-beat as whole-beat steps, shuffled, so the score length
    # in beats (and with it the mean tempo) is the same for every seed
    steps = np.resize([0.5, 1.0], num_chords - 1)
    beats = np.concatenate([[0.0], np.cumsum(rng.permutation(steps))])
    notes = np.arange(PITCH_RANGE[0], PITCH_RANGE[1] + 1)
    return [{"beat": float(b),
             "pitches": sorted(int(p) for p in rng.choice(
                 notes, size=int(rng.integers(1, MAX_NOTES + 1)),
                 replace=False))}
            for b in beats]


def _draw_tempo(rng, last_beat, seconds):
    """Piecewise tempo with jumps of at most 25%, scaled to the duration."""
    segments = [(0.0, float(rng.uniform(*BPM_RANGE)))]
    from_beat = SEGMENT_BEATS
    while from_beat < last_beat:
        bpm = segments[-1][1] * (1.0 + rng.uniform(-0.25, 0.25))
        segments.append((from_beat, float(np.clip(bpm, *BPM_RANGE))))
        from_beat += SEGMENT_BEATS
    raw = synth_eval.TempoMap(segments=tuple(segments))
    scale = synth_eval.beat_to_seconds(last_beat, raw) / (
        seconds - synth_eval.LAST_CHORD_DURATION_S)
    return synth_eval.TempoMap(
        segments=tuple((b, bpm * scale) for b, bpm in segments))


def make_piece(workload: Workload, seed: int, index: int,
               workdir: str) -> Piece:
    """Render piece ``index`` of the workload for ``seed`` into ``workdir``."""
    rng = np.random.default_rng([seed, workload.sample_rate, index])
    chords = _draw_score(rng, workload.num_chords)
    tempo = _draw_tempo(rng, chords[-1]["beat"], workload.seconds)
    score_json = os.path.join(workdir, f"score{index}.json")
    with open(score_json, "w") as f:
        json.dump(chords, f)
    score = from_json(score_json)
    audio, truth = synth_eval.synthesize(
        score, tempo, sample_rate=workload.sample_rate,
        noise_level=NOISE_LEVEL, rng=rng)
    wav = os.path.join(workdir, f"piece{index}.wav")
    wavfile.write(wav, audio.sample_rate, audio.samples.astype(np.float32))
    return Piece(wav=wav, score_json=score_json, score=score, truth=truth,
                 num_samples=len(audio.samples))


def commands(workload: Workload, piece: Piece, out_dir: str,
             tag: str) -> tuple[list[list[str]], str]:
    """The CLI calls of one user command, and the alignment CSV it writes.

    Each call runs in its own interpreter, as a user would run it.
    """
    out = os.path.join(out_dir, f"{tag}.align.csv")
    if workload.dump_window_factor is None:
        return [["align", "--audio", piece.wav, "--score", piece.score_json,
                 *workload.align_flags, "--out", out]], out
    dump = dump_path(out_dir, tag)
    return [["features", "--audio", piece.wav, "--feature", "raw",
             "--precision", "full",
             "--window-factor", str(workload.dump_window_factor),
             "--out", dump],
            ["align", "--features", dump, "--score", piece.score_json,
             "--frame-rate", repr(workload.frame_rate),
             *workload.align_flags, "--out", out]], out


def dump_path(out_dir: str, tag: str) -> str:
    return os.path.join(out_dir, f"{tag}.raw.csv")


def reference_command(workload: Workload, piece: Piece,
                      out: str) -> list[str]:
    """`align --audio` with the flags of the dump path; its output must be
    byte-identical to aligning from the full-precision dump."""
    return ["align", "--audio", piece.wav, "--score", piece.score_json,
            "--window-factor", str(workload.dump_window_factor),
            "--frame-rate", repr(workload.frame_rate),
            *workload.align_flags, "--out", out]
