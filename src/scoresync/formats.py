"""Delimited-text and JSON serialization of features, alignments, and reports.

Alignment and truth CSVs print their numbers to 6 significant digits.
Feature CSVs do too unless full precision is requested: 17 significant
digits, which round-trip float64 exactly, so a dumped raw spectrogram
reproduces an alignment bit for bit. The band columns of a feature CSV
run up from ``p<midi_low>`` one semitone at a time; no other header reads.
Row t is frame t, and the reader rejects a ``frame`` column that does not
number the rows 0, 1, ..., so a dump with missing or reordered rows
cannot shift the frames after them.

Alignment and truth CSVs carry a ``score_index`` column, and ``eval``
pairs their rows by position, so the readers reject a row whose
``score_index`` is not its 0-based position.
"""

import json
import math
import warnings
from typing import IO, Iterable

import numpy as np

from .dp_align import AlignmentResult
from .filterbank import Spectrogram
from .score import ScoreSequence
from .synth_eval import ERROR_THRESHOLDS_MS, EvalReport


def _feature_header(midi_low: int, num_bands: int) -> str:
    """``frame,p<low>,...,p<low + num_bands - 1>``."""
    return "frame," + ",".join(
        f"p{p}" for p in range(midi_low, midi_low + num_bands))


def write_feature_csv(out: IO[str], spectrogram: Spectrogram,
                      precision=6) -> None:
    """The header of ``_feature_header``, then one row per frame, each
    formatted by one ``%`` over the whole row; only one row is held as
    Python floats at a time."""
    out.write(_feature_header(spectrogram.midi_low, spectrogram.num_bands)
              + "\n")
    fmt = "%.17g" if precision == "full" else f"%.{int(precision)}g"
    line = "%d," + ",".join([fmt] * spectrogram.num_bands) + "\n"
    for t, row in enumerate(spectrogram.values.T):
        out.write(line % (t, *row.tolist()))


def read_feature_csv(path: str, frame_rate: float) -> Spectrogram:
    """Parse a feature CSV back into a Spectrogram.

    The CSV carries no frame rate, so the effective rate must be supplied.
    ValueError unless it has at least one band column, a header that
    ``_feature_header`` would write with no band past MIDI pitch 127, and
    rows, all as wide as the header, of finite non-negative values, whose
    ``frame`` column numbers them 0, 1, ...: row t is frame t.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[0] != "frame":
            raise ValueError(f"{path!r}: not a feature CSV (header {header!r})")
        if len(header) < 2:
            raise ValueError(f"{path!r}: no band columns after 'frame'")
        low = header[1][1:]
        # a first band column other than p<digits> cannot match p0
        midi_low = int(low) if low.isdecimal() else 0
        if ",".join(header) != _feature_header(midi_low, len(header) - 1):
            raise ValueError(
                f"{path!r}: band columns must run p<low>, p<low + 1>, ... "
                f"one semitone apart, got {','.join(header[1:])!r}")
        if midi_low + len(header) - 2 > 127:
            raise ValueError(f"{path!r}: band columns run past MIDI pitch "
                             f"127, got {header[-1]!r}")
        with warnings.catch_warnings():
            # a header-only CSV has no rows; that is rejected below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
    if rows.shape[0] == 0 or rows.shape[1] != len(header):
        raise ValueError(f"{path!r}: expected frame rows of {len(header)} "
                         f"values after the header")
    frames = rows[:, 0]
    wrong = np.flatnonzero(frames != np.arange(len(frames)))
    if wrong.size:
        t = int(wrong[0])
        raise ValueError(f"{path!r}: frames must run 0, 1, ... one per row, "
                         f"but row {t} holds frame {frames[t]:g}")
    values = rows[:, 1:].T
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError(f"{path!r}: feature values must be finite and "
                         f"non-negative")
    return Spectrogram(values=values, frame_rate=frame_rate,
                       midi_low=midi_low)


def write_alignment_csv(out: IO[str], result: AlignmentResult) -> None:
    out.write("score_index,beat,pitches,frame,time_s,cumulative_cost\n")
    for e in result.entries:
        pitches = "+".join(str(p) for p in e.pitches)
        out.write(f"{e.score_index},{e.beat:.6g},{pitches},{e.frame},"
                  f"{e.time_s:.6g},{e.cumulative_cost:.6g}\n")


def read_alignment_csv(path: str) -> list[float]:
    """The ``time_s`` of each non-blank row of a CSV with a header line
    and ``score_index`` and ``time_s`` columns, an alignment or truth CSV.

    ValueError, naming the path and the line, on a row that lacks a
    column, whose ``time_s`` is not a finite number, or whose
    ``score_index`` is not its 0-based position: rows are paired with the
    score by position.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        missing = {"score_index", "time_s"} - set(header)
        if missing:
            raise ValueError(f"{path!r}: missing columns {missing}")
        index_col = header.index("score_index")
        time_col = header.index("time_s")
        times = []
        for lineno, line in enumerate(f, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            where = f"{path!r} line {lineno}"
            if len(fields) <= max(index_col, time_col):
                raise ValueError(f"{where}: expected {len(header)} columns, "
                                 f"got {len(fields)}")
            if fields[index_col].strip() != str(len(times)):
                raise ValueError(f"{where}: score_index must be the row's "
                                 f"position {len(times)}, got "
                                 f"{fields[index_col]!r}")
            try:
                time_s = float(fields[time_col])
            except ValueError:
                time_s = math.nan
            if not math.isfinite(time_s):
                raise ValueError(f"{where}: time_s must be a finite number, "
                                 f"got {fields[time_col]!r}")
            times.append(time_s)
    return times


def write_truth_csv(out: IO[str], score: ScoreSequence,
                    times: Iterable[float]) -> None:
    out.write("score_index,beat,time_s\n")
    for i, (onset, t) in enumerate(zip(score.onsets, times)):
        out.write(f"{i},{onset.beat:.6g},{t:.6g}\n")


def format_eval_text(report: EvalReport) -> str:
    lines = [
        f"{'onsets':<12}{len(report.errors_ms):>10d}",
        f"{'mean_ms':<12}{report.mean_ms:>10.2f}",
        f"{'median_ms':<12}{report.median_ms:>10.2f}",
    ]
    for thr in ERROR_THRESHOLDS_MS:
        lines.append(f"{'<' + format(thr, 'g') + ' ms':<12}"
                     f"{report.pct_below[thr]:>9.1f}%")
    return "\n".join(lines)


def eval_to_json(report: EvalReport) -> dict:
    return {
        "onsets": len(report.errors_ms),
        "mean_ms": report.mean_ms,
        "median_ms": report.median_ms,
        "pct_below": {format(thr, "g"): report.pct_below[thr]
                      for thr in ERROR_THRESHOLDS_MS},
    }


def dump_json(out: IO[str], doc: dict) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")
