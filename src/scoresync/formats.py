"""Delimited-text and JSON serialization of features, alignments, and reports.

All numeric output uses 6 significant digits unless full precision is
requested. Full precision round-trips float64 exactly, which lets a dumped
raw spectrogram reproduce an alignment bit for bit: feature CSVs write 17
significant digits, alignment and truth CSVs the shortest ``repr``.
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


def _fmt(value: float, precision) -> str:
    """``value`` to ``precision`` significant digits, or its shortest
    round-tripping ``repr`` in full."""
    value = float(value)
    if precision == "full":
        return repr(value)
    return f"{value:.{int(precision)}g}"


def write_feature_csv(out: IO[str], spectrogram: Spectrogram,
                      precision=6) -> None:
    """Header ``frame,p<low>,...,p<high>``, one row per frame, each
    formatted by one ``%`` over the whole row."""
    header = "frame," + ",".join(f"p{p}" for p in spectrogram.band_pitches)
    out.write(header + "\n")
    fmt = "%.17g" if precision == "full" else f"%.{int(precision)}g"
    line = "%d," + ",".join([fmt] * len(spectrogram.band_pitches)) + "\n"
    for t, row in enumerate(spectrogram.values.T.tolist()):
        out.write(line % (t, *row))


def read_feature_csv(path: str, frame_rate: float) -> Spectrogram:
    """Parse a feature CSV back into a Spectrogram.

    The CSV carries no frame rate, so the effective rate must be supplied.
    ValueError unless it has at least one band column and rows, all as
    wide as the header, of finite non-negative values.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        if not header or header[0] != "frame":
            raise ValueError(f"{path!r}: not a feature CSV (header {header!r})")
        if len(header) < 2:
            raise ValueError(f"{path!r}: no band columns after 'frame'")
        pitches = np.array([int(col[1:]) for col in header[1:]])
        with warnings.catch_warnings():
            # a header-only CSV has no rows; that is rejected below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
    if rows.shape[0] == 0 or rows.shape[1] != len(header):
        raise ValueError(f"{path!r}: expected frame rows of {len(header)} "
                         f"values after the header")
    values = rows[:, 1:].T
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError(f"{path!r}: feature values must be finite and "
                         f"non-negative")
    return Spectrogram(values=values, frame_rate=frame_rate,
                       band_pitches=pitches)


def write_alignment_csv(out: IO[str], result: AlignmentResult,
                        precision=6) -> None:
    out.write("score_index,beat,pitches,frame,time_s,cumulative_cost\n")
    for e in result.entries:
        pitches = "+".join(str(p) for p in e.pitches)
        out.write(f"{e.score_index},{_fmt(e.beat, precision)},{pitches},"
                  f"{e.frame},{_fmt(e.time_s, precision)},"
                  f"{_fmt(e.cumulative_cost, precision)}\n")


def read_alignment_csv(path: str) -> list[dict]:
    rows = _read_columns(path, ("score_index", "time_s"))
    return [{"score_index": int(index),
             "time_s": _finite_time(path, lineno, time_s)}
            for lineno, (index, time_s) in rows]


def write_truth_csv(out: IO[str], score: ScoreSequence,
                    times: Iterable[float], precision=6) -> None:
    out.write("score_index,beat,time_s\n")
    for i, (onset, t) in enumerate(zip(score.onsets, times)):
        out.write(f"{i},{_fmt(onset.beat, precision)},{_fmt(t, precision)}\n")


def read_truth_csv(path: str) -> list[float]:
    return [_finite_time(path, lineno, t)
            for lineno, (t,) in _read_columns(path, ("time_s",))]


def _read_columns(path: str, columns: tuple[str, ...]
                  ) -> list[tuple[int, list[str]]]:
    """(line number, fields of ``columns``) for each non-blank row of a
    CSV with a header line; ValueError, naming the path and the line, on
    a row that lacks one of the columns."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        missing = set(columns) - set(header)
        if missing:
            raise ValueError(f"{path!r}: missing columns {missing}")
        idx = [header.index(name) for name in columns]
        rows = []
        for lineno, line in enumerate(f, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) <= max(idx):
                raise ValueError(f"{path!r} line {lineno}: expected "
                                 f"{len(header)} columns, got {len(fields)}")
            rows.append((lineno, [fields[i] for i in idx]))
    return rows


def _finite_time(path: str, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path!r} line {lineno}: time_s must be a finite "
                         f"number, got {text!r}")
    return value


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
