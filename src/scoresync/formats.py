"""Delimited-text and JSON serialization of features, alignments, and reports.

Alignment and truth CSVs print their numbers to 6 significant digits.
Feature CSVs do too unless full precision is requested: 17 significant
digits, which round-trip float64 exactly, so a dumped raw spectrogram
reproduces an alignment bit for bit. The band columns of a feature CSV
run up from ``p<midi_low>`` one semitone at a time; no other header reads.
Row t is frame t, and the reader rejects a ``frame`` column that does not
number the rows 0, 1, ..., so a dump with missing or reordered rows
cannot shift the frames after them.

Feature CSVs are written in blocks of ``_BLOCK_ROWS`` frames, in this
process and in order. A block is formatted by ``_gformat``, an exact
vectorized ``%g`` at 6 and 17 significant digits: an integer product of
each mantissa with a power of five, rounded half to even, then one
boolean compress of fixed-width text slots. Its domain is +0.0 and the
positive normal doubles from about 1e-22 (6 digits) or 1e-10 (17
digits) up to 1e6 or 1e15. A block holding any other value (-0.0, a
negative, subnormal or non-finite value) or written at another precision
is formatted by ``_format_rows``, one ``%`` per row, whose bytes the
kernel's equal. Feature CSVs are read in blocks of whole lines: the
reader splits the file at line ends about every ``_BLOCK_BYTES`` bytes,
and each block is read and parsed from its own byte range
(``_parsed_blocks``), so the parent never holds the text. When there are
more than two blocks, more than one core, the ``fork`` start method and
no other thread in the process, the blocks are parsed on a pool of one
forked process per core; otherwise in process. A block that does not
parse names its first bad line by its line in the file, whichever block
it is and wherever it was parsed: only then are its lines parsed one by
one and the lines before it counted (``_parse_range``).

Alignment and truth CSVs carry a ``score_index`` column, and ``eval``
pairs their rows by position, so the readers reject a row whose
``score_index`` is not its 0-based position.
"""

import io
import json
import math
import threading
import warnings
from typing import IO, Iterable, Iterator

import numpy as np

from .dp_align import AlignmentResult
from .filterbank import Spectrogram, _num_workers
from .score import ScoreSequence
from .synth_eval import ERROR_THRESHOLDS_MS, EvalReport

# frames per block of a feature CSV write, about 0.5 MB of full-precision
# text at 88 bands: fewer frames per block add per-block time, and more
# frames raise the peak memory by the formatter's per-block temporaries
_BLOCK_ROWS = 256
# bytes per block of a feature CSV read: about 1,100 frames at full
# precision and 88 bands
_BLOCK_BYTES = 1 << 21


def _feature_header(midi_low: int, num_bands: int) -> str:
    """``frame,p<low>,...,p<low + num_bands - 1>``."""
    return "frame," + ",".join(
        f"p{p}" for p in range(midi_low, midi_low + num_bands))


def _format_rows(line: str, t0: int, rows: np.ndarray) -> str:
    """``line % (t, *row)`` for frames t = t0, t0 + 1, ... and the rows of
    ``rows``, joined; only one row is held as Python floats at a time."""
    return "".join([line % (t, *row.tolist())
                    for t, row in enumerate(rows, t0)])


def write_feature_csv(out: IO[str], spectrogram: Spectrogram,
                      precision=6) -> None:
    """The header of ``_feature_header``, then one row per frame, each
    the bytes of one ``%`` over the whole row, formatted and written
    ``_BLOCK_ROWS`` frames at a time in this process.

    A block whose values all lie in the domain of ``_gformat``, +0.0 and
    positive normal doubles over a range of exponents, is formatted by
    that exact vectorized ``%g``; any other block, such as one holding
    -0.0, a subnormal or a negative value, by ``_format_rows``, whose
    bytes the kernel's equal.
    """
    out.write(_feature_header(spectrogram.midi_low, spectrogram.num_bands)
              + "\n")
    digits = 17 if precision == "full" else int(precision)
    line = ("%d," + ",".join([f"%.{digits}g"] * spectrogram.num_bands)
            + "\n")
    # imported here, not with this module, so that the commands that
    # write no feature CSV do not load it
    from . import _gformat
    values = spectrogram.values
    for t0 in range(0, values.shape[1], _BLOCK_ROWS):
        rows = values[:, t0:t0 + _BLOCK_ROWS].T
        text = _gformat.format_rows(t0, rows, digits)
        out.write(_format_rows(line, t0, rows) if text is None else text)


def _read_range(f, start: int, stop: int) -> bytes:
    f.seek(start)
    return f.read(stop - start)


def _parse_rows(text: bytes, width: int) -> np.ndarray:
    """The rows of the CSV lines ``text``, ``width`` numbers each; blank
    lines are skipped, and any other line that is not such a row is a
    ValueError."""
    with warnings.catch_warnings():
        # lines that are all blank give no rows
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(io.StringIO(text.decode()), delimiter=",",
                          ndmin=2)
    if not len(rows):
        return np.empty((0, width))
    if rows.shape[1] != width:
        raise ValueError(f"expected {width} values, got {rows.shape[1]}")
    return rows


def _parse_range(path: str, start: int, stop: int,
                 width: int) -> np.ndarray:
    """``_parse_rows`` of bytes ``start`` .. ``stop`` of the file, which
    start at a line start. When they do not parse, the ValueError names
    the first of their lines that is not a row of ``width`` numbers by
    its line in the file; the lines are parsed one by one, and the lines
    before ``start`` counted, only on this error path."""
    with open(path, "rb") as f:
        text = _read_range(f, start, stop)
        try:
            return _parse_rows(text, width)
        except ValueError:
            # start is a line start, so the block's first line is 1 plus
            # the newlines before it, counted a block at a time so that no
            # more of the file is held than on the success path
            first = 1 + sum(
                _read_range(f, a, min(a + _BLOCK_BYTES, start)).count(b"\n")
                for a in range(0, start, _BLOCK_BYTES))
    for lineno, line in enumerate(text.split(b"\n"), first):
        try:
            _parse_rows(line, width)
        except ValueError:
            got = len(line.split(b","))
            raise ValueError(
                f"{path!r} line {lineno}: expected a row of {width} "
                f"comma-separated numbers"
                + (f", got {got} values" if got != width else "")) from None
    # every check of a block is a check of its lines, so this is
    # unreachable unless loadtxt disagrees with itself
    raise ValueError(f"{path!r}: the lines from line {first} on do not "
                     f"parse")


def _parsed_blocks(path: str, bounds: list[int],
                   width: int) -> Iterator[np.ndarray]:
    """``_parse_range`` of each block between ``bounds``, in file order.

    With more than two blocks, more than one core (``_num_workers``), the
    ``fork`` start method and no other thread in this process, the blocks
    are parsed on a pool of one forked process per core; otherwise in this
    process. Forking keeps the workers from importing the package again,
    and forking only a single-threaded process keeps them from inheriting
    a lock another thread holds. An exception from a block propagates
    once every worker has exited.
    """
    n = len(bounds) - 1
    args = ([path] * n, bounds[:-1], bounds[1:], [width] * n)
    workers = _num_workers(n)
    if n > 2 and workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            try:
                yield from pool.map(_parse_range, *args)
            finally:
                # joins the workers; after an exception, drops the queued
                # blocks
                pool.shutdown(cancel_futures=True)
            return
    yield from map(_parse_range, *args)


def _row_bounds(f, start: int) -> list[int]:
    """Byte offsets that split the file ``f`` from ``start`` to its end
    into blocks of whole lines, a block ending at the first line end at
    or after every ``_BLOCK_BYTES`` bytes (the last block at the end of
    the file)."""
    size = f.seek(0, io.SEEK_END)
    bounds = [start]
    while bounds[-1] + _BLOCK_BYTES < size:
        f.seek(bounds[-1] + _BLOCK_BYTES - 1)
        f.readline()
        if f.tell() == size:
            break
        bounds.append(f.tell())
    return bounds + [size]


def read_feature_csv(path: str, frame_rate: float) -> Spectrogram:
    """Parse a feature CSV back into a Spectrogram.

    The CSV carries no frame rate, so the effective rate must be supplied.
    ValueError unless it has at least one band column, a header that
    ``_feature_header`` would write with no band past MIDI pitch 127, and
    rows, all as wide as the header, of finite non-negative values, whose
    ``frame`` column numbers them 0, 1, ...: row t is frame t. A line that
    is not such a row is named by its line number in the file.

    The rows are parsed in blocks of whole lines, about ``_BLOCK_BYTES``
    each, which ``_parsed_blocks`` yields in file order, from a pool of
    forked processes or from this one. The parsed blocks are kept and
    joined once. A block that does not parse raises, from the call that
    parsed it (``_parse_range``), the error naming its first bad line.
    """
    with open(path, "rb") as f:
        header = f.readline().decode().strip().split(",")
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
        bounds = _row_bounds(f, f.tell())
    rows = np.concatenate(list(_parsed_blocks(path, bounds, len(header))))
    # a header-only CSV has no rows
    if rows.shape[0] == 0:
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
