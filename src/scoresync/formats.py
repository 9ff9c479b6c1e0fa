"""Delimited-text and JSON serialization of features, alignments, and reports.

Alignment and truth CSVs print their numbers to 6 significant digits.
Feature CSVs do too unless full precision is requested: 17 significant
digits, which round-trip float64 exactly, so a dumped raw spectrogram
reproduces an alignment bit for bit. The band columns of a feature CSV
run up from ``p<midi_low>`` one semitone at a time; no other header reads.
Row t is frame t, and the reader rejects a ``frame`` column that does not
number the rows 0, 1, ..., so a dump with missing or reordered rows
cannot shift the frames after them.

A feature CSV states its own frame rate and length on the line before its
header, ``# frame_rate=<repr of the rate> frames=<frame count>``, so the
reader takes the rate from the file and rejects a file whose rows run out
before, or go on past, the frames it states: a dump cut short, such as
the head of a pipe, fails instead of aligning. A CSV without that line,
such as one written by hand, is read at the rate the caller passes.
Readers that do not skip ``#`` lines, such as pandas, need
``comment="#"``; ``np.loadtxt`` skips them by default.

Feature CSVs are written in blocks of ``_BLOCK_ROWS`` frames, in this
process and in order. A block is formatted by ``_gformat``, an exact
vectorized ``%g`` at 6 and 17 significant digits: an integer product of
each mantissa with a power of five, rounded half to even, then one
boolean compress of fixed-width text slots. Its domain is +0.0 and the
positive normal doubles from about 1e-22 (6 digits) or 1e-10 (17
digits) up to 1e6 or 1e15. A block holding any other value (-0.0, a
negative, subnormal or non-finite value) or written at another precision
is formatted by ``_format_rows``, one ``%`` per row, whose bytes the
kernel's equal.

Feature CSVs are read in this process, front to back in one loop over
blocks of whole lines: a block is the next ``_BLOCK_BYTES`` bytes and the
rest of the line they end in, so the reader never holds the whole text,
never seeks, and reads a pipe as it reads a file. A block whose lines
are all ``width`` fields of the form ``digits[.digits][e[+-]digits]``,
each line ending in a newline, which one vectorized pass over its
non-digit bytes checks and counts (``_plain_rows``), is parsed by scipy's
compiled, correctly rounded float reader (``_scipy.array_reader``) into
one column per line, so the band rows come out contiguous. That kernel
reads a number's longest valid prefix and drops the rest of its line, so
the check is what keeps its values those of ``np.loadtxt``. Any other
block (blank lines, spaces, CRLF line ends, signs, ``nan``, a bad line),
and every block where scipy lacks the kernel (scipy < 1.12), is parsed
by ``np.loadtxt``, and its newlines counted. The loop carries each
block's first line number, so a block that does not parse names its
first bad line by its line in the file, whichever block it is: only then
are its lines parsed one by one (``_parse_block``).

Alignment and truth CSVs carry a ``score_index`` column, and ``eval``
pairs their rows by position, so the readers reject a row whose
``score_index`` is not its 0-based position.
"""

import io
import json
import math
import warnings
from typing import IO, Iterable

import numpy as np

from . import _scipy
from .dp_align import AlignmentResult
from .filterbank import Spectrogram
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
    """The line ``# frame_rate=<rate> frames=<count>`` that states the
    spectrogram's rate and frame count, the header of ``_feature_header``,
    then one row per frame, each the bytes of one ``%`` over the whole
    row, formatted and written ``_BLOCK_ROWS`` frames at a time in this
    process.

    A block whose values all lie in the domain of ``_gformat``, +0.0 and
    positive normal doubles over a range of exponents, is formatted by
    that exact vectorized ``%g``; any other block, such as one holding
    -0.0, a subnormal or a negative value, by ``_format_rows``, whose
    bytes the kernel's equal.
    """
    out.write(f"# frame_rate={float(spectrogram.frame_rate)!r} "
              f"frames={spectrogram.num_frames}\n"
              + _feature_header(spectrogram.midi_low, spectrogram.num_bands)
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


# the rank of each byte that is not a digit in a field of a feature CSV
# line: 0 for a field's end, 1 for its decimal point, 2 for its exponent
# mark, 3 for the exponent's sign and 4 for a byte that has no place there
_RANK = np.full(256, 4, dtype=np.uint8)
_RANK[np.frombuffer(b",\n.e+-", np.uint8)] = [0, 0, 1, 2, 3, 3]


def _plain_rows(text: bytes, width: int) -> int | None:
    """The number of lines of ``text`` if every line ends in a newline and
    is ``width`` comma-separated fields ``digits[.digits][e[+-]digits]``;
    else None.

    Checked over the bytes that are not digits, in order: the text starts
    with a digit; no two of them are adjacent except an exponent mark and
    its sign; a field's decimal point comes first among them and its
    exponent mark before any other; and the newlines are the field ends
    numbered ``width``, ``2 * width``, ...
    """
    b = np.frombuffer(text, dtype=np.uint8)
    if not len(b) or b[-1] != ord("\n"):
        return None
    # the digits are the only bytes that wrap to 0 .. 9
    at = np.flatnonzero(b - np.uint8(ord("0")) > 9)
    c = b.take(at)
    rank = _RANK.take(c)
    adjacent = np.diff(at) == 1
    signed = rank[1:] == 3
    # the field ends up to each newline, that one included
    ends = np.cumsum(rank == 0)[np.flatnonzero(c == ord("\n"))]
    if (at[0] == 0 or rank.max() == 4 or rank[0] == 3
            or np.any(adjacent & ((rank[:-1] != 2) | ~signed))
            or np.any(signed & ~adjacent)
            # within a field, a point or a mark after any other such byte
            or np.any((rank[1:] > 0) & (rank[1:] <= rank[:-1]))
            or not np.array_equal(
                ends, np.arange(width, width * len(ends) + 1, width))):
        return None
    return len(ends)


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


def _kernel_columns(text: bytes, width: int) -> np.ndarray | None:
    """The ``(width, lines)`` values of the CSV lines ``text``, read by
    ``_scipy.array_reader`` if that kernel is loaded and ``_plain_rows``
    accepts the text (checked only then); else None. Each value is the
    double ``float()`` gives for its field, as ``np.loadtxt`` reads it."""
    read = _scipy.array_reader()
    rows = None if read is None else _plain_rows(text, width)
    if rows is None:
        return None
    return read(text.replace(b",", b"\n"), (width, rows))


def _parse_block(text: bytes, width: int, path: str,
                 first: int) -> tuple[np.ndarray, int]:
    """The ``(width, lines)`` values of the CSV lines ``text``, whose first
    line is line ``first`` of the file at ``path``, and the number of
    newlines in ``text``: by ``_kernel_columns``, else by ``_parse_rows``.
    When they do not parse, the ValueError names the first of their lines
    that is not a row of ``width`` numbers by its line in the file; the
    lines are parsed one by one only on this error path."""
    columns = _kernel_columns(text, width)
    if columns is not None:
        # _plain_rows took every line, each ending in a newline, as a row
        return columns, columns.shape[1]
    try:
        # loadtxt skips blank lines, so its rows do not count the lines
        return _parse_rows(text, width).T, text.count(b"\n")
    except ValueError:
        pass
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


def _decoded(line: bytes, path: str, lineno: int) -> str:
    """Line ``lineno`` of the file at ``path`` as UTF-8 text; a ValueError
    naming the path and the line if it is not."""
    try:
        return line.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path!r} line {lineno}: {exc}") from None


def _stated(line: bytes, path: str) -> tuple[float, int]:
    """The frame rate and the frame count that ``line``, line 1 of the
    feature CSV at ``path``, states as ``# frame_rate=<rate>
    frames=<count>``; a ValueError naming the line if it lacks either key,
    or its rate is not a finite positive number or its count not a
    non-negative integer."""
    text = _decoded(line, path, 1).strip()
    fields = dict(pair.partition("=")[::2] for pair in text[1:].split())
    try:
        rate, frames = float(fields["frame_rate"]), fields["frames"]
        if math.isfinite(rate) and rate > 0 and frames.isdecimal():
            return rate, int(frames)
    except (KeyError, ValueError):
        pass
    raise ValueError(f"{path!r} line 1: expected '# frame_rate=<rate> "
                     f"frames=<count>', got {text!r}")


def read_feature_csv(path: str, frame_rate: float) -> Spectrogram:
    """Parse a feature CSV back into a Spectrogram.

    A CSV whose line 1 starts with ``#`` must state its rate and frame
    count there (``_stated``), as ``write_feature_csv`` writes them: it is
    read at that rate, and a ValueError names both counts unless exactly
    that many rows follow its header. A CSV without that line, whose
    header is line 1, is read at ``frame_rate``.
    ValueError unless it has at least one band column, a UTF-8 header that
    ``_feature_header`` would write with no band past MIDI pitch 127, and
    rows, all as wide as the header, of finite non-negative values, whose
    ``frame`` column numbers them 0, 1, ...: row t is frame t. A line that
    is not such a row is named by its line number in the file.

    The rows are read in this process front to back, with no seek, so
    ``path`` may be a pipe such as ``/dev/stdin``: each block is the next
    ``_BLOCK_BYTES`` bytes and the rest of the line they end in. A block
    of plain decimal fields is parsed by scipy's compiled float reader,
    and any other block, or every block where that reader is missing, by
    ``np.loadtxt``; both give each field the double ``float()`` gives it.
    The values come back as one column per frame, joined once, so the
    band rows of ``values`` are contiguous. A block that does not parse
    raises, from the call that parsed it (``_parse_block``), the error
    naming its first bad line by the line number the loop carries.
    """
    with open(path, "rb") as f:
        line, stated = f.readline(), None
        if line.startswith(b"#"):
            (frame_rate, stated), line = _stated(line, path), f.readline()
        # the rows start on the line after the header
        first = 2 if stated is None else 3
        header = _decoded(line, path, first - 1).strip().split(",")
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
        # a header-only CSV has no columns
        columns = [np.empty((len(header), 0))]
        while True:
            # the next _BLOCK_BYTES bytes and the rest of the line they end
            # in, in one buffer that the line extends in place: joining two
            # bytes objects would copy the block into a new allocation
            text = bytearray(_BLOCK_BYTES)
            del text[f.readinto(text):]
            text += f.readline()
            if not text:
                break
            block, lines = _parse_block(text, len(header), path, first)
            columns.append(block)
            first += lines
            # dropped now, so that the next read does not hold it too
            del text
    # joined in place of the list of blocks, so that the checks below
    # do not hold the values twice
    columns = np.concatenate(columns, axis=1)
    if columns.shape[1] == 0:
        raise ValueError(f"{path!r}: expected frame rows of {len(header)} "
                         f"values after the header")
    frames = columns[0]
    wrong = np.flatnonzero(frames != np.arange(len(frames)))
    if wrong.size:
        t = int(wrong[0])
        raise ValueError(f"{path!r}: frames must run 0, 1, ... one per row, "
                         f"but row {t} holds frame {frames[t]:g}")
    if stated is not None and len(frames) != stated:
        raise ValueError(f"{path!r}: line 1 states {stated} frames, but "
                         f"{len(frames)} rows follow the header")
    values = columns[1:]
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

    ValueError, naming the path and the line, on a line that is not
    UTF-8 text, a row that lacks a column, whose ``time_s`` is not a
    finite number, or whose ``score_index`` is not its 0-based position:
    rows are paired with the score by position.
    """
    with open(path, "rb") as f:
        # the lines open(path) would give, each decoded on its own so
        # that one that is not UTF-8 is named by its line
        lines = iter(f.read().splitlines())
        header = _decoded(next(lines, b""), path, 1).strip().split(",")
        missing = {"score_index", "time_s"} - set(header)
        if missing:
            raise ValueError(f"{path!r}: missing columns {missing}")
        index_col = header.index("score_index")
        time_col = header.index("time_s")
        times = []
        for lineno, line in enumerate(lines, start=2):
            fields = _decoded(line, path, lineno).strip().split(",")
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
