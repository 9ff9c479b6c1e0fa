"""Feature-CSV I/O in row blocks: the writer formats its blocks in
process into the bytes of one ``%`` per row. The reader parses its blocks
in process, by scipy's compiled float reader where a block is plain
decimal fields and by ``np.loadtxt`` otherwise or where that kernel is
missing; either way it gives the values of one ``np.loadtxt``, ``float()``
of every field bit for bit, reads a pipe front to back as it reads a
file, and names a bad row by its line in the file.
The vectorized ``%g`` kernel gives the bytes of CPython's ``%`` on every
block it formats, and the writer falls back to ``%`` only for a block
holding a value outside the kernel's domain."""

import io
import multiprocessing
import os
import re
import threading
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scoresync import Spectrogram, _gformat, _scipy, formats

from helpers import HAS_MATRIX_MARKET_KERNEL

WIDTH = 1 + 7  # the frame column and seven bands


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 16 frames and 512 bytes, so small inputs span several."""
    monkeypatch.setattr(formats, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(formats, "_BLOCK_BYTES", 512)


@pytest.fixture
def kernel(small_blocks):
    """scipy's compiled float reader, where this scipy has it; fails
    where scipy has it but it does not load or pass its check."""
    if not HAS_MATRIX_MARKET_KERNEL:
        pytest.skip("no scipy Matrix Market kernel (scipy < 1.12)")
    assert _scipy.array_reader() is not None


@pytest.fixture
def fallback(monkeypatch, small_blocks):
    """Every block parsed by ``np.loadtxt``, as where the kernel is
    missing."""
    monkeypatch.setattr(_scipy, "array_reader", lambda: None)


@pytest.fixture
def block_texts(monkeypatch):
    """The text of every block the reader parses, in order, recorded by
    a spy on ``formats._parse_block``."""
    texts = []
    parse_block = formats._parse_block

    def spy(text, *args):
        texts.append(text)
        return parse_block(text, *args)

    monkeypatch.setattr(formats, "_parse_block", spy)
    return texts


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _matrix(frames):
    rng = np.random.default_rng(3)
    values = rng.lognormal(-2.0, 3.0, size=(WIDTH - 1, frames))
    values[0, 3] = 5e-324  # smallest subnormal
    values[1, 20] = 2.2250738585072014e-308 / 3  # subnormal
    values[2, 40] = 1.7976931348623157e308  # largest finite
    values[3, 41] = 1e300
    values[4, 50:60] = 0.0
    values[:, -1] = 0.0
    return Spectrogram(values=values, frame_rate=50.0, midi_low=60)


def _per_row(spectrogram, precision):
    """The writer's bytes as one ``%`` per row gives them."""
    n = spectrogram.num_bands
    fmt = "%.17g" if precision == "full" else f"%.{precision}g"
    line = "%d," + ",".join([fmt] * n) + "\n"
    return ("frame," + ",".join(f"p{spectrogram.midi_low + r}"
                                for r in range(n)) + "\n"
            + "".join(line % (t, *row.tolist())
                      for t, row in enumerate(spectrogram.values.T)))


def _written(spectrogram, precision):
    out = io.StringIO()
    formats.write_feature_csv(out, spectrogram, precision=precision)
    return out.getvalue()


def _loadtxt(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:].T


def _csv(tmp_path, text, newline="\n"):
    path = tmp_path / "features.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    return str(path)


@pytest.mark.parametrize("precision", [6, "full"])
class TestWriter:
    # 85 frames: five blocks of 16 and a ragged last block of 5
    def test_write_in_process(self, small_blocks, precision):
        spectrogram = _matrix(85)
        assert _written(spectrogram, precision) == _per_row(spectrogram,
                                                            precision)
        spectrogram.values = spectrogram.values.astype(object)
        spectrogram.values[2, 70] = "not a number"
        with pytest.raises(TypeError):
            _written(spectrogram, precision)
        assert multiprocessing.active_children() == []


# values the kernel must format itself, per precision: a little inside
# [1e-22, 1e6) at 6 digits and [1e-10, 1e15) at 17
INSIDE = {6: (2.0 ** -72, 2.0 ** 19), 17: (2.0 ** -33, 2.0 ** 49)}
LARGEST_SUBNORMAL = 2.2250738585072009e-308
SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


def _percent(rows, precision, t0=0):
    line = ("%d," + ",".join([f"%.{precision}g"] * rows.shape[1]) + "\n")
    return formats._format_rows(line, t0, rows)


def _kernel(rows, precision, t0=0):
    """The kernel's bytes for ``rows``, which must equal one ``%`` per
    row; None where it leaves the block to ``%``."""
    rows = np.asarray(rows, dtype=np.float64)
    text = _gformat.format_rows(t0, rows, precision)
    if text is not None:
        assert text == _percent(rows, precision, t0)
    return text


def _inside(x, precision):
    low, high = INSIDE[precision]
    return (x == 0 and not np.signbit(x)) or low <= x < high


def _near_powers_of_ten():
    return [y for j in range(-12, 18) for x in [10.0 ** j]
            for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))]


def _misjudged():
    """Doubles whose ``floor(np.log10(x))`` is not their decimal exponent,
    which the exact value of ``Decimal(x)`` gives."""
    return [x for x in _near_powers_of_ten()
            + [np.nextafter(x, 0) for x in _near_powers_of_ten()]
            if np.floor(np.log10(x)) != Decimal(x).adjusted()]


def _ties(precision):
    """Doubles exactly half-way between two numbers of ``precision``
    significant digits: x * 10**p = n + 1/2 for an integer n of that
    many digits, so 2n + 1 = o * 5**p for an odd o and x = o / 2**(p + 1)."""
    ties = []
    for p in range(25):
        # the least and the greatest o with 2n + 1 of ``precision`` digits
        first = -(-2 * 10 ** (precision - 1) // 5 ** p) | 1
        last = ((2 * 10 ** precision - 1) // 5 ** p - 1) | 1
        ties += [o / 2 ** (p + 1) for o in (first, first + 2, last)
                 if first <= o <= last and o < 2 ** 53]
    return ties


def _bit_patterns(rng, shape, biased_exponents):
    """Positive normal doubles of random mantissas, their biased binary
    exponents drawn from the range ``biased_exponents``."""
    mantissa = rng.integers(0, 1 << 52, size=shape, dtype=np.uint64)
    exponent = rng.integers(*biased_exponents, size=shape).astype(np.uint64)
    return (mantissa | (exponent << np.uint64(52))).view(np.float64)


@pytest.mark.parametrize("precision", [6, 17])
class TestKernel:
    def test_edge_values(self, precision):
        edges = [0.0, -0.0, 5e-324, LARGEST_SUBNORMAL, SMALLEST_NORMAL,
                 LARGEST, np.inf, np.nan, -1.0]
        edges += [0.5 * 10.0 ** -k for k in range(12)]
        for x in edges + _near_powers_of_ten():
            text = _kernel([[x]], precision)
            if _inside(x, precision):
                assert text is not None, x
            if (np.signbit(x) or not np.isfinite(x)
                    or 0 < x < SMALLEST_NORMAL):
                assert text is None, x

    def test_misjudged_decimal_exponents(self, precision):
        misjudged = [x for x in _misjudged() if _inside(x, precision)]
        assert misjudged
        assert _kernel([misjudged], precision) is not None

    def test_half_way_ties_round_to_even(self, precision):
        ties = _ties(precision)
        assert len(ties) > 20
        for x in ties:
            scaled = Decimal(x).scaleb(precision - 1 - Decimal(x).adjusted())
            assert scaled % 1 == Decimal("0.5")
        assert _kernel([ties], precision) is not None

    def test_random_bit_patterns(self, precision):
        rng = np.random.default_rng(precision)
        low, high = (np.frexp(b)[1] + 1022 for b in INSIDE[precision])
        for t0 in range(0, 50 * 32, 32):
            rows = _bit_patterns(rng, (32, 16), (low, high))
            rows[rng.random(rows.shape) < 0.05] = 0.0
            assert _kernel(rows, precision, t0) is not None
        # any bit pattern: the kernel formats the block exactly or leaves it
        for t0 in range(0, 50 * 4, 4):
            _kernel(np.frombuffer(rng.bytes(8 * 16), np.float64)
                    .reshape(4, 4), precision, t0)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_inside(self, precision, data):
        low, high = INSIDE[precision]
        rows = data.draw(arrays(
            np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
            elements=st.one_of(st.just(0.0), st.floats(
                low, high, exclude_max=True))))
        t0 = data.draw(st.integers(0, 10 ** 5))
        assert _kernel(rows, precision, t0) is not None

    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 3),
                                             st.integers(1, 4))))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_any_double(self, precision, rows):
        _kernel(rows, precision)


class TestFallback:
    """Which blocks reach ``_format_rows``: a kernel that always fell back
    would pass every test of the bytes."""

    @pytest.fixture
    def fallbacks(self, monkeypatch, small_blocks):
        calls = []
        format_rows = formats._format_rows

        def spy(line, t0, rows):
            calls.append(t0)
            return format_rows(line, t0, rows)

        monkeypatch.setattr(formats, "_format_rows", spy)
        return calls

    @staticmethod
    def _ordinary(frames):
        # positive values over four decades, as a raw spectrogram holds
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-5, -0.5, size=(WIDTH - 1, frames))
        return Spectrogram(values=values, frame_rate=50.0, midi_low=60)

    @pytest.mark.parametrize("precision", [6, "full"])
    def test_ordinary_values_never_fall_back(self, fallbacks, precision):
        spectrogram = self._ordinary(85)
        assert _written(spectrogram, precision) == _per_row(spectrogram,
                                                            precision)
        assert fallbacks == []

    @pytest.mark.parametrize("precision", [6, "full"])
    @pytest.mark.parametrize("odd", [-0.0, 5e-324])
    def test_block_with_one_odd_value_falls_back(self, fallbacks,
                                                 precision, odd):
        spectrogram = self._ordinary(85)
        spectrogram.values[3, 40] = odd  # in the block of frames 32..47
        assert _written(spectrogram, precision) == _per_row(spectrogram,
                                                            precision)
        assert fallbacks == [32]


READ_PATHS = pytest.mark.parametrize("paths", ["kernel", "fallback"])
# fields that scipy's reader would read as a prefix, or not at all, and
# some np.loadtxt reads
PITFALLS = ["1.2.3", "1.5x", "1e", "0x10", "1-2", "1e+", ".5", "5.", "e5",
            "1E5", " 1", "nan", "inf", "-0", "+1", "1e--2", "1.e5"]


@READ_PATHS
class TestReader:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("tail", ["", "\n", "\n" * 2000])
    def test_rows_equal_one_loadtxt(self, request, paths, tmp_path, newline,
                                    tail):
        request.getfixturevalue(paths)
        # "" drops the last newline; 2,000 blank lines fill whole blocks
        text = _per_row(_matrix(85), "full")
        path = _csv(tmp_path, text[:-1] + tail, newline)
        values = formats.read_feature_csv(path, 50.0).values
        assert np.array_equal(values, _loadtxt(path))
        assert np.array_equal(values, _matrix(85).values)

    def test_default_precision_rows_equal_one_loadtxt(self, request, paths,
                                                      tmp_path):
        request.getfixturevalue(paths)
        path = _csv(tmp_path, _per_row(_matrix(85), 6))
        assert np.array_equal(formats.read_feature_csv(path, 50.0).values,
                              _loadtxt(path))

    def test_block_boundary_on_a_row_end(self, request, paths, monkeypatch,
                                         tmp_path, block_texts):
        request.getfixturevalue(paths)
        text = _per_row(_matrix(85), "full")
        header, *rows = text.encode().splitlines(keepends=True)
        block = len(b"".join(rows[:3]))
        monkeypatch.setattr(formats, "_BLOCK_BYTES", block)
        path = _csv(tmp_path, text)
        values = formats.read_feature_csv(path, 50.0).values
        # the first block's read ends exactly where its third row ends, so
        # the line it finishes is the whole fourth row
        assert block_texts[0] == b"".join(rows[:4])
        assert b"".join(block_texts) == b"".join(rows)
        assert np.array_equal(values, _loadtxt(path))


class TestKernelRead:
    """The compiled reader's values are ``float()``'s, it takes every
    block the writer makes, and the check in front of it declines every
    block it would read otherwise than ``np.loadtxt``: it reads a
    number's longest valid prefix and drops the rest of its line."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch, kernel):
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("precision", [6, "full"])
    def test_every_block_of_a_dump_takes_the_kernel(self, loadtxt_calls,
                                                    tmp_path, precision,
                                                    block_texts):
        path = _csv(tmp_path, _written(_matrix(85), precision))
        values = formats.read_feature_csv(path, 50.0).values
        assert len(block_texts) >= 5
        assert loadtxt_calls == []
        assert np.array_equal(values, _loadtxt(path))
        assert values.flags.c_contiguous
        if precision == "full":
            assert np.array_equal(_bits(values), _bits(_matrix(85).values))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_values_are_float_of_every_field(self, kernel, tmp_path, data):
        extremes = st.sampled_from([0.0, 5e-324, LARGEST_SUBNORMAL,
                                    SMALLEST_NORMAL, LARGEST, 1e300,
                                    2.2250738585072014e-308 / 3])
        values = data.draw(arrays(
            np.float64, st.tuples(st.integers(1, 5), st.integers(1, 60)),
            elements=st.one_of(extremes, st.floats(
                0.0, LARGEST, allow_subnormal=True))))
        precision = data.draw(st.sampled_from([6, "full"]))
        text = _written(Spectrogram(values=values, frame_rate=50.0,
                                    midi_low=40), precision)
        path = _csv(tmp_path, text)
        expected = [[float(x) for x in line.split(",")[1:]]
                    for line in text.splitlines()[1:]]
        assert np.array_equal(
            _bits(formats.read_feature_csv(path, 50.0).values),
            _bits(expected).T)

    def test_single_byte_edits_decline_or_equal_loadtxt(self, kernel):
        text = _per_row(_matrix(85), "full").encode()
        # frames 3, 40, 41 and 50: a subnormal, the largest double, 1e300
        # and zeros, so the block holds every kind of byte a field can
        lines = text.splitlines(keepends=True)
        block = b"".join(lines[1 + t] for t in (3, 40, 41, 50))
        declined = 0
        for at in range(len(block)):
            for byte in b".e-+,\n x":
                edited = block[:at] + bytes([byte]) + block[at + 1:]
                columns = formats._kernel_columns(edited, WIDTH)
                if columns is None:
                    declined += 1
                    continue
                rows = np.loadtxt(io.StringIO(edited.decode()),
                                  delimiter=",", ndmin=2)
                assert np.array_equal(_bits(columns), _bits(rows.T)), edited
        # most edits break a field
        assert declined > len(block) * 4

    @pytest.mark.parametrize("field", PITFALLS)
    @pytest.mark.parametrize("column", [0, 4])
    def test_kernel_prefix_pitfalls_are_declined(self, kernel, field,
                                                 column):
        # column 0 of the first line is the first byte of the block
        lines = _per_row(_matrix(85), "full").encode().splitlines(
            keepends=True)[1:4]
        fields = lines[0].split(b",")
        fields[column] = field.encode()
        lines[0] = b",".join(fields)
        assert formats._kernel_columns(b"".join(lines), WIDTH) is None

    @pytest.mark.parametrize("field", PITFALLS)
    def test_pitfalls_read_as_loadtxt_reads_them(self, kernel, tmp_path,
                                                 field):
        path = _bad_lines(tmp_path, _with_field(field), 5)
        try:
            expected = _loadtxt(path)
        except ValueError:
            with pytest.raises(ValueError, match=re.escape(
                    f"{path!r} line 5: ")):
                formats.read_feature_csv(path, 50.0)
            return
        if not (np.all(np.isfinite(expected)) and np.all(expected >= 0)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                formats.read_feature_csv(path, 50.0)
            return
        assert np.array_equal(
            _bits(formats.read_feature_csv(path, 50.0).values),
            _bits(expected))

    def test_lines_that_are_not_whole_rows_are_declined(self, kernel):
        lines = _per_row(_matrix(85), "full").encode().splitlines(
            keepends=True)[1:4]
        # one line a value long and the next a value short: the block
        # holds as many values as three rows
        ragged = list(lines)
        ragged[0] = ragged[0][:-1] + b",0.5\n"
        ragged[1] = ragged[1].rsplit(b",", 1)[0] + b"\n"
        text = b"".join(lines)
        for block in [b"".join(ragged), text[:-1], text + b"\n", b""]:
            assert formats._kernel_columns(block, WIDTH) is None


def _bad_lines(tmp_path, edit, line):
    """A CSV of 85 frames with ``edit`` applied to file line ``line``."""
    lines = _per_row(_matrix(85), "full").splitlines()
    lines[line - 1] = edit(lines[line - 1])
    return _csv(tmp_path, "\n".join(lines) + "\n")


def _with_field(value):
    def edit(row):
        fields = row.split(",")
        fields[4] = value
        return ",".join(fields)
    return edit


@pytest.mark.parametrize("edit", [_with_field("abc"), _with_field(""),
                                  lambda row: row.rsplit(",", 1)[0],
                                  lambda row: row + ",0.5"],
                         ids=["word", "empty", "short", "long"])
@READ_PATHS
# line 2, the first row, is in block 0, which starts after the header
@pytest.mark.parametrize("line", [2, 80])
def test_bad_row_in_a_late_block_names_its_line(request, tmp_path, edit,
                                                paths, line):
    request.getfixturevalue(paths)
    path = _bad_lines(tmp_path, edit, line)
    with pytest.raises(ValueError,
                       match=re.escape(f"{path!r} line {line}: ")):
        formats.read_feature_csv(path, 50.0)


@READ_PATHS
def test_block_narrower_than_the_header_names_its_first_line(request, paths,
                                                             tmp_path,
                                                             block_texts):
    request.getfixturevalue(paths)
    # every row of the last blocks is one value short, so those blocks
    # parse on their own and only their width is wrong
    text = _per_row(_matrix(85), "full")
    path = _csv(tmp_path, text)
    formats.read_feature_csv(path, 50.0)
    assert len(block_texts) > 3
    # the header and the first three blocks, which the edit leaves alone
    head = text.encode()[:len(text.splitlines()[0]) + 1
                         + len(b"".join(block_texts[:3]))]
    tail = text.encode()[len(head):].decode().splitlines()
    with open(path, "wb") as f:
        f.write(head + "".join(row.rsplit(",", 1)[0] + "\n"
                               for row in tail).encode())
    line = head.count(b"\n") + 1
    with pytest.raises(ValueError, match=re.escape(
            f"{path!r} line {line}: expected a row of {WIDTH} "
            f"comma-separated numbers, got {WIDTH - 1} values")):
        formats.read_feature_csv(path, 50.0)


@READ_PATHS
@pytest.mark.parametrize("block", [512, 16], ids=["blocks", "below_a_line"])
def test_line_numbers_count_blank_lines_loadtxt_skips(request, paths,
                                                      monkeypatch, tmp_path,
                                                      block):
    request.getfixturevalue(paths)
    monkeypatch.setattr(formats, "_BLOCK_BYTES", block)
    # three blank lines after file line 3, in the first block: np.loadtxt
    # gives no row for them, but the file lines after them count them
    lines = _per_row(_matrix(85), "full").splitlines()
    lines[3:3] = [""] * 3
    path = _csv(tmp_path, "\n".join(lines) + "\n")
    assert np.array_equal(formats.read_feature_csv(path, 50.0).values,
                          _matrix(85).values)
    line = 75
    lines[line - 1] = _with_field("x")(lines[line - 1])
    path = _csv(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path!r} line {line}: expected a row of {WIDTH} "
            f"comma-separated numbers")):
        formats.read_feature_csv(path, 50.0)


def _read_from_pipe(data):
    """``read_feature_csv`` of ``/dev/fd/<n>``, the read end of a pipe
    that a thread fills with ``data``."""
    r, w = os.pipe()

    def write():
        try:
            with open(w, "wb") as f:
                f.write(data)
        except BrokenPipeError:
            pass  # the reader stopped before the end

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return formats.read_feature_csv(f"/dev/fd/{r}", 50.0)
    finally:
        # with no read end left open, a blocked writer gets EPIPE
        os.close(r)
        writer.join(timeout=60)
        assert not writer.is_alive()


@READ_PATHS
def test_read_from_a_pipe(request, paths, tmp_path):
    request.getfixturevalue(paths)
    text = _per_row(_matrix(85), "full")
    expected = formats.read_feature_csv(_csv(tmp_path, text), 50.0).values
    assert np.array_equal(_read_from_pipe(text.encode()).values, expected)
    # a block is 512 bytes and the rest of a line, and a line about 170
    # bytes, so line 80 is many blocks in
    line = 80
    lines = text.splitlines()
    lines[line - 1] = _with_field("x")(lines[line - 1])
    with pytest.raises(ValueError, match=r"'/dev/fd/\d+' line "
                                         rf"{line}: expected a row of "):
        _read_from_pipe(("\n".join(lines) + "\n").encode())
