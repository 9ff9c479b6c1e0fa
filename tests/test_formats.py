"""Feature-CSV I/O in row blocks: the writer formats its blocks in
process into the bytes of one ``%`` per row, whatever the number of cores;
the pooled and the in-process reads give the values of one ``np.loadtxt``,
name a bad row by its line in the file, and leave no worker process behind.
The vectorized ``%g`` kernel gives the bytes of CPython's ``%`` on every
block it formats, and the writer falls back to ``%`` only for a block
holding a value outside the kernel's domain."""

import concurrent.futures
import io
import multiprocessing
import re
import threading
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scoresync import Spectrogram, _gformat, formats

WIDTH = 1 + 7  # the frame column and seven bands


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 16 frames and 512 bytes, so small inputs span several."""
    monkeypatch.setattr(formats, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(formats, "_BLOCK_BYTES", 512)


@pytest.fixture
def pooled(monkeypatch, small_blocks, pools):
    """Two worker processes on any machine; fails a test that does not
    reach the pool."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    monkeypatch.setattr(formats, "_num_workers", lambda n: min(n, 2))
    yield
    assert pools, "the blocks ran in process"


@pytest.fixture
def in_process(monkeypatch, small_blocks):
    monkeypatch.setattr(formats, "_num_workers", lambda n: 1)


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
    def test_two_cores_write_in_process(self, monkeypatch, small_blocks,
                                        pools, precision):
        monkeypatch.setattr(formats, "_num_workers", lambda n: min(n, 2))
        spectrogram = _matrix(85)
        assert _written(spectrogram, precision) == _per_row(spectrogram,
                                                            precision)
        spectrogram.values = spectrogram.values.astype(object)
        spectrogram.values[2, 70] = "not a number"
        with pytest.raises(TypeError):
            _written(spectrogram, precision)
        assert pools == []
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


class TestReader:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("tail", ["", "\n", "\n" * 2000])
    def test_pooled_rows_equal_one_loadtxt(self, pooled, tmp_path, newline,
                                           tail):
        # "" drops the last newline; 2,000 blank lines fill whole blocks
        text = _per_row(_matrix(85), "full")
        path = _csv(tmp_path, text[:-1] + tail, newline)
        values = formats.read_feature_csv(path, 50.0).values
        assert np.array_equal(values, _loadtxt(path))
        assert np.array_equal(values, _matrix(85).values)

    def test_in_process_rows_equal_one_loadtxt(self, in_process, tmp_path):
        path = _csv(tmp_path, _per_row(_matrix(85), 6))
        assert np.array_equal(formats.read_feature_csv(path, 50.0).values,
                              _loadtxt(path))

    def test_block_boundary_on_a_row_end(self, pooled, monkeypatch,
                                         tmp_path):
        text = _per_row(_matrix(85), "full")
        header, *rows = text.splitlines(keepends=True)
        block = len("".join(rows[:3]).encode())
        monkeypatch.setattr(formats, "_BLOCK_BYTES", block)
        path = _csv(tmp_path, text)
        with open(path, "rb") as f:
            start = len(header)
            bounds = formats._row_bounds(f, start)
        # the first block ends exactly where its third row ends
        assert bounds[:2] == [start, start + block]
        assert np.array_equal(formats.read_feature_csv(path, 50.0).values,
                              _loadtxt(path))


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
@pytest.mark.parametrize("paths", ["pooled", "in_process"])
# line 2, the first row, is in block 0, which starts after the header
@pytest.mark.parametrize("line", [2, 80])
def test_bad_row_in_a_late_block_names_its_line(request, tmp_path, edit,
                                                paths, line):
    request.getfixturevalue(paths)
    path = _bad_lines(tmp_path, edit, line)
    with pytest.raises(ValueError,
                       match=re.escape(f"{path!r} line {line}: ")):
        formats.read_feature_csv(path, 50.0)


def test_block_narrower_than_the_header_names_its_first_line(pooled,
                                                             tmp_path):
    # every row of the last blocks is one value short, so those blocks
    # parse on their own and only their width is wrong
    text = _per_row(_matrix(85), "full")
    path = _csv(tmp_path, text)
    with open(path, "rb") as f:
        bounds = formats._row_bounds(f, len(text.splitlines()[0]) + 1)
    head = text.encode()[:bounds[3]]
    tail = text.encode()[bounds[3]:].decode().splitlines()
    with open(path, "wb") as f:
        f.write(head + "".join(row.rsplit(",", 1)[0] + "\n"
                               for row in tail).encode())
    line = head.count(b"\n") + 1
    with pytest.raises(ValueError, match=re.escape(
            f"{path!r} line {line}: expected a row of {WIDTH} "
            f"comma-separated numbers, got {WIDTH - 1} values")):
        formats.read_feature_csv(path, 50.0)


def test_runs_in_process_beside_another_thread(monkeypatch, small_blocks,
                                               tmp_path):
    # a forked child would inherit any lock the other thread holds
    monkeypatch.setattr(formats, "_num_workers", lambda n: min(n, 2))
    # fails if called
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    path = _csv(tmp_path, _per_row(_matrix(85), "full"))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert np.array_equal(formats.read_feature_csv(path, 50.0).values,
                              _matrix(85).values)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


class TestNoWorkerOutlivesTheCall:
    def test_read(self, pooled, tmp_path):
        formats.read_feature_csv(
            _csv(tmp_path, _per_row(_matrix(85), 6)), 50.0)
        assert multiprocessing.active_children() == []

    def test_read_whose_worker_raises(self, pooled, tmp_path):
        path = _bad_lines(tmp_path, _with_field("abc"), 80)
        with pytest.raises(ValueError):
            formats.read_feature_csv(path, 50.0)
        assert multiprocessing.active_children() == []
