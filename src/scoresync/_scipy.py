"""scipy's filter, WAV and float-reading code, reached without importing
``scipy.signal``, ``scipy.ndimage`` or ``scipy.io``.

Importing any module of ``scipy.signal`` runs the package ``__init__``,
which imports ``scipy.stats``, ``sparse``, ``linalg``, ``special`` and
``ndimage``: about 1.2 s on top of numpy, more than a whole ``align`` call.
The front end needs little of it:

- ``lfilter``, whose float64 path with a denominator of two or more
  coefficients is the C kernel ``_sigtools._linear_filter``;
- ``resample_poly``, a few lines of padding and slicing around the Cython
  kernel ``_upfirdn_apply._apply``, with the lowpass that ``firwin``
  designs with a Kaiser window (``firwin_kaiser``, ported here with
  Cephes' ``i0``, so ``scipy.special`` is not needed either);
- ``scipy/io/wavfile.py``, which imports only numpy and the standard
  library.

So this module finds scipy with ``importlib.util.find_spec("scipy")``,
which runs no package code, and loads those two extension modules and
that source file by file location, registered as ``scoresync._sigtools``,
``scoresync._upfirdn_apply`` and ``scoresync._wavfile``. (The Cython
module also registers itself under its own name; ``_load`` takes that
entry out again, so a later ``import scipy.signal`` binds it to its
package.) Both kernels are private scipy API, so at load
time they filter an impulse and upfirdn ``[1, 2, 3]`` by ``[1, 1]`` and
must give the known values. If locating or loading a module fails, or the
check does, the public ``scipy.signal`` or ``scipy.io.wavfile`` functions
are bound instead: the same values, at the old import cost.

``array_reader`` loads, on its first call, a fourth module:
``scipy/io/_fast_matrix_market/_fmm_core`` (scipy 1.12 and later), whose
compiled Matrix Market reader parses decimal text with fast_float's
correctly rounded Eisel-Lemire method (Lemire, *Number Parsing at a
Gigabyte per Second*, Software: Practice and Experience, 2021), so it
gives ``float()``'s double for every decimal string. It is a pybind11
module, which registers its types once per process: loaded under a name
of its own, it would make a later ``scipy.io.mmread`` fail to import it
again ("type ... is already registered"). So it is registered under its
canonical name, ``scipy.io._fast_matrix_market._fmm_core``, still without
importing its packages, and an entry scipy has already made there is used
as it is. At load it must read known hard strings (subnormals, halfway
cases, overflow to inf) as ``float()`` does; if it cannot be loaded or
the check fails, ``array_reader`` gives None and the caller parses the
text itself.

``forward_extremum`` takes the place of ``scipy.ndimage``'s
``minimum_filter1d`` and ``maximum_filter1d`` over forward windows.
"""

import functools
import importlib.machinery
import importlib.util
import io
import math
import os
import sys

import numpy as np

# Chebyshev coefficients of Cephes' i0: exp(-x) i0(x) on [0, 8]
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761)


def _chbevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes' Clenshaw recurrence for a Chebyshev series, elementwise."""
    b0 = np.full_like(x, coefficients[0])
    b1 = np.zeros_like(x)
    for c in coefficients[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def i0(x) -> np.ndarray:
    """Modified Bessel function of order 0 for ``|x| <= 8``, equal to
    ``scipy.special.i0`` float for float: Cephes' Chebyshev branch for
    that range with the same operations, and ``exp`` from the C library
    per element (numpy's own ``exp`` can differ in the last bit). Kaiser
    windows of beta up to 8 need no more; ValueError past 8."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    if np.any(x > 8.0):
        raise ValueError("i0 is implemented for |x| <= 8 only")
    out = np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return out * _chbevl(x / 2.0 - 2.0, _I0_A)


def firwin_kaiser(numtaps: int, cutoff: float, beta: float) -> np.ndarray:
    """Lowpass FIR equal to ``scipy.signal.firwin(numtaps, cutoff,
    window=("kaiser", beta))`` for odd ``numtaps`` and ``0 < cutoff < 1``
    (of Nyquist): the windowed sinc scaled to unit gain at DC, with the
    window ``kaiser(numtaps, beta)``, each step taken as scipy takes it."""
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(0, numtaps, dtype=np.float64) - alpha
    h = cutoff * np.sinc(cutoff * m)
    window = i0(beta * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(beta)
    h *= window
    # the cosine scipy weights the sum with is 1 at DC
    h /= np.sum(h)
    return h


def _pad_h(h: np.ndarray, up: int) -> np.ndarray:
    """upfirdn's layout of the filter: one flipped row per phase."""
    h_full = np.zeros(len(h) + (-len(h) % up))
    h_full[:len(h)] = h
    return np.ascontiguousarray(h_full.reshape(-1, up).T[:, ::-1].ravel())


def _private_filters(sigtools, upfirdn):
    """``(lfilter, resampler)`` on the two kernels themselves."""
    linear_filter, apply, output_len = (
        sigtools._linear_filter, upfirdn._apply, upfirdn._output_len)
    constant = upfirdn.mode_enum("constant")

    def lfilter(b, a, x, zi):
        return linear_filter(b, a, x, -1, zi)

    def resampler(fir, up, down):
        # resample_poly's steps that do not depend on the signal: scale,
        # pre-pad so that the output samples sit at the center, transpose;
        # its post-pad is empty for any filter of at least max(up, down)
        # taps each side of the center, as here
        half_len = (len(fir) - 1) // 2
        pre_pad = down - half_len % down
        pre_remove = (half_len + pre_pad) // down
        h = np.concatenate((np.zeros(pre_pad), fir * up))
        phases = _pad_h(h, up)

        def resample(x):
            n_out = -(-len(x) * up // down)
            out = np.zeros(output_len(len(h), len(x), up, down))
            apply(np.asarray(x, dtype=np.float64), phases, out, up, down, 0,
                  constant, 0)
            return out[pre_remove:pre_remove + n_out]
        return resample

    return lfilter, resampler


def _public_filters():
    """``(lfilter, resampler)`` on the public ``scipy.signal``."""
    from scipy import signal

    def lfilter(b, a, x, zi):
        return signal.lfilter(b, a, x, zi=zi)

    def resampler(fir, up, down):
        def resample(x):
            return signal.resample_poly(x, up, down, window=fir)
        return resample

    return lfilter, resampler


def _kernels_pass_check(sigtools, upfirdn) -> bool:
    """Whether the kernels give known values: an impulse through a
    one-pole lowpass, from a zero state, and upfirdn of ``[1, 2, 3]`` by
    ``[1, 1]``."""
    y, zf = sigtools._linear_filter(
        np.array([1.0, 0.0]), np.array([1.0, -0.5]),
        np.array([1.0, 0.0, 0.0, 0.0]), -1, np.zeros(1))
    out = np.zeros(upfirdn._output_len(2, 3, 1, 1))
    upfirdn._apply(np.array([1.0, 2.0, 3.0]), _pad_h(np.ones(2), 1), out,
                   1, 1, 0, upfirdn.mode_enum("constant"), 0)
    return (y.tolist() == [1.0, 0.5, 0.25, 0.125] and zf.tolist() == [0.0625]
            and out.tolist() == [1.0, 3.0, 5.0, 3.0])


def _load(subpackage: str, name: str, suffixes: list[str],
          canonical: bool = False):
    """scipy's ``subpackage.name`` module, from the first file with one of
    ``suffixes``, loaded by file location and registered as
    ``scoresync._name`` (or, if ``canonical``, under its own name, where
    an entry already there is returned as it is), without running any
    ``__init__`` of scipy's packages; ImportError if there is no such file.

    A Cython module also registers itself under its own name while it
    loads. That entry is removed again unless it was there before: a later
    ``import scipy.signal`` would find the module in ``sys.modules`` and
    so never bind it as an attribute of its package.
    """
    own_name = f"scipy.{subpackage}.{name}"
    registered = own_name in sys.modules
    if canonical and registered:
        return sys.modules[own_name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    for suffix in suffixes:
        path = os.path.join(spec.submodule_search_locations[0],
                            *subpackage.split("."), name + suffix)
        if os.path.isfile(path):
            module_spec = importlib.util.spec_from_file_location(
                own_name if canonical
                else f"{__package__}._{name.lstrip('_')}", path)
            module = importlib.util.module_from_spec(module_spec)
            sys.modules[module_spec.name] = module
            try:
                module_spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[module_spec.name]
                raise
            finally:
                if not registered and not canonical:
                    sys.modules.pop(own_name, None)
            return module
    raise ImportError(f"scipy/{subpackage.replace('.', '/')}/{name} "
                      f"not found")


# what a missing, moved or changed private module or kernel can raise
_LOAD_ERRORS = (ImportError, OSError, AttributeError, TypeError, ValueError,
                RuntimeError)


def _bind_filters():
    """The private kernels if they load and pass the check, else the
    public ``scipy.signal`` functions."""
    try:
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        kernels = [_load("signal", name, suffixes)
                   for name in ("_sigtools", "_upfirdn_apply")]
        if _kernels_pass_check(*kernels):
            return _private_filters(*kernels)
    except _LOAD_ERRORS:
        pass
    return _public_filters()


def _bind_wavfile():
    """scipy's ``wavfile`` module, loaded on its own if it can be, else
    through ``scipy.io``."""
    try:
        return _load("io", "wavfile", [".py"])
    except _LOAD_ERRORS:
        from scipy.io import wavfile
        return wavfile


# decimal strings a reader that is not correctly rounded can get wrong:
# 2**53 + 1 and 1 + 2**-53 (ties to even), just past the latter, the
# smallest subnormal and either side of half of it, either side of the
# smallest normal, the largest finite double and past it, and past the
# exponent range both ways
_HARD_DECIMALS = (
    "9007199254740993", "0.1",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "2.2250738585072011e-308", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "1e400", "1e-400")


def _matrix_market_reader(fmm):
    """``read(text, shape)`` on the kernel itself."""
    def read(text: bytes, shape: tuple[int, int]) -> np.ndarray:
        cursor = fmm.open_read_stream(io.BytesIO(
            b"%%%%MatrixMarket matrix array real general\n%d %d\n" % shape
            + text), 1)
        # read_body_array adds the values into its target
        out = np.zeros(shape)
        fmm.read_body_array(cursor, out)
        return out
    return read


@functools.cache
def array_reader():
    """``read(text, shape)``: the float64 array of ``shape`` whose values,
    column by column, are the decimal numbers ``text`` holds one to a
    line, each the double ``float()`` gives, read by scipy's compiled
    Matrix Market reader; or None where that kernel cannot be loaded or
    fails its check. Loaded on the first call only, so that the commands
    that read no such text do not load it."""
    try:
        read = _matrix_market_reader(_load(
            "io._fast_matrix_market", "_fmm_core",
            importlib.machinery.EXTENSION_SUFFIXES, canonical=True))
        values = read("\n".join(_HARD_DECIMALS).encode() + b"\n",
                      (len(_HARD_DECIMALS), 1))
        if values[:, 0].tolist() == [float(x) for x in _HARD_DECIMALS]:
            return read
    except _LOAD_ERRORS:
        pass
    return None


def forward_extremum(ufunc: np.ufunc, values: np.ndarray, width: int,
                     pad: float, out: np.ndarray | None = None
                     ) -> np.ndarray:
    """``ufunc`` (``np.minimum`` or ``np.maximum``) over ``values[j .. j +
    width - 1]`` for each j of a 1-D array, reading ``pad`` past its end,
    into ``out`` (which may be ``values``): what ``scipy.ndimage``'s
    ``minimum_filter1d``/``maximum_filter1d`` give with ``mode="constant",
    cval=pad, origin=-(width // 2)``.

    Exact, O(N log w) for ``w = min(width, N + 1)`` (a wider window reads
    nothing but more ``pad``), in one buffer of N + w: each doubling pass
    makes entry j the extremum of the next ``span`` entries, and the last
    step joins two windows of the largest power of two within w, which
    overlap by as much as they must.
    """
    n = len(values)
    w = min(width, n + 1)
    buf = np.empty(n + w)
    buf[:n] = values
    buf[n:] = pad
    span = 1
    while 2 * span <= w:
        ufunc(buf[:-span], buf[span:], out=buf[:-span])
        span *= 2
    if out is None:
        out = buf[:n]
    return ufunc(buf[:n], buf[w - span:w - span + n], out=out)


lfilter, resampler = _bind_filters()
wavfile = _bind_wavfile()
