"""scipy's kernels reached without the scipy.signal/ndimage/io packages
(``scoresync._scipy``) against their public counterparts, the fallback to
those counterparts, the imports a command leaves behind, and scipy's
Matrix Market reader beside ``scipy.io``'s own use of it."""

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy import signal, special
from scipy.io import wavfile
from scipy.ndimage import maximum_filter1d, minimum_filter1d

import scoresync
from scoresync import (FilterbankConfig, _scipy, cli, compute_spectrogram,
                       design_filterbank, filterbank, load_wav)

from helpers import HAS_MATRIX_MARKET_KERNEL

SAMPLE_RATES = [8000, 11025, 16000, 22050, 44100, 48000, 96000]


def cascade_levels(sample_rate, frame_rate):
    """The resample cascade ``compute_spectrogram`` builds at this rate."""
    config = FilterbankConfig(frame_rate=frame_rate)
    hop = int(round(sample_rate / frame_rate))
    groups = filterbank._band_groups(config, hop, sample_rate / hop)
    hops = sorted({hop, *(group_hop for _, group_hop in groups)},
                  reverse=True)
    return filterbank._resample_levels(hops)


class TestLfilter:
    @pytest.mark.parametrize("sample_rate", [11025, 44100])
    def test_output_and_state_equal_lfilter_across_block_edges(
            self, sample_rate):
        rng = np.random.default_rng(sample_rate)
        x = rng.uniform(-1, 1, 5000)
        edges = [0, 1, 2, 300, 301, 2048, 4999, 5000]
        for b, a in design_filterbank(FilterbankConfig(), sample_rate)[::7]:
            zi = zi_public = rng.normal(size=2)
            for lo, hi in zip(edges, edges[1:]):
                y, zi = _scipy.lfilter(b, a, x[lo:hi], zi)
                expected, zi_public = signal.lfilter(b, a, x[lo:hi],
                                                     zi=zi_public)
                assert np.array_equal(y, expected)
                assert np.array_equal(zi, zi_public)


class TestResampler:
    @pytest.mark.parametrize("frame_rate", [50.0, 100.0])
    @pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
    def test_every_cascade_level_equals_resample_poly(self, sample_rate,
                                                      frame_rate):
        rng = np.random.default_rng(sample_rate)
        levels = cascade_levels(sample_rate, frame_rate)
        assert len(levels) > 1
        for _, up, down, resample, _ in levels[1:]:
            fir = signal.firwin(20 * max(up, down) + 1, 1.0 / max(up, down),
                                window=("kaiser", 5.0))
            for n in (1, 2, 3, down - 1, down, down + 1, 1000, 5003):
                x = rng.uniform(-1, 1, max(n, 1))
                expected = signal.resample_poly(x, up, down, window=fir)
                assert np.array_equal(resample(x), expected), (up, down, n)

    def test_levels_equal_the_default_design(self):
        # resample_poly's own design, not one passed as its window
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 4000)
        for _, up, down, resample, _ in cascade_levels(11025, 50.0)[1:]:
            assert np.array_equal(resample(x),
                                  signal.resample_poly(x, up, down))


class TestFirDesign:
    def test_every_coprime_ratio_up_to_79_equals_firwin(self):
        checked = 0
        for up in range(1, 80):
            for down in range(1, 80):
                if math.gcd(up, down) != 1 or up == down:
                    continue
                taps, cutoff = 20 * max(up, down) + 1, 1.0 / max(up, down)
                assert np.array_equal(
                    _scipy.firwin_kaiser(taps, cutoff, 5.0),
                    signal.firwin(taps, cutoff, window=("kaiser", 5.0))), \
                    (up, down)
                checked += 1
        assert checked == 3866


class TestI0:
    def test_equals_scipy_special_on_both_branches(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.uniform(0.0, 8.0, 110_000),
            [0.0, 8.0, np.nextafter(8.0, 0.0), 5.0]])
        x[::2] *= -1  # i0 is even
        assert np.array_equal(_scipy.i0(x), special.i0(x))
        # Cephes' branch above 8 is not ported: Kaiser beta 5 needs none
        for above in (rng.uniform(8.0, 700.0, 1000), np.nextafter(8.0, 9.0),
                      -9.0):
            with pytest.raises(ValueError):
                _scipy.i0(above)

    def test_boundary_and_scalar(self):
        assert _scipy.i0(8.0) == special.i0(8.0)
        assert _scipy.i0(5.0) == special.i0(5.0)
        assert _scipy.i0(np.array([[1.0, 7.0]])).shape == (1, 2)
        with pytest.raises(ValueError):
            _scipy.i0(np.array([[1.0, 9.0]]))


class TestForwardExtremum:
    @pytest.mark.parametrize("ufunc, oracle", [
        (np.minimum, minimum_filter1d), (np.maximum, maximum_filter1d)])
    def test_equals_ndimage_on_random_rows(self, ufunc, oracle):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            n = int(rng.integers(1, 200))
            width = int(rng.integers(1, 2 * n + 5))  # often past the length
            x = rng.normal(size=n)
            x[rng.random(n) < 0.1] = np.inf
            x[rng.random(n) < 0.05] = -np.inf
            pad = float(rng.choice([np.inf, -np.inf, 0.0, x[-1]]))
            expected = oracle(x, width, mode="constant", cval=pad,
                              origin=-(width // 2))
            assert np.array_equal(
                _scipy.forward_extremum(ufunc, x, width, pad), expected), \
                (n, width, pad)

    def test_in_place(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
        out = _scipy.forward_extremum(np.maximum, x, 3, -np.inf, out=x)
        assert out is x
        assert x.tolist() == [4.0, 4.0, 5.0, 9.0, 9.0, 9.0, 2.0]


def _run_cli(argv, path):
    assert cli.main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


class TestFallback:
    """A private kernel that cannot be loaded, or that gives wrong values,
    leaves the public ``scipy.signal`` and ``scipy.io`` functions bound,
    with the same outputs."""

    @staticmethod
    def spy_public(monkeypatch):
        calls = []
        for name in ("lfilter", "resample_poly"):
            public = getattr(signal, name)

            def spy(*args, _public=public, _name=name, **kwargs):
                calls.append(_name)
                return _public(*args, **kwargs)
            monkeypatch.setattr(signal, name, spy)
        return calls

    @staticmethod
    def fail_load(subpackage, name, suffixes):
        raise ImportError(f"no {name}")

    @staticmethod
    def broken_kernels(part):
        """``_load`` giving the loaded modules, ``part`` of the kernels
        broken."""
        loaded = {name: sys.modules[f"scoresync._{name.lstrip('_')}"]
                  for name in ("_sigtools", "_upfirdn_apply", "wavfile")}
        if part == "lfilter":
            # passes the input through unfiltered
            loaded["_sigtools"] = types.SimpleNamespace(
                _linear_filter=lambda b, a, x, axis, zi: (x.copy(), zi))
        else:
            # leaves the output zero
            upfirdn = loaded["_upfirdn_apply"]
            loaded["_upfirdn_apply"] = types.SimpleNamespace(
                _apply=lambda *args: None, _output_len=upfirdn._output_len,
                mode_enum=upfirdn.mode_enum)
        return lambda subpackage, name, suffixes: loaded[name]

    def bind(self, monkeypatch, load):
        """Bind the module's functions again with ``_load`` patched, and
        return the WAV module bound."""
        with monkeypatch.context() as patched:
            patched.setattr(_scipy, "_load", load)
            lfilter, resampler = _scipy._bind_filters()
            wavfile_module = _scipy._bind_wavfile()
        monkeypatch.setattr(_scipy, "lfilter", lfilter)
        monkeypatch.setattr(_scipy, "resampler", resampler)
        monkeypatch.setattr(_scipy, "wavfile", wavfile_module)
        return wavfile_module

    @staticmethod
    def outputs(tmp_path, tag):
        """Spectrogram and CLI output bytes of a short 44.1 kHz piece, whose
        bands run on every level of the cascade."""
        score = tmp_path / "score.json"
        score.write_text(json.dumps(
            [{"beat": b, "pitches": [48 + 5 * b % 40, 67]}
             for b in range(12)]))
        wav = tmp_path / f"{tag}.wav"
        synth = _run_cli(["synth", "--score", str(score), "--tempo", "0:120",
                          "--noise-level", "0.01", "--seed", "3",
                          "--sample-rate", "44100"], wav)
        spectrogram = compute_spectrogram(load_wav(str(wav))).values
        dump = tmp_path / f"{tag}.csv"
        features = _run_cli(["features", "--audio", str(wav), "--feature",
                             "raw", "--precision", "full"], dump)
        aligned = _run_cli(["align", "--audio", str(wav), "--score",
                            str(score)], tmp_path / f"{tag}.align.csv")
        from_dump = _run_cli(["align", "--features", str(dump), "--score",
                              str(score), "--frame-rate", "50.0"],
                             tmp_path / f"{tag}.dump.align.csv")
        return spectrogram, [synth, features, aligned, from_dump]

    @pytest.mark.parametrize("load", ["missing", "lfilter", "upfirdn"])
    def test_gives_the_public_path_and_the_same_outputs(
            self, monkeypatch, tmp_path, load):
        spectrogram, outputs = self.outputs(tmp_path, "private")
        wavfile_module = self.bind(
            monkeypatch, self.fail_load if load == "missing"
            else self.broken_kernels(load))
        assert (wavfile_module is wavfile) == (load == "missing")
        calls = self.spy_public(monkeypatch)
        fallback_spectrogram, fallback_outputs = self.outputs(tmp_path,
                                                              "public")
        assert {"lfilter", "resample_poly"} <= set(calls)
        assert np.array_equal(fallback_spectrogram, spectrogram)
        assert fallback_outputs == outputs

    def test_private_kernels_bound_here(self):
        # the installed scipy passes the check, so its kernels are used
        assert _scipy.lfilter.__qualname__.startswith("_private_filters")
        assert _scipy.resampler.__qualname__.startswith("_private_filters")
        assert _scipy.wavfile.__name__ == "scoresync._wavfile"


_IMPORT_GUARD = """
import json, os, sys
import numpy
# the feature-CSV reader parses in process: no pool module is loaded
heavy = ["scipy.signal", "scipy.ndimage", "scipy.io", "scipy.special",
         "scipy.stats", "numpy.ma", "numpy.random", "multiprocessing",
         "concurrent.futures.process"]
# numpy 1.x loads numpy.random on its own import
eager_random = "numpy.random" in sys.modules
from scoresync import cli, formats
seen = {"import": [m for m in heavy if m in sys.modules]}
# read blocks of 4 kB, so that the short dump spans many, as a long one does
formats._BLOCK_BYTES = 4096
work = sys.argv[1]
score = os.path.join(work, "score.json")
wav, dump = os.path.join(work, "piece.wav"), os.path.join(work, "d.csv")
runs = [
    ["align", "--audio", wav, "--score", score,
     "--out", os.path.join(work, "a.csv")],
    ["features", "--audio", wav, "--feature", "raw", "--precision", "full",
     "--out", dump],
    ["align", "--features", dump, "--score", score, "--frame-rate", "50.0",
     "--out", os.path.join(work, "b.csv")],
    # last, since it draws its noise from numpy.random
    ["synth", "--score", score, "--tempo", "0:120", "--seed", "1",
     "--sample-rate", "44100", "--noise-level", "0.01",
     "--out", os.path.join(work, "again.wav")],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
    seen[argv[0] + " " + argv[1]] = [m for m in heavy if m in sys.modules]
print(json.dumps({"eager_random": eager_random, "seen": seen}))
"""


def _run_python(code, *args):
    """``code`` run by a fresh interpreter that imports this checkout's
    scoresync."""
    src = os.path.dirname(os.path.dirname(scoresync.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_commands_import_no_heavy_scipy_package(tmp_path):
    score = tmp_path / "score.json"
    score.write_text(json.dumps(
        [{"beat": b, "pitches": [60 + b % 5, 67]} for b in range(8)]))
    _run_cli(["synth", "--score", str(score), "--tempo", "0:120", "--seed",
              "1", "--sample-rate", "44100"], tmp_path / "piece.wav")
    result = _run_python(_IMPORT_GUARD, str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    seen = report["seen"]
    assert list(seen) == ["import", "align --audio", "features --audio",
                          "align --features", "synth --score"]
    # only synth draws random numbers; where numpy's own import loads
    # numpy.random, no command can leave it out
    random_allowed = {stage for stage in seen
                      if report["eager_random"] or stage == "synth --score"}
    assert seen == {stage: ["numpy.random"] if stage in random_allowed
                    else [] for stage in seen}


_LATER_SCIPY_SIGNAL = """
import numpy as np
import scoresync
from scoresync import _scipy
import scipy.signal
scipy.signal._upfirdn_apply._apply
assert _scipy.resampler.__qualname__.startswith("_private_filters")
x = np.random.default_rng(3).normal(size=2000)
for up, down in [(1, 2), (27, 55), (16, 27)]:
    fir = _scipy.firwin_kaiser(20 * max(up, down) + 1, 1.0 / max(up, down),
                               5.0)
    assert np.array_equal(_scipy.resampler(fir, up, down)(x),
                          scipy.signal.resample_poly(x, up, down, window=fir))
print("ok")
"""


def test_scipy_signal_imported_later_binds_its_kernel_module():
    # the Cython kernel registers itself under its scipy name as it loads;
    # an entry left there would keep a later import of scipy.signal from
    # binding it to the package
    result = _run_python(_LATER_SCIPY_SIGNAL)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


_MMREAD_BESIDE_THE_READER = """
import io, os, sys
from scoresync import _scipy, cli
work, order = sys.argv[1:]
score = os.path.join(work, "score.json")
dump = os.path.join(work, "d.csv")
align = ["align", "--features", dump, "--score", score, "--frame-rate",
         "50.0", "--out", os.path.join(work, order + ".csv")]
text = b"%%MatrixMarket matrix array real general\\n2 1\\n1.5\\n2.5\\n"
if order == "mmread-first":
    import scipy.io
    assert scipy.io.mmread(io.BytesIO(text)).tolist() == [[1.5], [2.5]]
assert cli.main(align) == 0
kernel = sys.modules.get("scipy.io._fast_matrix_market._fmm_core")
assert (kernel is None) == (_scipy.array_reader() is None)
if order == "reader-first":
    assert "scipy.io" not in sys.modules, "scipy.io was imported"
    import scipy.io
assert scipy.io.mmread(io.BytesIO(text)).tolist() == [[1.5], [2.5]]
# scipy's own reader and this one are the one module
assert sys.modules.get("scipy.io._fast_matrix_market._fmm_core") is kernel
print("ok")
"""


@pytest.mark.parametrize("order", ["reader-first", "mmread-first"])
def test_scipy_io_mmread_beside_the_csv_reader(tmp_path, order):
    # the Matrix Market kernel is a pybind11 module, whose types register
    # once per process: under another name, a later mmread would fail
    score = tmp_path / "score.json"
    score.write_text(json.dumps(
        [{"beat": b, "pitches": [60 + b % 5, 67]} for b in range(8)]))
    wav = tmp_path / "piece.wav"
    _run_cli(["synth", "--score", str(score), "--tempo", "0:120", "--seed",
              "1"], wav)
    _run_cli(["features", "--audio", str(wav), "--feature", "raw",
              "--precision", "full"], tmp_path / "d.csv")
    result = _run_python(_MMREAD_BESIDE_THE_READER, str(tmp_path), order)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


class TestArrayReader:
    """scipy's compiled float reader, loaded on first use; None where it
    cannot be loaded or fails its check of hard decimal strings."""

    @pytest.fixture
    def read(self):
        if not HAS_MATRIX_MARKET_KERNEL:
            pytest.skip("no scipy Matrix Market kernel (scipy < 1.12)")
        read = _scipy.array_reader()
        assert read is not None
        return read

    def test_values_fill_the_shape_column_by_column(self, read):
        values = read(b"1\n2\n3\n4\n5\n6\n", (2, 3))
        assert values.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
        assert values.flags.c_contiguous

    def test_each_read_starts_from_zero(self, read):
        # the kernel adds into its target; a reused, unzeroed buffer would
        # carry the previous read's values
        for _ in range(5):
            values = read(b"0.25\n" * 32, (8, 4))
            assert values.tolist() == [[0.25] * 4] * 8
            del values

    @pytest.mark.parametrize("broken", ["missing", "wrong values"])
    def test_gives_none_when_the_kernel_fails(self, monkeypatch, broken):
        def load(subpackage, name, suffixes, canonical=False):
            if broken == "missing":
                raise ImportError(f"no {name}")
            # leaves its target zero
            return types.SimpleNamespace(
                open_read_stream=lambda stream, parallelism: None,
                read_body_array=lambda cursor, out: None)

        monkeypatch.setattr(_scipy, "_load", load)
        assert _scipy.array_reader.__wrapped__() is None
