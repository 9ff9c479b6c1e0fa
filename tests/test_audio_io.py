import numpy as np
import pytest
from scipy.io import wavfile

from scoresync import (AudioReadError, EmptyAudioError, UnsupportedAudioError,
                       load_wav)

from helpers import write_wav


def test_pcm16_full_scale_division(tmp_path):
    path = tmp_path / "mono.wav"
    write_wav(path, 44100, [[0, 16384, -16384]], fmt="pcm16")
    buf = load_wav(str(path))
    assert buf.sample_rate == 44100
    assert buf.samples.tolist() == [0.0, 0.5, -0.5]


def test_stereo_identical_channels_equals_channel(tmp_path):
    path = tmp_path / "stereo.wav"
    ch = [100, -200, 300, 0]
    write_wav(path, 8000, [ch, ch], fmt="pcm16")
    buf = load_wav(str(path))
    assert np.array_equal(buf.samples, np.array(ch) / 32768.0)


def test_stereo_opposite_channels_cancel(tmp_path):
    path = tmp_path / "opp.wav"
    write_wav(path, 8000, [[16384] * 5, [-16384] * 5], fmt="pcm16")
    buf = load_wav(str(path))
    assert np.array_equal(buf.samples, np.zeros(5))


def test_mono_reduction_is_linear(tmp_path):
    left = [123, -456, 789, 11]
    right = [-321, 654, -987, 22]
    base = tmp_path / "base.wav"
    doubled = tmp_path / "doubled.wav"
    write_wav(base, 8000, [left, right], fmt="pcm16")
    write_wav(doubled, 8000, [[2 * v for v in left], [2 * v for v in right]],
              fmt="pcm16")
    assert np.array_equal(load_wav(str(doubled)).samples,
                          2.0 * load_wav(str(base)).samples)


def test_output_length_equals_frame_count(tmp_path):
    path = tmp_path / "len.wav"
    write_wav(path, 8000, [list(range(17)), list(range(17))], fmt="pcm16")
    assert len(load_wav(str(path)).samples) == 17


def test_float32_passthrough(tmp_path):
    path = tmp_path / "f32.wav"
    write_wav(path, 22050, [[0.0, 0.5, -0.5, 0.25]], fmt="f32")
    assert load_wav(str(path)).samples.tolist() == [0.0, 0.5, -0.5, 0.25]


def test_float64_passthrough(tmp_path):
    path = tmp_path / "f64.wav"
    write_wav(path, 22050, [[0.125, -0.75]], fmt="f64")
    assert load_wav(str(path)).samples.tolist() == [0.125, -0.75]


def test_pcm32_scaling(tmp_path):
    path = tmp_path / "p32.wav"
    write_wav(path, 44100, [[0, 2 ** 30, -(2 ** 31)]], fmt="pcm32")
    buf = load_wav(str(path))
    assert buf.samples.tolist() == [0.0, 0.5, -1.0]


def test_pcm24_scaling(tmp_path):
    path = tmp_path / "p24.wav"
    write_wav(path, 44100, [[0, 2 ** 22, -(2 ** 23)]], fmt="pcm24")
    buf = load_wav(str(path))
    assert buf.samples.tolist() == [0.0, 0.5, -1.0]


def test_pcm8_unsigned_midpoint(tmp_path):
    path = tmp_path / "p8.wav"
    write_wav(path, 8000, [[128, 192, 64, 0]], fmt="pcm8")
    buf = load_wav(str(path))
    assert buf.samples.tolist() == [0.0, 0.5, -0.5, -1.0]


def test_missing_file_reports_unreadable(tmp_path):
    with pytest.raises(AudioReadError):
        load_wav(str(tmp_path / "nope.wav"))


def test_compressed_wav_reports_unsupported(tmp_path):
    path = tmp_path / "mp3ish.wav"
    write_wav(path, 44100, [[0, 0, 0, 0]], fmt="pcm8", format_code=85)
    with pytest.raises(UnsupportedAudioError):
        load_wav(str(path))


def test_zero_length_audio_reported_distinctly(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, 44100, [[]], fmt="pcm16")
    with pytest.raises(EmptyAudioError):
        load_wav(str(path))


def test_garbage_file_reports_unreadable(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"this is not a wav file at all")
    with pytest.raises(AudioReadError):
        load_wav(str(path))


def test_int64_pcm_reports_unsupported(tmp_path):
    path = tmp_path / "int64.wav"
    wavfile.write(str(path), 8000, np.arange(100, dtype=np.int64))
    with pytest.raises(UnsupportedAudioError,
                       match="unsupported sample format int64"):
        load_wav(str(path))
