"""WAV loading into a normalized mono buffer.

Decoding is delegated to scipy's ``wavfile`` reader, which ``_scipy`` loads
on its own, without importing ``scipy.io``; this module reduces the result
to a float64 mono signal in [-1, 1] regardless of the on-disk sample format.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import AudioReadError, EmptyAudioError, UnsupportedAudioError

# Full-scale divisors per integer sample format. 24-bit data arrives from
# scipy left-justified in int32, so it shares the int32 divisor.
_INT_FULL_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


@dataclass
class AudioBuffer:
    """Mono audio: float64 samples (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_wav(path: str) -> AudioBuffer:
    """Load a PCM or IEEE-float WAV file as a mono AudioBuffer.

    Multichannel input is reduced by the per-frame mean across channels
    (keeps amplitudes in [-1, 1] for any channel count). Integer samples
    are scaled by their full-scale value; float samples pass through.
    """
    try:
        sample_rate, data = _scipy.wavfile.read(path)
    except FileNotFoundError as exc:
        raise AudioReadError(f"cannot open {path!r}: file not found") from exc
    except ValueError as exc:
        # scipy flags unsupported fmt-chunk codes with this exact phrase
        if "unknown wave file format" in str(exc).lower():
            raise UnsupportedAudioError(f"{path!r}: {exc}") from exc
        raise AudioReadError(f"cannot decode {path!r}: {exc}") from exc
    except (OSError, struct.error) as exc:
        raise AudioReadError(f"cannot open {path!r}: {exc}") from exc

    if data.size == 0:
        raise EmptyAudioError(f"{path!r} contains no audio samples")

    if data.dtype == np.uint8:
        # 8-bit WAV is unsigned, midpoint 128
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in _INT_FULL_SCALE:
        samples = data.astype(np.float64) / _INT_FULL_SCALE[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedAudioError(
            f"{path!r}: unsupported sample format {data.dtype}"
        )

    if samples.ndim == 2:
        samples = samples.mean(axis=1)

    if not np.all(np.isfinite(samples)):
        raise AudioReadError(f"{path!r} contains non-finite samples")

    return AudioBuffer(samples=samples, sample_rate=int(sample_rate))
