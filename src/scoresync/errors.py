"""Exception types shared across the package, and the finiteness check."""

import math
from dataclasses import fields


class ScoreSyncError(Exception):
    """Base class for all errors raised by this package."""


class AudioReadError(ScoreSyncError):
    """Audio file missing, truncated, or otherwise unreadable."""


class UnsupportedAudioError(ScoreSyncError):
    """Audio file uses an encoding we do not decode (e.g. compressed WAV)."""


class EmptyAudioError(ScoreSyncError):
    """Audio contains no usable samples (or fewer than one analysis frame)."""


class ScoreError(ScoreSyncError):
    """Score file malformed or violating the score-sequence invariants."""


class ConfigurationError(ScoreSyncError):
    """Inconsistent setup, e.g. score pitches outside the filterbank range
    or a band edge at/above Nyquist."""


class InfeasiblePathError(ScoreSyncError):
    """The aligner ran out of candidate frames before placing every chord."""

    def __init__(self, message: str, score_index: int):
        super().__init__(message)
        self.score_index = score_index


def check_finite(params) -> None:
    """Raise ConfigurationError on a NaN or infinite float field of the
    dataclass ``params``."""
    for f in fields(params):
        v = getattr(params, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigurationError(f"{f.name} must be finite, got {v}")
