"""scoresync: align solo-instrument recordings to their symbolic score.

The pipeline: decode audio to mono, run it through a semitone-spaced IIR
filterbank framed at 50 Hz, derive normalized onset and spectral activation
features, and match score chords to frames with a windowed dynamic program
that tracks a per-path beat period.
"""

from .audio_io import AudioBuffer, load_wav
from .dp_align import (AlignmentParams, AlignmentResult, align, stretch_cost,
                       update_beat_period)
from .errors import (AudioReadError, ConfigurationError, EmptyAudioError,
                     InfeasiblePathError, ScoreError, ScoreSyncError,
                     UnsupportedAudioError)
from .features import (FeaturePair, extract_features, normalize_bins,
                       superflux_onsets)
from .filterbank import (FilterbankConfig, Spectrogram, band_edges,
                         center_frequency, compute_spectrogram,
                         design_bandpass, design_filterbank)
from .score import ScoreOnset, ScoreSequence, from_json, from_midi
from .synth_eval import (EvalReport, TempoMap, beat_to_seconds, evaluate,
                         synthesize)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "load_wav",
    "AlignmentParams", "AlignmentResult", "align", "stretch_cost",
    "update_beat_period",
    "FeaturePair", "extract_features", "normalize_bins", "superflux_onsets",
    "FilterbankConfig", "Spectrogram", "band_edges", "center_frequency",
    "compute_spectrogram", "design_bandpass", "design_filterbank",
    "ScoreOnset", "ScoreSequence", "from_json", "from_midi",
    "EvalReport", "TempoMap", "beat_to_seconds", "evaluate", "synthesize",
    "ScoreSyncError", "AudioReadError", "UnsupportedAudioError",
    "EmptyAudioError", "ScoreError", "ConfigurationError",
    "InfeasiblePathError",
]
