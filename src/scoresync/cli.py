"""Command-line interface: align / features / synth / eval subcommands.

Exit codes: 0 success, 2 usage, 3 file I/O, 4 score data, 5 no feasible
alignment path, 6 configuration.

Each step of a command runs in a named stage (``_stage``). The exit code
of a package error comes from its class (``_EXIT_CODES``) and its printed
prefix from the stage, except that an audio error always prints as
``audio``. A builtin exception that a stage lists, such as an OSError,
exits with that stage's code.

Every output file is written under a temporary name beside its path and
renamed into place only once whole (``_write_files``), so a write that
fails leaves any file it would replace as it was; stdout is a stream.
"""

import argparse
import contextlib
import dataclasses
import os
import sys
import types
import typing

import numpy as np

from . import _scipy, dp_align, formats, score as score_mod, synth_eval
from .audio_io import load_wav
from .errors import (AudioReadError, ConfigurationError, EmptyAudioError,
                     InfeasiblePathError, ScoreError, ScoreSyncError,
                     UnsupportedAudioError)
from .features import (_score_bands, extract_features, normalize_bins,
                       superflux_onsets)
from .filterbank import FilterbankConfig, Spectrogram, compute_spectrogram

EXIT_IO = 3
EXIT_SCORE = 4
EXIT_INFEASIBLE = 5
EXIT_CONFIG = 6

_AUDIO_ERRORS = (AudioReadError, UnsupportedAudioError, EmptyAudioError)

# exit code of each package error class; a subclass exits with the code of
# its nearest listed ancestor
_EXIT_CODES = {**dict.fromkeys(_AUDIO_ERRORS, EXIT_IO),
               ScoreError: EXIT_SCORE,
               InfeasiblePathError: EXIT_INFEASIBLE,
               ScoreSyncError: EXIT_CONFIG}


class _Exit(Exception):
    """A failed stage: the message ``main`` prints, and the exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _stage(name: str, builtins=(), code: int = EXIT_IO):
    """Run a command step as the stage ``name``. A package error raised in
    it becomes an ``_Exit`` with the code of its class and the prefix
    ``name: `` (``audio: `` for an audio error); an exception of a type in
    ``builtins`` becomes one with the prefix ``name: `` and ``code``."""
    try:
        yield
    except ScoreSyncError as exc:
        prefix = "audio" if isinstance(exc, _AUDIO_ERRORS) else name
        raise _Exit(f"{prefix}: {exc}",
                    next(_EXIT_CODES[cls] for cls in type(exc).__mro__
                         if cls in _EXIT_CODES)) from exc
    except builtins as exc:
        raise _Exit(f"{name}: {exc}", code) from exc


def _fail(message: str, code: int) -> int:
    print(f"scoresync: {message}", file=sys.stderr)
    return code


_FILTERBANK_FLAGS = ("frame_rate", "window_factor")


def _value_type(annotation):
    """What a field's value is parsed as: ``float`` for ``float | None``,
    ``str`` for a ``Literal``."""
    origin = typing.get_origin(annotation)
    if origin is typing.Literal:
        return str
    if origin is types.UnionType:
        return next(arg for arg in typing.get_args(annotation)
                    if arg is not type(None))
    return annotation


# config key -> annotation of its field
_CONFIG_KEYS = {f.name: f.type
                for cls in (FilterbankConfig, dp_align.AlignmentParams)
                for f in dataclasses.fields(cls)}


def _read_config_file(path: str) -> dict[str, str]:
    """The key=value pairs of the config file at ``path``; a ValueError
    naming the line if one is not UTF-8."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = formats._decoded(raw, path, lineno).strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path!r} line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _merge_settings(args) -> dict:
    """Defaults overridden by the config file, overridden by explicit flags;
    ``none`` in the file clears a field that may be None."""
    merged = {}
    file_values = _read_config_file(args.config) if getattr(
        args, "config", None) else {}
    for key, annotation in _CONFIG_KEYS.items():
        if key in file_values:
            raw = file_values[key]
            if type(None) in typing.get_args(annotation) \
                    and raw.lower() == "none":
                merged[key] = None
            else:
                try:
                    merged[key] = _value_type(annotation)(raw)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"config key {key}: {exc}") from exc
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    unknown = set(file_values) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    return merged


def _build(cls, settings: dict):
    """A ``cls`` instance from the merged settings; unset fields keep their
    defaults."""
    return cls(**{f.name: settings[f.name] for f in dataclasses.fields(cls)
                  if f.name in settings})


def _settings(args, *classes) -> list:
    """An instance of each of ``classes`` from the merged settings, built
    in the ``config`` stage, where a ValueError (a config line that is not
    UTF-8) exits 6 too."""
    with _stage("config", (ValueError,), EXIT_CONFIG):
        settings = _merge_settings(args)
        return [_build(cls, settings) for cls in classes]


def _load_score(path: str, chord_tolerance: int) -> score_mod.ScoreSequence:
    """The score at ``path``, read in the ``score`` stage. A negative
    ``--chord-tolerance`` fails the ``config`` stage first whatever the
    score's format, though only a MIDI score reads it."""
    with _stage("config"):
        if chord_tolerance < 0:
            raise ConfigurationError(
                f"chord_tolerance must be non-negative, got {chord_tolerance}")
    with _stage("score"):
        lower = path.lower()
        if lower.endswith((".mid", ".midi")):
            return score_mod.from_midi(path, chord_tolerance=chord_tolerance)
        if lower.endswith(".json"):
            return score_mod.from_json(path)
        raise ScoreError(f"cannot detect score format of {path!r} "
                         f"(expected .mid, .midi, or .json)")


def _write_text(path: str, writer) -> None:
    """``writer(out)`` on the file at ``path`` opened as text with ``\\n``
    line endings."""
    with open(path, "w", newline="\n") as out:
        writer(out)


def _write_out(path, writer) -> None:
    """``writer(out)`` on the file at ``path``, written through
    ``_write_files``, or on stdout when it is None (left open, but flushed
    so that a closed pipe fails here); an OSError fails the ``output``
    stage."""
    if path is not None:
        return _write_files({path: lambda temp: _write_text(temp, writer)})
    with _stage("output", (OSError,)):
        try:
            writer(sys.stdout)
            sys.stdout.flush()
        except OSError:
            # drop what is left in the buffer, which would fail again
            # when Python flushes stdout at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _write_files(writers: dict) -> None:
    """Call each ``writer(temp)`` of ``writers`` ({path: writer}) on a
    temporary path beside its ``path`` and rename the files over their
    paths once all are written, so that an OSError, which fails the
    ``output`` stage, leaves none of them; a file replaced this way keeps
    its permission bits. A path that is a link, exists but is not a
    regular file, such as ``/dev/stdout``, or lies in a directory this
    process cannot write is written in place rather than replaced."""
    temps = {path: path if os.path.islink(path) or (
                 os.path.exists(path) and not os.path.isfile(path))
                 or not os.access(os.path.dirname(path) or ".", os.W_OK)
             else f"{path}.{os.getpid()}.tmp" for path in writers}
    try:
        with _stage("output", (OSError,)):
            for path, writer in writers.items():
                writer(temps[path])
                if temps[path] != path and os.path.isfile(path):
                    os.chmod(temps[path], os.stat(path).st_mode & 0o7777)
            for path, temp in temps.items():
                os.replace(temp, path)
    finally:
        # a temporary file that cannot be removed, even for a reason such
        # as a name too long to create, must not hide why the write failed
        for temp in set(temps.values()) - set(writers):
            with contextlib.suppress(OSError):
                os.remove(temp)


def _parse_tempo(text: str) -> synth_eval.TempoMap:
    segments = []
    try:
        for part in text.split(","):
            beat, bpm = part.split(":")
            segments.append((float(beat), float(bpm)))
        return synth_eval.TempoMap(segments=tuple(segments))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid tempo map {text!r}: {exc}") from exc


def _add_flags(parser, cls, names=None) -> None:
    """A ``--field-name`` flag for each field of ``cls`` (only ``names`` if
    given), typed by the field's annotation."""
    for f in dataclasses.fields(cls):
        if names is not None and f.name not in names:
            continue
        literal = typing.get_origin(f.type) is typing.Literal
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=_value_type(f.type),
                            choices=typing.get_args(f.type) if literal else None,
                            help=f"default {f.default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoresync",
        description="Align a solo recording to its symbolic score.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align audio to a score")
    src = p_align.add_mutually_exclusive_group(required=True)
    src.add_argument("--audio", help="WAV recording")
    src.add_argument("--features",
                     help="raw feature CSV (as written by "
                          "'features --feature raw --precision full')")
    p_align.add_argument("--score", required=True,
                         help="score file (.mid/.midi/.json)")
    p_align.add_argument("--out", help="output path (default stdout)")
    p_align.add_argument("--format", choices=("csv", "json"), default="csv")
    p_align.add_argument("--config", help="key=value parameter file")
    p_align.add_argument("--chord-tolerance", type=int, default=0,
                         dest="chord_tolerance",
                         help="MIDI tick tolerance for chord grouping")
    _add_flags(p_align, FilterbankConfig, _FILTERBANK_FLAGS)
    _add_flags(p_align, dp_align.AlignmentParams)

    p_feat = sub.add_parser("features", help="export feature matrices as CSV")
    p_feat.add_argument("--audio", required=True)
    p_feat.add_argument("--out", help="output path (default stdout)")
    p_feat.add_argument("--feature", choices=("raw", "spec", "onsets"),
                        default="raw")
    p_feat.add_argument("--precision", choices=("6", "full"), default="6",
                        help="numeric precision of the CSV values")
    p_feat.add_argument("--config", help="key=value parameter file")
    _add_flags(p_feat, FilterbankConfig, _FILTERBANK_FLAGS)

    p_synth = sub.add_parser("synth",
                             help="render a synthetic performance of a score")
    p_synth.add_argument("--score", required=True)
    p_synth.add_argument("--tempo", type=_parse_tempo,
                         default=_parse_tempo("0:120"),
                         help="tempo map BEAT:BPM[,BEAT:BPM...] "
                              "(default 0:120)")
    p_synth.add_argument("--sample-rate", type=int, default=22050,
                         dest="sample_rate")
    p_synth.add_argument("--noise-level", type=float, default=0.0,
                         dest="noise_level")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output WAV path")
    p_synth.add_argument("--truth-out", dest="truth_out",
                         help="ground-truth CSV path "
                              "(default <out>.truth.csv)")
    p_synth.add_argument("--chord-tolerance", type=int, default=0,
                         dest="chord_tolerance")

    p_eval = sub.add_parser("eval",
                            help="score an alignment against ground truth")
    p_eval.add_argument("--alignment", required=True, help="alignment CSV")
    p_eval.add_argument("--truth", required=True, help="ground-truth CSV")

    return parser


def cmd_align(args) -> None:
    params, config = _settings(args, dp_align.AlignmentParams,
                               FilterbankConfig)
    score = _load_score(args.score, args.chord_tolerance)
    if args.audio is not None:
        # taken from a zero-frame spectrogram of the config's bank, so that
        # a pitch outside it fails before the audio is read
        bands = _score_bands(score, Spectrogram(np.empty(
            (config.num_bands, 0)), config.frame_rate, config.midi_low))
        with _stage("filterbank"):
            raw = compute_spectrogram(load_wav(args.audio), config,
                                      pitches=bands)
    else:
        with _stage("features", (OSError, ValueError)):
            dump = formats.read_feature_csv(args.features, config.frame_rate)
        # the same rows of the dump, a view
        bands = _score_bands(score, dump)
        raw = dataclasses.replace(dump, midi_low=bands.start, values=(
            dump.values[bands.start - dump.midi_low:][:len(bands)]))
    with _stage("align"):
        result = dp_align.align(score, extract_features(raw), params)
    _write_out(args.out, lambda out: formats.dump_json(
        out, dataclasses.asdict(result)) if args.format == "json"
        else formats.write_alignment_csv(out, result))


def cmd_features(args) -> None:
    [config] = _settings(args, FilterbankConfig)
    with _stage("filterbank"):
        raw = compute_spectrogram(load_wav(args.audio), config)
    matrix = {"raw": lambda: raw,
              "spec": lambda: normalize_bins(raw),
              "onsets": lambda: superflux_onsets(raw)}[args.feature]()
    _write_out(args.out, lambda out: formats.write_feature_csv(
        out, matrix, precision=args.precision))


def cmd_synth(args) -> None:
    score = _load_score(args.score, args.chord_tolerance)
    with _stage("synth", (ValueError,), EXIT_SCORE):
        start, first_beat = args.tempo.segments[0][0], score.onsets[0].beat
        if start != first_beat:
            raise ScoreError(f"tempo map starts at beat {start:g} but the "
                             f"score starts at beat {first_beat:g}")
        if args.seed < 0:
            raise ConfigurationError(
                f"seed must be non-negative, got {args.seed}")
        audio, truth = synth_eval.synthesize(
            score, args.tempo, sample_rate=args.sample_rate,
            noise_level=args.noise_level,
            rng=np.random.default_rng(args.seed))
    _write_files({
        args.out: lambda path: _scipy.wavfile.write(
            path, audio.sample_rate, audio.samples.astype(np.float32)),
        args.truth_out or f"{args.out}.truth.csv": lambda path: _write_text(
            path, lambda out: formats.write_truth_csv(out, score, truth))})


def cmd_eval(args) -> None:
    with _stage("eval", (OSError, ValueError)):
        predicted = formats.read_alignment_csv(args.alignment)
        truth = formats.read_alignment_csv(args.truth)
    with _stage("eval", (ValueError,), EXIT_SCORE):
        report = synth_eval.evaluate(predicted, truth)

    def write_report(out):
        out.write(formats.format_eval_text(report) + "\n")
        formats.dump_json(out, formats.eval_to_json(report))

    _write_out(None, write_report)


_COMMANDS = {
    "align": cmd_align,
    "features": cmd_features,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a package error outside the command's own stages is named by
        # the command
        with _stage(args.command):
            _COMMANDS[args.command](args)
    except _Exit as exc:
        return _fail(str(exc), exc.code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
