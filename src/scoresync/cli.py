"""Command-line interface: align / features / synth / eval subcommands.

Exit codes: 0 success, 2 usage, 3 file I/O, 4 score data, 5 no feasible
alignment path, 6 configuration.
"""

import argparse
import contextlib
import dataclasses
import sys
import types
import typing

import numpy as np
from scipy.io import wavfile

from . import dp_align, formats, score as score_mod, synth_eval
from .audio_io import load_wav
from .errors import (AudioReadError, ConfigurationError, EmptyAudioError,
                     InfeasiblePathError, ScoreError, ScoreSyncError,
                     UnsupportedAudioError)
from .features import extract_features, normalize_bins, superflux_onsets
from .filterbank import FilterbankConfig, compute_spectrogram

EXIT_IO = 3
EXIT_SCORE = 4
EXIT_INFEASIBLE = 5
EXIT_CONFIG = 6

_AUDIO_ERRORS = (AudioReadError, UnsupportedAudioError, EmptyAudioError)

# bp_bounds is the one tuple field; the config file spells its ends
# bp_min/bp_max and it has no flag
_TUPLE_KEYS = {"bp_bounds": ("bp_min", "bp_max")}
_FILTERBANK_FLAGS = ("frame_rate", "window_factor")


def _value_type(annotation):
    """What one value of a field is parsed as: ``float`` for ``float |
    None`` or ``tuple[float, float]``, ``str`` for a ``Literal``."""
    origin = typing.get_origin(annotation)
    if origin is typing.Literal:
        return str
    if origin in (tuple, types.UnionType):
        return next(arg for arg in typing.get_args(annotation)
                    if arg is not type(None))
    return annotation


# config key -> annotation of its field
_CONFIG_KEYS = {key: f.type
                for cls in (FilterbankConfig, dp_align.AlignmentParams)
                for f in dataclasses.fields(cls)
                for key in _TUPLE_KEYS.get(f.name, (f.name,))}


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
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
    defaults, and a tuple field takes its ends from its own keys."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in _TUPLE_KEYS:
            kwargs[f.name] = tuple(
                settings.get(key, default)
                for key, default in zip(_TUPLE_KEYS[f.name], f.default))
        elif f.name in settings:
            kwargs[f.name] = settings[f.name]
    return cls(**kwargs)


def _load_score(path: str, chord_tolerance: int) -> score_mod.ScoreSequence:
    lower = path.lower()
    if lower.endswith((".mid", ".midi")):
        return score_mod.from_midi(path, chord_tolerance=chord_tolerance)
    if lower.endswith(".json"):
        return score_mod.from_json(path)
    raise ScoreError(f"cannot detect score format of {path!r} "
                     f"(expected .mid, .midi, or .json)")


def _write_out(path, writer) -> None:
    """``writer(out)`` on the file at ``path``, or on stdout when it is
    None; stdout stays open."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="\n")) as out:
        writer(out)


def _fail(message: str, code: int) -> int:
    print(f"scoresync: {message}", file=sys.stderr)
    return code


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
    given) that is not a tuple, typed by the field's annotation."""
    for f in dataclasses.fields(cls):
        if f.name in _TUPLE_KEYS or (names is not None and f.name not in names):
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


def cmd_align(args) -> int:
    try:
        settings = _merge_settings(args)
        params = _build(dp_align.AlignmentParams, settings)
        config = _build(FilterbankConfig, settings)
    except ConfigurationError as exc:
        return _fail(f"config: {exc}", EXIT_CONFIG)

    try:
        score = _load_score(args.score, args.chord_tolerance)
    except ScoreError as exc:
        return _fail(f"score: {exc}", EXIT_SCORE)

    try:
        if args.audio is not None:
            raw = compute_spectrogram(load_wav(args.audio), config)
        else:
            raw = formats.read_feature_csv(args.features, config.frame_rate)
    except _AUDIO_ERRORS as exc:
        return _fail(f"audio: {exc}", EXIT_IO)
    except ConfigurationError as exc:
        return _fail(f"filterbank: {exc}", EXIT_CONFIG)
    except (OSError, ValueError) as exc:
        return _fail(f"features: {exc}", EXIT_IO)

    try:
        result = dp_align.align(score, extract_features(raw), params)
    except InfeasiblePathError as exc:
        return _fail(f"align: {exc}", EXIT_INFEASIBLE)
    except EmptyAudioError as exc:
        return _fail(f"align: {exc}", EXIT_IO)
    except ConfigurationError as exc:
        return _fail(f"align: {exc}", EXIT_CONFIG)

    try:
        if args.format == "json":
            _write_out(args.out, lambda out: formats.dump_json(
                out, dataclasses.asdict(result)))
        else:
            _write_out(args.out,
                       lambda out: formats.write_alignment_csv(out, result))
    except OSError as exc:
        return _fail(f"output: {exc}", EXIT_IO)
    return 0


def cmd_features(args) -> int:
    try:
        config = _build(FilterbankConfig, _merge_settings(args))
    except ConfigurationError as exc:
        return _fail(f"config: {exc}", EXIT_CONFIG)

    try:
        audio = load_wav(args.audio)
        raw = compute_spectrogram(audio, config)
    except _AUDIO_ERRORS as exc:
        return _fail(f"audio: {exc}", EXIT_IO)
    except ConfigurationError as exc:
        return _fail(f"filterbank: {exc}", EXIT_CONFIG)

    matrix = {"raw": lambda: raw,
              "spec": lambda: normalize_bins(raw),
              "onsets": lambda: superflux_onsets(raw)}[args.feature]()
    try:
        _write_out(args.out, lambda out: formats.write_feature_csv(
            out, matrix, precision=args.precision))
    except OSError as exc:
        return _fail(f"output: {exc}", EXIT_IO)
    return 0


def cmd_synth(args) -> int:
    try:
        score = _load_score(args.score, args.chord_tolerance)
    except ScoreError as exc:
        return _fail(f"score: {exc}", EXIT_SCORE)

    first_beat = score.onsets[0].beat
    if args.tempo.segments[0][0] != first_beat:
        return _fail(
            f"synth: tempo map starts at beat {args.tempo.segments[0][0]:g} "
            f"but the score starts at beat {first_beat:g}", EXIT_SCORE)

    rng = np.random.default_rng(args.seed)
    try:
        audio, truth = synth_eval.synthesize(
            score, args.tempo, sample_rate=args.sample_rate,
            noise_level=args.noise_level, rng=rng)
    except ValueError as exc:
        return _fail(f"synth: {exc}", EXIT_SCORE)
    except ConfigurationError as exc:
        return _fail(f"synth: {exc}", EXIT_CONFIG)

    truth_path = args.truth_out or f"{args.out}.truth.csv"
    try:
        wavfile.write(args.out, audio.sample_rate,
                      audio.samples.astype(np.float32))
        _write_out(truth_path, lambda out: formats.write_truth_csv(
            out, score, truth))
    except OSError as exc:
        return _fail(f"output: {exc}", EXIT_IO)
    return 0


def cmd_eval(args) -> int:
    try:
        entries = formats.read_alignment_csv(args.alignment)
        truth = formats.read_truth_csv(args.truth)
    except (OSError, ValueError) as exc:
        return _fail(f"eval: {exc}", EXIT_IO)

    try:
        report = synth_eval.evaluate([e["time_s"] for e in entries], truth)
    except ValueError as exc:
        return _fail(f"eval: {exc}", EXIT_SCORE)

    print(formats.format_eval_text(report))
    formats.dump_json(sys.stdout, formats.eval_to_json(report))
    return 0


_COMMANDS = {
    "align": cmd_align,
    "features": cmd_features,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScoreSyncError as exc:  # safety net: uncategorized package error
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
