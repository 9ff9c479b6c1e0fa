"""Spans and allocation peaks recorded around the calls into each layer.

The benchmark wraps each layer's public function wherever the scoresync
modules look it up, then runs the CLI itself. A traced run therefore
follows the CLI's own call sequence (load_wav -> compute_spectrogram ->
extract_features -> align -> writers) without any span inside the package.
"""

import functools
import sys
import time
import tracemalloc

# public function of each layer, as "<module>.<function>"; the span and
# the per-layer metrics carry the same name
TRACED = (
    "audio_io.load_wav",
    "score.from_json",
    "filterbank.compute_spectrogram",
    "filterbank.design_filterbank",
    "features.extract_features",
    "dp_align.align",
    "formats.read_feature_csv",
    "formats.write_feature_csv",
    "formats.write_alignment_csv",
)
ROOT = "cli.main"
LAYERS = ("audio_io", "score", "filterbank", "features", "dp_align",
          "formats", "cli")

# functions whose allocation peak is measured under tracemalloc
ALLOC_TRACED = (
    "filterbank.compute_spectrogram",
    "dp_align.align",
    "formats.read_feature_csv",
)

# work done by a call, counted from its arguments and result
COUNTS = {
    # band-samples filtered: bands x input samples
    "filterbank.compute_spectrogram":
        lambda args, result: result.num_bands * len(args[0].samples),
    # DP table cells: chords x frames
    "dp_align.align": lambda args, result: len(args[0]) * args[1].num_frames,
}


def _install(names, call) -> None:
    """Route each function in ``names`` through
    ``call(name, original, *args, **kwargs)``, in every scoresync module
    that holds it, so the CLI's own lookups reach the wrapper."""
    for name in names:
        module, func = name.split(".")
        original = getattr(sys.modules[f"scoresync.{module}"], func)
        wrapper = _wrapper(call, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "scoresync" or mod_name.startswith("scoresync."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _wrapper(call, name, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return call(name, original, *args, **kwargs)
    return wrapper


class Tracer:
    """Collects spans (id, name, start, end, parent, run) in memory."""

    def __init__(self, run_id: str, prefix: str):
        self.run_id = run_id
        self.prefix = prefix
        self.spans: list[dict] = []
        self._stack: list[str] = []

    def install(self) -> None:
        _install(TRACED, self.call)

    def call(self, name, fn, *args, **kwargs):
        span = {"id": f"{self.prefix}/{len(self.spans)}", "name": name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if name in COUNTS:
            span["count"] = COUNTS[name](args, result)
        return result


class AllocProbe:
    """Peak bytes allocated during each call, traced by tracemalloc.

    Tracing runs only inside the measured calls, which must not nest; the
    rest of the command runs at full speed.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}

    def install(self) -> None:
        _install(ALLOC_TRACED, self.call)

    def call(self, name, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span: its duration minus the time its children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
