"""Benchmark of the scoresync align pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, closed loop: one client runs one user command at a time,
each CLI call in a fresh interpreter (perfbench/child.py), for S seconds.
Every output is checked against the synthesizer's ground truth. With
``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. See
perfbench/NOTES.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

# every child is killed at this many seconds after the start of the run,
# so a hung command cannot keep the benchmark past its time limit
DEADLINE_S = 170.0
# the acceptance suite's floor for onsets below 50 ms; an alignment under
# it counts as a failed output, so a silent misalignment cannot pass
MIN_PCT_BELOW_50MS = 90.0
ALIGNMENT_HEADER = "score_index,beat,pitches,frame,time_s,cumulative_cost"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "median_err_ms": "ms",
    "pct_below_50ms": "%",
}

sys.path.insert(0, SRC)
try:
    import numpy
    import scipy

    import tracing
    import workloads
    from scoresync import synth_eval
except ImportError as exc:
    sys.exit(f"perfbench: cannot import scoresync from {SRC}: {exc}")


def _median(values):
    return statistics.median(values) if values else None


class Bench:
    """One workload's pieces, and the children that run commands on them."""

    def __init__(self, workload, pieces, workdir, deadline):
        self.workload = workload
        self.pieces = pieces
        self.workdir = workdir
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": SRC}
        self.attempted = 0
        self.failed = 0
        self.aligned: dict[int, list[float]] = {}  # piece -> checked times
        self.last_piece = 0  # piece of the last round of commands
        self.spans: list[dict] = []

    def _child(self, mode, run_id, prefix, argv):
        """Report of one CLI call, or None if it failed or timed out."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, run_id, prefix,
                 json.dumps(argv)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {argv[0]} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: {argv[0]} exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def user_command(self, mode, run_id, index):
        """Run one user command (one or two CLI calls) on piece ``index``
        and check its output.

        Returns the reports of its calls, or None if any call or the
        output check failed; either way the attempt is counted.
        """
        self.attempted += 1
        argvs, out = workloads.commands(self.workload, self.pieces[index],
                                        self.workdir, mode)
        reports = []
        for k, argv in enumerate(argvs):
            report = self._child(mode, run_id, f"{run_id}.{k}", argv)
            if report is None:
                self.failed += 1
                return None
            reports.append(report)
        if not self.check_alignment(out, index):
            self.failed += 1
            return None
        for report in reports:
            self.spans.extend(report.get("spans", ()))
        return reports

    def check_alignment(self, path, index) -> bool:
        """One row per chord in score order, strictly increasing frames,
        ``time_s == frame / effective rate`` and the accuracy floor."""
        piece = self.pieces[index]
        onsets = piece.score.onsets
        rate = self.workload.frame_rate
        try:
            with open(path) as f:
                lines = f.read().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            frames = [int(row[3]) for row in rows]
        except (OSError, IndexError, ValueError) as exc:
            return self._reject(path, f"unreadable: {exc}")
        if not lines or lines[0] != ALIGNMENT_HEADER:
            return self._reject(path, "bad header")
        if len(rows) != len(onsets):
            return self._reject(path, f"{len(rows)} rows for "
                                      f"{len(onsets)} chords")
        times, prev = [], -1
        for i, (row, frame, onset) in enumerate(zip(rows, frames, onsets)):
            expect = [str(i), f"{onset.beat:.6g}",
                      "+".join(map(str, onset.pitches)), str(frame),
                      f"{frame / rate:.6g}"]
            if row[:5] != expect or frame <= prev:
                return self._reject(path, f"row {i}: {row}")
            prev = frame
            times.append(float(row[4]))
        report = synth_eval.evaluate(times, piece.truth)
        if report.pct_below[50.0] < MIN_PCT_BELOW_50MS:
            return self._reject(path, f"only {report.pct_below[50.0]:.1f}% "
                                      f"of onsets below 50 ms")
        self.aligned[index] = times
        return True

    def accuracy(self):
        """Onset errors pooled over every piece with a checked output."""
        if not self.aligned:
            return None
        indices = sorted(self.aligned)
        return synth_eval.evaluate(
            [t for i in indices for t in self.aligned[i]],
            [t for i in indices for t in self.pieces[i].truth])

    @staticmethod
    def _reject(path, why) -> bool:
        print(f"perfbench: {os.path.basename(path)}: {why}", file=sys.stderr)
        return False

    def check_dump_identity(self, index):
        """Aligning piece ``index`` from the full-precision dump of the
        last timed command must give the same bytes as aligning it from
        the audio with the same flags."""
        self.attempted += 1
        piece = self.pieces[index]
        _, dumped = workloads.commands(self.workload, piece, self.workdir,
                                       "run")
        reference = os.path.join(self.workdir, "reference.align.csv")
        argv = workloads.reference_command(self.workload, piece, reference)
        report = self._child("run", "reference", "reference", argv)
        if report is None or not os.path.exists(dumped):
            self.failed += 1
            return
        with open(dumped, "rb") as a, open(reference, "rb") as b:
            if a.read() != b.read():
                self._reject(dumped, "differs from align --audio")
                self.failed += 1

    def _loop(self, seconds, modes, min_rounds):
        """Run user commands in ``modes`` in turn, cycling through the
        pieces, for at least ``min_rounds`` rounds and ``seconds``.

        Returns the reports of the good commands per mode.
        """
        results = {mode: [] for mode in modes}
        start = time.monotonic()
        i = 0
        while True:
            self.last_piece = i % len(self.pieces)
            for mode in modes:
                reports = self.user_command(mode, str(i), self.last_piece)
                if reports is not None:
                    results[mode].append(reports)
            i += 1
            now = time.monotonic()
            if (i >= min_rounds and now - start >= seconds) \
                    or now >= self.deadline:
                return results

    def timed(self, seconds) -> dict:
        runs = self._loop(seconds, ("run",), len(self.pieces))["run"]
        acc = self.accuracy()
        return {
            "wall_s": _median([sum(r["wall_s"] for r in reports)
                               for reports in runs]),
            "setup_s": _median([r["import_s"] for reports in runs
                                for r in reports]),
            "peak_rss_mb": _median([max(r["maxrss_mb"] for r in reports)
                                    for reports in runs]),
            "median_err_ms": acc.median_ms if acc else None,
            "pct_below_50ms": acc.pct_below[50.0] if acc else None,
        }

    def traced(self, seconds) -> dict[str, tuple[float, str]]:
        runs = self._loop(seconds, ("run", "trace"), 1)
        alloc = self.user_command("alloc", "alloc", self.last_piece)
        peaks = {}
        for report in alloc or ():
            for name, peak in report["peaks"].items():
                peaks[name] = max(peaks.get(name, 0), peak)

        own = tracing.self_times(self.spans)
        per_run: dict[str, dict[str, float]] = {}
        for s in self.spans:
            totals = per_run.setdefault(s["run"], {})
            layer = s["name"].split(".")[0]
            for key, value in ((s["name"], s["end"] - s["start"]),
                               (s["name"] + ".count", s.get("count", 0)),
                               (layer + ".self_s", own[s["id"]])):
                totals[key] = totals.get(key, 0.0) + value

        def med(key):
            return _median([t.get(key, 0.0) for t in per_run.values()]) or 0.0

        def rate(name):
            return _median([t[name + ".count"] / t[name] / 1e6
                            for t in per_run.values() if t.get(name)]) or 0.0

        walls = [sum(r["wall_s"] for r in reports) for reports in runs["run"]]
        dump = workloads.dump_path(self.workdir, "trace")
        metrics = {
            "filterbank.compute_spectrogram.s":
                (med("filterbank.compute_spectrogram"), "s"),
            "filterbank.band_msamples_per_s":
                (rate("filterbank.compute_spectrogram"), "Msamples/s"),
            "filterbank.design_filterbank.s":
                (med("filterbank.design_filterbank"), "s"),
            "filterbank.compute_spectrogram.peak_alloc_mb":
                (peaks.get("filterbank.compute_spectrogram", 0) / 1e6, "MB"),
            "dp_align.align.s": (med("dp_align.align"), "s"),
            "dp_align.cells": (med("dp_align.align.count"), "count"),
            "dp_align.mcells_per_s": (rate("dp_align.align"), "Mcells/s"),
            "dp_align.align.peak_alloc_mb":
                (peaks.get("dp_align.align", 0) / 1e6, "MB"),
            "formats.write_feature_csv.s":
                (med("formats.write_feature_csv"), "s"),
            "formats.write_feature_csv.mb":
                (os.path.getsize(dump) / 1e6 if os.path.exists(dump)
                 else 0.0, "MB"),
            "formats.read_feature_csv.s":
                (med("formats.read_feature_csv"), "s"),
            "formats.read_feature_csv.peak_alloc_mb":
                (peaks.get("formats.read_feature_csv", 0) / 1e6, "MB"),
            "audio_io.load_wav.s": (med("audio_io.load_wav"), "s"),
            "score.from_json.s": (med("score.from_json"), "s"),
            "features.extract_features.s":
                (med("features.extract_features"), "s"),
            "formats.write_alignment_csv.s":
                (med("formats.write_alignment_csv"), "s"),
            "trace.overhead_s":
                (med(tracing.ROOT) - (_median(walls) or 0.0), "s"),
        }
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
        return metrics


def stamp(workload, pieces, workdir, seed, trace) -> dict:
    """Versions, machine and input sizes that a result depends on."""
    piece = pieces[0]  # every piece of a workload has the same size
    argvs, _ = workloads.commands(workload, piece, workdir, "run")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "piece_seeds": [[seed, workload.sample_rate, i]
                        for i in range(len(pieces))],
        "trace": trace,
        "workload": {
            "name": workload.name,
            "why": workload.why,
            "pieces": len(pieces),
            "sample_rate": workload.sample_rate,
            "audio_s": piece.num_samples / workload.sample_rate,
            "M": len(piece.score),
            "N": piece.num_samples // workload.hop,
            "commands": [["scoresync", *(a.replace(workdir, "<work>")
                                         for a in argv)] for argv in argvs],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pieces = [workloads.make_piece(workload, args.seed, i, workdir)
                  for i in range(workload.pieces)]
        bench = Bench(workload, pieces, workdir, deadline)
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value
                       in bench.timed(args.seconds).items()}
        if workload.dump_window_factor is not None:
            bench.check_dump_identity(bench.last_piece)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if bench.spans:
        spans_path = os.path.join(
            WORK, f"spans-{workload.name}-{args.seed}.json")
        with open(spans_path, "w") as f:
            json.dump(bench.spans, f)

    print(json.dumps({"stamp": stamp(workload, pieces, workdir, args.seed,
                                     args.trace)}))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<46}{shown:>14} {unit}")
    print(f"{'failed_frac':<46}{bench.failed / bench.attempted:>14.6g} "
          f"({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
