"""Run one scoresync CLI call in a fresh interpreter and report on it.

    python3 perfbench/child.py {run|trace|alloc} RUN_ID PREFIX ARGV_JSON

Prints one JSON line: the seconds spent importing ``scoresync.cli``, the
seconds in ``cli.main`` after the import, its exit code and the peak RSS
of this process. ``trace`` adds the spans around each layer's calls,
``alloc`` the tracemalloc peak of the memory-heavy calls. The process
exits with the CLI's exit code.
"""

import json
import resource
import sys
import time


def main() -> int:
    mode, run_id, prefix, argv = sys.argv[1:5]
    argv = json.loads(argv)
    start = time.perf_counter()
    from scoresync import cli
    import_s = time.perf_counter() - start

    import tracing
    tracer = probe = None
    if mode == "trace":
        tracer = tracing.Tracer(run_id, prefix)
        tracer.install()
    elif mode == "alloc":
        probe = tracing.AllocProbe()
        probe.install()
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")

    start = time.perf_counter()
    try:
        if tracer is not None:
            code = tracer.call(tracing.ROOT, cli.main, argv)
        else:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - start

    report = {
        "import_s": import_s,
        "wall_s": wall_s,
        "code": code,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    if probe is not None:
        report["peaks"] = probe.peaks
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
