"""One workload pass in a fresh interpreter; run.py starts one per pass.

Set-up is the time from the start of this script to the end of a tiny
warm-up cell: importing ``nessgeom`` and the lazy imports the first cell
pulls in.  Then the workload's ``nessgeom`` invocations run through
``cli.main`` in order, timed as ``run_s``.  With tracing on, the wrappers
from ``tracing.py`` are installed before the warm-up and its spans are
dropped.  The last line on stdout is one JSON object.

Usage: python3 child.py '<json spec>'   (spec keys: src, warmup,
invocations, trace, trace_out)
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import nessgeom.cli as cli

    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"imported nessgeom from {cli.__file__}, not from {spec['src']}")
    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    model, params, quantities = spec["warmup"]
    cli.evaluate_point(model, params, tuple(quantities))
    out = {"setup_s": time.perf_counter() - T0}
    if spec["invocations"]:
        if recorder is not None:
            recorder.reset()
        t0 = time.perf_counter()
        for argv in spec["invocations"]:
            code = cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"nessgeom {' '.join(argv)} exited with {code}")
        out["run_s"] = time.perf_counter() - t0
        if recorder is not None:
            out["layers"] = tracing.layer_metrics(recorder.spans, recorder.counts)
            out["spans"] = len(recorder.spans)
            recorder.dump(spec["trace_out"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
