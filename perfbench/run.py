"""nessgeom benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 30 --trace 0

Each pass of a workload is a fresh interpreter (``child.py``) that imports
``nessgeom`` from ``src/``, runs one tiny warm-up cell (set-up) and then the
workload's ``nessgeom`` invocations through ``cli.main`` with ``--jobs 1``:
a closed loop, one client, one job at a time.  Passes repeat until
``--seconds`` have elapsed and the medians are reported.  After the timed
region the output files are checked (see ``checks.py``) and the critical
probes are evaluated.  ``--trace 1`` runs one untraced pass and then traced
passes, and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn and prints a table (for people, not for the contract).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import predictions  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics this script adds to those of tracing.layer_metrics
RUN_LAYER_METRICS = (
    "cli.cells_failed", "cli.probe_unnamed_errors", "trace.run_s", "trace.untraced_run_s",
    "trace.overhead_s", "trace.span_cost_s", "trace.unaccounted_s",
)
SETUP_SAMPLES = 5  # set-up is measured in at least this many fresh interpreters
# The shared 2-core host has slow spells that can stretch one pass 3x; the
# median of three passes absorbs one such pass.
MIN_PASSES = 3
PASS_BUDGET_S = 110.0  # no pass starts this close to the end of this much time
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed pass)."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("calls", ".points", "cells_failed", "unnamed_errors")):
        return "count"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith("_per_factorization"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {name!r}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        cfg = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class Runner:
    def __init__(self, root: str, workload, workdir: str):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.workdir = workdir
        self.log = os.path.join(workdir, "child.log")
        self.outputs: dict[str, bytes] | None = None
        self.mismatched: set[str] = set()

    def child(self, *, invocations: bool, trace: bool, timeout: float) -> dict:
        """One fresh interpreter: set-up, then (optionally) the workload."""
        model, params, quantities = self.workload.warmup
        spec = {
            "src": self.src,
            "warmup": [model, params, list(quantities)],
            "invocations": [list(i.argv) for i in self.workload.invocations] if invocations else [],
            "trace": trace,
            "trace_out": os.path.join(self.workdir, "spans.jsonl"),
        }
        with open(self.log, "a", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=self.workdir, stdout=subprocess.PIPE, stderr=log, text=True,
                timeout=max(timeout, 1.0),
            )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            with open(self.log, encoding="utf-8") as log:
                tail = "".join(log.readlines()[-20:])
            raise BenchError(f"workload pass exited with {proc.returncode}:\n{tail}")
        result = json.loads(lines[-1])
        if invocations:
            self._compare_outputs()
        return result

    def _compare_outputs(self):
        """Every pass must write byte-identical outputs (the CLI is deterministic)."""
        current = {}
        for inv in self.workload.invocations:
            for name in inv.outputs:
                with open(os.path.join(self.workdir, name), "rb") as fh:
                    current[name] = fh.read()
        if self.outputs is None:
            self.outputs = current
        else:
            self.mismatched |= {k for k, v in current.items() if self.outputs[k] != v}


def run_workload(root: str, name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = workloads.make(name, seed)
    workdir = os.path.join(root, ".perfbench_work", name)
    os.makedirs(workdir, exist_ok=True)
    for stale in os.listdir(workdir):
        os.remove(os.path.join(workdir, stale))
    runner = Runner(root, wl, workdir)
    started = time.perf_counter()

    def remaining() -> float:
        return CHILD_TIMEOUT_S - (time.perf_counter() - started)

    untraced, traced = [], []
    if trace:
        untraced.append(runner.child(invocations=True, trace=False, timeout=remaining()))
    passes = traced if trace else untraced
    min_passes = 1 if trace else MIN_PASSES
    while True:
        t0 = time.perf_counter()
        passes.append(runner.child(invocations=True, trace=trace, timeout=remaining()))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        if elapsed + last > PASS_BUDGET_S:
            break
        # about round(seconds / pass) passes, and never fewer than min_passes
        if len(passes) >= min_passes and elapsed + 0.5 * last >= seconds:
            break
    setups = [p["setup_s"] for p in untraced]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setup_only = runner.child(invocations=False, trace=False, timeout=remaining())
            setups.append(setup_only["setup_s"])

    # correctness: error cells, pass-to-pass differences, independent recomputes
    failed: dict[str, str] = {}
    raised = []  # class and message of each failed cell, evaluated again directly
    attempted = 0
    for inv in wl.invocations:
        argv = list(inv.argv)
        model = argv[argv.index("--model") + 1]
        quantities = tuple(argv[argv.index("--quantities") + 1].split(","))
        for out in inv.outputs:
            if not out.endswith(".csv"):
                continue
            fixed, rows = checks.read_csv(os.path.join(workdir, out))
            attempted += len(rows)
            for i, why in checks.error_cells(os.path.join(workdir, out)).items():
                failed[f"{out}:{i}"] = why
                params = checks.cell_params(fixed, rows[i], quantities)
                raised.append(checks.probe(model, params, quantities))
    for out in runner.mismatched:
        failed[f"{out}:*"] = "output differs between passes"
    for check in wl.checks:
        for i, why in checks.run_check(check, workdir).items():
            failed.setdefault(f"{check.output}:{i}", why)
    probes = [checks.probe(*p) for p in wl.probes]

    record = {
        "workload": name,
        "argv": [list(i.argv) for i in wl.invocations],
        "environment": environment(seed),
        "passes": {"untraced": untraced, "traced": [
            {k: v for k, v in p.items() if k != "layers"} for p in traced]},
        "setup_samples_s": setups,
        "failed_cells": failed,
        "failed_cell_errors": raised,
        "probes": probes,
    }
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
    }
    if trace:
        layers = {
            k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]
        }
        layers["cli.cells_failed"] = len(failed)
        layers["cli.probe_unnamed_errors"] = sum(
            1 for p in probes if "raised" in p and not p["named_error"])
        traced_run = statistics.median(p["run_s"] for p in traced)
        layers["trace.run_s"] = traced_run
        layers["trace.untraced_run_s"] = untraced[0]["run_s"]
        layers["trace.overhead_s"] = traced_run - untraced[0]["run_s"]
        layers["trace.span_cost_s"] = traced[0]["spans"] * tracing.span_overhead_s()
        layers["trace.unaccounted_s"] = traced_run - layers["trace.self_sum_s"]
        record["predictions"] = predictions.verdicts(name, layers)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p["run_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record["metrics"] = metrics
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    result["metrics"] = metrics
    result["record"] = record
    return result


def _summary(name: str, result: dict) -> list[str]:
    rec = result["record"]
    lines = [f"record: {json.dumps(rec['environment'], sort_keys=True)}"]
    lines.append(
        f"{name}: failed_fraction = {result['failed']}/{result['attempted']} cells"
        f" = {result['failed'] / result['attempted']:.4g} (ratio)"
    )
    for key, why in sorted(rec["failed_cells"].items()):
        lines.append(f"{name}: failed cell {key}: {why}")
    for label, evaluated in (("failed cell", rec["failed_cell_errors"]), ("probe", rec["probes"])):
        for p in evaluated:
            if "raised" in p:
                kind = "named NessGeomError" if p["named_error"] else "NOT a NessGeomError"
                outcome = f"raised {p['raised']} ({kind}): {p['message']}"
            else:
                outcome = str(p["values"])
            lines.append(f"{name}: {label} {p['model']} {p['params']}: {outcome}")
    for verdict in rec.get("predictions", []):
        lines.append(f"{name}: prediction {verdict}")
    for key, m in result["metrics"].items():
        lines.append(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nessgeom", "cli.py")):
        print(f"no nessgeom source under {root}/src: run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            for line in _summary(name, results[name]):
                print(line, flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[names[0]].items() if k != "record"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
