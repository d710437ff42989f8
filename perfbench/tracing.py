"""Span tracing of nessgeom's public functions, installed from outside the package.

``install(recorder)`` replaces the module attributes (and two
``LyapunovSolver`` methods) listed in ``TIMED`` with thin wrappers.  Each
call records a span ``(id, name, start, end, parent, cell)``; spans of one
``cli.evaluate_point`` call share its cell id.  Spans stay in memory and are
written out when the run ends.  Self time is computed afterwards from the
spans alone: a span's duration minus the part of it that its child spans
cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# (module, attribute path, span name).  The two symbol builders share one name.
TIMED = (
    ("cli", "main", "cli.main"),
    ("cli", "evaluate_point", "cli.evaluate_point"),
    ("models", "build_boundary_driven_xy", "models.build_boundary_driven_xy"),
    ("models", "build_reservoir_chain", "models.symbol_builders"),
    ("models", "build_rotated_xy_dissipative", "models.symbol_builders"),
    ("liouvillian", "shape_matrices", "liouvillian.shape_matrices"),
    ("liouvillian", "gap_report", "liouvillian.gap_report"),
    ("liouvillian", "ness_covariance", "liouvillian.ness_covariance"),
    ("liouvillian", "ness_tangents", "liouvillian.ness_tangents"),
    ("numerics", "LyapunovSolver.__init__", "numerics.LyapunovSolver.init"),
    ("numerics", "LyapunovSolver.solve", "numerics.LyapunovSolver.solve"),
    ("numerics", "general_eigendecomposition", "numerics.general_eigendecomposition"),
    ("numerics", "periodic_quadrature", "numerics.periodic_quadrature"),
    ("numerics", "polynomial_roots", "numerics.polynomial_roots"),
    ("numerics", "fit_power_law", "numerics.fit_power_law"),
    ("geometry", "qgt", "geometry.qgt"),
    ("geometry", "incompatibility_ratio", "geometry.incompatibility_ratio"),
    ("gaussian", "purity", "gaussian.purity"),
    ("momentum", "rationalize", "momentum.rationalize"),
    ("momentum", "pole_structure", "momentum.pole_structure"),
    ("momentum", "correlation_length", "momentum.correlation_length"),
    ("momentum", "muc_per_site", "momentum.muc_per_site"),
    ("momentum", "gap_on_circle", "momentum.gap_on_circle"),
    ("momentum", "gamma_at_points", "momentum.gamma_at_points"),
    ("momentum", "symbol_covariance", "momentum.symbol_covariance"),
)

# span names as reported: muc_per_site is split by its ``mode`` argument
SPAN_NAMES = tuple(
    dict.fromkeys(
        n
        for _, _, name in TIMED
        for n in (
            (name + ".quadrature", name + ".residue")
            if name == "momentum.muc_per_site"
            else (name,)
        )
    )
)

CLI_SPANS = ("cli.main", "cli.evaluate_point")


def lyapunov_solve_flops(d: int) -> float:
    """Nominal flop count of one ``LyapunovSolver.solve`` on a d x d system.

    Computed, not measured: the complex right-hand side is carried as two
    real d x d matrices, so the forward transform ``U^T Y U`` and the back
    transform are 2 x 2 real GEMMs each (8 d^3), the residual check
    ``X G + G X^T`` is 2 x 2 GEMMs (8 d^3) and the two triangular Sylvester
    solves are 2 d^3 each (4 d^3): 28 d^3 in all.
    """
    return 28.0 * float(d) ** 3


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._cell: int | None = None
        self._cells = 0

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._cell = None
        self._cells = 0

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer_cell = self._cell
        if name == "cli.evaluate_point":
            self._cell = self._cells
            self._cells += 1
        span = Span(span_id, name, self.clock(), 0.0, parent, self._cell)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._cell = outer_cell

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def _points(z) -> int:
    """Number of angles or points in an array argument (1 for a scalar)."""
    return int(getattr(z, "size", 1))


def _wrapper(recorder: Recorder, name: str, fn):
    if name == "numerics.periodic_quadrature":

        @functools.wraps(fn)
        def quadrature(f, *args, **kwargs):
            def counted(phis):
                recorder.count(name + ".points", _points(phis))
                return f(phis)

            return recorder.call(name, fn, counted, *args, **kwargs)

        return quadrature
    if name == "momentum.muc_per_site":

        @functools.wraps(fn)
        def muc(*args, **kwargs):
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "quadrature")
            return recorder.call(f"{name}.{mode}", fn, *args, **kwargs)

        return muc
    if name in ("momentum.gamma_at_points", "momentum.symbol_covariance"):

        @functools.wraps(fn)
        def pointwise(model, z, *args, **kwargs):
            recorder.count(name + ".points", _points(z))
            return recorder.call(name, fn, model, z, *args, **kwargs)

        return pointwise
    if name == "numerics.LyapunovSolver.solve":

        @functools.wraps(fn)
        def solve(self, y, *args, **kwargs):
            recorder.count(name + ".flops", lyapunov_solve_flops(len(y)))
            return recorder.call(name, fn, self, y, *args, **kwargs)

        return solve

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)

    return plain


def install(recorder: Recorder) -> None:
    """Wrap every function in ``TIMED``; the package must import cleanly."""
    for module_name, attr, name in TIMED:
        owner = importlib.import_module(f"nessgeom.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, _wrapper(recorder, name, getattr(owner, leaf)))


# --- analysis ------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced workload pass (see ``PER_LAYER``)."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    cells = sorted(s.end - s.start for s in spans if s.name == "cli.evaluate_point")
    out["cli.evaluate_point.p50_s"] = _quantile(cells, 0.5)
    out["cli.evaluate_point.p90_s"] = _quantile(cells, 0.9)
    out["cli.self_s"] = sum(self_s[n] for n in CLI_SPANS)
    inits = calls["numerics.LyapunovSolver.init"]
    solves = calls["numerics.LyapunovSolver.solve"]
    # base: numerics.LyapunovSolver.init.calls; 0 when nothing was factored
    out["numerics.solves_per_factorization"] = solves / inits if inits else 0.0
    solve_s = self_s["numerics.LyapunovSolver.solve"]
    flops = counts.get("numerics.LyapunovSolver.solve.flops", 0.0)
    out["numerics.LyapunovSolver.solve.gflops"] = flops / solve_s / 1e9 if solve_s > 0 else 0.0
    for key in (
        "numerics.periodic_quadrature.points",
        "momentum.gamma_at_points.points",
        "momentum.symbol_covariance.points",
    ):
        out[key] = counts.get(key, 0)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out


def span_overhead_s(n: int = 20000) -> float:
    """Measured cost of one wrapped call around a no-op, in seconds."""
    rec = Recorder()
    noop = _wrapper(rec, "calibration", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    return (time.perf_counter() - t0) / n
