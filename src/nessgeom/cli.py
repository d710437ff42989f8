"""Command-line front end.

Subcommands: ``sweep`` (phase-diagram grids), ``scaling`` (finite-size
power laws), ``geometry`` (one-point metric/curvature report), ``spectrum``
(gap reports) and ``oracle`` (randomized cross-module equivalence suites).
Output is CSV (with a ``#`` comment header recording model, parameters
and version) or JSON, printed with 17 significant digits so that
rerunning a spec reproduces files byte for byte; grid points that fail
carry the raising error's class name in their cells.
"""
from __future__ import annotations

import argparse
import configparser
import inspect
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import BadSpec, IoFailure, NessGeomError, NotFiniteRange

_FMT = "{:.17g}"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return "undefined"
    if isinstance(value, float) and np.isinf(value):
        return "inf"
    return _FMT.format(float(value))


def _json_value(value):
    """A float JSON can hold as a number; inf and NaN as their ``_fmt`` text."""
    if isinstance(value, float) and not np.isfinite(value):
        return _fmt(value)
    return value


def _json_text(report: dict) -> str:
    """Strict JSON (no ``Infinity`` or ``NaN``), sorted and indented."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# --- model adapters ---------------------------------------------------------------

FINITE_QUANTITIES = ("gap", "gmax", "detg", "muc", "R", "purity")
SYMBOL_QUANTITIES = ("gap", "muc", "xi")
# symbol models: the ``models`` builder (its signature names the parameters
# and holds their defaults) and the default MUC pair
SYMBOL_MODELS = {
    "reservoir_chain": ("build_reservoir_chain", "lam:theta"),
    "rotated_xy": ("build_rotated_xy_dissipative", "h:theta"),
}


def _check_keys(model_name: str, keys) -> None:
    """Refuse a key the model does not take: a field of ``BoundaryXYParams``,
    or a symbol builder's parameter or one of the MUC keys."""
    from . import models

    if model_name == "boundary_xy":
        accepted = tuple(f.name for f in fields(models.BoundaryXYParams))
    elif model_name in SYMBOL_MODELS:
        builder = getattr(models, SYMBOL_MODELS[model_name][0])
        accepted = (*inspect.signature(builder).parameters, "muc_pair", "muc_mode")
    else:
        raise BadSpec(f"unknown model {model_name!r}")
    for key in keys:
        if key not in accepted:
            raise BadSpec(f"model {model_name!r} takes no parameter {key!r} "
                          f"(accepted: {', '.join(accepted)})")


def _boundary_xy_params(params: dict):
    """A boundary_xy point from CLI parameters; unset rates keep the dataclass defaults."""
    from . import models

    rates = {f.name: float(params[f.name]) for f in fields(models.BoundaryXYParams)
             if f.name.startswith("kappa") and f.name in params}
    return models.BoundaryXYParams(
        float(params.get("delta", 1.25)), float(params.get("h", 0.3)), int(params["n"]), **rates
    )


def _boundary_xy_point(params: dict, quantities: tuple[str, ...]) -> dict:
    from . import gaussian, liouvillian, models

    p = _boundary_xy_params(params)
    shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
    geom_needed = {"gmax", "detg", "muc", "R"} & set(quantities)
    point = liouvillian.point_geometry(
        shape, models.boundary_xy_shape_derivatives(p) if geom_needed else None
    )
    cells = {
        "gap": lambda: point.gap,
        "purity": lambda: gaussian.purity(point.modes),
        "gmax": lambda: point.qgt.gmax(),
        "detg": lambda: float(np.linalg.det(point.qgt.g)),
        "muc": lambda: abs(float(point.qgt.u[0, 1])),
        "R": lambda: point.qgt.r_ratio,
    }
    return {q: cells[q]() for q in quantities if q in cells}


def _symbol_point(model_name: str, params: dict, quantities: tuple[str, ...]) -> dict:
    from . import models, momentum

    builder_name, default_pair = SYMBOL_MODELS[model_name]
    # looked up at call time, so that a wrapper installed on ``models`` sees the call
    builder = getattr(models, builder_name)
    model = builder(**{k: float(params[k]) for k in inspect.signature(builder).parameters
                       if k in params})
    out: dict = {}
    if "gap" in quantities:
        out["gap"] = momentum.gap_on_circle(model)
    if "xi" in quantities:
        rat = momentum.rationalize(model)
        out["xi"] = momentum.correlation_length(rat).xi
    if "muc" in quantities:
        pair = tuple(str(params.get("muc_pair", default_pair)).split(":"))
        out["muc"] = momentum.muc_per_site(
            model, pair, mode=str(params.get("muc_mode", "quadrature"))
        )
    return out


def evaluate_point(model_name: str, params: dict, quantities: tuple[str, ...]) -> dict:
    if model_name == "boundary_xy":
        return _boundary_xy_point(params, quantities)
    if model_name in SYMBOL_MODELS:
        return _symbol_point(model_name, params, quantities)
    raise BadSpec(f"unknown model {model_name!r}")


def _worker(task):
    model_name, params, quantities = task
    row = dict.fromkeys(quantities)
    try:
        row.update(evaluate_point(model_name, params, quantities))
    except Exception as exc:  # noqa: BLE001 - surfaced in-cell per contract
        row = dict.fromkeys(quantities, type(exc).__name__)
    return row


# --- specs -------------------------------------------------------------------------


@dataclass
class SweepSpec:
    model: str
    fixed: dict = field(default_factory=dict)
    axes: list = field(default_factory=list)  # (name, start, stop, step)
    quantities: tuple = ()
    out: str | None = None
    jobs: int = 1
    fmt: str = "csv"

    def validate(self):
        _check_keys(self.model, [*self.fixed, *(a[0] for a in self.axes)])
        if not self.axes:
            raise BadSpec("sweep needs at least one --grid axis")
        if not self.quantities:
            raise BadSpec("sweep needs --quantities")
        for name, start, stop, step in self.axes:
            if step <= 0:
                raise BadSpec(f"axis {name}: step must be positive")
        allowed = FINITE_QUANTITIES if self.model == "boundary_xy" else SYMBOL_QUANTITIES
        for q in self.quantities:
            if q not in allowed:
                raise BadSpec(f"quantity {q!r} not supported for model {self.model!r}")

    def grid(self):
        axes_values = [
            np.arange(start, stop + 0.5 * step, step) for _, start, stop, step in self.axes
        ]
        names = [a[0] for a in self.axes]
        mesh = np.meshgrid(*axes_values, indexing="ij")
        points = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return names, points


@dataclass
class ScalingSpec:
    model: str
    fixed: dict = field(default_factory=dict)
    sizes: tuple = ()
    quantities: tuple = ()
    out: str | None = None
    jobs: int = 1

    def validate(self):
        if len(self.sizes) < 4:
            raise BadSpec("scaling needs at least 4 sizes")
        if list(self.sizes) != sorted(self.sizes):
            raise BadSpec("sizes must be ascending")
        if not self.quantities:
            raise BadSpec("scaling needs --quantities")
        if self.model != "boundary_xy":
            raise BadSpec("finite-size scaling is defined for the boundary_xy model")
        _check_keys(self.model, self.fixed)


# --- output ------------------------------------------------------------------------


def _csv_header(spec_kind: str, model: str, fixed: dict) -> list[str]:
    fixed_txt = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items()))
    return [
        f"# nessgeom {spec_kind} v{__version__}",
        f"# model: {model}",
        f"# fixed: {fixed_txt}",
    ]


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _run_cells(tasks: list, jobs: int, chunksize: int) -> list[dict]:
    """Each task's row, in order; on ``jobs`` worker processes when ``jobs > 1``."""
    if jobs <= 1:
        return [_worker(t) for t in tasks]
    # imported here: the pool loads multiprocessing, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_worker, tasks, chunksize=chunksize))


def run_sweep(spec: SweepSpec) -> str:
    spec.validate()
    names, points = spec.grid()
    tasks = []
    for row in points:
        params = dict(spec.fixed)
        params.update({name: float(v) for name, v in zip(names, row)})
        tasks.append((spec.model, params, spec.quantities))
    results = _run_cells(tasks, spec.jobs, chunksize=8)
    if spec.fmt == "json":
        rows = []
        for row, res in zip(points, results):
            record = {name: _fmt(v) for name, v in zip(names, row)}
            record.update({q: _fmt(res[q]) for q in spec.quantities})
            rows.append(record)
        text = _json_text(
            {
                "model": spec.model,
                "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
                "rows": rows,
            }
        )
        _write_text(spec.out, text)
        return text
    lines = _csv_header("sweep", spec.model, spec.fixed)
    lines.append(",".join(list(names) + list(spec.quantities)))
    for row, res in zip(points, results):
        cells = [_fmt(v) for v in row] + [_fmt(res[q]) for q in spec.quantities]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    _write_text(spec.out, text)
    return text


def run_scaling(spec: ScalingSpec) -> tuple[str, str]:
    from .numerics import fit_power_law

    spec.validate()
    tasks = []
    for n in spec.sizes:
        params = dict(spec.fixed)
        params["n"] = int(n)
        tasks.append((spec.model, params, spec.quantities))
    results = _run_cells(tasks, spec.jobs, chunksize=1)
    lines = _csv_header("scaling", spec.model, spec.fixed)
    lines.append(",".join(["n"] + list(spec.quantities)))
    for n, res in zip(spec.sizes, results):
        lines.append(",".join([str(int(n))] + [_fmt(res[q]) for q in spec.quantities]))
    csv_text = "\n".join(lines) + "\n"
    fits = {}
    for q in spec.quantities:
        samples = [
            (int(n), float(res[q]))
            for n, res in zip(spec.sizes, results)
            if isinstance(res[q], (int, float)) and np.isfinite(res[q]) and res[q] > 0
        ]
        if len(samples) < 4:
            fits[q] = {"error": "insufficient positive samples"}
            continue
        try:
            fit = fit_power_law(samples)
        except NotFiniteRange as exc:
            fits[q] = {"error": f"NotFiniteRange: {exc}"}
            continue
        fits[q] = {
            "exponent": fit.exponent,
            "prefactor": fit.prefactor,
            "r_squared": fit.r_squared,
            "n_range": list(fit.n_range),
        }
    report = {
        "model": spec.model,
        "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
        "sizes": [int(n) for n in spec.sizes],
        "fit_window": [int(spec.sizes[0]), int(spec.sizes[-1])],
        "fits": fits,
        "samples": {q: [_json_value(res[q]) for res in results] for q in spec.quantities},
    }
    json_text = _json_text(report)
    if spec.out:
        base = spec.out[:-4] if spec.out.endswith(".csv") else spec.out
        _write_text(base + ".csv", csv_text)
        _write_text(base + ".json", json_text)
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(json_text)
    return csv_text, json_text


# --- oracle suite --------------------------------------------------------------------


def run_oracle_suite(seed: int = 0, cases: int = 10, convention_flip: bool = False) -> list[tuple[str, bool, str]]:
    """Randomized cross-module equivalence checks with recorded seeds.

    ``convention_flip`` is a test hook that deliberately flips the sign of
    the Lyapunov source in the dense anchor check; the suite must then
    report that check as failed (negative control).
    """
    from . import _selfchecks

    return _selfchecks.run_all(seed=seed, cases=cases, convention_flip=convention_flip)


# --- geometry / spectrum single-point reports ----------------------------------------


def run_geometry(model: str, params: dict) -> dict:
    if model != "boundary_xy":
        raise BadSpec("geometry report is defined for the boundary_xy model")
    _check_keys(model, params)
    return _boundary_xy_point(params, ("gap", "gmax", "detg", "muc", "R", "purity"))


def run_spectrum(model: str, params: dict) -> dict:
    from . import liouvillian, models

    _check_keys(model, params)
    if model == "boundary_xy":
        p = _boundary_xy_params(params)
        shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        rep = liouvillian.gap_report(shape.x)
        return {
            "delta": rep.delta,
            "delta_xhat": rep.delta_xhat,
            "delta_liouville": rep.delta_liouville,
            "near_defective": rep.near_defective,
            "condition_estimate": _json_value(rep.condition_estimate),
            "spectrum": [[float(z.real), float(z.imag)] for z in rep.spectrum],
        }
    out = _symbol_point(model, params, ("gap",))
    return {"gap_on_circle": out["gap"]}


# --- argument plumbing ---------------------------------------------------------------


def _parse_set(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise BadSpec(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            out[k.strip()] = v.strip()
    return out


def _parse_grid(items) -> list:
    axes = []
    for item in items or ():
        if "=" not in item or item.count(":") != 2:
            raise BadSpec(f"--grid expects axis=start:stop:step, got {item!r}")
        name, rng = item.split("=", 1)
        start, stop, step = (float(x) for x in rng.split(":"))
        axes.append((name.strip(), start, stop, step))
    return axes


def _load_config(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise IoFailure(f"cannot read config file {path}")
    if section not in parser:
        return {}
    return dict(parser[section])


def _merge_config(args, section: str):
    cfg = _load_config(args.config, section)
    if "model" in cfg and args.model is None:
        args.model = cfg["model"]
    if "set" in cfg:
        merged = _parse_set([s.strip() for s in cfg["set"].split(",") if s.strip()])
        merged.update(_parse_set(args.set))
        args._fixed = merged
    else:
        args._fixed = _parse_set(args.set)
    if hasattr(args, "grid"):
        grids = list(args.grid or [])
        if not grids and "grid" in cfg:
            grids = [s.strip() for s in cfg["grid"].split(",") if s.strip()]
        args._axes = _parse_grid(grids)
    if hasattr(args, "quantities"):
        q = args.quantities or cfg.get("quantities")
        args._quantities = tuple(s.strip() for s in (q or "").split(",") if s.strip())
    if hasattr(args, "sizes"):
        s = args.sizes or cfg.get("sizes")
        args._sizes = tuple(int(x) for x in (s or "").split(",") if x.strip())
    if getattr(args, "out", None) is None and "out" in cfg:
        args.out = cfg["out"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nessgeom",
        description="Geometry of fermionic Gaussian steady states: sweeps, scaling, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, sizes=False):
        p.add_argument("--model", default=None)
        p.add_argument("--set", action="append", metavar="key=value")
        if grid:
            p.add_argument("--grid", action="append", metavar="axis=start:stop:step")
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if sizes:
            p.add_argument("--sizes", metavar="20,40,80")
        p.add_argument("--quantities", metavar="gap,gmax,muc")
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="worker pool width (default: available cores)")
        p.add_argument("--config", default=None)

    common(sub.add_parser("sweep", help="grid sweep to CSV"), grid=True)
    common(sub.add_parser("scaling", help="finite-size scaling fits"), sizes=True)
    for name, text in (("geometry", "one-point geometry report"),
                       ("spectrum", "gap report at one point")):
        point = sub.add_parser(name, help=text)
        point.add_argument("--model", default=None)
        point.add_argument("--set", action="append", metavar="key=value")
        point.add_argument("--out", default=None)
        point.add_argument("--config", default=None)
    orc = sub.add_parser("oracle", help="randomized cross-module self checks")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--cases", type=int, default=10)
    orc.add_argument("--convention-flip", action="store_true", help="negative-control hook")
    return parser


def main(argv=None) -> int:
    import os

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            _merge_config(args, "sweep")
            spec = SweepSpec(
                model=args.model or "boundary_xy",
                fixed=args._fixed,
                axes=args._axes,
                quantities=args._quantities,
                out=args.out,
                jobs=args.jobs or os.cpu_count() or 1,
                fmt=args.fmt,
            )
            run_sweep(spec)
            return 0
        if args.command == "scaling":
            _merge_config(args, "scaling")
            spec = ScalingSpec(
                model=args.model or "boundary_xy",
                fixed=args._fixed,
                sizes=args._sizes,
                quantities=args._quantities,
                out=args.out,
                jobs=args.jobs or os.cpu_count() or 1,
            )
            run_scaling(spec)
            return 0
        if args.command in ("geometry", "spectrum"):
            _merge_config(args, args.command)
            run = run_geometry if args.command == "geometry" else run_spectrum
            report = run(args.model or "boundary_xy", args._fixed)
            _write_text(args.out, _json_text(report))
            return 0
        if args.command == "oracle":
            results = run_oracle_suite(
                seed=args.seed, cases=args.cases, convention_flip=args.convention_flip
            )
            failed = [name for name, ok, _ in results if not ok]
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
            return 3 if failed else 0
    except BadSpec as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except NessGeomError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
