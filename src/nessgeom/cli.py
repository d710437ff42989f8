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
import os
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


MUC_KEYS = ("muc_pair", "muc_mode")


def _check_params(model_name: str, params: dict, axes=()) -> None:
    """Refuse, before any cell runs, a key the model does not take (a field
    of ``BoundaryXYParams``, or a symbol builder's parameter or one of the
    MUC keys), a value of a numeric key that is not a finite number, and a
    boundary_xy ``n`` that is missing or not a whole number.  ``axes`` pairs
    each grid axis name with its values; a name given twice is refused,
    since the header would record a value the cells did not use."""
    from . import models

    for name, values in axes:
        if name in params:
            raise BadSpec(f"parameter {name!r} is given twice; name it in one --set, "
                          f"--grid or --sizes only")
        params = {**params, name: values}

    if model_name == "boundary_xy":
        accepted = tuple(f.name for f in fields(models.BoundaryXYParams))
    elif model_name in SYMBOL_MODELS:
        builder = getattr(models, SYMBOL_MODELS[model_name][0])
        accepted = (*inspect.signature(builder).parameters, *MUC_KEYS)
    else:
        raise BadSpec(f"unknown model {model_name!r}")
    for key, value in params.items():
        if key not in accepted:
            raise BadSpec(f"model {model_name!r} takes no parameter {key!r} "
                          f"(accepted: {', '.join(accepted)})")
        if key in MUC_KEYS:
            continue
        try:
            values = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise BadSpec(f"parameter {key!r} must be a number, got {value!r}") from None
        if not np.all(np.isfinite(values)):
            raise BadSpec(f"parameter {key!r} must be finite, got {value!r}")
        if model_name == "boundary_xy" and key == "n" and np.any(np.mod(values, 1.0) != 0.0):
            raise BadSpec(f"n counts sites and must be a whole number, got {value!r}")
    if model_name == "boundary_xy" and "n" not in params:
        raise BadSpec("model 'boundary_xy' needs n, the number of sites (--set n=...)")


def _check_quantities(command: str, model_name: str, quantities: tuple) -> None:
    """Refuse an empty ``--quantities``, a name the model lacks and a name given twice."""
    if not quantities:
        raise BadSpec(f"{command} needs --quantities")
    accepted = FINITE_QUANTITIES if model_name == "boundary_xy" else SYMBOL_QUANTITIES
    for i, q in enumerate(quantities):
        if q not in accepted:
            raise BadSpec(f"--quantities: model {model_name!r} has no quantity {q!r} "
                          f"(accepted: {', '.join(accepted)})")
        if q in quantities[:i]:
            raise BadSpec(f"--quantities names {q!r} twice")


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
    geom_needed = {"gmax", "detg", "muc", "R"} & set(quantities)
    # no name holds the model or its shape matrices: point_geometry frees
    # them as soon as its stages are done with them
    point = liouvillian.point_geometry(
        liouvillian.shape_matrices(models.build_boundary_driven_xy(p)),
        models.boundary_xy_shape_derivatives(p) if geom_needed else None,
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
        out["xi"] = momentum.correlation_length(model).xi
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


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    """The values of one ``--grid`` axis, ``stop`` included."""
    return np.arange(start, stop + 0.5 * step, step)


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
        if not self.axes:
            raise BadSpec("sweep needs at least one --grid axis")
        for name, start, stop, step in self.axes:
            if not np.all(np.isfinite((start, stop, step))):
                raise BadSpec(f"axis {name}: start, stop and step must be finite, "
                              f"got {start!r}:{stop!r}:{step!r}")
            if step <= 0:
                raise BadSpec(f"axis {name}: step must be positive")
        _check_params(self.model, self.fixed, [(a[0], _axis(*a[1:])) for a in self.axes])
        _check_quantities("sweep", self.model, self.quantities)

    def grid(self):
        axes_values = [_axis(*a[1:]) for a in self.axes]
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
        if self.model != "boundary_xy":
            raise BadSpec("finite-size scaling is defined for the boundary_xy model")
        # the sizes are the n of each run, held to the rule of --set n=...
        _check_params(self.model, self.fixed, [("n", tuple(self.sizes))])
        if list(self.sizes) != sorted(set(self.sizes)):
            raise BadSpec(f"--sizes must ascend, each size once: {','.join(map(_fmt, self.sizes))}")
        _check_quantities("scaling", self.model, self.quantities)


# --- output ------------------------------------------------------------------------


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _run_grid(spec, names: list, points, chunksize: int) -> list[dict]:
    """Each grid row's results, in order, on ``spec.jobs`` worker processes
    when that is above 1.  A cell takes ``spec.fixed`` plus the row's value
    of each axis in ``names`` (``validate`` refuses a name given twice)."""
    tasks = [(spec.model, {**spec.fixed, **{k: float(v) for k, v in zip(names, row)}},
              spec.quantities) for row in points]
    if spec.jobs <= 1:
        return [_worker(t) for t in tasks]
    # imported here: the pool loads multiprocessing, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
        return list(pool.map(_worker, tasks, chunksize=chunksize))


def _csv_table(kind: str, spec, names: list, points, results: list[dict]) -> str:
    """A ``#`` header (version, model, fixed parameters), then one line per grid row."""
    fixed = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(spec.fixed.items()))
    lines = [f"# nessgeom {kind} v{__version__}", f"# model: {spec.model}", f"# fixed: {fixed}",
             ",".join([*names, *spec.quantities])]
    for row, res in zip(points, results):
        lines.append(",".join([_fmt(v) for v in row] + [_fmt(res[q]) for q in spec.quantities]))
    return "\n".join(lines) + "\n"


def run_sweep(spec: SweepSpec) -> str:
    spec.validate()
    names, points = spec.grid()
    results = _run_grid(spec, names, points, chunksize=8)
    if spec.fmt == "json":
        rows = [{**{name: _fmt(v) for name, v in zip(names, row)},
                 **{q: _fmt(res[q]) for q in spec.quantities}}
                for row, res in zip(points, results)]
        text = _json_text({"model": spec.model, "fixed": spec.fixed, "rows": rows})
    else:
        text = _csv_table("sweep", spec, names, points, results)
    _write_text(spec.out, text)
    return text


def run_scaling(spec: ScalingSpec) -> tuple[str, str]:
    from .numerics import fit_power_law

    spec.validate()
    # the sizes are one grid axis, n
    points = [(n,) for n in spec.sizes]
    results = _run_grid(spec, ["n"], points, chunksize=1)
    csv_text = _csv_table("scaling", spec, ["n"], points, results)
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
        "fixed": spec.fixed,
        "sizes": [int(n) for n in spec.sizes],
        "fit_window": [int(spec.sizes[0]), int(spec.sizes[-1])],
        "fits": fits,
        "samples": {q: [_json_value(res[q]) for res in results] for q in spec.quantities},
    }
    json_text = _json_text(report)
    base = spec.out[:-4] if spec.out and spec.out.endswith(".csv") else spec.out
    for ext, text in ((".csv", csv_text), (".json", json_text)):
        _write_text(base + ext if base else None, text)
    return csv_text, json_text


# --- geometry / spectrum single-point reports ----------------------------------------


def run_geometry(model: str, params: dict) -> dict:
    if model != "boundary_xy":
        raise BadSpec("geometry report is defined for the boundary_xy model")
    _check_params(model, params)
    return _boundary_xy_point(params, FINITE_QUANTITIES)


def run_spectrum(model: str, params: dict) -> dict:
    from . import liouvillian, models

    _check_params(model, params)
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
            "condition_estimator": rep.condition_estimator,
            "spectrum": [[float(z.real), float(z.imag)] for z in rep.spectrum],
        }
    out = _symbol_point(model, params, ("gap",))
    return {"gap_on_circle": out["gap"]}


# --- argument plumbing ---------------------------------------------------------------


def _number(text: str):
    """``text`` as a float, or stripped when it is none (``_check_params``
    names a numeric key's text value)."""
    try:
        return float(text)
    except ValueError:
        return text.strip()


def _parse_set(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise BadSpec(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = _number(v)
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


_POINT_FLAGS = (
    ("--model", {"default": "boundary_xy"}),
    ("--set", {"action": "append", "metavar": "key=value"}),
    ("--out", {}),
    ("--config", {"help": "INI file whose [subcommand] section sets flags by long name"}),
)
_RUN_FLAGS = (
    *_POINT_FLAGS,
    ("--quantities", {"default": "", "metavar": "gap,gmax,muc"}),
    ("--jobs", {"type": int, "help": "worker pool width (default: available cores)"}),
)
# each subcommand's help text and flags; a config file's keys are these flags
_SUBCOMMANDS = {
    "sweep": ("grid sweep to CSV", (
        *_RUN_FLAGS,
        ("--grid", {"action": "append", "metavar": "axis=start:stop:step"}),
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    )),
    "scaling": ("finite-size scaling fits",
                (*_RUN_FLAGS, ("--sizes", {"default": "", "metavar": "20,40,80"}))),
    "geometry": ("one-point geometry report", _POINT_FLAGS),
    "spectrum": ("gap report at one point", _POINT_FLAGS),
    "oracle": ("randomized cross-module self checks", (
        ("--seed", {"type": int, "default": 0}),
        ("--cases", {"type": int, "default": 10}),
        ("--convention-flip", {"action": "store_true", "help": "negative-control hook"}),
    )),
}


def _config_words(args) -> list[str]:
    """The ``[command]`` section of ``args.config`` as command-line words.

    Each key is a flag's long name; ``set`` and ``grid`` take comma-separated
    lists.  The words go before the explicit ones, so an explicit flag wins
    and ``set`` entries merge key by key, while an explicit ``--grid``
    replaces the file's axes.
    """
    # no interpolation: a value is taken as written, "%" included
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(args.config):
        raise IoFailure(f"cannot read config file {args.config}")
    if args.command not in parser:
        return []
    flags = dict(_SUBCOMMANDS[args.command][1])
    words = []
    for key, value in parser[args.command].items():
        if "--" + key not in flags:
            raise BadSpec(f"config key {key!r} names no flag of {args.command} "
                          f"(accepted: {', '.join(f[2:] for f in flags)})")
        if flags["--" + key].get("action") != "append":
            words.append(f"--{key}={value}")
        elif not (key == "grid" and args.grid):
            words += [f"--{key}={v.strip()}" for v in value.split(",") if v.strip()]
    return words


def build_parser() -> argparse.ArgumentParser:
    # no flag prefixes: a flag is named in full, as its config key must be
    parser = argparse.ArgumentParser(
        prog="nessgeom",
        description="Geometry of fermionic Gaussian steady states: sweeps, scaling, spectra.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args([argv[0], *_config_words(args), *argv[1:]])
        if args.command == "oracle":
            from . import _selfchecks

            results = _selfchecks.run_all(seed=args.seed, cases=args.cases,
                                          convention_flip=args.convention_flip)
            failed = [name for name, ok, _ in results if not ok]
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
            return 3 if failed else 0
        fixed = _parse_set(args.set)
        if args.command in ("geometry", "spectrum"):
            run = run_geometry if args.command == "geometry" else run_spectrum
            _write_text(args.out, _json_text(run(args.model, fixed)))
            return 0
        jobs = args.jobs or os.cpu_count() or 1
        if args.command == "sweep":
            run_sweep(SweepSpec(args.model, fixed, _parse_grid(args.grid),
                                _names(args.quantities), args.out, jobs, args.format))
        else:
            sizes = tuple(_number(n) for n in _names(args.sizes))
            run_scaling(ScalingSpec(args.model, fixed, sizes, _names(args.quantities),
                                    args.out, jobs))
    except BadSpec as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except NessGeomError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
