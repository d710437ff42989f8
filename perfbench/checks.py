"""Correctness checks on the CLI output files, run after the timed region.

Chain cells are recomputed with ``scipy.linalg.solve_continuous_lyapunov``,
which shares no solver code with ``nessgeom.numerics.LyapunovSolver``.
Symbol cells compare the two independent MUC pipelines (quadrature and
residue mode).  Every check returns the set of failed cells, each keyed by
``(output file, data-row index)``, with a reason.
"""
from __future__ import annotations

import math
import os

import numpy as np
import scipy.linalg as sla

MUC_AGREEMENT = 1e-8  # quadrature vs residue mode; observed agreement ~1e-11
FD_STEP = 1e-6  # the CLI's central-difference step for the shape derivatives


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """Fixed parameters from the ``# fixed:`` header line, and the data rows."""
    fixed: dict = {}
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# fixed:"):
                body = line[len("# fixed:"):].strip()
                for item in filter(None, body.split(",")):
                    k, v = item.split("=", 1)
                    fixed[k] = v
            elif line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return fixed, rows


def parse_cell(text: str):
    """A float, None for ``undefined``, or the error class name as a string."""
    if text == "undefined":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def error_cells(path: str) -> dict[int, str]:
    """Rows in which some cell carries an error class name or NaN instead of a value."""
    _, rows = read_csv(path)
    bad = {}
    for i, row in enumerate(rows):
        for k, v in row.items():
            cell = parse_cell(v)
            if isinstance(cell, str) or (isinstance(cell, float) and math.isnan(cell)):
                bad[i] = f"{k}={v}"
                break
    return bad


def cell_params(fixed: dict, row: dict, quantities) -> dict:
    """The ``--set`` and grid parameters of one output row, as the CLI parses them."""
    params = {}
    for k, v in list(fixed.items()) + [(k, v) for k, v in row.items() if k not in quantities]:
        try:
            params[k] = float(v)
        except ValueError:
            params[k] = v
    return params


def _hermitian_antisymmetric(a: np.ndarray) -> np.ndarray:
    im = np.imag(a)
    return 1j * 0.5 * (im - im.T)


def _lyapunov(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``G = i A`` with ``X A + A X^T = Im Y`` for purely imaginary ``Y``.

    The real form matters: scipy's complex path (two complex Schur forms)
    returns a solution with residual ~1e89 at delta = 0 on n = 40, where
    the real path agrees with ``LyapunovSolver`` to 2e-16.
    """
    return 1j * sla.solve_continuous_lyapunov(x, np.imag(y))


def chain_reference(delta: float, h: float, n: int) -> dict:
    """boundary_xy quantities from an independent Lyapunov solver."""
    from nessgeom import geometry, liouvillian, models

    def shape(dd, hh):
        return liouvillian.shape_matrices(
            models.build_boundary_driven_xy(models.BoundaryXYParams(dd, hh, n))
        )

    s = shape(delta, h)
    gamma = _hermitian_antisymmetric(_lyapunov(s.x, s.y))
    d_gammas = []
    for up, dn in (((delta + FD_STEP, h), (delta - FD_STEP, h)),
                   ((delta, h + FD_STEP), (delta, h - FD_STEP))):
        s_up, s_dn = shape(*up), shape(*dn)
        dx = (s_up.x - s_dn.x) / (2.0 * FD_STEP)
        dy = (s_up.y - s_dn.y) / (2.0 * FD_STEP)
        rhs = _hermitian_antisymmetric(dy - dx @ gamma - gamma @ dx.T)
        d_gammas.append(_hermitian_antisymmetric(_lyapunov(s.x, rhs)))
    res = geometry.qgt(gamma, geometry.make_tangents(("delta", "h"), d_gammas))
    occupations = np.linalg.eigvalsh(gamma)
    return {
        "gap": 2.0 * float(np.min(np.real(np.linalg.eigvals(s.x)))),
        "gmax": res.gmax(),
        "muc": abs(float(res.u[0, 1])),
        "R": res.r_ratio,
        "purity": math.sqrt(float(np.prod((1.0 + occupations**2) / 2.0))),
    }


def _close(got, want, rtol: float, atol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(got, str):
        return False
    return abs(got - want) <= atol + rtol * abs(want)


def check_chain(path: str, rows: tuple[int, ...]) -> dict[int, str]:
    """Compare gap, gmax, muc, R and purity of ``rows`` with the reference."""
    fixed, data = read_csv(path)
    bad = {}
    for i in rows:
        params = {k: float(v) for k, v in fixed.items()}
        params.update({k: float(v) for k, v in data[i].items() if k in ("n", "delta", "h")})
        try:
            ref = chain_reference(params["delta"], params["h"], int(params["n"]))
        except Exception as exc:  # noqa: BLE001 - a raising reference fails the cell
            bad[i] = f"independent solver raised {type(exc).__name__}: {exc}"
            continue
        gmax = ref["gmax"]
        # tolerances: eigenvalues of X to 1e-10 absolute; the metric, purity and
        # R to 1e-6 relative; the MUC to 1e-6 of gmax, its natural scale
        # (|U_12| <= 2 gmax), since it is rounding noise where it vanishes
        tol = {
            "gap": (1e-8, 1e-10),
            "gmax": (1e-6, 0.0),
            "muc": (0.0, 1e-6 * gmax),
            "R": (1e-6, 0.0),
            "purity": (1e-6, 0.0),
        }
        for q, (rtol, atol) in tol.items():
            if q not in data[i]:
                continue
            got = parse_cell(data[i][q])
            if not _close(got, ref[q], rtol, atol):
                bad[i] = f"{q}: CLI {data[i][q]} vs independent solver {ref[q]!r}"
                break
    return bad


def _reservoir_muc(lam: float, mode: str) -> float:
    from nessgeom import cli

    return cli.evaluate_point("reservoir_chain", {"lam": lam, "muc_mode": mode}, ("muc",))["muc"]


def check_muc(path: str, rows: tuple[int, ...] | None, other_mode: str) -> dict[int, str]:
    """MUC cells of ``path`` against the other MUC mode at the same lam."""
    _, data = read_csv(path)
    bad = {}
    for i in range(len(data)) if rows is None else rows:
        lam = float(data[i]["lam"])
        got = parse_cell(data[i]["muc"])
        try:
            want = _reservoir_muc(lam, other_mode)
        except Exception as exc:  # noqa: BLE001 - a raising reference fails the cell
            bad[i] = f"{other_mode} reference raised {type(exc).__name__}: {exc}"
            continue
        if not _close(got, want, 0.0, MUC_AGREEMENT):
            bad[i] = f"muc {data[i]['muc']} vs {other_mode} mode {want!r}"
    return bad


def run_check(check, workdir: str) -> dict[int, str]:
    path = os.path.join(workdir, check.output)
    if check.kind == "chain":
        return check_chain(path, check.rows)
    if check.kind == "muc_residue":
        return check_muc(path, check.rows, "quadrature")
    if check.kind == "muc_quadrature":
        return check_muc(path, check.rows, "residue")
    raise ValueError(f"unknown check kind {check.kind!r}")


def probe(model: str, params: dict, quantities: tuple[str, ...]) -> dict:
    """Evaluate one cell directly and keep the error's class and message."""
    from nessgeom import cli
    from nessgeom.errors import NessGeomError

    try:
        values = cli.evaluate_point(model, dict(params), tuple(quantities))
    except Exception as exc:  # noqa: BLE001 - the probe records whatever raised
        return {
            "model": model, "params": params, "quantities": list(quantities),
            "raised": type(exc).__name__, "message": str(exc),
            "named_error": isinstance(exc, NessGeomError),
        }
    return {
        "model": model, "params": params, "quantities": list(quantities),
        "values": {k: (None if v is None else float(v)) for k, v in values.items()},
    }
