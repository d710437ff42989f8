"""Quadratic Lindblad dynamics at the matrix level.

A model is a Hermitian antisymmetric Hamiltonian kernel H (the quadratic
form ``sum_jk H_jk w_j w_k``) plus complex jump vectors ``l_a`` (jump
operators ``l_a . w``).  The drift and source of the steady-state Lyapunov
equation ``X G + G X^T = Y`` are

    X = 4 [ i H + Re(M) ],      Y = -8 i Im(M),     M = sum_a l_a l_a^dag.

The signs are pinned by the one-time calibration that a single lossy mode
(jump ``c = (w_1 - i w_2)/2``) must relax to the vacuum with
``<c^dag c> = 0``; the dense Lindblad oracle is the arbiter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatch,
    EmptyJumps,
    InstabilityDetected,
    NonUniqueSteadyState,
)
from .gaussian import CovarianceMatrix, validate
from .geometry import TangentSet, make_tangents

UNIQUENESS_TOL = 1e-10


@dataclass(frozen=True)
class QuadraticLindbladModel:
    """Hamiltonian kernel plus linear jump vectors."""

    n_modes: int
    h: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        d = 2 * self.n_modes
        if h.shape != (d, d):
            raise DimensionMismatch(f"h must be {d}x{d}, got {h.shape}")
        scale = max(np.max(np.abs(h)), 1e-14)
        if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
            raise DimensionMismatch("h must be Hermitian")
        if np.max(np.abs(h + h.T)) > 1e-12 * scale:
            raise DimensionMismatch("h must be antisymmetric")
        jumps = tuple(np.asarray(l, dtype=complex).reshape(-1) for l in self.jumps)
        for l in jumps:
            if l.size != d:
                raise DimensionMismatch(f"jump vector length {l.size} != {d}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "jumps", jumps)


@dataclass(frozen=True)
class ShapeMatrices:
    """Drift x, source y and bath matrix m of the Lyapunov fixed point."""

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class GapReport:
    """The three spectral-gap notions plus the drift spectrum."""

    delta: float
    delta_xhat: float
    delta_liouville: float
    spectrum: np.ndarray
    condition_estimate: float
    near_defective: bool


def bath_matrix(jumps: Sequence[np.ndarray]) -> np.ndarray:
    """PSD bath matrix ``M = sum_a l_a (x) l_a^dag``."""
    jumps = [np.asarray(l, dtype=complex).reshape(-1) for l in jumps]
    if not jumps:
        raise EmptyJumps("at least one jump vector is required")
    d = jumps[0].size
    for l in jumps:
        if l.size != d:
            raise DimensionMismatch("jump vectors must have equal length")
    m = np.zeros((d, d), dtype=complex)
    for l in jumps:
        m += np.outer(l, l.conj())
    return m


def shape_matrices(model: QuadraticLindbladModel) -> ShapeMatrices:
    """Assemble (X, Y, M) from the model; validates all invariants."""
    m = bath_matrix(model.jumps)
    x = np.real(4.0 * (1j * model.h + np.real(m)))
    y = numerics.hermitize_antisymmetric(-8j * np.imag(m))
    sym = x + x.T - 8.0 * np.real(m)
    if np.max(np.abs(sym)) > 1e-10 * max(1.0, np.max(np.abs(x))):
        raise DimensionMismatch("x + x^T != 8 Re(M); inconsistent assembly")
    # L L^dag and the k x k Gram matrix L^dag L of the jump vectors share
    # their nonzero spectrum, so the PSD check needs no d x d eigensolve
    jumps = np.stack(model.jumps, axis=1)
    gram = jumps.conj().T @ jumps
    if np.min(np.linalg.eigvalsh(gram)) < -1e-10 * max(1.0, np.max(np.abs(m))):
        raise InstabilityDetected("bath matrix has a significantly negative eigenvalue")
    return ShapeMatrices(x=x, y=y, m=m)


def _conjugate_pair_gaps(eigs: np.ndarray) -> float:
    """Minimum of ``Re(x_p + x_p~)`` over conjugate-matched pairs.

    Complex eigenvalues are matched with their conjugate partners; real
    eigenvalues are self-conjugate and contribute ``2 Re x``.  Singleton
    occupations of a real eigenvalue belong to the odd-parity sector and do
    not enter physical relaxation, which is what makes the three gap
    notions collapse onto each other.
    """
    eigs = np.asarray(eigs)
    scale = max(np.max(np.abs(eigs)), 1e-300)
    unmatched = list(range(eigs.size))
    best = np.inf
    while unmatched:
        i = unmatched.pop(0)
        if abs(np.imag(eigs[i])) <= 1e-10 * scale:
            best = min(best, 2.0 * float(np.real(eigs[i])))
            continue
        partner = None
        target = np.conj(eigs[i])
        dists = [(abs(eigs[j] - target), j) for j in unmatched]
        if dists:
            dist, j = min(dists)
            if dist <= 1e-8 * scale:
                partner = j
        if partner is not None:
            unmatched.remove(partner)
            best = min(best, float(np.real(eigs[i] + eigs[partner])))
        else:
            best = min(best, 2.0 * float(np.real(eigs[i])))
    return best


def gap_report(x: np.ndarray) -> GapReport:
    """Dissipative gap, Sylvester gap and Liouvillian gap of the drift."""
    eigs, cond = numerics.general_eigendecomposition(np.real(x))
    scale = max(np.max(np.abs(eigs)), 1e-300)
    if np.min(np.real(eigs)) < -1e-8 * scale:
        raise InstabilityDetected(
            f"drift spectrum has Re x = {np.min(np.real(eigs)):.3e} < 0; model unstable"
        )
    delta = 2.0 * float(np.min(np.real(eigs)))
    delta_xhat = float(np.min(np.abs(eigs[:, None] + eigs[None, :])))
    delta_liou = _conjugate_pair_gaps(eigs)
    return GapReport(
        delta=delta,
        delta_xhat=delta_xhat,
        delta_liouville=delta_liou,
        spectrum=np.sort_complex(eigs),
        condition_estimate=cond,
        near_defective=bool(cond > 1e8),
    )


def _unique_solver(x: np.ndarray, what: str) -> numerics.LyapunovSolver:
    """Schur-factored solver for the drift; raises if the steady state is not unique."""
    solver = numerics.LyapunovSolver(x)
    scale = max(np.max(np.abs(solver.spectrum)), 1e-300)
    if solver.pair_min <= UNIQUENESS_TOL * scale:
        raise NonUniqueSteadyState(f"Sylvester gap vanishes: {what}")
    return solver


def ness_covariance(shape: ShapeMatrices) -> CovarianceMatrix:
    """Unique steady-state covariance from the continuous Lyapunov equation."""
    solver = _unique_solver(shape.x, "steady state not unique")
    return validate(solver.solve(shape.y))


def ness_tangents(
    shape: ShapeMatrices,
    dxs: Sequence[np.ndarray],
    dys: Sequence[np.ndarray],
    gamma,
    parameters: Sequence[str] | None = None,
) -> TangentSet:
    """Steady-state tangents from ``X dG + dG X^T = dY - dX G - G dX^T``.

    Every tangent is solved on one Schur factorization of ``X``.
    """
    from .gaussian import as_gamma

    g = as_gamma(gamma)
    if len(dxs) != len(dys):
        raise DimensionMismatch("need matching dX and dY lists")
    if parameters is None:
        parameters = [f"l{i}" for i in range(len(dxs))]
    solver = _unique_solver(shape.x, "tangents undefined")
    d_gammas = []
    for dx, dy in zip(dxs, dys):
        dx = np.asarray(dx)
        rhs = numerics.hermitize_antisymmetric(np.asarray(dy, dtype=complex) - dx @ g - g @ dx.T)
        d_gammas.append(solver.solve(rhs))
    return make_tangents(parameters, d_gammas)
