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
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import geometry, numerics
from .errors import DimensionMismatch, EmptyJumps, InstabilityDetected
from . import gaussian
from .gaussian import CovarianceMatrix, EigenmodeDecomposition, as_gamma, validate
from .geometry import GeometryResult, TangentSet


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
class PointGeometry:
    """Dissipative gap ``2 min Re x``, steady state ``G = i a`` with its
    canonical eigenmodes, tangents and QGT at one point; ``tangents`` and
    ``qgt`` are None when no direction was given."""

    gap: float
    a: np.ndarray
    modes: EigenmodeDecomposition
    tangents: TangentSet | None
    qgt: GeometryResult | None

    @property
    def gamma(self) -> np.ndarray:
        """The steady-state covariance ``G = i a`` as a complex matrix."""
        return 1j * self.a


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


def ness_covariance(shape: ShapeMatrices) -> CovarianceMatrix:
    """Unique steady-state covariance from the continuous Lyapunov equation.

    Raises SingularSylvester when the steady state is not unique.
    """
    return validate(numerics.LyapunovSolver(shape.x).solve(shape.y))


def _solve_tangents(
    solver: numerics.LyapunovSolver,
    a: np.ndarray,
    parameters: Sequence[str],
    derivatives: Iterable[tuple[np.ndarray, np.ndarray]],
) -> TangentSet:
    """Tangents from ``X dG + dG X^T = dY - dX G - G dX^T``, all on ``solver``.

    With ``G = iA`` and a real ``dX`` the source is ``i [B - (P - P^T)]``
    with ``P = dX A`` and ``B = Im dY`` antisymmetrized: one real GEMM and
    one real solve for ``dA``.
    """
    d_a = []
    for dx, dy in derivatives:
        source = numerics._matmul(np.real(np.asarray(dx)), a)
        source = source.T - source
        if np.iscomplexobj(dy):  # a real dY has no imaginary part to add
            b = np.imag(dy)
            source += 0.5 * (b - b.T)
        d_a.append(solver.solve(source))
    return TangentSet(parameters=tuple(parameters), d_a=tuple(d_a))


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
    if len(dxs) != len(dys):
        raise DimensionMismatch("need matching dX and dY lists")
    if parameters is None:
        parameters = [f"l{i}" for i in range(len(dxs))]
    solver = numerics.LyapunovSolver(shape.x)
    a = np.imag(as_gamma(gamma))
    return _solve_tangents(solver, 0.5 * (a - a.T), parameters, zip(dxs, dys))


def point_geometry(
    shape: ShapeMatrices,
    derivatives: Mapping[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> PointGeometry:
    """Gap, steady state, tangents along ``derivatives`` (parameter ->
    ``(dX, dY)``) and their QGT, all on one factorization of ``X`` and one
    real eigenframe of ``G``, in real arithmetic throughout.

    Uniqueness is the solver's own test: SingularSylvester when a pair sum
    of the drift spectrum vanishes or the residual check fails.  The
    occupations of the frame give the ``||G|| <= 1`` check (NormExceedsOne).
    """
    solver = numerics.LyapunovSolver(shape.x)
    gap = 2.0 * float(np.min(np.real(solver.spectrum)))
    a = solver.solve(np.imag(shape.y))
    modes = gaussian.real_eigenmodes(a)
    gaussian.check_norm(modes.gammas)
    if not derivatives:
        return PointGeometry(gap, a, modes, None, None)
    tangents = _solve_tangents(solver, a, tuple(derivatives), derivatives.values())
    return PointGeometry(gap, a, modes, tangents, geometry.qgt(modes, tangents))
