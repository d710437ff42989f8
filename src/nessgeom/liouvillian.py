"""Quadratic Lindblad dynamics at the matrix level.

A model is a Hermitian antisymmetric Hamiltonian kernel H (the quadratic
form ``sum_jk H_jk w_j w_k``), held as its real antisymmetric ``Im H``,
plus complex jump vectors ``l_a`` (jump operators ``l_a . w``).  The drift
and source of the steady-state Lyapunov equation ``X G + G X^T = Y`` are

    X = 4 [ i H + Re(M) ],      Y = -8 i Im(M),     M = sum_a l_a l_a^dag.

H is purely imaginary, so X is real, and so is ``B = Im Y``: the steady
state ``G = iA`` solves ``X A + A X^T = B`` in real arithmetic.  The signs
are pinned by the one-time calibration that a single lossy mode (jump
``c = (w_1 - i w_2)/2``) must relax to the vacuum with ``<c^dag c> = 0``;
the dense Lindblad oracle is the arbiter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gaussian, geometry, numerics
from .errors import DimensionMismatch, EmptyJumps, InstabilityDetected
from .gaussian import CovarianceMatrix, EigenmodeDecomposition, as_gamma, validate
from .geometry import GeometryResult, TangentSet


@dataclass(frozen=True)
class QuadraticLindbladModel:
    """Hamiltonian kernel plus linear jump vectors.

    H is Hermitian and antisymmetric, hence purely imaginary, so the model
    holds the real antisymmetric ``h_im = Im H`` (``H = i h_im``).
    """

    n_modes: int
    h_im: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        h_im = np.asarray(numerics._real(self.h_im, "h_im"), dtype=float)
        d = 2 * self.n_modes
        if h_im.shape != (d, d):
            raise DimensionMismatch(f"h_im must be {d}x{d}, got {h_im.shape}")
        scale = max(np.max(np.abs(h_im)), 1e-14)
        skew = h_im + h_im.T
        if np.max(np.abs(skew, out=skew)) > 1e-12 * scale:
            raise DimensionMismatch("h_im must be antisymmetric")
        jumps = tuple(np.asarray(l, dtype=complex).reshape(-1) for l in self.jumps)
        for l in jumps:
            if l.size != d:
                raise DimensionMismatch(f"jump vector length {l.size} != {d}")
        object.__setattr__(self, "h_im", h_im)
        object.__setattr__(self, "jumps", jumps)


@dataclass(frozen=True)
class ShapeMatrices:
    """Real drift ``x`` and real antisymmetric source ``b = Im Y`` of the
    Lyapunov fixed point ``X A + A X^T = B``."""

    x: np.ndarray
    b: np.ndarray

    @property
    def y(self) -> np.ndarray:
        """The purely imaginary source ``Y = i b`` as a complex matrix."""
        return 1j * self.b


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
    """The three spectral-gap notions plus the drift spectrum, and an
    estimate of its eigenvector condition named by ``condition_estimator``;
    ``near_defective`` when that estimate exceeds ``NEAR_DEFECTIVE``."""

    delta: float
    delta_xhat: float
    delta_liouville: float
    spectrum: np.ndarray
    condition_estimate: float
    condition_estimator: str
    near_defective: bool


# eigenvector condition above which a drift is flagged as nearly defective
NEAR_DEFECTIVE = 1e8


def shape_matrices(model: QuadraticLindbladModel) -> ShapeMatrices:
    """Assemble the real drift ``X = 4 [Re M - Im H]`` and source
    ``B = Im Y = -8 Im M`` (antisymmetrized) in real arithmetic.

    Each jump ``l = u + iv`` adds ``Re(l l^dag) = u u^T + v v^T`` and
    ``Im(l l^dag) = v u^T - u v^T`` on its support, in model order, so no
    complex d x d array is formed.  M is PSD and X + X^T = 8 Re M by
    construction, given the real antisymmetric ``Im H`` the model checks.
    """
    if not model.jumps:
        raise EmptyJumps("at least one jump vector is required")
    d = model.h_im.shape[0]
    x = np.zeros((d, d))
    b = np.zeros((d, d))
    for l in model.jumps:
        support = np.flatnonzero(l)
        u, v = l.real[support], l.imag[support]
        block = np.ix_(support, support)
        x[block] += np.outer(u, u) + np.outer(v, v)
        b[block] += np.outer(v, u) - np.outer(u, v)
    x -= model.h_im
    x *= 4.0
    b *= -8.0
    b = b - b.T
    b *= 0.5
    return ShapeMatrices(x=x, b=b)


def gap_report(x: np.ndarray) -> GapReport:
    """Dissipative gap, Sylvester gap and Liouvillian gap of the drift, all
    read from ``numerics.LyapunovSolver(x)``, the factorization the point's
    geometry is solved on, so ``delta`` is ``point_geometry``'s gap bit for
    bit.

    The Sylvester gap ``min |x_i + x_j|`` is the solver's ``pair_min``.  The
    Liouvillian gap is the least sum over each conjugate pair and twice each
    real eigenvalue ``x`` (its singleton occupations belong to the
    odd-parity sector), which is why the three notions coincide.  The
    factorization also estimates the eigenvector condition (see
    ``condition_estimator``).
    """
    solver = numerics.LyapunovSolver(x)
    eigs = solver.spectrum
    lowest = float(np.min(np.real(eigs)))
    if lowest < -1e-8 * max(np.max(np.abs(eigs)), 1e-300):
        raise InstabilityDetected(f"drift spectrum has Re x = {lowest:.3e} < 0; model unstable")
    factor = solver._factor
    cond = factor.condition_estimate()
    return GapReport(
        delta=2.0 * lowest,
        delta_xhat=solver.pair_min,
        delta_liouville=float(np.min(factor.pair_sums())),
        spectrum=np.sort_complex(eigs),
        condition_estimate=cond,
        condition_estimator=factor.condition_estimator,
        near_defective=bool(cond > NEAR_DEFECTIVE),
    )


def ness_covariance(shape: ShapeMatrices) -> CovarianceMatrix:
    """Unique steady-state covariance from the continuous Lyapunov equation.

    Raises SingularSylvester when the steady state is not unique.
    """
    return validate(1j * numerics.LyapunovSolver(shape.x).solve(shape.b))


def _slope_product(dx, a: np.ndarray) -> np.ndarray:
    """``P = dX A`` from the nonzeros of the real ``dX``: a triple
    ``(rows, cols, vals)``, or a dense matrix read through ``np.nonzero``.

    :func:`numerics._sparse_product` adds each row's terms in column order,
    so for slopes with exact products (the boundary-XY slopes are +-1 and
    +-2) this is the GEMM's result bit for bit, at the cost of a gather per
    nonzero of the widest row instead of a d x d x d product.
    """
    if isinstance(dx, tuple):
        rows, cols, vals = (np.asarray(v) for v in dx)
        vals = numerics._real(vals, "dX")
    else:
        dx = numerics._real(dx, "dX")
        rows, cols = np.nonzero(dx)
        vals = dx[rows, cols]
    return numerics._sparse_product(numerics._padded_rows(rows, cols, vals, a.shape[0]), a)


def _tangent_source(a: np.ndarray, dx, db) -> np.ndarray:
    """``dB - (P - P^T)`` with ``P = dX A``; ``db=None`` means ``dB = 0``."""
    p = _slope_product(dx, a)
    source = p.T - p
    if db is not None:
        source += numerics._real(db, "dB")
    return source


def _solve_tangents(
    solver: numerics.LyapunovSolver,
    a: np.ndarray,
    parameters: Sequence[str],
    derivatives: Iterable[tuple],
) -> TangentSet:
    """Tangents from ``X dA + dA X^T = dB - dX A - A dX^T``, all on ``solver``.

    Each direction is a real pair ``(dX, dB)`` with ``dB = Im dY`` (see
    :func:`point_geometry`); one sparse product and one real solve for
    each ``dA``.  A source lives only inside its solve.
    """
    d_a = [solver.solve(_tangent_source(a, dx, db)) for dx, db in derivatives]
    return TangentSet(parameters=tuple(parameters), d_a=tuple(d_a))


def ness_tangents(
    shape: ShapeMatrices,
    dxs: Sequence[np.ndarray],
    dbs: Sequence[np.ndarray],
    gamma,
    parameters: Sequence[str] | None = None,
) -> TangentSet:
    """Steady-state tangents along the real directions ``(dX, dB = Im dY)``.

    Every tangent is solved on one factorization of ``X``.
    """
    if len(dxs) != len(dbs):
        raise DimensionMismatch("need matching dX and dB lists")
    if parameters is None:
        parameters = [f"l{i}" for i in range(len(dxs))]
    solver = numerics.LyapunovSolver(shape.x)
    a = np.imag(as_gamma(gamma))
    return _solve_tangents(solver, 0.5 * (a - a.T), parameters, zip(dxs, dbs))


def point_geometry(
    shape: ShapeMatrices,
    derivatives: Mapping[str, tuple] | None = None,
) -> PointGeometry:
    """Gap, steady state, tangents along ``derivatives`` and their QGT, all
    on one factorization of ``X`` and one real eigenframe of ``G``, in real
    arithmetic throughout.

    ``derivatives`` maps a parameter to the real pair ``(dX, dB = Im dY)``:
    ``dX`` dense or as its nonzeros ``(rows, cols, vals)``, ``dB`` dense or
    None where the source does not move.

    The stage order holds the fewest d x d arrays: the factorization of
    ``X`` (see :class:`numerics.LyapunovSolver`), the steady state ``A`` and
    the tangents on it; then,
    with ``b`` and the factorization released, the frame of ``G = iA`` and
    the QGT.  A caller that does not keep ``shape`` lets ``b`` and ``x`` go.

    Uniqueness is the solver's own test: SingularSylvester when a pair sum
    of the drift spectrum vanishes or the residual check fails.  The
    occupations of the frame give the ``||G|| <= 1`` check (NormExceedsOne).
    """
    solver = numerics.LyapunovSolver(shape.x)
    gap = 2.0 * float(np.min(np.real(solver.spectrum)))
    a = solver.solve(shape.b)
    del shape  # the solver keeps x; b is not read again
    tangents = None
    if derivatives:
        tangents = _solve_tangents(solver, a, tuple(derivatives), derivatives.values())
    del solver
    modes = gaussian.real_eigenmodes(a)
    gaussian.check_norm(modes.gammas)
    qgt = None if tangents is None else geometry.qgt(modes, tangents)
    return PointGeometry(gap, a, modes, tangents, qgt)
