"""Dense linear-algebra and analysis kernels.

Continuous Lyapunov solves (Schur-based, so defective drift matrices need no
special casing), eigendecompositions, polynomial roots with cluster
detection, periodic quadrature with point doubling, and log-log power-law
fits.  All tolerances are relative to input norms with an absolute floor of
1e-14.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    DimensionMismatch,
    NoConvergence,
    NonPositiveValue,
    NotAntisymmetric,
    NotFiniteRange,
    NotHermitian,
    SingularSylvester,
)

ABS_FLOOR = 1e-14

# Every d x d product and norm of a chain point runs on scipy's BLAS, the
# library its Schur factorization and ``trsyl`` must use: numpy bundles a
# second OpenBLAS whose worker threads, once woken by a numpy GEMM or norm,
# keep spinning and slow the next LAPACK call down by up to 40%.
_gemm = sla.get_blas_funcs("gemm", dtype=np.float64)
_nrm2 = sla.get_blas_funcs("nrm2", dtype=np.float64)


def _transposed_operand(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(m, trans)`` with ``op(m) = x^T`` for ``gemm``; C- and F-ordered
    ``x`` need no copy, any other view is copied by the wrapper."""
    if x.flags.f_contiguous and not x.flags.c_contiguous:
        return x, True
    return x.T, False


def _matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Real ``a @ b`` on scipy's BLAS as a C-ordered array; with ``c``, the
    update ``c -= a @ b`` in place (``c`` must not overlap ``a`` or ``b``).

    ``gemm`` is column-major, so it forms ``(a b)^T = b^T a^T``, whose
    column-major result is ``a b`` in row-major order.
    """
    bt, trans_b = _transposed_operand(b)
    at, trans_a = _transposed_operand(a)
    if c is None:
        return _gemm(1.0, bt, at, trans_a=trans_b, trans_b=trans_a).T
    if not c.size:
        return c
    ct = c.T
    out = _gemm(-1.0, bt, at, beta=1.0, c=ct, trans_a=trans_b, trans_b=trans_a, overwrite_c=True)
    if out is not ct:  # a non-contiguous c was updated on a copy
        c[...] = out.T
    return c


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a real array on scipy's BLAS."""
    v = np.ravel(a, order="K")
    return float(_nrm2(v)) if v.size else 0.0


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def hermitize_antisymmetric(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian-antisymmetric (purely imaginary) subspace."""
    im = np.imag(a)
    return 1j * 0.5 * (im - im.T)


# Leaf order of the recursive triangular Sylvester solve: below it one
# unblocked ``trsyl`` call is cheaper than another level of GEMM updates.
_SYLVESTER_LEAF = 64

_trsyl = sla.get_lapack_funcs("trsyl", dtype=np.float64)


def _opens_block(t: np.ndarray, i: int) -> bool:
    """True when rows ``i, i+1`` of a real Schur form hold one 2x2 block.

    This is LAPACK's rule (a nonzero subdiagonal entry), so the block
    scan below and the splits of the blocked solve agree with ``trsyl``.
    """
    return i + 1 < t.shape[0] and t[i + 1, i] != 0.0


# cos(atan2(0, w) / 2) for w < 0: the factor Python's ``complex(w) ** 0.5``
# puts on the real part of the root of a negative discriminant, kept so that
# the spectrum matches the scalar form bit for bit
_COS_HALF_PI = math.cos(math.atan2(0.0, -1.0) * 0.5)


def _quasi_triangular_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur form from its 1x1 / 2x2 diagonal blocks.

    A 2x2 block opens at every nonzero subdiagonal entry (a real Schur form
    never has two in a row).  Its discriminant root is taken as
    ``complex(w) ** 0.5`` takes it: libm ``pow(|w|, 0.5)``, which is not
    always ``sqrt``, and a real part ``root * cos(pi/2)`` when ``w < 0``.
    """
    eigs = np.diagonal(t).astype(complex)
    i = np.flatnonzero(np.diagonal(t, -1))
    a, b, c, d = t[i, i], t[i, i + 1], t[i + 1, i], t[i + 1, i + 1]
    tr, det = a + d, a * d - b * c
    w = tr * tr / 4.0 - det
    root = np.array([math.pow(v, 0.5) for v in np.abs(w).tolist()])
    neg = w < 0.0
    disc_re = np.where(neg, root * _COS_HALF_PI, root)
    disc_im = np.where(neg, root, 0.0)
    half = tr / 2.0
    eigs.real[i], eigs.imag[i] = half + disc_re, disc_im
    eigs.real[i + 1], eigs.imag[i + 1] = half - disc_re, 0.0 - disc_im
    return eigs


def _split_index(t: np.ndarray) -> int:
    """Middle index of a quasi-triangular ``t`` that does not cut a 2x2 block."""
    k = t.shape[0] // 2
    return k + 1 if _opens_block(t, k - 1) else k


def _solve_quasi_triangular_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Overwrite ``c`` with the solution ``Z`` of ``a Z + Z b^T = c``.

    ``a`` and ``b`` are upper quasi-triangular (real Schur forms).  The
    larger dimension is halved, the lower-right subproblem solved first and
    its coupling folded into the rest by one GEMM, so almost all flops run
    as level-3 BLAS; ``trsyl`` only sees leaf blocks (Jonsson & Kagstrom,
    ACM TOMS 28, 2002).
    """
    m, n = c.shape
    if max(m, n) <= _SYLVESTER_LEAF:
        z, scale, info = _trsyl(a, b, c, tranb="T")
        if info < 0:  # pragma: no cover - argument error
            raise SingularSylvester(f"trsyl failed with info={info}")
        c[...] = z if scale == 1.0 else z / scale
        return
    if m >= n:
        k = _split_index(a)
        _solve_quasi_triangular_sylvester(a[k:, k:], b, c[k:])
        _matmul(a[:k, k:], c[k:], c[:k])
        _solve_quasi_triangular_sylvester(a[:k, :k], b, c[:k])
    else:
        k = _split_index(b)
        _solve_quasi_triangular_sylvester(a, b[k:, k:], c[:, k:])
        _matmul(c[:, k:], b[:k, k:].T, c[:, :k])
        _solve_quasi_triangular_sylvester(a, b[:k, :k], c[:, :k])


def _solve_antisymmetric_lyapunov(t: np.ndarray, c: np.ndarray) -> None:
    """Overwrite the antisymmetric ``c`` with the antisymmetric ``Z`` of
    ``t Z + Z t^T = c``, ``t`` upper quasi-triangular.

    With ``t = [[T11, T12], [0, T22]]`` the lower-right block is solved by
    recursion, the upper-right block ``Z12`` by one Sylvester solve
    ``T11 Z12 + Z12 T22^T = C12 - T12 Z22``, the upper-left source takes the
    skew update ``C11 - (P - P^T)`` with ``P = Z12 T12^T``, and the lower-left
    block is ``-Z12^T``: about half the flops of the general solve.
    """
    n = c.shape[0]
    if n <= _SYLVESTER_LEAF:
        _solve_quasi_triangular_sylvester(t, t, c)
        return
    k = _split_index(t)
    _solve_antisymmetric_lyapunov(t[k:, k:], c[k:, k:])
    z12 = c[:k, k:]
    _matmul(t[:k, k:], c[k:, k:], z12)
    _solve_quasi_triangular_sylvester(t[:k, :k], t[k:, k:], z12)
    p = _matmul(z12, t[:k, k:].T)
    c[:k, :k] -= p - p.T
    _solve_antisymmetric_lyapunov(t[:k, :k], c[:k, :k])
    c[k:, :k] = -z12.T


class LyapunovSolver:
    """Schur-factored solver for ``X G + G X^T = Y`` with a fixed real drift.

    ``Y`` is Hermitian antisymmetric, hence purely imaginary, and so is
    ``G``: the solve runs in real arithmetic on ``A = Im G`` with
    ``X A + A X^T = Im Y``, and ``solve`` takes either ``Y`` or the real
    ``Im Y`` and answers in the same form.  The Bartels-Stewart
    back-substitution runs on the real Schur form, so a defective
    (Jordan-like) drift needs no special casing.  Factoring once and reusing
    the triangular solve is what makes steady state plus tangent sweeps
    cheap.
    """

    def __init__(self, x: np.ndarray):
        x = np.real(_as_square(x, "x"))
        self.x = x
        self._x_norm = _frobenius(x)
        try:
            self.t, self.u = sla.schur(x, output="real")
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceFailure(f"real Schur factorization failed: {exc}") from exc
        self.spectrum = _quasi_triangular_eigenvalues(self.t)
        scale = max(np.max(np.abs(self.spectrum)), ABS_FLOOR)
        self.pair_min = float(
            np.min(np.abs(self.spectrum[:, None] + self.spectrum[None, :]))
        )
        self._singular = self.pair_min <= max(1e-12 * scale, ABS_FLOOR)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """``G`` for a purely imaginary ``y``; ``A = Im G`` for a real ``y = Im Y``."""
        if self._singular:
            raise SingularSylvester(
                f"min |x_i + x_j| = {self.pair_min:.3e} below tolerance; "
                "Lyapunov equation has no unique solution"
            )
        y = np.asarray(y)
        imaginary = np.iscomplexobj(y)
        b = np.imag(y) if imaginary else y
        # ||X G + G X^T - Y||^2 = ||Re Y||^2 + ||X A + A X^T - Im Y||^2
        re_norm = _frobenius(np.real(y)) if imaginary else 0.0
        b_norm = _frobenius(b)
        y_norm = np.hypot(re_norm, b_norm)
        if re_norm > max(1e-12 * y_norm, ABS_FLOOR):
            raise NotHermitian(
                f"Lyapunov source has a real part of norm {re_norm:.3e}; "
                "a Hermitian antisymmetric source is purely imaginary"
            )
        if _frobenius(b + b.T) > max(1e-12 * b_norm, ABS_FLOOR):
            raise NotAntisymmetric("Lyapunov source is not antisymmetric")
        z = _matmul(self.u.T, _matmul(b, self.u))
        z -= z.T
        z *= 0.5
        _solve_antisymmetric_lyapunov(self.t, z)
        a = _matmul(self.u, _matmul(z, self.u.T))
        del z  # free the d x d scratch before the residual check
        a -= a.T
        a *= 0.5
        # A is antisymmetric, so A X^T = -(X A)^T
        res = _matmul(self.x, a)
        res -= res.T
        res -= b
        res = np.hypot(re_norm, _frobenius(res))
        bound = 1e-10 * (self._x_norm * _frobenius(a) + y_norm)
        if res > max(bound, ABS_FLOOR):
            raise SingularSylvester(
                f"Lyapunov residual {res:.3e} exceeds {bound:.3e}; equation is near singular"
            )
        return 1j * a if imaginary else a


def solve_continuous_lyapunov(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``X G + G X^T = Y`` for the covariance matrix ``G``.

    ``x`` is real with spectrum in the closed right half plane; ``y`` is
    Hermitian antisymmetric, and so is the returned ``G``.

    Raises
    ------
    SingularSylvester
        when ``min_{ij} |x_i + x_j|`` is below tolerance (the equation has
        no unique solution) or the residual check fails.
    """
    x = _as_square(x, "x")
    y = _as_square(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatch(f"x {x.shape} and y {y.shape} differ")
    return LyapunovSolver(x).solve(y)


def general_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of a real square matrix plus a defectiveness estimate.

    The condition estimate is the condition number of the eigenvector
    matrix; values ``>~ 1e8`` flag a nearly defective (Jordan-like)
    spectrum.
    """
    a = _as_square(a)
    try:
        vals, vecs = sla.eig(np.asarray(a, dtype=float))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(vecs))
    if not np.isfinite(cond):
        cond = np.inf
    return vals, cond


def polynomial_roots(coefficients: Sequence[complex]) -> np.ndarray:
    """Roots of ``sum_k c_k z^k`` (coefficients in ascending order)."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=complex))
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        raise DegenerateInput("all polynomial coefficients are zero")
    # trim trailing (leading-power) zeros relative to the coefficient scale
    nz = np.nonzero(np.abs(c) > ABS_FLOOR * scale)[0]
    c = c[: nz[-1] + 1]
    if c.size == 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def periodic_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    tolerance: float,
    *,
    initial_points: int = 32,
    max_points: int = 1 << 21,
) -> complex:
    """Integrate ``f`` over one period ``[-pi, pi)`` by trapezoid doubling.

    For a periodic integrand the trapezoid rule on equispaced points is the
    rectangle rule and converges spectrally for smooth ``f``.  Points are
    doubled (reusing previous evaluations) until two successive estimates
    differ by less than ``max(tolerance * max(1, |I|), 1e-14)``.
    """
    m = int(initial_points)
    phis = -np.pi + 2.0 * np.pi * np.arange(m) / m
    vals = np.asarray(f(phis), dtype=complex)
    total = np.sum(vals)
    estimate = 2.0 * np.pi * total / m
    while m < max_points:
        mids = -np.pi + 2.0 * np.pi * (np.arange(m) + 0.5) / m
        total = total + np.sum(np.asarray(f(mids), dtype=complex))
        m *= 2
        new_estimate = 2.0 * np.pi * total / m
        if np.abs(new_estimate - estimate) <= max(
            tolerance * max(1.0, np.abs(new_estimate)), ABS_FLOOR
        ):
            estimate = new_estimate
            return complex(estimate) if np.iscomplexobj(vals) else float(estimate.real)
        estimate = new_estimate
    raise NoConvergence(
        f"periodic quadrature did not settle within {max_points} points "
        "(near-critical integrand?)",
        last_estimate=complex(estimate),
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``value = prefactor * n**exponent``."""

    exponent: float
    prefactor: float
    r_squared: float
    n_range: tuple[int, int]


def fit_power_law(samples: Sequence[tuple[int, float]]) -> PowerLawFit:
    """Fit a power law through ``(n, value)`` samples in log-log space.

    Raises NotFiniteRange when the prefactor ``exp(intercept)`` overflows.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise NonPositiveValue(f"need at least 4 samples, got {len(samples)}")
    ns = np.array([s[0] for s in samples], dtype=float)
    vs = np.array([s[1] for s in samples], dtype=float)
    if np.any(vs <= 0.0) or np.any(ns <= 0):
        raise NonPositiveValue("power-law fit requires positive sizes and values")
    ln_n, ln_v = np.log(ns), np.log(vs)
    a = np.vstack([ln_n, np.ones_like(ln_n)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ln_v, rcond=None)
    fitted = a @ np.array([slope, intercept])
    ss_res = float(np.sum((ln_v - fitted) ** 2))
    ss_tot = float(np.sum((ln_v - np.mean(ln_v)) ** 2))
    r2 = 1.0 if ss_tot <= ABS_FLOOR else 1.0 - ss_res / ss_tot
    if intercept > math.log(np.finfo(float).max):
        raise NotFiniteRange(f"prefactor exp({intercept:.6g}) overflows a double")
    return PowerLawFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        n_range=(int(np.min(ns)), int(np.max(ns))),
    )
