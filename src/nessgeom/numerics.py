"""Dense linear-algebra and analysis kernels.

Continuous Lyapunov solves (Schur-based, so defective drift matrices need no
special casing, or in the eigenbasis of a boundary-driven drift, built from
its kernel's normal modes), eigendecompositions, polynomial roots with cluster
detection, periodic quadrature with point doubling, and log-log power-law
fits.  All tolerances are relative to input norms with an absolute floor of
1e-14.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    DimensionMismatch,
    NoConvergence,
    NonPositiveValue,
    NotAntisymmetric,
    NotFiniteRange,
    NotReal,
    SingularSylvester,
)

ABS_FLOOR = 1e-14

# Every d x d product and norm of a chain point runs on scipy's BLAS, the
# library its LAPACK factorizations and ``trsyl`` must use: numpy bundles a
# second OpenBLAS whose worker threads, once woken by a numpy GEMM or norm,
# keep spinning and slow the next LAPACK call down by up to 40%.
#
# scipy.linalg takes about 0.3 s to import and the symbol path never calls
# it, so it is imported on the first dense call: until then each handle
# below is a stub that binds all of them and runs the real routine, and after
# that the globals are scipy's own wrappers.


def _bind_scipy_handles() -> None:
    global _gemm, _nrm2, _trsyl
    import scipy.linalg as sla

    _gemm = sla.get_blas_funcs("gemm", dtype=np.float64)
    _nrm2 = sla.get_blas_funcs("nrm2", dtype=np.float64)
    _trsyl = sla.get_lapack_funcs("trsyl", dtype=np.float64)


def _first_call(name: str) -> Callable:
    def stub(*args, **kwargs):
        _bind_scipy_handles()
        return globals()[name](*args, **kwargs)

    return stub


_gemm, _nrm2, _trsyl = _first_call("_gemm"), _first_call("_nrm2"), _first_call("_trsyl")


def _transposed_operand(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(m, trans)`` with ``op(m) = x^T`` for ``gemm``; C- and F-ordered
    ``x`` need no copy, any other view is copied by the wrapper."""
    if x.flags.f_contiguous and not x.flags.c_contiguous:
        return x, True
    return x.T, False


def _matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` of real arrays on scipy's BLAS as a C-ordered array; with
    ``c``, the update ``c -= a @ b`` in place (``c`` must not overlap ``a``
    or ``b``).

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


def _real(a, name: str) -> np.ndarray:
    """``a`` as a real array; NotReal for a complex one, whose imaginary part
    a real-arithmetic kernel would otherwise drop."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise NotReal(f"{name} must be real, got a {a.dtype} array")
    return a


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _subtract_transpose(m: np.ndarray, block: int = 64) -> None:
    """``m -= m^T`` in place.

    numpy buffers the overlapping ``m.T``, a d x d copy.  Above two blocks
    of rows this goes a block of rows and columns at a time instead, each
    entry still ``m_ij - m_ji`` of the original entries.
    """
    if m.shape[0] <= 2 * block:
        m -= m.T
        return
    for i in range(0, m.shape[0], block):
        rows = m[i:i + block, i:] - m[i:, i:i + block].T
        m[i:, i:i + block] -= m[i:i + block, i:].T
        m[i:i + block, i:] = rows


# Leaf order of the recursive triangular Sylvester solve: below it one
# unblocked ``trsyl`` call is cheaper than another level of GEMM updates.
_SYLVESTER_LEAF = 64


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


def _pair_min(spectrum: np.ndarray, block: int = 64) -> float:
    """Sylvester gap ``min |x_i + x_j|`` over all pairs of the spectrum, a
    block of rows at a time."""
    return float(min(np.min(np.abs(spectrum[i:i + block, None] + spectrum))
                     for i in range(0, spectrum.size, block)))


def _padded_rows(rows, cols, vals, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros ``(rows, cols, vals)`` of a d-row matrix as ``(cols, vals)``,
    each d x k: row r's nonzeros in column order, then zeros up to the widest
    row's count k."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    width = int(rank.max(initial=-1)) + 1
    padded_cols = np.zeros((d, width), dtype=np.intp)
    padded_vals = np.zeros((d, width))
    padded_cols[rows, rank], padded_vals[rows, rank] = cols, vals
    return padded_cols, padded_vals


def _sparse_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_padded_rows` of a real x with at most eight nonzeros in every
    row (the boundary-XY drift has three), else None."""
    if x.size and np.max(np.count_nonzero(x, axis=1)) > 8:
        return None
    rows, cols = np.nonzero(x)
    return _padded_rows(rows, cols, x[rows, cols], x.shape[0])


def _sparse_product(padded: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """``S a`` for the sparse real S of :func:`_padded_rows`, a block of rows
    at a time, so no temporary holds more than 2^15 entries.

    Pass ``s`` adds each row's s-th nonzero, ``P[r] += v a[c]``, so every row
    takes its terms in column order after a zero start; a padding term adds
    ``0 a[0]``, which leaves every finite sum as it was.  For exact products
    (slopes of +-1 and +-2) this is the GEMM's result bit for bit.
    """
    cols, vals = padded
    p = np.zeros((cols.shape[0],) + a.shape[1:], dtype=np.result_type(a, vals))
    block = max(1, (1 << 15) // max(1, int(np.prod(a.shape[1:]))))
    for i in range(0, p.shape[0], block):
        rows = p[i:i + block]
        for s in range(cols.shape[1]):
            term = a[cols[i:i + block, s]]
            term *= vals[i:i + block, s, None]
            rows += term
    return p


class _SchurFactor:
    """``X = U T U^T``, real Schur: the general path.  The Bartels-Stewart
    back-substitution runs on T, so a defective (Jordan-like) drift needs no
    special casing."""

    path = "schur"
    condition_estimator = "schur_eig_2norm"

    def __init__(self, x: np.ndarray):
        import scipy.linalg as sla

        try:
            self.t, self.u = sla.schur(x, output="real")
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceFailure(f"real Schur factorization failed: {exc}") from exc
        self.spectrum = _quasi_triangular_eigenvalues(self.t)

    def pair_sums(self) -> np.ndarray:
        """The sum of each conjugate pair, a 2x2 block's trace, and twice
        each real eigenvalue, a 1x1 block."""
        diag = np.diagonal(self.t)
        pairs = np.flatnonzero(np.diagonal(self.t, -1))
        single = np.ones(diag.size, dtype=bool)
        single[pairs] = single[pairs + 1] = False
        return np.concatenate((2.0 * diag[single], diag[pairs] + diag[pairs + 1]))

    def condition_estimate(self) -> float:
        """Condition of the eigenvectors of T, a full ``eig``; U is
        orthogonal, so it is that of X."""
        return general_eigendecomposition(self.t)[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A`` before its antisymmetrization, for an antisymmetric ``b``."""
        # at most two d x d arrays besides b: each product's input goes as
        # soon as it is read, and no transpose is buffered
        z = _matmul(self.u.T, _matmul(b, self.u))
        _subtract_transpose(z)
        z *= 0.5
        _solve_antisymmetric_lyapunov(self.t, z)
        w = _matmul(z, self.u.T)
        del z
        a = _matmul(self.u, w)
        del w
        return a


# Order of the smallest drift that takes the modes path: the whole-cell
# crossover.  Median ms per boundary-XY cell through cli.evaluate_point (all
# six quantities: one factorization, three solves, the frame and the QGT),
# over 16 cells of delta in {0.25, 0.75, 1.25, 1.5} by h in {0.33, 0.63,
# 0.93, 1.23}, 11 alternating pairs in one process on a shared 2-vCPU box:
#
#   d            48    56    64    72    80    96    128
#   Schur path   3.45  4.25  5.07  8.34  9.34  17.05  31.22
#   modes path   4.12  4.30  4.73  6.95  6.74  10.92  16.77
#   modes lower  5/11  5/11  8/11  11/11 11/11 11/11  11/11
MODES_MIN_DIM = 64
# Ehrlich-Aberth sweeps before the modes path gives up.  The clean drifts
# measured settle in 4-27 sweeps, the slowest at small fields near the
# ordered phase's flat band.  A stalled drift, with nine in ten of its roots
# still moving after _ABERTH_CHECK_SWEEPS sweeps (a tight cluster of singular
# values), is sent to the Schur path before it costs more than that path.
_ABERTH_MAX_SWEEPS = 30
_ABERTH_CHECK_SWEEPS = 5
# most rows of the symmetric part (the bath) that the modes path takes
_BATH_MAX_RANK = 8
_EPS = float(np.finfo(float).eps)


class _Uncertified(Exception):
    """The modes factorization failed one of its certificates."""


def _bath_support(x: np.ndarray) -> np.ndarray | None:
    """Rows of the symmetric part of a boundary-driven drift, or None.

    The drift must have even order and ``X^T = P X P`` exactly, with
    ``P = diag((-1)^k)``: its antisymmetric part couples even to odd
    indices only, so it is the kernel ``[[0, J], [-J^T, 0]]`` in even/odd
    order, and its symmetric part, on at most ``_BATH_MAX_RANK`` rows,
    couples equal parities only.
    """
    if x.shape[0] % 2:
        return None
    even, odd, cross = x[0::2, 0::2], x[1::2, 1::2], x[0::2, 1::2]
    if not (np.array_equal(even, even.T) and np.array_equal(odd, odd.T)
            and np.array_equal(cross, -x[1::2, 0::2].T)):
        return None
    rows = np.concatenate((2 * np.flatnonzero(np.any(even, axis=1)),
                           2 * np.flatnonzero(np.any(odd, axis=1)) + 1))
    return np.sort(rows) if rows.size <= _BATH_MAX_RANK else None


def _pair_guesses(mu: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Starting roots: the eigenvalues of each mode pair's own 2x2 problem
    ``diag(i sigma, -i sigma) + C^H s C``, ``C = [c+, c-]``.

    They are ``a +- sqrt(|beta|^2 - sigma^2)``: a conjugate pair, or two
    real roots where the bath outweighs the splitting (the edge modes of
    the ordered phase).
    """
    n = mu.size // 2
    up, down = z[:n], z[n:]
    a = np.einsum("ka,ab,kb->k", up.conj(), s, up).real
    beta = np.einsum("ka,ab,kb->k", up.conj(), s, down)
    disc = np.abs(beta) ** 2 - mu[:n].imag ** 2
    root = np.sqrt(np.abs(disc)) * np.where(disc > 0.0, 1.0, 1j)
    return np.concatenate((a + root, a - root))


def _real_weights(weights: np.ndarray) -> np.ndarray:
    """The real ``2d x 2r^2`` matrix R with ``(C W).view(float) =
    C.view(float) R`` for the complex d x r^2 ``weights`` W, so that each
    complex product of the modes path is one real GEMM."""
    real = np.empty((2 * weights.shape[0], 2 * weights.shape[1]))
    real[0::2, 0::2] = real[1::2, 1::2] = weights.real
    real[0::2, 1::2] = weights.imag
    real[1::2, 0::2] = -weights.imag
    return real


def _weighted(cauchy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k cauchy_ik s c_k c_k^H`` for each row i of the C-ordered
    complex ``cauchy``, as r x r blocks; ``weights`` is :func:`_real_weights`."""
    r = math.isqrt(weights.shape[1] // 2)
    return _matmul(cauchy.view(float), weights).view(complex).reshape(-1, r, r)


def _secular_matrices(cauchy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``M = I - s G`` at each root of a block, from its Cauchy rows."""
    m = _weighted(cauchy, weights)
    m *= -1.0
    r = m.shape[1]
    m[:, np.arange(r), np.arange(r)] += 1.0
    return m


def _secular_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``M^-1 rhs`` for each r x r secular matrix of a block, by one batched
    LU.  An exactly singular M (its root is exact) is solved with its
    diagonal raised by ``eps ||M||_max``: a large, finite solution along its
    null vector."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        m = m.copy()
        r = m.shape[1]
        m[:, np.arange(r), np.arange(r)] += _EPS * np.max(np.abs(m), axis=(1, 2))[:, None]
        return np.linalg.solve(m, rhs)


def _aberth_roots(mu: np.ndarray, weights: np.ndarray, start: np.ndarray,
                  tol: float) -> np.ndarray:
    """Every root of ``prod_k (lam - mu_k) det(I - s G(lam))`` with
    ``G(lam) = sum_k c_k c_k^H / (lam - mu_k)``, from ``start``.

    ``weights`` is :func:`_real_weights` of ``vec(s c_k c_k^H)`` in row k.
    The polynomial is real, so a start above the real axis (its pair's
    other start, at the same offset in the second half, is its conjugate)
    is iterated alone and its partner kept as its conjugate; real starts
    are iterated in full.  A mirrored root whose imaginary part falls below
    its step may be heading for two real roots, which a conjugate pair
    cannot reach: the two are then moved apart by the step along the real
    axis and iterated in full.

    Ehrlich-Aberth a block of roots at a time, each block seeing the roots
    of the blocks before it (one block, all roots at once, up to 2^15
    Cauchy entries): the block's Cauchy rows ``1/(lam_i - mu_k)`` times
    ``weights`` give ``M = I - s G``, their squares ``s G_2 = -s G'``, so
    that ``p'/p = sum_k 1/(lam - mu_k) + tr(M^-1 s G_2)``.  A root freezes
    once its Newton step is below ``tol``.  Raises _Uncertified on a
    non-finite step, when nine in ten of the iterated roots still move after
    ``_ABERTH_CHECK_SWEEPS`` sweeps, or after ``_ABERTH_MAX_SWEEPS``.
    """
    d = mu.size
    n = d // 2
    lam = start.copy()
    mirrored = np.zeros(d, dtype=bool)
    mirrored[:n] = start[:n].imag > 0.0
    active = np.concatenate((np.arange(n), np.flatnonzero(~mirrored[:n]) + n))
    iterated = active.size
    with np.errstate(all="ignore"):
        for sweep in range(_ABERTH_MAX_SWEEPS):
            if not active.size:
                break
            if sweep == _ABERTH_CHECK_SWEEPS and 10 * active.size > 9 * iterated:
                raise _Uncertified(
                    f"{active.size} of {iterated} roots unsettled after {sweep} Aberth sweeps"
                )
            block = max(1, min(active.size, (1 << 15) // d))
            settled, split = [], []
            for i in range(0, active.size, block):
                idx = active[i:i + block]
                cauchy = np.reciprocal(lam[idx, None] - mu)
                poles = np.sum(cauchy, axis=1)
                m = _secular_matrices(cauchy, weights)
                cauchy *= cauchy
                y = _secular_solve(m, _weighted(cauchy, weights))
                newton = 1.0 / (poles + np.einsum("naa->n", y))
                gaps = lam[idx, None] - lam
                gaps[np.arange(idx.size), idx] = np.inf
                step = newton / (1.0 - newton * np.sum(np.reciprocal(gaps), axis=1))
                if not np.all(np.isfinite(step)):
                    raise _Uncertified("an Aberth step is not finite (coincident roots)")
                lam[idx] -= step
                mirror = mirrored[idx]
                done = np.abs(newton) <= tol
                low = mirror & ~done & (np.abs(lam[idx].imag) <= np.abs(step))
                lam[idx[mirror] + n] = lam[idx[mirror]].conj()
                settled.append(done)
                split.append((idx[low], np.abs(step[low]) + tol))
            active = active[~np.concatenate(settled)]
            split, spread = (np.concatenate(a) for a in zip(*split))
            if split.size:  # un-mirror: iterate both members in full, apart
                lam[split + n] = lam[split].conj() - spread
                lam[split] += spread
                mirrored[split] = False
                active = np.concatenate((active, split + n))
    if active.size:
        raise _Uncertified(
            f"{active.size} roots unsettled after {_ABERTH_MAX_SWEEPS} Aberth sweeps"
        )
    return lam


def _eigenvector_block(roots, mu, z, weights, w, v) -> np.ndarray:
    """Unscaled complex eigenvectors of the modes factorization, d x
    len(roots), at settled roots: ``v = sum_k u_k (c_k^H y)/(lam - mu_k)``
    with y the null vector of ``I - s G(lam)``, assembled as W and V times
    the Cauchy-scaled coefficients of the + and - modes.  y is the largest
    column of ``(I - s G)^-1``, a step of inverse iteration from each unit
    vector: its residual is at most ``sqrt(r)`` times the smallest singular
    value."""
    n = w.shape[0]
    cauchy = np.reciprocal(roots[:, None] - mu)
    m = _secular_matrices(cauchy, weights)
    inv = _secular_solve(m, np.broadcast_to(np.eye(m.shape[1]), m.shape))
    col = np.argmax(np.sum(inv.real ** 2 + inv.imag ** 2, axis=1), axis=1)
    coef = np.einsum("kr,br->kb", z.conj(), inv[np.arange(roots.size), :, col])
    coef *= cauchy.T
    del cauchy
    plus = np.ascontiguousarray(coef[:n] + coef[n:])
    minus = np.ascontiguousarray(coef[:n] - coef[n:])
    vec = np.empty((2 * n, roots.size), dtype=complex)
    vec[0::2] = _matmul(w, plus.view(float)).view(complex)
    vec[1::2] = _matmul(v, minus.view(float)).view(complex)
    vec[1::2] *= 1j
    return vec


def _scale_eigenvectors(vec: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Scale each column v of ``vec`` in place to ``v^T P v = 1`` where
    ``pair`` is True (a root above the real axis), and otherwise rotate it
    real and scale it to ``v^T P v = +-1``; returns those signs."""
    def nu(cols):
        return (np.einsum("kc,kc->c", cols[0::2], cols[0::2])
                - np.einsum("kc,kc->c", cols[1::2], cols[1::2]))

    vec[:, pair] /= np.sqrt(nu(vec[:, pair]))
    real = np.flatnonzero(~pair)
    phase = vec[np.argmax(np.abs(vec[:, real]), axis=0), real]
    rotated = (vec[:, real] / (phase / np.abs(phase))).real
    signs = np.sign(nu(rotated))
    vec[:, real] = rotated / np.sqrt(np.abs(nu(rotated)))
    return signs


class _ModesFactor:
    """``X = V Lambda V^-1`` for a boundary-driven drift ``X = K + E s E^T``
    (see :func:`_bath_support`), from the normal modes of the kernel K and
    a rank-r secular equation.

    With ``J = W Sigma V^T`` (an n x n SVD) the modes of K are
    ``u_k = [w_k; +-i v_k]/sqrt 2`` at ``mu_k = +-i sigma_k``, and the
    eigenvalues of X are the roots of ``det(I - s G(lam))`` with
    ``c_k = E^T u_k``.  Each eigenvector is ``sum_k u_k (c_k^H y) /
    (lam - mu_k)``, y the null vector of ``I - s G(lam)``: a Cauchy matrix
    times W and V.  The real basis ``V_r = [Re V+, Im V+, V_real]`` (a
    column pair per conjugate pair, then the real roots) is held as
    ``q = P V_r``: since ``X^T = P X P`` the left eigenvectors are ``P v``,
    so with each ``v`` scaled to ``v^T P v = +-1`` the inverse is
    ``V_r^-1 = N q^T``, N diagonal with 2, -2 and the signs of the real
    roots.  A solve is then GEMMs and an O(d^2) division by
    ``lam_i + lam_j``.

    Refused before Aberth, with _Uncertified, when two singular values of
    J above ``1e-12 sigma_max`` coincide to that tolerance: a double pole,
    as in the XX chain at zero field.  Certified before use, else
    _Uncertified: every root settled within the sweep cap (see
    :func:`_aberth_roots` for its early exit), the roots pair up as
    ``2m + q = d``, every root is
    within ``2 ||q|| ||X V_r - V_r Lambda_r|| <= 1e-11 ||X||`` of the
    spectrum of X (Bauer-Fike, as ``||V_r^-1|| <= 2 ||q||``), and
    ``||N q^T V_r - I|| <= 1e-6``, so ``V_r`` is a basis and ``N q^T`` its
    inverse.  ``x_rows`` and ``support`` are :func:`_sparse_rows` and
    :func:`_bath_support` of x, neither None.
    """

    path = "modes"
    condition_estimator = "modes_frobenius"

    def __init__(self, x: np.ndarray, x_rows, support: np.ndarray):
        import scipy.linalg as sla

        s = x[np.ix_(support, support)]
        s = 0.5 * (s + s.T)
        try:
            w, sigma, vt = sla.svd(x[0::2, 1::2], lapack_driver="gesdd")
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise _Uncertified(f"SVD of the kernel failed: {exc}") from exc
        v = vt.T
        del vt
        # a double pole of the secular equation (the XX chain at zero field),
        # which Aberth cannot settle; edge modes near zero are not one
        tol = 1e-12 * sigma[0]
        if np.any(np.diff(sigma[sigma > tol]) >= -tol):
            raise _Uncertified("two singular values of the kernel coincide")
        # c_k of the + modes: w on the even rows of the support, i v on the odd ones
        up = np.where(support % 2 == 0, w[support // 2].T, 1j * v[support // 2].T)
        z = np.concatenate((up, up.conj())) / math.sqrt(2.0)
        mu = np.concatenate((1j * sigma, -1j * sigma))
        zs = np.einsum("ka,ab->kb", z, s)
        weights = _real_weights((zs[:, :, None] * z.conj()[:, None, :]).reshape(mu.size, -1))
        del zs
        scale = float(sigma[0]) + float(np.max(np.abs(s))) * s.shape[0]  # >= ||X||_2
        lam = _aberth_roots(mu, weights, _pair_guesses(mu, z, s), 4.0 * _EPS * scale)

        cut = math.sqrt(_EPS) * scale
        upper, real = lam[lam.imag > cut], lam[np.abs(lam.imag) <= cut].real
        d, m = mu.size, upper.size
        if 2 * m + real.size != d:
            raise _Uncertified(f"{m} roots above the real axis, {d - m - real.size} below")
        self.spectrum = np.concatenate((upper, upper.conj(), real))
        self._alpha, self._beta, self._rho = upper.real, upper.imag, real
        self._signs = np.concatenate((np.full(m, 2.0), np.full(m, -2.0), np.ones(real.size)))
        self.q = np.empty((d, d))
        roots = np.concatenate((upper, real))
        # blocks of temporaries of at most 2^15 entries
        block = max(1, (1 << 15) // d)
        residual = 0.0
        with np.errstate(all="ignore"):  # a non-finite vector fails the bound below
            for j in range(0, roots.size, block):
                k = np.arange(j, min(j + block, roots.size))
                vec = _eigenvector_block(roots[k], mu, z, weights, w, v)
                self._signs[k[k >= m] + m] = _scale_eigenvectors(vec, k < m)
                xv = _sparse_product(x_rows, vec)
                xv -= vec * roots[k]
                residual += float(np.sum(xv.real ** 2 + xv.imag ** 2))
                del xv
                vec[1::2] *= -1.0
                pair = k[k < m]
                self.q[:, pair], self.q[:, pair + m] = vec[:, k < m].real, vec[:, k < m].imag
                self.q[:, k[k >= m] + m] = vec[:, k >= m].real
        del w, v
        bound = 2.0 * _frobenius(self.q) * math.sqrt(residual)
        if not bound <= 1e-11 * _frobenius(x):
            raise _Uncertified(f"eigenpair bound {bound:.3e} above 1e-11 ||X||")
        self._check_inverse(block)

    def pair_sums(self) -> np.ndarray:
        """The sum ``2 Re lam`` of each conjugate pair and twice each real root."""
        return 2.0 * np.concatenate((self._alpha, self._rho))

    def condition_estimate(self) -> float:
        """``||V_r||_F ||V_r^-1||_F = ||q||_F ||N q^T||_F``, in O(d^2); it
        bounds the 2-norm condition of ``V_r`` from above."""
        cols = np.sum(self.q * self.q, axis=0)
        return math.sqrt(float(np.sum(cols)) * float(np.sum(self._signs ** 2 * cols)))

    def _check_inverse(self, block: int) -> None:
        """``||N q^T V_r - I||_F <= 1e-6``, a block of columns at a time."""
        d = self.q.shape[0]
        err = 0.0
        for j in range(0, d, block):
            cols = self.q[:, j:j + block].copy()
            cols[1::2] *= -1.0
            prod = _matmul(self.q.T, cols)
            prod *= self._signs[:, None]
            prod[np.arange(j, j + cols.shape[1]), np.arange(cols.shape[1])] -= 1.0
            err += float(np.sum(prod * prod))
        if not math.sqrt(err) <= 1e-6:
            raise _Uncertified(f"||V^-1 V - I|| = {math.sqrt(err):.3e} above 1e-6")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A`` before its antisymmetrization: ``P q Z q^T P`` with
        ``Lambda_r Z + Z Lambda_r^T = N q^T b q N``."""
        q = self.q
        rows = np.flatnonzero(np.any(b, axis=1))
        if rows.size < b.shape[0]:  # a source on few rows, as the steady state's
            q, b = q[rows], b[np.ix_(rows, rows)]
        c = _matmul(q.T, _matmul(b, q))
        del q, b
        c *= self._signs[:, None]
        c *= self._signs
        _divide_by_pair_sums(c, self._alpha, self._beta, self._rho)
        w = _matmul(self.q, c)
        del c
        a = _matmul(w, self.q.T)
        del w
        a[1::2] *= -1.0
        a[:, 1::2] *= -1.0
        return a


def _divide_by_pair_sums(c: np.ndarray, alpha, beta, rho, block: int = 64) -> None:
    """Overwrite ``c`` with the Z of ``Lambda_r Z + Z Lambda_r^T = c``.

    ``Lambda_r`` is the real form of the spectrum in the order
    ``[Re (m), Im (m), real (q)]``: ``[[alpha, beta], [-beta, alpha]]`` on
    each pair, ``rho`` on each real root.  A 2x2 block of c splits into
    its parts that commute and anticommute with ``[[0, 1], [-1, 0]]``; as
    complex numbers they are divided by ``lam_i + conj(lam_j)`` and
    ``conj(lam_i + lam_j)``.  A 2x1 or 1x2 block is one complex division,
    a 1x1 block one real one.  Temporaries are a block of rows.
    """
    m = alpha.size
    pairs, reals = slice(0, m), slice(2 * m, None)
    for i in range(0, m, block):
        re, im = slice(i, min(i + block, m)), slice(m + i, m + min(i + block, m))
        a_i, b_i = alpha[re, None], beta[re, None]
        c11, c12 = c[re, pairs], c[re, m:2 * m]
        c21, c22 = c[im, pairs], c[im, m:2 * m]
        sums = a_i + alpha
        plus = ((c11 + c22) + 1j * (c12 - c21)) / (sums + 1j * (b_i - beta))
        minus = ((c11 - c22) + 1j * (c12 + c21)) / (sums - 1j * (b_i + beta))
        plus *= 0.5
        minus *= 0.5
        c11[...] = plus.real + minus.real
        c22[...] = plus.real - minus.real
        c12[...] = plus.imag + minus.imag
        c21[...] = minus.imag - plus.imag
        z = (c[re, reals] - 1j * c[im, reals]) / ((a_i + rho) + 1j * b_i)
        c[re, reals], c[im, reals] = z.real, -z.imag
    z = (c[reals, pairs] - 1j * c[reals, m:2 * m]) / ((rho[:, None] + alpha) + 1j * beta)
    c[reals, pairs], c[reals, m:2 * m] = z.real, -z.imag
    c[reals, reals] /= rho[:, None] + rho


class LyapunovSolver:
    """Factored solver for ``X A + A X^T = B`` with a fixed real drift.

    ``G = iA`` solves ``X G + G X^T = Y`` for the Hermitian antisymmetric,
    hence purely imaginary, source ``Y = iB``, so the solve runs in real
    arithmetic on the real antisymmetric ``B`` and ``A``.  Factoring once
    and reusing it is what makes steady state plus tangent sweeps cheap.

    Two factorizations behind one interface.  A sparse boundary-driven
    drift (see :func:`_sparse_rows` and :func:`_bath_support`) of order at
    least ``MODES_MIN_DIM`` is factored in its eigenbasis
    (:class:`_ModesFactor`); every other drift by real Schur
    (:class:`_SchurFactor`), and so is a boundary-driven one whose modes
    factorization fails a certificate or a solve's residual check.
    ``path`` says which factorization serves the solves (``"schur"`` or
    ``"modes"``), and ``fallback`` why the modes path was left, or None.
    Both paths share the uniqueness rule and the residual check.
    """

    def __init__(self, x: np.ndarray):
        x = np.real(_as_square(x, "x"))
        self.x = x
        self._x_norm = _frobenius(x)
        # the modes path needs X's nonzeros, and at its orders the sparse
        # residual product beats the GEMM
        self._x_rows = _sparse_rows(x) if x.shape[0] >= MODES_MIN_DIM else None
        self.fallback = None
        self._factor = None
        support = None if self._x_rows is None else _bath_support(x)
        if support is not None:
            try:
                self._factor = _ModesFactor(x, self._x_rows, support)
            except _Uncertified as exc:
                self.fallback = str(exc)
        if self._factor is None:
            self._factor = _SchurFactor(x)
        self.path = self._factor.path
        self.spectrum = self._factor.spectrum
        scale = max(np.max(np.abs(self.spectrum)), ABS_FLOOR)
        self.pair_min = _pair_min(self.spectrum)
        self._singular = self.pair_min <= max(1e-12 * scale, ABS_FLOOR)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The real antisymmetric ``A`` for the real antisymmetric source ``b``."""
        if self._singular:
            raise SingularSylvester(
                f"min |x_i + x_j| = {self.pair_min:.3e} below tolerance; "
                "Lyapunov equation has no unique solution"
            )
        b = _real(b, "Lyapunov source b")
        b_norm = _frobenius(b)
        if _frobenius(b + b.T) > max(1e-12 * b_norm, ABS_FLOOR):
            raise NotAntisymmetric("Lyapunov source is not antisymmetric")
        a = self._factor.solve(b)
        _subtract_transpose(a)
        a *= 0.5
        # A is antisymmetric, so A X^T = -(X A)^T
        res = _matmul(self.x, a) if self._x_rows is None else _sparse_product(self._x_rows, a)
        _subtract_transpose(res)
        res -= b
        res = _frobenius(res)
        bound = 1e-10 * (self._x_norm * _frobenius(a) + b_norm)
        if res > max(bound, ABS_FLOOR):
            if self.path == "modes":  # the Schur path decides
                self.fallback = f"solve residual {res:.3e} above {bound:.3e}"
                self._factor = _SchurFactor(self.x)
                self.path = self._factor.path
                return self.solve(b)
            raise SingularSylvester(
                f"Lyapunov residual {res:.3e} exceeds {bound:.3e}; equation is near singular"
            )
        return a


def general_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of a real square matrix plus a defectiveness estimate.

    The condition estimate is the condition number of the eigenvector
    matrix; values ``>~ 1e8`` flag a nearly defective (Jordan-like)
    spectrum.
    """
    import scipy.linalg as sla

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
