"""Dense linear-algebra and analysis kernels.

Continuous Lyapunov solves (Schur-based, so defective drift matrices need no
special casing, or in the eigenbasis of a boundary-driven drift, built from
its kernel's normal modes), eigendecompositions, polynomial roots with cluster
detection, periodic quadrature with point doubling, and log-log power-law
fits.  All tolerances are relative to input norms with an absolute floor of
1e-14.  Everything runs on numpy's LAPACK and BLAS except the real Schur
path, which imports scipy's ``schur`` and ``trsyl`` where it runs.
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
# below it a sum of squares may have lost digits to underflow
_SQUARES_FLOOR = 1e-280


def _matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` of real arrays as a C-ordered array; with ``c``, the update
    ``c -= a @ b`` in place (``c`` must not overlap ``a`` or ``b``)."""
    if c is None:
        return a @ b
    c -= a @ b
    return c


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a real array, scaled where its sum of squares
    would under- or overflow (``np.linalg.norm`` returns 0 at 1e-200)."""
    v = np.ravel(a, order="K")
    with np.errstate(over="ignore", under="ignore"):
        squares = float(np.dot(v, v)) if v.size else 0.0
    if _SQUARES_FLOOR < squares < math.inf:
        return math.sqrt(squares)
    top = float(np.max(np.abs(v))) if v.size else 0.0
    if top == 0.0 or not math.isfinite(top):
        return top
    v = v / top
    return top * math.sqrt(float(np.dot(v, v)))


def _norms(a: np.ndarray) -> np.ndarray:
    """:func:`_frobenius` of each matrix of the C-ordered stack ``a``: the
    sums of squares as one stacked dot, each the ``np.dot`` of its matrix."""
    v = a.reshape(a.shape[0], 1, math.prod(a.shape[1:]))
    with np.errstate(over="ignore", under="ignore"):
        squares = _matmul(v, v.transpose(0, 2, 1))[:, 0, 0]
    norms = np.sqrt(squares)
    scaled = ~((squares > _SQUARES_FLOOR) & (squares < math.inf))
    if scaled.any():  # an exactly zero matrix (an antisymmetry check's) has norm 0
        scaled[scaled] = np.any(v[scaled, 0], axis=-1)
        for c in np.flatnonzero(scaled):
            norms[c] = _frobenius(a[c])
    return norms


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


def _t(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (a view)."""
    return m.swapaxes(-1, -2)


def _subtract_transpose(m: np.ndarray, block: int = 64) -> None:
    """``m -= m^T`` in place, for each matrix of a stack.

    numpy buffers the overlapping ``m.T``, a d x d copy.  Above two blocks
    of rows this goes a block of rows and columns at a time instead, each
    entry still ``m_ij - m_ji`` of the original entries.
    """
    if m.shape[-1] <= 2 * block:
        m -= _t(m)
        return
    for i in range(0, m.shape[-1], block):
        rows = m[..., i:i + block, i:] - _t(m[..., i:, i:i + block])
        m[..., i:, i:i + block] -= _t(m[..., i:i + block, i:])
        m[..., i:i + block, i:] = rows


# Leaf order of the recursive triangular Sylvester solve: below it one
# unblocked ``trsyl`` call is cheaper than another level of GEMM updates.
_SYLVESTER_LEAF = 64


def _split_index(t: np.ndarray) -> int:
    """Middle index of a quasi-triangular ``t`` that does not cut a 2x2 block.

    A nonzero subdiagonal entry opens a block (LAPACK's rule), so the splits
    of the blocked solve agree with ``trsyl``.
    """
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


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
        from scipy.linalg.lapack import dtrsyl

        z, scale, info = dtrsyl(a, b, c, tranb="T")
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


def _pair_min(spectrum: np.ndarray, block: int = 64) -> np.ndarray:
    """Sylvester gap ``min |x_i + x_j|`` over all pairs of each spectrum of a
    stack (k, d), a block of rows at a time."""
    return np.min([np.min(np.abs(spectrum[..., i:i + block, None] + spectrum[..., None, :]),
                          axis=(-2, -1)) for i in range(0, spectrum.shape[-1], block)], axis=0)


def _padded_rows(rows, cols, vals, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros ``(rows, cols, vals)`` of a d-row matrix as ``(cols, vals)``,
    each d x k: row r's nonzeros in column order, then zeros up to the widest
    row's count k.  ``vals`` may carry leading axes, one matrix each."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[..., order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    width = int(rank.max(initial=-1)) + 1
    padded_cols = np.zeros((d, width), dtype=np.intp)
    padded_vals = np.zeros(vals.shape[:-1] + (d, width))
    padded_cols[rows, rank] = cols
    padded_vals[..., rows, rank] = vals
    return padded_cols, padded_vals


def _sparse_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_padded_rows` of a real x, or of a stack (k, d, d) on the
    nonzeros of its matrices together (an entry that is zero in one matrix
    adds an exact zero to its row there), with at most eight nonzeros in
    every row (the boundary-XY drift has three), else None."""
    pattern = np.any(x.reshape((-1,) + x.shape[-2:]), axis=0)
    if pattern.size and np.max(np.count_nonzero(pattern, axis=1)) > 8:
        return None
    rows, cols = np.nonzero(pattern)
    return _padded_rows(rows, cols, x[..., rows, cols], x.shape[-1])


def _sparse_product(padded: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """``S a`` for the sparse real S of :func:`_padded_rows`, a block of rows
    at a time, so no temporary holds more than 2^15 entries.  The values of
    S and ``a`` may carry one leading stack axis each.

    Pass ``s`` adds each row's s-th nonzero, ``P[r] += v a[c]``, so every row
    takes its terms in column order after a zero start; a padding term adds
    ``0 a[0]``, which leaves every finite sum as it was.  For exact products
    (slopes of +-1 and +-2) this is the GEMM's result bit for bit.
    """
    cols, vals = padded
    lead = np.broadcast_shapes(vals.shape[:-2], a.shape[:-2])
    p = np.zeros(lead + (cols.shape[0], a.shape[-1]), dtype=np.result_type(a, vals))
    block = max(1, (1 << 15) // max(1, math.prod(lead) * a.shape[-1]))
    for i in range(0, cols.shape[0], block):
        rows = p[..., i:i + block, :]
        for s in range(cols.shape[1]):
            rows += a[..., cols[i:i + block, s], :] * vals[..., i:i + block, s, None]
    return p


class _SchurFactor:
    """``X = U T U^T``, real Schur: the general path.  The Bartels-Stewart
    back-substitution runs on T, so a defective (Jordan-like) drift needs no
    special casing.

    T is LAPACK's standardized form: a 2x2 block ``[[a, b], [c, a]]`` opens
    at every nonzero subdiagonal entry and holds the pair
    ``a +- i sqrt|b| sqrt|c|``, ``dlanv2``'s formula, so ``spectrum`` is
    ``gees``'s ``wr + i wi`` bit for bit."""

    condition_estimator = "schur_eig_2norm"

    def __init__(self, x: np.ndarray):
        from scipy.linalg import schur

        try:
            self.t, self.u = schur(x, output="real")
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceFailure(f"real Schur factorization failed: {exc}") from exc
        t = self.t
        i = np.flatnonzero(np.diagonal(t, -1))
        self.spectrum = np.diagonal(t).astype(complex)
        self.spectrum.imag[i] = np.sqrt(np.abs(t[i, i + 1])) * np.sqrt(np.abs(t[i + 1, i]))
        self.spectrum.imag[i + 1] = -self.spectrum.imag[i]

    def pair_sums(self) -> np.ndarray:
        """The sum ``2a`` of each conjugate pair and twice each real
        eigenvalue: twice the diagonal, less the second row of each block."""
        second = np.flatnonzero(np.diagonal(self.t, -1)) + 1
        return 2.0 * np.delete(np.diagonal(self.t), second)

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


# Ehrlich-Aberth sweeps before a start is given up.  The clean drifts
# measured settle in 4-27 sweeps from the pair guesses, the slowest at small
# fields near the ordered phase's flat band.  A stalled start, with nine in
# ten of its roots still moving after _ABERTH_CHECK_SWEEPS sweeps (a tight
# cluster of singular values), is given up before it costs more than the
# Schur path; the modes path then restarts once from LAPACK's eigenvalues.
_ABERTH_MAX_SWEEPS = 30
_ABERTH_CHECK_SWEEPS = 5
# most rows of the symmetric part (the bath) that the modes path takes
_BATH_MAX_RANK = 8
_EPS = float(np.finfo(float).eps)


def _fail(why: list, cells: np.ndarray, bad: np.ndarray, reason) -> np.ndarray:
    """Give each ``cells[i]`` with ``bad[i]`` and no reason yet ``reason(i)``, or
    ``reason``; returns ``~bad``."""
    for i in np.flatnonzero(bad):
        if why[cells[i]] is None:
            why[cells[i]] = reason(i) if callable(reason) else reason
    return ~bad


def _take(why: list, cells: np.ndarray, *arrays) -> tuple:
    """``cells``, and ``arrays`` along their leading axis, at the cells with no reason."""
    keep = np.array([why[c] is None for c in cells], dtype=bool)
    return (cells, *arrays) if keep.all() else tuple(a[keep] for a in (cells, *arrays))


def _rounds(cell: np.ndarray, block: int):
    """The entries of the sorted ``cell`` a round at a time: each cell's
    entries in pieces of at most ``block``, its r-th piece in round r.
    Yields a round's entries and each of its pieces as ``(cell, start,
    stop)`` within the round."""
    bounds = [0, *(np.flatnonzero(np.diff(cell)) + 1).tolist(), cell.size]
    pieces = [[(c, p, min(p + block, b)) for p in range(a, b, block)]
              for c, a, b in zip(cell[bounds[:-1]].tolist(), bounds, bounds[1:])]
    for r in range(max(map(len, pieces))):
        batch = [p[r] for p in pieces if r < len(p)]
        at = np.cumsum([0] + [b - a for _, a, b in batch]).tolist()
        yield (np.concatenate([np.arange(a, b) for _, a, b in batch]),
               [(c, i0, i1) for (c, _, _), i0, i1 in zip(batch, at, at[1:])])


def _bath_support(x: np.ndarray) -> np.ndarray | None:
    """Rows of the symmetric part of a boundary-driven drift, or None; of a
    stack (k, d, d), the rows when every drift has the structure and the
    same rows.

    The drift must have even order and ``X^T = P X P`` exactly, with
    ``P = diag((-1)^k)``: its antisymmetric part couples even to odd
    indices only, so it is the kernel ``[[0, J], [-J^T, 0]]`` in even/odd
    order, and its symmetric part, on at most ``_BATH_MAX_RANK`` rows,
    couples equal parities only.
    """
    if x.shape[-1] % 2:
        return None
    even, odd, cross = x[..., 0::2, 0::2], x[..., 1::2, 1::2], x[..., 0::2, 1::2]
    if not (np.array_equal(even, _t(even)) and np.array_equal(odd, _t(odd))
            and np.array_equal(cross, -_t(x[..., 1::2, 0::2]))):
        return None
    bath = np.concatenate((np.any(even, axis=-1), np.any(odd, axis=-1)), axis=-1)
    bath = bath.reshape(-1, x.shape[-1])
    if np.any(bath != bath[0]):
        return None
    n = x.shape[-1] // 2
    rows = np.concatenate((2 * np.flatnonzero(bath[0, :n]), 2 * np.flatnonzero(bath[0, n:]) + 1))
    return np.sort(rows) if rows.size <= _BATH_MAX_RANK else None


def _pair_guesses(mu: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Starting roots: the eigenvalues of each mode pair's own 2x2 problem
    ``diag(i sigma, -i sigma) + C^H s C``, ``C = [c+, c-]``, for each cell.

    They are ``a +- sqrt(|beta|^2 - sigma^2)``: a conjugate pair, or two
    real roots where the bath outweighs the splitting (the edge modes of
    the ordered phase).
    """
    n = mu.shape[-1] // 2
    up, down = z[..., :n, :], z[..., n:, :]
    a = np.einsum("...ka,...ab,...kb->...k", up.conj(), s, up).real
    beta = np.einsum("...ka,...ab,...kb->...k", up.conj(), s, down)
    disc = np.abs(beta) ** 2 - mu[..., :n].imag ** 2
    root = np.sqrt(np.abs(disc)) * np.where(disc > 0.0, 1.0, 1j)
    return np.concatenate((a + root, a - root), axis=-1)


def _eigenvalue_start(x: np.ndarray) -> np.ndarray:
    """Starting roots from LAPACK's eigenvalues of x, in the layout of the
    pair guesses: the roots above the real axis, then the first half of the
    real ones; their conjugates, then the second half."""
    lam = np.linalg.eigvals(x)
    upper, real = lam[lam.imag > 0.0], lam[lam.imag == 0.0]
    half = real.size // 2
    return np.concatenate((upper, real[:half], upper.conj(), real[half:]))


def _real_weights(weights: np.ndarray) -> np.ndarray:
    """The real ``2d x 2r^2`` matrix R with ``(C W).view(float) =
    C.view(float) R`` for the complex d x r^2 ``weights`` W (of each cell),
    so that each complex product of the modes path is one real GEMM."""
    real = np.empty(weights.shape[:-2] + (2 * weights.shape[-2], 2 * weights.shape[-1]))
    real[..., 0::2, 0::2] = real[..., 1::2, 1::2] = weights.real
    real[..., 0::2, 1::2] = weights.imag
    real[..., 1::2, 0::2] = -weights.imag
    return real


def _weighted(cauchy: np.ndarray, weights: np.ndarray, runs=None) -> np.ndarray:
    """``sum_k cauchy_ik s c_k c_k^H`` for each row i of the C-ordered
    complex ``cauchy``, as r x r blocks; ``weights`` is :func:`_real_weights`,
    stacked like ``cauchy``, or, with ``runs`` (see :func:`_rounds`), one GEMM
    per run of rows on its cell's weights."""
    r = math.isqrt(weights.shape[-1] // 2)
    if runs is None:
        out = _matmul(cauchy.view(float), weights)
    else:
        out = np.empty((cauchy.shape[0], weights.shape[-1]))
        for c, i, j in runs:
            out[i:j] = _matmul(cauchy[i:j].view(float), weights[c])
    return out.view(complex).reshape(cauchy.shape[:-1] + (r, r))


def _secular_matrices(cauchy: np.ndarray, weights: np.ndarray, runs=None) -> np.ndarray:
    """``M = I - s G`` at each root, from its Cauchy rows (see :func:`_weighted`)."""
    m = _weighted(cauchy, weights, runs)
    m *= -1.0
    r = m.shape[-1]
    m[..., np.arange(r), np.arange(r)] += 1.0
    return m


def _secular_solve(m: np.ndarray, rhs: np.ndarray, runs=None) -> np.ndarray:
    """``M^-1 rhs`` for each r x r secular matrix, by one batched LU.  Where
    an M is exactly singular (its root is exact), its cell's matrices are
    solved with their diagonals raised by ``eps ||M||_max``: a large, finite
    solution along the null vector.  A cell is the leading index of a
    (g, B, r, r) stack, or a run of rows (see :func:`_rounds`)."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        if m.ndim == 4 and m.shape[0] > 1:
            return np.stack([_secular_solve(mc, rc)
                             for mc, rc in zip(m, np.broadcast_to(rhs, m.shape))])
        if runs is not None and len(runs) > 1:
            return np.concatenate([_secular_solve(m[i:j], rhs[i:j]) for _, i, j in runs])
        m = m.copy()
        r = m.shape[-1]
        m[..., np.arange(r), np.arange(r)] += (
            _EPS * np.max(np.abs(m), axis=(-2, -1))[..., None])
        return np.linalg.solve(m, rhs)


# Cauchy entries of one Aberth block of roots
_ABERTH_BLOCK = 1 << 15


def stack_size(d: int) -> int:
    """How many drifts of order d to factor as one stack: as many as keep
    each stacked d x d array to 2^17 entries, where one Aberth block takes
    all of a drift's roots (d^2 <= 2^15); one otherwise."""
    return max(1, (1 << 17) // max(1, d * d)) if d * d <= _ABERTH_BLOCK else 1


def _aberth_roots(mu: np.ndarray, weights: np.ndarray, start: np.ndarray,
                  tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every root of ``prod_k (lam - mu_k) det(I - s G(lam))`` with
    ``G(lam) = sum_k c_k c_k^H / (lam - mu_k)``, from ``start``, for each
    cell of a stack: ``mu``, ``start`` (k, d), ``tol`` (k,).  Returns the
    roots and each cell's reason for failing, None where it settled.

    ``weights`` is :func:`_real_weights` of ``vec(s c_k c_k^H)`` in row k.
    The polynomial is real, so a start above the real axis (its pair's
    other start, at the same offset in the second half, is its conjugate)
    is iterated alone and its partner kept as its conjugate; real starts
    are iterated in full.  A mirrored root whose imaginary part falls below
    its step may be heading for two real roots, which a conjugate pair
    cannot reach: the two are then moved apart by the step along the real
    axis and iterated in full.

    Ehrlich-Aberth a block of each cell's roots at a time, each block
    seeing the roots of the blocks before it (one block, all of a cell's
    roots at once, up to 2^15 Cauchy entries), so a cell's roots never
    depend on the other cells: the block's Cauchy rows
    ``1/(lam_i - mu_k)`` times ``weights`` give ``M = I - s G``, their
    squares ``s G_2 = -s G'``, so that ``p'/p = sum_k 1/(lam - mu_k) +
    tr(M^-1 s G_2)``.  A root freezes once its Newton step is below
    ``tol``.  A cell fails on a non-finite step, when nine in ten of its
    iterated roots still move after ``_ABERTH_CHECK_SWEEPS`` sweeps, or
    after ``_ABERTH_MAX_SWEEPS``.
    """
    k, d = mu.shape
    n = d // 2
    lam = start.copy()
    mirrored = np.zeros((k, d), dtype=bool)
    mirrored[:, :n] = start[:, :n].imag > 0.0
    # the iterated roots, cell by cell, as (cell, root) pairs
    cell, root = np.nonzero(np.concatenate((np.ones((k, n), dtype=bool), ~mirrored[:, :n]), axis=1))
    iterated = np.bincount(cell, minlength=k)
    every, why = np.arange(k), [None] * k
    settled = np.ones(k, dtype=bool)
    block = max(1, _ABERTH_BLOCK // d)
    with np.errstate(all="ignore"):
        for sweep in range(_ABERTH_MAX_SWEEPS):
            if sweep == _ABERTH_CHECK_SWEEPS and cell.size:
                left = np.bincount(cell, minlength=k)
                settled &= _fail(why, every, 10 * left > 9 * iterated, lambda c: (
                    f"{left[c]} of {iterated[c]} roots unsettled after {sweep} Aberth sweeps"))
                keep = settled[cell]
                cell, root = cell[keep], root[keep]
            if not cell.size:
                break
            done = np.zeros(cell.size, dtype=bool)
            splits = []
            for sel, runs in _rounds(cell, block):
                c, idx = cell[sel], root[sel]
                # each root's differences to its cell's poles and roots
                cauchy = np.empty((idx.size, d), dtype=complex)
                gaps = np.empty((idx.size, d), dtype=complex)
                for cc, a, b in runs:
                    np.subtract(lam[cc, idx[a:b], None], mu[cc], out=cauchy[a:b])
                    np.subtract(lam[cc, idx[a:b], None], lam[cc], out=gaps[a:b])
                np.reciprocal(cauchy, out=cauchy)
                poles = np.sum(cauchy, axis=1)
                m = _secular_matrices(cauchy, weights, runs)
                cauchy *= cauchy
                y = _secular_solve(m, _weighted(cauchy, weights, runs), runs)
                newton = 1.0 / (poles + np.einsum("naa->n", y))
                gaps[np.arange(idx.size), idx] = np.inf
                step = newton / (1.0 - newton * np.sum(np.reciprocal(gaps, out=gaps), axis=1))
                bad = ~np.isfinite(step)
                if bad.any():
                    settled &= _fail(why, every, np.bincount(c[bad], minlength=k) > 0,
                                     "an Aberth step is not finite (coincident roots)")
                lam[c, idx] -= step
                mirror = mirrored[c, idx]
                now = np.abs(newton) <= tol[c]
                done[sel] = now
                low = mirror & ~now & (np.abs(lam[c, idx].imag) <= np.abs(step))
                lam[c[mirror], idx[mirror] + n] = lam[c[mirror], idx[mirror]].conj()
                if low.any():
                    splits.append((c[low], idx[low], np.abs(step[low]) + tol[c[low]]))
            keep = ~done & settled[cell]
            cell, root = cell[keep], root[keep]
            if splits:  # un-mirror: iterate both members in full, apart
                sc, si, spread = (np.concatenate(a) for a in zip(*splits))
                keep = settled[sc]
                sc, si, spread = sc[keep], si[keep], spread[keep]
                lam[sc, si + n] = lam[sc, si].conj() - spread
                lam[sc, si] += spread
                mirrored[sc, si] = False
                order = np.argsort(np.concatenate((cell, sc)), kind="stable")
                cell = np.concatenate((cell, sc))[order]
                root = np.concatenate((root, si + n))[order]
    if cell.size:
        left = np.bincount(cell, minlength=k)
        _fail(why, every, left > 0,
              lambda c: f"{left[c]} roots unsettled after {_ABERTH_MAX_SWEEPS} Aberth sweeps")
    return lam, why


def _eigenvector_block(roots, mu, z, weights, w, v) -> np.ndarray:
    """Unscaled complex eigenvectors of the modes factorization, d x
    len(roots) for each cell, at settled roots: ``v = sum_k u_k (c_k^H
    y)/(lam - mu_k)`` with y the null vector of ``I - s G(lam)``, assembled
    as W and V times the Cauchy-scaled coefficients of the + and - modes.
    y is the largest column of ``(I - s G)^-1``, a step of inverse iteration
    from each unit vector: its residual is at most ``sqrt(r)`` times the
    smallest singular value."""
    n = w.shape[-1]
    cauchy = np.reciprocal(roots[..., :, None] - mu[..., None, :])
    m = _secular_matrices(cauchy, weights)
    inv = _secular_solve(m, np.broadcast_to(np.eye(m.shape[-1]), m.shape))
    col = np.argmax(np.sum(inv.real ** 2 + inv.imag ** 2, axis=-2), axis=-1)
    null = np.take_along_axis(inv, col[..., None, None], axis=-1)[..., 0]
    coef = np.einsum("...kr,...br->...kb", z.conj(), null)
    coef *= _t(cauchy)
    del cauchy
    plus = np.ascontiguousarray(coef[..., :n, :] + coef[..., n:, :])
    minus = np.ascontiguousarray(coef[..., :n, :] - coef[..., n:, :])
    vec = np.empty(coef.shape, dtype=complex)
    vec[..., 0::2, :] = _matmul(w, plus.view(float)).view(complex)
    vec[..., 1::2, :] = _matmul(v, minus.view(float)).view(complex)
    vec[..., 1::2, :] *= 1j
    return vec


def _scale_eigenvectors(vec: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Scale each column v of ``vec`` (of each cell) in place to ``v^T P v =
    1`` where ``pair`` is True (a root above the real axis), and otherwise
    rotate it real and scale it to ``v^T P v = +-1``; returns those signs."""
    def nu(cols):
        return (np.einsum("...kc,...kc->...c", cols[..., 0::2, :], cols[..., 0::2, :])
                - np.einsum("...kc,...kc->...c", cols[..., 1::2, :], cols[..., 1::2, :]))

    vec[..., pair] /= np.sqrt(nu(vec[..., pair]))[..., None, :]
    real = vec[..., np.flatnonzero(~pair)]
    top = np.argmax(np.abs(real), axis=-2)[..., None, :]
    phase = np.take_along_axis(real, top, axis=-2)
    rotated = (real / (phase / np.abs(phase))).real
    signs = np.sign(nu(rotated))
    vec[..., ~pair] = rotated / np.sqrt(np.abs(nu(rotated)))[..., None, :]
    return signs


class _ModesFactor:
    """``X = V Lambda V^-1`` for boundary-driven drifts ``X = K + E s E^T``
    (see :func:`_bath_support`), from the normal modes of the kernel K and
    a rank-r secular equation, for each drift of a stack (k, d, d).

    With ``J = W Sigma V^T`` (an n x n SVD) the modes of K are
    ``u_k = [w_k; +-i v_k]/sqrt 2`` at ``mu_k = +-i sigma_k``, and the
    eigenvalues of X are the roots of ``det(I - s G(lam))`` with
    ``c_k = E^T u_k``.  Each eigenvector is ``sum_k u_k (c_k^H y) /
    (lam - mu_k)``, y the null vector of ``I - s G(lam)``: a Cauchy matrix
    times W and V.  The real basis ``V_r = [Re v_1, Im v_1, ..., V_real]``
    (a column pair per root above the real axis, then the real roots) is held as
    ``q = P V_r``: since ``X^T = P X P`` the left eigenvectors are ``P v``,
    so with each ``v`` scaled to ``v^T P v = +-1`` the inverse is
    ``V_r^-1 = N q^T``, N diagonal with 2, -2 on each pair and the signs of
    the real roots.  A solve is then GEMMs and an O(d^2) division by
    ``lam_i + lam_j``.  Each batched call works one matrix per cell; the
    cells with as many roots above the real axis share their eigenvector
    blocks and divisions (``_groups``).

    A cell is refused before Aberth when two singular values of its J above
    ``1e-12 sigma_max`` coincide to that tolerance: a double pole, as in
    the XX chain at zero field.  It is certified before use: every root
    settled within the sweep cap (see :func:`_aberth_roots`; a cell whose
    start stalls restarts once from LAPACK's eigenvalues of its X), the
    roots pair up as ``2m + q = d``, every root is within ``2 ||q|| ||X V_r
    - V_r Lambda_r|| <= 1e-11 ||X||`` of the spectrum of X (Bauer-Fike, as
    ``||V_r^-1|| <= 2 ||q||``), and ``||N q^T V_r - I|| <= 1e-6``.  ``why``
    holds each cell's reason for a refusal, or None; a refused cell has a
    NaN spectrum and a zero q.  ``x_rows`` and ``support`` are
    :func:`_sparse_rows` and :func:`_bath_support` of x, neither None.
    """

    condition_estimator = "modes_frobenius"

    def __init__(self, x: np.ndarray, x_rows, support: np.ndarray):
        k, d = x.shape[0], x.shape[-1]
        x_cols, x_vals = x_rows
        self.why = [None] * k
        cells = np.arange(k)
        s = x[:, support[:, None], support]
        s = 0.5 * (s + _t(s))
        # an SVD per cell (a batched one names no cell when LAPACK fails)
        w, vt = np.full((2, k, d // 2, d // 2), np.nan)
        sigma = np.full((k, d // 2), np.nan)
        for c in range(k):
            try:
                w[c], sigma[c], vt[c] = np.linalg.svd(x[c, 0::2, 1::2])
            except np.linalg.LinAlgError as exc:
                self.why[c] = f"SVD of the kernel failed: {exc}"
        v = _t(vt)
        # a double pole of the secular equation (the XX chain at zero field),
        # which Aberth cannot settle; edge modes near zero are not one
        tol = 1e-12 * sigma[:, :1]
        _fail(self.why, cells, np.any((np.diff(sigma, axis=1) >= -tol) & (sigma[:, 1:] > tol),
                                      axis=1), "two singular values of the kernel coincide")
        cells, x, x_vals, s, w, sigma, v = _take(self.why, cells, x, x_vals, s, w, sigma, v)
        # c_k of the + modes: w on the even rows of the support, i v on the odd ones
        up = np.where(support % 2 == 0, _t(w[:, support // 2]), 1j * _t(v[:, support // 2]))
        z = np.concatenate((up, up.conj()), axis=1) / math.sqrt(2.0)
        mu = np.concatenate((1j * sigma, -1j * sigma), axis=1)
        zs = np.einsum("...ka,...ab->...kb", z, s)
        weights = _real_weights((zs[..., None] * z.conj()[..., None, :]).reshape(
            mu.shape + (support.size ** 2,)))
        del zs
        scale = sigma[:, 0] + np.max(np.abs(s), axis=(1, 2)) * s.shape[-1]  # >= ||X||_2
        step_tol = 4.0 * _EPS * scale
        lam, stalled = _aberth_roots(mu, weights, _pair_guesses(mu, z, s), step_tol)
        again = np.flatnonzero([r is not None for r in stalled])
        if again.size:  # these cells restart once, from LAPACK's eigenvalues of their X
            start = np.full((again.size, d), np.nan, dtype=complex)
            for i, c in enumerate(again):
                try:
                    start[i] = _eigenvalue_start(x[c])
                except np.linalg.LinAlgError as exc:
                    self.why[cells[c]] = (f"{stalled[c]}; from LAPACK's eigenvalues, "
                                          f"eigenvalues of the drift failed: {exc}")
            lam[again], restarted = _aberth_roots(mu[again], weights[again], start, step_tol[again])
            _fail(self.why, cells[again], np.array([r is not None for r in restarted], dtype=bool),
                  lambda i: f"{stalled[again[i]]}; from LAPACK's eigenvalues, {restarted[i]}")
        cells, x, x_vals, w, v, z, mu, weights, lam, scale = _take(
            self.why, cells, x, x_vals, w, v, z, mu, weights, lam, scale)

        cut = math.sqrt(_EPS) * scale[:, None]
        above, on = lam.imag > cut, np.abs(lam.imag) <= cut
        m, q = np.count_nonzero(above, axis=1), np.count_nonzero(on, axis=1)
        _fail(self.why, cells, 2 * m + q != d,
              lambda i: f"{m[i]} roots above the real axis, {d - m[i] - q[i]} below")
        cells, x, x_vals, w, v, z, mu, weights, lam, above, on, m = _take(
            self.why, cells, x, x_vals, w, v, z, mu, weights, lam, above, on, m)

        self.spectrum = np.full((len(self.why), d), np.nan, dtype=complex)
        self._signs = np.ones((len(self.why), d))
        self.q = np.zeros((len(self.why), d, d))
        k = cells.size
        groups = []
        residual = np.zeros(k)
        # blocks of temporaries of at most 2^15 entries per cell
        block = max(1, (1 << 15) // d)
        for mm in sorted(set(m.tolist())):
            g = np.flatnonzero(m == mm)
            whole = g.size == len(self.why)  # views where one group holds every cell
            upper = lam[above].reshape(k, mm) if whole else lam[g][above[g]].reshape(g.size, mm)
            real = (lam[on] if whole else lam[g][on[g]]).real.reshape(g.size, d - 2 * mm)
            groups.append((g, upper, real))
            self.spectrum[cells[g]] = np.concatenate((upper, upper.conj(), real), axis=1)
            signs = np.tile(np.concatenate((np.tile([2.0, -2.0], mm), np.ones(d - 2 * mm))),
                            (g.size, 1))
            basis = self.q if whole else np.empty((g.size, d, d))
            roots = np.concatenate((upper, real), axis=1)
            # as many cells at a time as keep a block's temporaries near 2^15 entries
            per = max(1, (1 << 15) // (min(block, roots.shape[1]) * d))
            for lo in range(0, g.size, per):
                at = slice(lo, lo + per)  # in the group
                cells_at = at if whole else g[at]  # in the stack
                args = (mu[cells_at], z[cells_at], weights[cells_at], w[cells_at], v[cells_at])
                rows = (x_cols, x_vals[cells_at])
                with np.errstate(all="ignore"):  # a non-finite vector fails the bound below
                    for j in range(0, roots.shape[1], block):
                        kk = np.arange(j, min(j + block, roots.shape[1]))
                        vec = _eigenvector_block(roots[at, kk], *args)
                        signs[at, kk[kk >= mm] + mm] = _scale_eigenvectors(vec, kk < mm)
                        xv = _sparse_product(rows, vec)
                        xv -= vec * roots[at, None, kk]
                        residual[cells_at] += np.sum(xv.real ** 2 + xv.imag ** 2, axis=(1, 2))
                        del xv
                        vec[:, 1::2] *= -1.0
                        pair = kk[kk < mm]
                        basis[at, :, 2 * pair] = vec[:, :, kk < mm].real
                        basis[at, :, 2 * pair + 1] = vec[:, :, kk < mm].imag
                        basis[at, :, kk[kk >= mm] + mm] = vec[:, :, kk >= mm].real
            self._signs[cells[g]] = signs
            if not whole:
                self.q[cells[g]] = basis
        del w, v, z, weights
        q = self.q if k == len(self.why) else self.q[cells]
        bound = 2.0 * _norms(q) * np.sqrt(residual)
        _fail(self.why, cells, ~(bound <= 1e-11 * _norms(x)),
              lambda i: f"eigenpair bound {bound[i]:.3e} above 1e-11 ||X||")
        self._check_inverse(q, self._signs[cells], block, cells)
        keep = np.array([self.why[c] is None for c in cells], dtype=bool)
        self._groups = [(cells[g[keep[g]]], up[keep[g]], re[keep[g]])
                        for g, up, re in groups if keep[g].any()]
        self.q[cells[~keep]] = 0.0
        self.spectrum[cells[~keep]] = np.nan

    def pair_sums(self) -> np.ndarray:
        """The sum ``2 Re lam`` of each conjugate pair and twice each real
        root, of every cell."""
        return 2.0 * np.concatenate([np.concatenate((up.real, re), axis=1).ravel()
                                     for _, up, re in self._groups])

    def condition_estimate(self) -> np.ndarray:
        """``||V_r||_F ||V_r^-1||_F = ||q||_F ||N q^T||_F`` of each cell, in
        O(d^2); it bounds the 2-norm condition of ``V_r`` from above."""
        cols = np.sum(self.q * self.q, axis=-2)
        return np.sqrt(np.sum(cols, axis=-1) * np.sum(self._signs ** 2 * cols, axis=-1))

    def _check_inverse(self, q, signs, block: int, cells) -> None:
        """``||N q^T V_r - I||_F <= 1e-6`` of each cell of q, a block of
        columns at a time; a cell ``cells[i]`` that fails gets its reason."""
        d = q.shape[-1]
        err = np.zeros(q.shape[0])
        for j in range(0, d, block):
            cols = q[:, :, j:j + block].copy()
            cols[:, 1::2] *= -1.0
            prod = _matmul(_t(q), cols)
            prod *= signs[:, :, None]
            prod[:, np.arange(j, j + cols.shape[-1]), np.arange(cols.shape[-1])] -= 1.0
            err += np.sum(prod * prod, axis=(1, 2))
        err = np.sqrt(err)
        _fail(self.why, cells, ~(err <= 1e-6), lambda i: f"||V^-1 V - I|| = {err[i]:.3e} above 1e-6")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A`` before its antisymmetrization, for each cell: ``P q Z q^T P``
        with ``Lambda_r Z + Z Lambda_r^T = N q^T b q N``; ``b`` is one source
        for every cell or one per cell."""
        rows = np.any(b, axis=-1).reshape(-1, b.shape[-1])
        if np.all(rows == rows[0]):
            c = _congruence(self.q, b, np.flatnonzero(rows[0]))
        else:  # sources on different rows: each cell on its own rows
            c = np.concatenate([_congruence(self.q[i:i + 1], b[i], np.flatnonzero(r))
                                for i, r in enumerate(rows)])
        c *= self._signs[:, :, None]
        c *= self._signs[:, None, :]
        for g, lam, rho in self._groups:
            if g.size == c.shape[0]:
                _divide_by_pair_sums(c, lam, rho)
            else:
                part = c[g]
                _divide_by_pair_sums(part, lam, rho)
                c[g] = part
        w = _matmul(self.q, c)
        del c
        a = _matmul(w, _t(self.q))
        del w
        a[:, 1::2] *= -1.0
        a[:, :, 1::2] *= -1.0
        return a


def _congruence(q: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``q^T b q`` of each cell, on the rows where ``b`` has nonzeros (the
    steady state's source sits on the bath's)."""
    if rows.size < q.shape[-1]:
        q, b = q[:, rows], b[..., rows[:, None], rows]
    return _matmul(_t(q), _matmul(b, q))


def _divide_by_pair_sums(c: np.ndarray, lam: np.ndarray, rho: np.ndarray,
                         block: int = 64) -> None:
    """Overwrite the C-ordered antisymmetric ``c`` with the Z of
    ``Lambda_r Z + Z Lambda_r^T = c``, for each matrix of a stack (lam and
    rho stacked alike).

    ``Lambda_r`` is the real form of the spectrum in the order of q's
    columns: ``[[alpha, beta], [-beta, alpha]]`` on rows and columns 2j,
    2j+1 for each root ``lam_j = alpha + i beta`` above the real axis, then
    ``rho`` on each real root.  The columns of each pair are read as one
    complex number ``c[r, 2j] + i c[r, 2j+1]`` (a view, no copy).  On the
    two rows A, B of a pair, ``A - iB`` and ``A + iB`` are the parts of the
    2x2 blocks that commute and anticommute with ``[[0, 1], [-1, 0]]``;
    they are divided by ``lam_i + conj(lam_j)`` and ``conj(lam_i + lam_j)``.
    A real row's numbers are divided by ``rho_k + conj(lam_j)``, the pair
    rows' real columns are their negated transpose (Z is antisymmetric),
    and the real block is divided by ``rho_k + rho_l``.  Temporaries are a
    block of pair rows.
    """
    m = lam.shape[-1]
    pairs = c[..., :2 * m].view(complex)
    conj = lam.conj()[..., None, :]
    for i in range(0, m, block):
        j = min(i + block, m)
        a, b = pairs[..., 2 * i:2 * j:2, :], pairs[..., 2 * i + 1:2 * j:2, :]
        ib = 1j * b
        commuting = a - ib
        commuting /= lam[..., i:j, None] + conj
        ib += a
        ib /= (lam[..., i:j, None] + lam[..., None, :]).conj()
        np.add(commuting, ib, out=a)
        a *= 0.5
        np.subtract(commuting, ib, out=b)
        b *= 0.5j
    pairs[..., 2 * m:, :] /= rho[..., :, None] + conj
    c[..., :2 * m, 2 * m:] = -_t(c[..., 2 * m:, :2 * m])
    c[..., 2 * m:, 2 * m:] /= rho[..., :, None] + rho[..., None, :]


class LyapunovSolver:
    """Factored solver for ``X A + A X^T = B`` with a fixed real drift, or
    for each drift of a stack (k, d, d) of one order.

    ``G = iA`` solves ``X G + G X^T = Y`` for the Hermitian antisymmetric,
    hence purely imaginary, source ``Y = iB``, so the solve runs in real
    arithmetic on the real antisymmetric ``B`` and ``A``.  Factoring once
    and reusing it is what makes steady state plus tangent sweeps cheap.

    Two factorizations behind one interface.  Sparse boundary-driven drifts
    (see :func:`_sparse_rows` and :func:`_bath_support`; those of a stack on
    the same bath rows) are factored in their eigenbasis (:class:`_ModesFactor`),
    every other drift by real Schur (:class:`_SchurFactor`), and so is a cell
    whose modes factorization is refused or fails a certificate, or whose
    modes solve misses the residual bound.  Both paths share the uniqueness
    rule and the residual check.  ``path`` says which factorization serves
    a cell (``"schur"`` or ``"modes"``), and ``fallback`` why it left the
    modes path, or None: of a stack, lists with an entry per cell.

    A cell climbs that ladder on its own numbers: in a stack whose drifts
    share their structure it gets the bytes it gets alone.  A 2-D drift
    raises its error; a stack keeps each cell's first in ``errors`` (else
    None), and that cell solves to zero.
    """

    def __init__(self, x: np.ndarray):
        x = np.real(np.asarray(x))
        if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
            raise DimensionMismatch(f"x must be square, got shape {x.shape}")
        self._single = x.ndim == 2
        self.x = x = x.reshape((-1,) + x.shape[-2:])
        k, d = x.shape[0], x.shape[-1]
        # the modes path needs X's nonzeros, and the residual check takes them too
        self._x_rows = _sparse_rows(x)
        support = None if self._x_rows is None else _bath_support(x)
        modes = None if support is None else _ModesFactor(x, self._x_rows, support)
        self._path = ["modes"] * k
        self._fallback = [None] * k if modes is None else list(modes.why)
        self.errors = [None] * k
        self._schur = {}
        for c in range(k):
            if modes is None or modes.why[c] is not None:
                self._to_schur(c)
        # a modes factorization that serves no cell is let go
        self._modes = modes if modes is not None and None in modes.why else None
        spectrum = np.full((k, d), np.nan, dtype=complex) if modes is None else modes.spectrum
        for c, factor in self._schur.items():
            spectrum[c] = factor.spectrum
        scale = np.maximum(np.max(np.abs(spectrum), axis=-1, initial=0.0), ABS_FLOOR)
        self._pair_min = _pair_min(spectrum)
        self._singular = self._pair_min <= np.maximum(1e-12 * scale, ABS_FLOOR)
        self.spectrum, self.pair_min = (spectrum[0], float(self._pair_min[0])) if self._single \
            else (spectrum, self._pair_min)

    @property
    def path(self):
        return self._path[0] if self._single else self._path

    @property
    def fallback(self):
        return self._fallback[0] if self._single else self._fallback

    def _report(self, c: int, error: Exception) -> None:
        """Give cell c the error, unless it has one; a 2-D drift raises it."""
        if self._single:
            raise error
        if self.errors[c] is None:
            self.errors[c] = error

    def _to_schur(self, c: int) -> None:
        """Factor cell c by real Schur; a failed factorization is its error."""
        self._path[c] = "schur"
        try:
            self._schur[c] = _SchurFactor(self.x[c])
        except ConvergenceFailure as exc:
            self._report(c, exc)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The real antisymmetric ``A`` for the real antisymmetric source
        ``b``: of each cell, for one source for every cell or one each."""
        for c in np.flatnonzero(self._singular):
            self._report(c, SingularSylvester(
                f"min |x_i + x_j| = {self._pair_min[c]:.3e} below tolerance; "
                "Lyapunov equation has no unique solution"))
        b = _real(b, "Lyapunov source b")
        stack = b.reshape((-1,) + b.shape[-2:])
        b_norm = _norms(stack)
        skew = _norms(stack + _t(stack)) > np.maximum(1e-12 * b_norm, ABS_FLOOR)
        for c in np.flatnonzero(np.broadcast_to(skew, self._singular.shape)):
            self._report(c, NotAntisymmetric("Lyapunov source is not antisymmetric"))
        sources = np.broadcast_to(stack, self.x.shape)
        # a cell with a vanishing pair sum may divide by zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the Schur cells first, so that no stacked array waits through their solves
            schur = {c: factor.solve(sources[c]) for c, factor in self._schur.items()
                     if self.errors[c] is None}
            a = np.zeros(self.x.shape) if self._modes is None else self._modes.solve(b)
            for c in list(schur):
                a[c] = schur.pop(c)
            _subtract_transpose(a)
            a *= 0.5
            # A is antisymmetric, so A X^T = -(X A)^T
            res = _matmul(self.x, a) if self._x_rows is None else _sparse_product(self._x_rows, a)
            _subtract_transpose(res)
            res -= b
            res = _norms(res)
            bound = 1e-10 * (_norms(self.x) * _norms(a) + b_norm)
        factored = len(self._schur)
        for c in np.flatnonzero(res > np.maximum(bound, ABS_FLOOR)):
            if self.errors[c] is not None:
                continue
            if self._path[c] == "modes":  # the Schur path decides
                self._fallback[c] = f"solve residual {res[c]:.3e} above {bound[c]:.3e}"
                self._to_schur(c)
            else:
                self._report(c, SingularSylvester(
                    f"Lyapunov residual {res[c]:.3e} exceeds {bound[c]:.3e}; "
                    "equation is near singular"))
        if len(self._schur) > factored:  # a cell took the Schur path: solve again
            return self.solve(b)
        a[[e is not None for e in self.errors]] = 0.0
        return a[0] if self._single else a


def general_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of a real square matrix plus a defectiveness estimate.

    The condition estimate is the condition number of the eigenvector
    matrix; values ``>~ 1e8`` flag a nearly defective (Jordan-like)
    spectrum.
    """
    a = _as_square(a)
    try:
        vals, vecs = np.linalg.eig(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(vecs))
    if not np.isfinite(cond):
        cond = np.inf
    return vals.astype(complex, copy=False), cond


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
