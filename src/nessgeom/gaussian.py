"""Fermionic Gaussian states as Majorana covariance matrices.

The covariance matrix ``G_jk = 1/2 Tr(rho [w_j, w_k])`` is purely imaginary,
antisymmetric (hence Hermitian) and has spectrum in ``[-1, 1]``.  The global
Majorana convention, fixed here once and validated against the dense oracle,
is

    w_{2j-1} = c_j + c_j^dag,   w_{2j} = i (c_j - c_j^dag),

with sites ordered ``1..n`` and fermions realized through the Jordan-Wigner
strings ``w_{2j-1} = Z^{(j-1)} X_j``, ``w_{2j} = Z^{(j-1)} Y_j``, so that
``sigma^z_j = -i w_{2j-1} w_{2j}``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NormExceedsOne,
    NotAntisymmetric,
    NotHermitian,
    TooManyModes,
)
from .numerics import _matmul


@dataclass(frozen=True)
class CovarianceMatrix:
    """Validated two-point Majorana correlation matrix."""

    n_modes: int
    gamma: np.ndarray


@dataclass(frozen=True)
class EigenmodeDecomposition:
    """Canonical form ``G = Q (+)_k [[0, i g_k], [-i g_k, 0]] Q^T``."""

    q: np.ndarray
    gammas: np.ndarray


def as_gamma(state) -> np.ndarray:
    """Accept either a raw matrix or a CovarianceMatrix."""
    if isinstance(state, CovarianceMatrix):
        return state.gamma
    return np.asarray(state, dtype=complex)


def check_norm(occupations: np.ndarray) -> None:
    """Raise NormExceedsOne when an occupation ``|g_k|`` exceeds 1."""
    top = float(np.max(occupations)) if occupations.size else 0.0
    if top > 1.0 + 1e-10:
        raise NormExceedsOne(f"spectral norm {top:.12f} exceeds 1")


def validate(gamma) -> CovarianceMatrix:
    """Check all physicality conditions and wrap the matrix.

    Raises the exception naming the violated condition: NotHermitian,
    NotAntisymmetric or NormExceedsOne.
    """
    g = np.asarray(gamma, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
        raise DimensionMismatch(f"covariance matrix must be square of even size, got {g.shape}")
    scale = max(np.max(np.abs(g)), 1e-14)
    if np.max(np.abs(g - g.conj().T)) > 1e-12 * scale:
        raise NotHermitian("gamma is not Hermitian")
    if np.max(np.abs(g + g.T)) > 1e-12 * scale:
        raise NotAntisymmetric("gamma is not antisymmetric")
    # Hermitian and antisymmetric: g = i Im g, whose spectrum is +- the singular values of Im g
    check_norm(np.linalg.svd(np.imag(g), compute_uv=False))
    return CovarianceMatrix(n_modes=g.shape[0] // 2, gamma=g)


def _schur_pairs(b: np.ndarray, w: np.ndarray, cols: slice, tol: float) -> None:
    """Block-diagonalize the antisymmetric ``b[cols, cols]`` by a real Schur
    form, in place, rotating ``w[:, cols]`` along.

    The 2x2 blocks come first; the 1x1 (zero) eigenvalues follow in pairs,
    which stays orthogonal through degenerate and zero modes.  numpy has no
    real Schur form, so this is the frame's one scipy call.
    """
    from scipy.linalg import schur

    t, z = schur(b[cols, cols], output="real")
    m = t.shape[0]
    pairs: list[int] = []
    singles: list[int] = []
    i = 0
    while i < m:
        if i + 1 < m and abs(t[i + 1, i]) > tol:
            pairs += [i, i + 1]
            i += 2
        else:
            singles.append(i)
            i += 1
    perm = np.array(pairs + singles)
    w[:, cols] = _matmul(w[:, cols], z[:, perm])
    b[cols, cols] = t[np.ix_(perm, perm)]


def real_eigenmodes(a: np.ndarray) -> EigenmodeDecomposition:
    """Canonical form of ``G = i A`` from the real antisymmetric ``A``.

    The eigenvalues ``g_k^2`` of ``A^T A = -A^2`` come in pairs, so a real
    ``eigh`` gives an orthonormal ``W`` whose column pairs span the planes
    ``A`` rotates, and ``B = W^T A W`` is block diagonal up to rounding.
    Each ``g_k`` and its orientation are read from the 2x2 blocks of ``B``
    (``sqrt(eig(A^T A))`` would lose half the digits of a small ``g_k``).
    Where ``eigh`` mixes the planes of near-equal ``g_k``, the coupled
    blocks get a small real Schur form.  Blocks are canonicalized to
    ``g_k >= 0`` and sorted descending; the eigenmode Majoranas are
    ``z = Q^T w``.
    """
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    n = dim // 2
    if a.ndim != 2 or a.shape != (dim, dim) or dim % 2:
        raise DimensionMismatch(f"covariance matrix must be square of even size, got {a.shape}")
    if dim == 0:
        return EigenmodeDecomposition(q=np.zeros((0, 0)), gammas=np.zeros(0))
    _, w = np.linalg.eigh(_matmul(a.T, a), UPLO="L")
    b = _matmul(w.T, _matmul(a, w))
    tol = 1e-12 * max(1.0, np.max(np.abs(a)))
    coupled = np.maximum(
        np.maximum(np.abs(b[0::2, 0::2]), np.abs(b[0::2, 1::2])),
        np.maximum(np.abs(b[1::2, 0::2]), np.abs(b[1::2, 1::2])),
    ) > tol
    np.fill_diagonal(coupled, False)
    # coupled blocks sit in runs: block k ends a run when no block up to k
    # couples past it
    k = np.arange(n)
    farthest = np.where(coupled.any(axis=1), n - 1 - np.argmax(coupled[:, ::-1], axis=1), k)
    ends = np.flatnonzero(np.maximum.accumulate(farthest) == k)
    for lo, hi in zip(np.concatenate(([0], ends[:-1] + 1)), ends):
        if hi > lo:
            _schur_pairs(b, w, slice(2 * lo, 2 * hi + 2), tol)
    g = 0.5 * (b[2 * k, 2 * k + 1] - b[2 * k + 1, 2 * k])
    order = np.argsort(-np.abs(g), kind="stable")
    flip = (g[order] < 0.0).astype(int)
    cols = np.stack((2 * order + flip, 2 * order + 1 - flip), axis=1).reshape(-1)
    return EigenmodeDecomposition(q=w[:, cols], gammas=np.abs(g[order]))


def eigenmodes(gamma) -> EigenmodeDecomposition:
    """Real orthogonal canonical form of a covariance matrix (see
    :func:`real_eigenmodes`); a decomposition passes through unchanged."""
    if isinstance(gamma, EigenmodeDecomposition):
        return gamma
    return real_eigenmodes(np.imag(as_gamma(gamma)))


def mode_occupations(gamma) -> np.ndarray:
    """The n nonnegative canonical eigenvalues ``g_k``, descending."""
    return eigenmodes(gamma).gammas


def purity(gamma) -> float:
    """``Tr rho^2 = sqrt(det((1 + G^2)/2)) = prod_k (1 + g_k^2)/2``.

    ``gamma`` is G, a CovarianceMatrix or an EigenmodeDecomposition.
    """
    gs = mode_occupations(gamma)
    return float(np.prod((1.0 + gs**2) / 2.0))


def gamma_from_omega(omega: np.ndarray) -> np.ndarray:
    """Forward map ``G = tanh(i Omega / 2)`` for real antisymmetric input."""
    om = np.asarray(omega, dtype=float)
    herm = 1j * om / 2.0
    vals, vecs = np.linalg.eigh(herm)
    return vecs @ np.diag(np.tanh(vals)) @ vecs.conj().T


def pfaffian(a: np.ndarray) -> complex:
    """Pfaffian of an even-dimensional antisymmetric matrix (Parlett-Reid LTL)."""
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    if n % 2 == 1:
        return 0.0
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(m[k + 1 :, k])))
        if np.abs(m[pivot, k]) < 1e-300:
            return 0.0
        if pivot != k + 1:
            m[[k + 1, pivot], :] = m[[pivot, k + 1], :]
            m[:, [k + 1, pivot]] = m[:, [pivot, k + 1]]
            pf = -pf
        pf *= m[k, k + 1]
        if k + 2 < n:
            tau = m[k, k + 2 :] / m[k, k + 1]
            col = m[k + 2 :, k + 1]
            m[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return complex(pf)


def wick_expectation(gamma, indices: Sequence[int]) -> complex:
    """Moment ``Tr(rho w_{i1} ... w_{i2p})`` from Wick contractions.

    Indices are 1-based Majorana labels, repeated labels allowed.  For
    ``p = 2`` this is ``a_jk a_lm - a_jl a_km + a_jm a_kl`` with
    ``a = G + 1``; the general case is the Pfaffian of the antisymmetric
    matrix of ordered pair contractions.
    """
    g = as_gamma(gamma)
    dim = g.shape[0]
    idx = [int(i) - 1 for i in indices]
    if len(idx) % 2 != 0:
        return 0.0
    if any(i < 0 or i >= dim for i in idx):
        raise IndexOutOfRange(f"indices must lie in 1..{dim}")
    if len(idx) > dim:
        raise IndexOutOfRange(f"requested a {len(idx)//2}-pair moment with only {dim//2} modes")
    a = g + np.eye(dim)
    if len(idx) == 4:
        j, k, l, m = idx
        return complex(a[j, k] * a[l, m] - a[j, l] * a[k, m] + a[j, m] * a[k, l])
    p2 = len(idx)
    b = np.zeros((p2, p2), dtype=complex)
    for r in range(p2):
        for s in range(r + 1, p2):
            b[r, s] = a[idx[r], idx[s]]
            b[s, r] = -b[r, s]
    return pfaffian(b)


# --- dense (Jordan-Wigner) bridge --------------------------------------------

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _kron_chain(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def majorana_operators(n_modes: int) -> list[np.ndarray]:
    """Dense JW Majoranas ``w_1 .. w_2n`` on ``2^n`` dimensions."""
    ops = []
    eye = np.eye(2, dtype=complex)
    for j in range(n_modes):
        before = [_PAULI_Z] * j
        after = [eye] * (n_modes - j - 1)
        ops.append(_kron_chain(before + [_PAULI_X] + after))
        ops.append(_kron_chain(before + [_PAULI_Y] + after))
    return ops


def gamma_from_dense(rho: np.ndarray, majoranas: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Recompute ``G_jk = 1/2 Tr(rho [w_j, w_k])`` from a dense state."""
    rho = np.asarray(rho, dtype=complex)
    n = int(np.log2(rho.shape[0]))
    w = majoranas if majoranas is not None else majorana_operators(n)
    dim = 2 * n
    g = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(j + 1, dim):
            val = 0.5 * np.trace(rho @ (w[j] @ w[k] - w[k] @ w[j]))
            g[j, k] = val
            g[k, j] = -val
    return g


def dense_state_from_gamma(gamma, max_modes: int = 7):
    """Materialize ``rho = prod_k (1 - i g_k z_{2k-1} z_{2k}) / 2`` densely.

    ``z = Q^T w`` are the eigenmode Majoranas in the JW representation (the
    transpose pairing makes the z-covariance exactly the canonical block
    form of ``G = Q D Q^T``).  Returns a :class:`nessgeom.oracle.DenseState`.
    """
    from .oracle import DenseState  # deferred to avoid a module cycle

    cov = gamma if isinstance(gamma, CovarianceMatrix) else validate(gamma)
    n = cov.n_modes
    if n > max_modes:
        raise TooManyModes(f"{n} modes exceed the dense limit of {max_modes}")
    modes = eigenmodes(cov.gamma)
    w = majorana_operators(n)
    z = [sum(modes.q[j, i] * w[j] for j in range(2 * n)) for i in range(2 * n)]
    rho = np.eye(2**n, dtype=complex)
    for k, gk in enumerate(modes.gammas):
        rho = rho @ (np.eye(2**n) - 1j * gk * (z[2 * k] @ z[2 * k + 1])) / 2.0
    return DenseState(dim=2**n, rho=rho)
