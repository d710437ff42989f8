"""Translationally invariant chains in the thermodynamic limit.

A model is specified by its 2x2 real-space blocks: Hamiltonian blocks
``h(u)`` (``sum_{r} w_r^T h(u) w_{r+u}`` structure) and finite-support jump
families ``l(u)``.  All symbols use one Fourier convention,

    f~(phi) = sum_u f(u) exp(-i phi u),        z = exp(i phi),

under which the steady-state equation decouples into the 2x2 family

    x~(phi) gamma~(phi) + gamma~(phi) x~(-phi)^T = y~(phi),

with ``x~ = 4 [i h~ + (Re m)~]`` and ``y~ = -8 i (Im m)~`` (the same
calibrated convention as the finite-size module).  Analytic continuation
``exp(i phi) -> z`` turns the solution into a rational 2x2 matrix
``gamma~(z) = eta(z) / d(z)`` whose poles inside the unit disk set the
correlation length and carry the residue form of the mean Uhlmann
curvature per site.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import numerics
from .errors import (
    CriticalAngle,
    DimensionMismatch,
    NoConvergence,
    NotFiniteRange,
)

UNIT_CIRCLE_TOL = 1e-9
# pole candidates this close to the unit circle are on it: rounding splits
# a root on the circle into a pair straddling it
CIRCLE_BAND = 1e-7
# pole candidates closer than this to z = 0 belong to the origin block (a
# pole there decays by 1e-3 per site): the pencil splits the multiple root of
# det xhat at z = 0 into a cloud that reaches 1e-4 at the lam -> -1 pinch
ORIGIN_RADIUS = 1e-3
# island contours: moment agreement and removability, relative to the
# symbol scale times the radius; point cap; Hankel rank cut
ISLAND_TOL = 1e-10
ISLAND_MAX_POINTS = 1 << 12
HANKEL_RANK_TOL = 1e-8
# shifts sigma of the pencil's variable z = sigma + 1/w, generic points on
# the unit circle; the one with the best conditioned x(sigma) is used, and a
# pencil whose best reciprocal condition is under PENCIL_RCOND is singular
PENCIL_SHIFTS = np.exp(1j * np.array([0.7, 2.1, 3.9, 5.3]))
PENCIL_RCOND = 1e-12
# fixed generic projection of the 2x2 island moments onto scalars
_PROJ_U = np.array([1.0, 0.6 + 0.3j])
_PROJ_V = np.array([0.7 - 0.4j, 1.0])
# angles at which ``rationalize`` checks the continuation against grid solves
RATIONAL_CHECK_ANGLES = 32
# coarse scan of ``gap_on_circle``, then batched bracket refinement: each
# round evaluates GAP_REFINE_ANGLES angles across the bracket and keeps the
# two neighbours of the smallest, until the bracket is GAP_PHI_TOL wide
GAP_SCAN_ANGLES = 512
GAP_REFINE_ANGLES = 33
GAP_PHI_TOL = 1e-12


def _h_blocks(blocks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    out = {int(u): np.asarray(b, dtype=complex) for u, b in blocks.items()}
    if any(b.shape != (2, 2) for b in out.values()):
        raise DimensionMismatch("h blocks must be 2x2")
    return out


def _jump_families(jumps: Sequence[Mapping[int, np.ndarray]]) -> tuple:
    return tuple(
        {int(u): np.asarray(v, dtype=complex).reshape(2) for u, v in fam.items()}
        for fam in jumps
    )


def _bath_blocks(left: Sequence[Mapping], right: Sequence[Mapping]) -> dict[int, np.ndarray]:
    """Blocks of ``sum_{a,r} l_{a,r} l'_{a,r}^dag`` pairing family a of ``left``
    with family a of ``right``, in the (s - r) block convention shared by
    every circulant matrix here:

        m(u) = M_{(s),(s+u)} = sum_{a,v} l_a(v) (x) l'_a(v+u)^dag
    """
    blocks: dict[int, np.ndarray] = {}
    for lfam, rfam in zip(left, right):
        for u1 in sorted(lfam):
            for u2 in sorted(rfam):
                u = u2 - u1
                blocks.setdefault(u, np.zeros((2, 2), dtype=complex))
                blocks[u] += np.outer(lfam[u1], rfam[u2].conj())
    return blocks


def _contract(powers: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``powers @ stack`` without BLAS: on a 2-core machine a numpy GEMM here
    made the batched 4x4 solves after it 3-4x slower at 1,024 points."""
    return np.einsum("nu,uk->nk", powers, stack)


@dataclass
class SymbolModel:
    """Momentum-space description of a translationally invariant chain.

    ``dh`` and ``dl`` hold the exact derivatives of the blocks along the
    parameters the builder differentiates: ``dh[name]`` maps offsets to 2x2
    blocks, ``dl[name]`` has one family per jump family (absent offsets and
    absent names are zero).  The bath derivative ``dm_blocks[name]`` follows
    by the product rule, ``dm = (dl, l) + (l, dl)`` in ``_bath_blocks``.

    Every symbol value comes from ``symbols``, which contracts one power
    table ``z^{-u}`` (u = -span .. span) with stacks of the drift blocks
    ``x(u) = 4 [i h(u) + Re m(u)]``, the source blocks ``y(u) = -8 i Im m(u)``
    and the same blocks of their derivatives, built once per set of
    parameter names on first use.
    """

    h_blocks: Mapping[int, np.ndarray]
    jumps: Sequence[Mapping[int, np.ndarray]]
    dh: Mapping[str, Mapping[int, np.ndarray]] = field(default_factory=dict)
    dl: Mapping[str, Sequence[Mapping[int, np.ndarray]]] = field(default_factory=dict)
    m_blocks: Mapping[int, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.h_blocks = _h_blocks(self.h_blocks)
        self.jumps = _jump_families(self.jumps)
        self.dh = {name: _h_blocks(b) for name, b in self.dh.items()}
        self.dl = {name: _jump_families(f) for name, f in self.dl.items()}
        if any(len(f) != len(self.jumps) for f in self.dl.values()):
            raise DimensionMismatch("dl needs one family per jump family")
        self.m_blocks = _bath_blocks(self.jumps, self.jumps)
        # the table spans every offset a block or a derivative block can take
        span = [self.reach] + [abs(u) for b in self.dh.values() for u in b]
        span += [abs(v - u) for fams in self.dl.values()
                 for dfam, fam in zip(fams, self.jumps) for u in dfam for v in fam]
        self._offsets = np.arange(-max(span), max(span) + 1)
        self._stacks: dict[tuple[str, ...], np.ndarray] = {}
        self._spot_check()

    @cached_property
    def dm_blocks(self) -> dict[str, dict[int, np.ndarray]]:
        """Bath derivatives along each ``dl`` parameter, built on first use:
        most models never ask for a tangent."""
        return {name: _bath_blocks(f + self.jumps, self.jumps + f) for name, f in self.dl.items()}

    @property
    def reach(self) -> int:
        """Largest block offset entering the drift symbol."""
        return max([abs(u) for u in (*self.h_blocks, *self.m_blocks)], default=0)

    def _stacked(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Blocks as rows of a (len(offsets), 4) stack; absent offsets are zero."""
        out = np.zeros((self._offsets.size, 4), dtype=complex)
        for u, b in blocks.items():
            out[u - self._offsets[0]] = b.reshape(4)
        return out

    def _drift_and_source(self, h_blocks, m_blocks) -> np.ndarray:
        """(len(offsets), 3, 4) stack of the drift blocks ``x(u)``, the same
        blocks at ``-u`` (for ``x(1/z)``) and the source blocks ``y(u)``."""
        m = self._stacked(m_blocks)
        x = 4.0 * (1j * self._stacked(h_blocks) + m.real)
        return np.stack([x, x[::-1], -8j * m.imag], axis=1)

    def _stacks_along(self, along: tuple[str, ...]) -> np.ndarray:
        """The stacks of the symbols and of their derivatives along ``along``,
        as one (len(offsets), 3 (1 + len(along)) 4) array, built on first use."""
        if along not in self._stacks:
            for name in along:
                if name not in self.dh and name not in self.dl:
                    raise DimensionMismatch(f"model carries no derivative blocks for {name!r}")
            blocks = [(self.h_blocks, self.m_blocks)] + [
                (self.dh.get(name, {}), self.dm_blocks.get(name, {})) for name in along
            ]
            stack = np.stack([self._drift_and_source(*b) for b in blocks], axis=2)
            self._stacks[along] = stack.reshape(self._offsets.size, -1)
        return self._stacks[along]

    def symbols(self, z, along: Sequence[str] = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(x(z), x(1/z), y(z))``, each of shape (1 + len(along), n, 2, 2).

        Index 0 holds the drift and source symbols continued to the points
        ``z`` (on the unit circle ``z = e^{i phi}``, where ``x(1/z) =
        x~(-phi)``); index k + 1 holds their derivatives along ``along[k]``.
        """
        powers = np.atleast_1d(np.asarray(z, dtype=complex))[:, None] ** -self._offsets
        vals = _contract(powers, self._stacks_along(tuple(along)))
        return tuple(vals.reshape(len(vals), 3, -1, 2, 2).transpose(1, 2, 0, 3, 4))

    def _spot_check(self, n_angles: int = 16) -> None:
        phis = np.linspace(-np.pi, np.pi, n_angles, endpoint=False)
        powers = np.exp(1j * phis)[:, None] ** -self._offsets  # reversed: z^u
        h = self._stacked(self.h_blocks)
        h_p = _contract(powers, h).reshape(-1, 2, 2)
        h_m = _contract(powers[:, ::-1], h).reshape(-1, 2, 2)
        if np.max(np.abs(h_p + np.transpose(h_m, (0, 2, 1)))) > 1e-10 * max(
            1.0, np.max(np.abs(h_p))
        ):
            raise DimensionMismatch("h symbol violates h~(phi) = -h~(-phi)^T")
        m_p = _contract(powers, self._stacked(self.m_blocks)).reshape(-1, 2, 2)
        herm_dev = np.max(np.abs(m_p - np.conj(np.transpose(m_p, (0, 2, 1)))))
        if herm_dev > 1e-10 * max(1.0, np.max(np.abs(m_p))):
            raise DimensionMismatch("m symbol is not Hermitian pointwise")
        eigs = np.linalg.eigvalsh(m_p)
        if np.min(eigs) < -1e-10 * max(1.0, np.max(np.abs(eigs))):
            raise DimensionMismatch("m symbol is not PSD pointwise")


def _xhat(xp: np.ndarray, xm: np.ndarray) -> np.ndarray:
    """Batched 4x4 vectorized drift ``x+ (x) 1 + 1 (x) x-`` of ``x+ g + g x-^T``,
    written into one buffer block by block."""
    out = np.zeros((xp.shape[0], 2, 2, 2, 2), dtype=complex)
    for c in range(2):
        out[:, :, c, :, c] = xp
    for a in range(2):
        out[:, a, :, a, :] += xm
    return out.reshape(-1, 4, 4)


def _solve_blocks(xhat: np.ndarray, *rhs: np.ndarray) -> np.ndarray:
    """Batched solves of ``x+ g + g x-^T = r`` for each right-hand side ``r``
    via the 4x4 vectorized form ``xhat``; shape (len(rhs), n, 2, 2)."""
    b = np.stack([r.reshape(-1, 4) for r in rhs], axis=-1)
    try:
        vec = np.linalg.solve(xhat, b)
    except np.linalg.LinAlgError as exc:
        raise CriticalAngle(f"vectorized drift symbol is singular: {exc}") from exc
    return np.moveaxis(vec, -1, 0).reshape(len(rhs), -1, 2, 2)


def _solve_symbol(model: SymbolModel, z: np.ndarray, along: Sequence[str] = ()) -> tuple:
    """``((x(z), x(1/z), y(z)), gamma~, dgamma~)`` at the points ``z``.

    gamma~ solves ``x(z) g + g x(1/z)^T = y(z)``; with parameter names, the
    exact tangents

        x(z) dg + dg x(1/z)^T = dy(z) - dx(z) g - g dx(1/z)^T

    are solved on the same 4x4 system, ``dg`` of shape (len(along), n, 2, 2)
    (None without names).
    """
    x, x_inv, y = model.symbols(z, along)
    xhat = _xhat(x[0], x_inv[0])
    gam = _solve_blocks(xhat, y[0])[0]
    dgam = None
    if along:
        dx_g = np.einsum("knab,nbc->knac", x[1:], gam)
        dgam = _solve_blocks(xhat, *(y[1:] - dx_g - np.einsum("nab,kncb->knac", gam, x_inv[1:])))
    return (x[0], x_inv[0], y[0]), gam, dgam


def symbol_covariance(model: SymbolModel, phi) -> np.ndarray:
    """Covariance symbol gamma~(phi) from the 2x2 Lyapunov equation on the
    unit circle, checked by its residual."""
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    (x, x_inv, y), gam, _ = _solve_symbol(model, np.exp(1j * phis))
    res = np.einsum("nab,nbc->nac", x, gam) + np.einsum("nab,ncb->nac", gam, x_inv) - y
    scale = max(np.max(np.abs(y)), np.max(np.abs(x)) * max(np.max(np.abs(gam)), 1e-300), 1e-300)
    if np.max(np.abs(res)) > 1e-12 * scale:
        raise CriticalAngle(
            f"symbol Lyapunov residual {np.max(np.abs(res)):.3e} too large (critical angle?)"
        )
    if np.isscalar(phi):
        return gam[0]
    return gam


# --- rational continuation ----------------------------------------------------


@dataclass(frozen=True)
class RationalSymbol:
    """gamma~(z) = eta(z) / d(z) with a common Laurent shift cleared.

    ``eta`` has shape (2, 2, deg+1): ascending coefficients of ``z^K eta``;
    ``d`` the ascending coefficients of ``z^K d``.  The shift K cancels in
    the ratio, so poles and residues may be read off the stored
    polynomials directly.  Away from a critical pinch it cross-checks the
    pencil roots and local solves that the pole path uses.
    """

    eta: np.ndarray
    d: np.ndarray
    shift: int

    def gamma_at(self, z: complex | np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        num = npoly.polyval(z, self.eta.reshape(4, -1).T)  # -> (4, nz)
        den = npoly.polyval(z, self.d)
        return (num / den).T.reshape(z.size, 2, 2)


def _symbol_coefficients(model: SymbolModel) -> tuple[np.ndarray, np.ndarray, int]:
    """Raw ascending coefficients ``(z^K eta, z^K d, K)`` by evaluation-interpolation.

    ``z^K d(z)`` and ``z^K eta(z)`` are polynomials of degree at most 2K
    with ``K = 4 * reach``; sampling them on enough roots of unity and
    running one FFT recovers the coefficients exactly (up to rounding).
    ``eta`` has shape (2K + 1, 4); nothing is normalized or trimmed.
    """
    reach = model.reach
    if reach > 64:
        raise NotFiniteRange(f"block reach {reach} too large for rationalization")
    k_shift = 4 * reach
    deg = 2 * k_shift
    m = 1
    while m < deg + 2:
        m *= 2
    m *= 2
    phis = 2.0 * np.pi * np.arange(m) / m
    x, x_inv, y = model.symbols(np.exp(1j * phis))
    xhat = _xhat(x[0], x_inv[0])
    d_vals = np.linalg.det(xhat)
    # adjugate through cofactors so critical angles (singular xhat) stay exact
    eta_vals = (_adjugate4(xhat) @ y[0].reshape(m, 4, 1))[:, :, 0]
    zk = np.exp(1j * phis) ** k_shift
    d_poly = (np.fft.fft(d_vals * zk) / m)[: deg + 1]
    eta_poly = (np.fft.fft(eta_vals * zk[:, None], axis=0) / m)[: deg + 1]
    return eta_poly, d_poly, k_shift


def rationalize(model: SymbolModel) -> RationalSymbol:
    """Exact rational continuation ``gamma~(z) = eta(z) / d(z)``.

    The raw coefficients are normalized, the common ``z^v`` factor is
    stripped, and the result is checked against grid solves.
    """
    eta_poly, d_poly, k_shift = _symbol_coefficients(model)
    norm = np.max(np.abs(d_poly)) or 1.0
    d_poly = d_poly / norm
    eta_poly = eta_poly / norm
    _require_nonvanishing(d_poly, "denominator d(z) = det xhat(z)")
    # strip the common z^v factor: root finders otherwise scatter the
    # high-order zero at the origin into a spurious root cloud
    v = min(_valuation(d_poly), _valuation(eta_poly))
    d_poly = _trim(d_poly[v:])
    eta_poly = eta_poly[v : _last_nonzero(eta_poly) + 1]
    eta_arr = np.transpose(eta_poly.reshape(-1, 2, 2), (1, 2, 0))
    rat = RationalSymbol(eta=eta_arr, d=d_poly, shift=k_shift - v)
    # invariant: reproduce the grid solution at RATIONAL_CHECK_ANGLES angles.
    # Near a critical pinch the numerator and denominator both nearly vanish
    # on a stretch of the circle, so the comparison tolerance carries the
    # local cancellation factor of the denominator evaluation.
    check_phis = np.linspace(-np.pi, np.pi, RATIONAL_CHECK_ANGLES, endpoint=False) + 0.0391
    zc = np.exp(1j * check_phis)
    direct = symbol_covariance(model, check_phis)
    cont = rat.gamma_at(zc)
    dev = np.max(np.abs(direct - cont), axis=(1, 2))
    cancel = np.sum(np.abs(rat.d)) / np.maximum(np.abs(npoly.polyval(zc, rat.d)), 1e-300)
    tol = np.maximum(1e-8, 5e-12 * cancel) * max(1.0, np.max(np.abs(direct)))
    if np.any(dev > tol):
        worst = float(np.max(dev / tol))
        raise NotFiniteRange(
            f"rational continuation deviates from grid solves ({worst:.1f}x tolerance)"
        )
    return rat


def _adjugate4(a: np.ndarray) -> np.ndarray:
    """Adjugates of a batch of 4x4 matrices from 3x3 cofactors (exact when singular)."""
    adj = np.empty_like(a, dtype=complex)
    for i in range(4):
        for j in range(4):
            m = np.delete(np.delete(a, i, axis=-2), j, axis=-1)
            adj[..., j, i] = (-1) ** (i + j) * (
                m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
                - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
                + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
            )
    return adj


def _trim(c: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    scale = np.max(np.abs(c)) or 1.0
    nz = np.nonzero(np.abs(c) > rtol * scale)[0]
    if nz.size == 0:
        return c[:1]
    return c[: nz[-1] + 1]


def _valuation(c: np.ndarray, rtol: float = 1e-11) -> int:
    """Order of the zero at z = 0 (index of the first non-negligible coefficient)."""
    flat = np.max(np.abs(c.reshape(c.shape[0], -1)), axis=1)
    scale = np.max(flat) or 1.0
    nz = np.nonzero(flat > rtol * scale)[0]
    return int(nz[0]) if nz.size else c.shape[0]


def _require_nonvanishing(c: np.ndarray, what: str) -> None:
    """Raise ``CriticalAngle`` when a polynomial has no non-negligible coefficient.

    ``d(z) = det xhat(z)`` vanishes identically where ``xhat`` is singular
    at every angle (the reservoir chain at lam = -1); no pole can be located.
    """
    if _valuation(c) == c.shape[0]:
        raise CriticalAngle(f"{what} vanishes identically")


def _last_nonzero(c: np.ndarray, rtol: float = 1e-12) -> int:
    scale = np.max(np.abs(c)) or 1.0
    nz = np.nonzero(np.max(np.abs(c.reshape(c.shape[0], -1)), axis=1) > rtol * scale)[0]
    return int(nz[-1]) if nz.size else 0


# --- poles, correlation lengths, real-space correlations -----------------------


@dataclass(frozen=True)
class CorrelationLength:
    """Correlation length with its dominant pole and a criticality flag."""

    xi: float
    dominant_pole: complex | None
    kind: str  # "finite" | "short_range_trivial" | "critical"


def _contour_integral(
    func: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
    points: int = 32,
    tol: float = 1e-10,
    max_points: int = 1 << 17,
    floor: float = 0.0,
) -> tuple[np.ndarray, int]:
    """(1/2 pi i) closed contour integral of ``func`` around ``center``,
    returned with the number of trapezoid points it took.

    Samples are doubled, reusing the earlier ones, until two successive
    estimates agree to ``tol * max(sum |f| |dz|, floor)``: the integrand's
    size on the contour, not the size of the result.  Convergence is
    geometric in the clearance between the contour and the nearest
    singularity.  At ``max_points`` the last estimate is carried by
    ``NoConvergence``, whose message gives the points reached and the last
    increment as a multiple of its target.
    """

    def sample(theta: np.ndarray) -> np.ndarray:
        return np.asarray(func(center + radius * np.exp(1j * theta)))

    def estimate(vals: np.ndarray) -> tuple[np.ndarray, float]:
        m = vals.shape[0]
        step = radius * np.exp(2j * np.pi * np.arange(m) / m)
        size = np.sum(np.max(np.abs(vals).reshape(m, -1), axis=1)) * 2.0 * np.pi * radius / m
        return np.tensordot(vals, step, axes=(0, 0)) / m, float(size)

    vals = sample(2.0 * np.pi * np.arange(points) / points)
    prev, _ = estimate(vals)
    excess = np.inf
    while points < max_points:
        points *= 2
        both = np.empty((points,) + vals.shape[1:], dtype=complex)
        both[0::2] = vals
        both[1::2] = sample((2.0 * np.pi * np.arange(points) / points)[1::2])
        vals = both
        cur, size = estimate(vals)
        target = tol * max(size, floor)
        step = float(np.max(np.abs(cur - prev)))
        if step <= target:
            return cur, points
        excess = step / target
        prev = cur
    raise NoConvergence(
        f"contour integral did not settle at {points} points: the last doubling "
        f"moved it by {excess:.3g} times its target",
        last_estimate=prev,
    )


def _symbol_scale(model: SymbolModel) -> float:
    """Size of gamma~ from local solves at 32 circle angles; a drift symbol
    singular at one of them raises ``CriticalAngle``."""
    phis = np.linspace(-np.pi, np.pi, 32, endpoint=False) + 0.017
    vals = _solve_symbol(model, np.exp(1j * phis))[1]
    return float(max(np.max(np.abs(vals)), 1e-12))


def _pencil_roots(model: SymbolModel) -> np.ndarray | None:
    """Finite roots of ``det xhat(z)``, the candidate poles of gamma~.

    They are the eigenvalues of the matrix polynomial ``P(z) = z^R xhat(z)
    = sum_j z^j C_j`` with ``C_j = xhat(x(R - j), x(j - R))`` on the drift
    stack (R the reach).  Its leading coefficient may be singular (roots at
    infinity), so the variable is shifted, ``z = sigma + 1/w``: then
    ``w^{2R} P(sigma + 1/w)`` has the invertible leading coefficient
    ``P(sigma)``, and the eigenvalues ``w`` of its monic block companion give
    the roots; ``w = 0`` are the roots at infinity (Tisseur & Meerbergen,
    SIAM Rev. 43 (2001) 235).  The shift is the one of ``PENCIL_SHIFTS``
    with the best conditioned ``P(sigma)``.  None when even that one is
    singular to ``PENCIL_RCOND``: ``det xhat`` vanishes identically.
    """
    reach = model.reach
    if reach == 0:
        return np.empty(0, dtype=complex)
    n = 2 * reach
    stack = model._stacks_along(())[reach - np.arange(n + 1) - model._offsets[0]]
    coef = _xhat(stack[:, 0:4].reshape(-1, 2, 2), stack[:, 4:8].reshape(-1, 2, 2))
    # Taylor shift P(sigma + t) = sum_k t^k D_k, D_k = sum_j binom(j, k) sigma^(j-k) C_j
    idx = np.arange(n + 1)
    binom = np.array([[math.comb(j, k) for j in range(n + 1)] for k in range(n + 1)])
    taylor = binom * PENCIL_SHIFTS[:, None, None] ** np.maximum(idx - idx[:, None], 0)
    shifted = np.einsum("skj,jab->skab", taylor, coef)
    sv = np.linalg.svd(shifted[:, 0], compute_uv=False)
    rcond = sv[:, -1] / np.maximum(sv[:, 0], np.finfo(float).tiny)
    best = int(np.argmax(rcond))
    if rcond[best] < PENCIL_RCOND:
        return None
    companion = np.zeros((4 * n, 4 * n), dtype=complex)
    companion[:4] = -np.linalg.solve(shifted[best, 0], np.concatenate(shifted[best, 1:], axis=1))
    companion[4:, :-4] = np.eye(4 * (n - 1))
    w = np.linalg.eigvals(companion)
    finite = np.abs(w) > np.finfo(float).eps * np.linalg.norm(companion, 1)
    return PENCIL_SHIFTS[best] + 1.0 / w[finite]


@dataclass(frozen=True)
class Island:
    """Linked pole candidates inside or on the unit circle, with the verdict
    of a contour of local solves around them.

    ``side`` is -1 inside the disk and 0 on the circle (within
    ``CIRCLE_BAND``).  ``poles`` are the poles of gamma~ the contour located:
    empty when the island is removable, None when the contour could not
    resolve it; ``refusal`` then says why (too little clearance, a root count
    that disagrees with the winding of ``det xhat``, no convergence, or
    Hankel nodes off the contour's disk).
    """

    members: np.ndarray
    center: complex
    side: int
    radius: float
    poles: np.ndarray | None
    points: int = 0
    refusal: str = ""

    @property
    def resolved(self) -> bool:
        return self.poles is not None

    @property
    def removable(self) -> bool:
        return self.poles is not None and self.poles.size == 0


def _side(z: complex) -> int:
    """-1 inside the unit disk, 0 on the circle (within ``CIRCLE_BAND``), +1 outside."""
    off = abs(z) - 1.0
    return 0 if abs(off) <= CIRCLE_BAND else int(np.sign(off))


def _hankel_nodes(s: np.ndarray) -> np.ndarray | None:
    """Nodes ``w_j`` of moments ``s_k = sum_j c_j w_j^k`` (confluent nodes
    included) from the rank-revealed Hankel pencil; None when rank 0."""
    n = s.size // 2
    idx = np.add.outer(np.arange(n), np.arange(n))
    h0, h1 = s[idx], s[idx + 1]
    sv = np.linalg.svd(h0, compute_uv=False)
    k = int(np.sum(sv > HANKEL_RANK_TOL * sv[0]))
    if k == 0:
        return None
    return np.linalg.eigvals(np.linalg.solve(h0[:k, :k], h1[:k, :k]))


def _resolve_island(
    model: SymbolModel,
    members: np.ndarray,
    others: np.ndarray,
    scale: float,
) -> Island:
    """Decide one island by the moments ``s_k = (1/2 pi i) oint ((z-c)/r)^k
    gamma~(z) dz``, k = 0 .. 2m+1, on a circle of radius half its clearance.

    The island is removable when every moment is negligible against the
    symbol scale; otherwise its poles are ``c + r eig(H0^-1 H1)`` of the
    Hankel pencil of the projected moments (Kravanja & Van Barel).  The
    winding of ``det xhat`` over the same samples must count its members.
    """
    center = complex(np.mean(members))
    side = _side(members[0])
    spread = float(np.max(np.abs(members - center)))
    bounds = [abs(center)] + ([1.0 - abs(center)] if side < 0 else [])
    if others.size:
        bounds.append(float(np.min(np.abs(others - center))))
    clearance = min(bounds)
    radius = 0.5 * clearance

    def unresolved(refusal: str) -> Island:
        return Island(members, center, side, radius, None, refusal=refusal)

    if clearance <= 4.0 * spread:
        return unresolved(f"its clearance {clearance:.3g} is not 4 times its spread {spread:.3g}")
    m = members.size
    powers = np.arange(2 * m + 2)
    samples: list[tuple[np.ndarray, np.ndarray]] = []

    def moments(z: np.ndarray) -> np.ndarray:
        (x, x_inv, _), gam, _ = _solve_symbol(model, z)
        samples.append((z, np.linalg.det(_xhat(x, x_inv))))
        weights = ((z - center) / radius)[:, None] ** powers
        return weights[:, :, None, None] * gam[:, None]

    try:
        s, points = _contour_integral(
            moments, center, radius, tol=ISLAND_TOL, max_points=ISLAND_MAX_POINTS
        )
    except (NoConvergence, CriticalAngle) as exc:
        return unresolved(f"its contour failed ({exc})")
    # every sample lies on the final contour: order them by angle
    z, dets = (np.concatenate(part) for part in zip(*samples))
    dets = dets[np.argsort(np.angle(z - center))]
    winding = np.sum(np.angle(np.roll(dets, -1) * np.conj(dets))) / (2.0 * np.pi)
    if round(winding) != m:
        return unresolved(f"det xhat winds {winding:.3g} times around it, not {m}")
    if np.max(np.abs(s)) < ISLAND_TOL * scale * radius:
        return Island(members, center, side, radius, np.empty(0, dtype=complex), points)
    nodes = _hankel_nodes(np.einsum("a,kab,b->k", _PROJ_U, s, _PROJ_V))
    if nodes is None or np.any(np.abs(nodes) >= 1.0):
        return unresolved("the Hankel pencil of its moments has no nodes inside the contour")
    return Island(members, center, side, radius, center + radius * nodes, points)


def pole_structure(model: SymbolModel) -> tuple[list[Island], np.ndarray | None]:
    """Islands of pole candidates inside and on the unit circle, each
    decided by a contour of local solves, and all candidates.

    The candidates are the roots of ``det xhat`` from ``_pencil_roots``.
    They are linked only on the same side of the circle; candidates outside
    the disk and those within ``ORIGIN_RADIUS`` of z = 0 (the origin block,
    the finite-range piece) are not islands.  An island the contour cannot
    resolve keeps ``poles=None``.  When ``det xhat`` vanishes identically
    the candidates are None and there are no islands.
    """
    scale = _symbol_scale(model)
    roots = _pencil_roots(model)
    if roots is None:
        return [], None
    out = []
    for g in _link_islands(roots, threshold=1e-6):
        members = roots[g]
        if _side(members[0]) > 0 or abs(np.mean(members)) < ORIGIN_RADIUS:
            continue
        out.append(_resolve_island(model, members, np.delete(roots, g), scale))
    return out, roots


def correlation_length(model: SymbolModel) -> CorrelationLength:
    """Outermost non-removable pole inside the unit disk and ``xi = -1/ln|z|``.

    The poles come from the island contours of ``pole_structure``.  An island
    the contours could not resolve that might hold the outermost pole raises
    ``NoConvergence``, naming it and why its contour refused it.  Where
    ``det xhat`` vanishes identically xi diverges, and the kind is critical.
    """
    islands, roots = pole_structure(model)
    if roots is None:
        return CorrelationLength(xi=np.inf, dominant_pole=None, kind="critical")
    poles = np.concatenate([isl.poles for isl in islands if isl.resolved] + [np.empty(0)])
    on_circle = poles[np.abs(np.abs(poles) - 1.0) <= UNIT_CIRCLE_TOL]
    if on_circle.size:
        return CorrelationLength(xi=np.inf, dominant_pole=complex(on_circle[0]), kind="critical")
    inside = poles[np.abs(poles) < 1.0]
    z0 = complex(inside[np.argmax(np.abs(inside))]) if inside.size else None
    r_dom = abs(z0) if z0 is not None else 0.0
    for isl in islands:
        if not isl.resolved and float(np.max(np.abs(isl.members))) + isl.radius >= r_dom:
            raise NoConvergence(
                f"the island of {isl.members.size} pole candidates at {isl.center:.9g} "
                f"(contour radius {isl.radius:.3g}) could hold the outermost pole, "
                f"but {isl.refusal}"
            )
    if z0 is None:
        return CorrelationLength(xi=0.0, dominant_pole=None, kind="short_range_trivial")
    return CorrelationLength(xi=float(-1.0 / np.log(abs(z0))), dominant_pole=z0, kind="finite")


# --- mean Uhlmann curvature per site -------------------------------------------


def _muc_density(model: SymbolModel, pair: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """``u(z) = (i/4) Tr{ g~ [d_mu g~, d_nu g~] } / (1 - det g~)^2`` at the
    points ``z``, set to zero where ``det g~ = 1`` (two pure eigenmodes: the
    continuity branch, not a singularity).  ``g~`` and its exact tangents
    come from ``gamma_at_points``; ``pair`` must be two parameter names."""
    pair = tuple(pair)
    if len(pair) != 2:
        raise DimensionMismatch(f"MUC needs a pair of parameter names, got {pair!r}")

    def u_at(z: np.ndarray) -> np.ndarray:
        gam, (dmu, dnu) = gamma_at_points(model, z, pair)
        comm = np.einsum("nab,nbc->nac", dmu, dnu) - np.einsum("nab,nbc->nac", dnu, dmu)
        num = 0.25j * np.einsum("nab,nba->n", gam, comm)
        one_minus = 1.0 - np.linalg.det(gam)
        ok = np.abs(one_minus) > 1e-12
        return np.where(ok, num / np.where(ok, one_minus**2, 1.0), 0.0)

    return u_at


def muc_integrand(model: SymbolModel, pair: tuple[str, str]) -> Callable[[np.ndarray], np.ndarray]:
    """The angle-resolved MUC density ``u(phi)`` of ``_muc_density`` on the
    unit circle; a singular drift symbol on the grid raises ``CriticalAngle``."""
    u_at = _muc_density(model, pair)
    return lambda phis: u_at(np.exp(1j * np.atleast_1d(phis)))


def muc_per_site(
    model: SymbolModel,
    pair: tuple[str, str],
    *,
    mode: str = "quadrature",
    tol: float = 1e-8,
) -> float:
    """Mean Uhlmann curvature per site for one parameter pair.

    ``mode='quadrature'`` integrates the angle density with point-doubling
    (NoConvergence near critical manifolds carries the last estimate);
    ``mode='residue'`` sums residues of the analytic continuation
    ``z^{-1} u(z)`` over the unit disk: the same density, integrated by an
    independent pipeline.  ``pair`` other than two names raises
    ``DimensionMismatch``.
    """
    if mode == "quadrature":
        val = numerics.periodic_quadrature(muc_integrand(model, pair), tol) / (2.0 * np.pi)
        return float(np.real(val))
    if mode != "residue":
        raise DimensionMismatch(f"unknown MUC mode {mode!r}")
    return _muc_residue(model, pair)


def gamma_at_points(model: SymbolModel, z: np.ndarray, along: Sequence[str] = ()):
    """Covariance symbol continued to arbitrary complex points by local solves.

    Solving ``x(z) g + g x(1/z)^T = y(z)`` pointwise avoids the valley
    amplification that global polynomial numerators suffer near multiple
    roots, so values stay accurate wherever the system is regular.  With
    parameter names, the exact tangents are solved on the same 4x4 system
    from the model's derivative blocks (see ``_solve_symbol``), and
    ``(g, dg)`` is returned with ``dg`` of shape (len(along), n, 2, 2).
    """
    _, gam, dgam = _solve_symbol(model, z, along)
    return (gam, dgam) if along else gam


def _muc_residue(model: SymbolModel, pair: tuple[str, str]) -> float:
    """Residue form of the MUC per site.

    Pole candidates come from the exact center-point polynomials d(z) and
    ``d^2 - det(eta)``; the density u(z) itself is evaluated locally by
    complex-point solves with their exact tangents.  The poles at
    ``det g~ = 1`` are roots of ``d^2 - det(eta)``, which needs the
    coefficients of eta, so this path alone keeps ``_symbol_coefficients``
    (the correlation length reads its candidates from ``_pencil_roots``).
    """
    u_at = _muc_density(model, pair)
    eta, d, _ = _symbol_coefficients(model)
    det_eta = npoly.polysub(
        npoly.polymul(eta[:, 0], eta[:, 3]), npoly.polymul(eta[:, 1], eta[:, 2])
    )
    one_minus = npoly.polysub(npoly.polymul(d, d), det_eta)
    candidates = []
    for name, poly in (("d(z) = det xhat(z)", d), ("d(z)^2 - det eta(z)", one_minus)):
        _require_nonvanishing(poly, f"MUC residue mode: pole polynomial {name}")
        poly = poly / (np.max(np.abs(poly)) or 1.0)
        poly = _trim(poly[_valuation(poly) :])
        if poly.size > 1:
            candidates.append(numerics.polynomial_roots(poly))
    roots = np.concatenate(candidates) if candidates else np.array([], dtype=complex)

    def func(z):
        return u_at(z) / z

    probe = np.abs(u_at(np.exp(1j * np.linspace(0.1, 2.0 * np.pi, 16))))
    scale = float(max(np.max(probe), 1e-300))
    total = _residue_sum_unit_disk(
        func,
        roots,
        scale,
        "MUC residue mode: non-removable pole on the unit circle (criticality)",
    )
    return float(np.real(total))


def _link_islands(roots: np.ndarray, threshold: float) -> list[list[int]]:
    """Single-linkage grouping: noise-split multiple roots re-merge here.

    Two roots link when they lie on the same side of the unit circle and
    within ``max(threshold, 1e-3 |z|)`` of each other.
    """
    n = roots.size
    sides = [_side(z) for z in roots]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            link = max(threshold, 1e-3 * max(abs(roots[i]), abs(roots[j])))
            if sides[i] == sides[j] and abs(roots[i] - roots[j]) <= link:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _residue_sum_unit_disk(
    func: Callable[[np.ndarray], np.ndarray],
    roots: np.ndarray,
    scale: float,
    circle_message: str,
) -> np.ndarray:
    """Residue sum of ``func`` over the open unit disk by one mid-annulus contour.

    The contour radius is placed halfway between the outermost pole inside
    the disk and the unit circle, where the integrand is far from every
    singularity; roots within 1e-7 of the circle are probed for
    boundedness first (removable pinches pass, true critical poles raise).
    """
    band = CIRCLE_BAND
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= band] if roots.size else roots
    for z0 in on_circle:
        probe = z0 / abs(z0) * (1.0 - 1e-4)
        if np.max(np.abs(func(np.array([probe])))) > 1e8 * scale:
            raise NoConvergence(circle_message, last_estimate=None)
    inner = roots[np.abs(roots) < 1.0 - band] if roots.size else roots
    r_in = float(np.max(np.abs(inner))) if inner.size else 0.0
    rho = 0.5 * (1.0 + r_in)
    # the floor of 1 measures the increments of the O(1) densities summed
    # here on an absolute scale; with exact tangents they are smooth to
    # rounding, and the residue-grid cells settle at 2,048 points with or
    # without it
    return _contour_integral(func, 0.0, rho, points=1024, tol=1e-13, floor=1.0)[0]


def _min_re_eig2(x: np.ndarray) -> np.ndarray:
    """Smallest real part of the eigenvalues of each 2x2 matrix of ``x``
    (shape (n, 2, 2)): the principal square root has a nonnegative real
    part, so it is the real part of ``(a+d)/2 - sqrt(((a-d)/2)^2 + bc)``."""
    a, b, c, d = x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1]
    return 0.5 * (a + d).real - np.sqrt((0.5 * (a - d)) ** 2 + b * c).real


def gap_on_circle(model: SymbolModel) -> float:
    """Dissipative gap ``2 min_{phi,j} Re x_j(e^{i phi})`` on the circle.

    Coarse grid scan, then bracket refinement around its minimum: every
    round evaluates a finer grid across the bracket.  Each angle's
    ``min Re x_j`` comes from the closed-form eigenvalues of the 2x2 drift
    symbol, ``(a+d)/2 -+ sqrt(((a-d)/2)^2 + bc)``.
    """

    def min_re(phis: np.ndarray) -> np.ndarray:
        return _min_re_eig2(model.symbols(np.exp(1j * phis))[0][0])

    phis = np.linspace(-np.pi, np.pi, GAP_SCAN_ANGLES, endpoint=False)
    vals = min_re(phis)
    i = int(np.argmin(vals))
    best = float(vals[i])
    dphi = 2.0 * np.pi / GAP_SCAN_ANGLES
    lo, hi = phis[i] - dphi, phis[i] + dphi
    last = GAP_REFINE_ANGLES - 1
    while hi - lo > GAP_PHI_TOL:
        grid = np.linspace(lo, hi, GAP_REFINE_ANGLES)
        vals = min_re(grid)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, last)]
    return 2.0 * best
