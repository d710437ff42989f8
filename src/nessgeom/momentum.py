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

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.optimize import minimize_scalar

from . import numerics
from .errors import (
    CriticalAngle,
    DimensionMismatch,
    NoConvergence,
    NotFiniteRange,
)

UNIT_CIRCLE_TOL = 1e-9
# angles at which ``rationalize`` checks the continuation against grid solves
RATIONAL_CHECK_ANGLES = 32
# coarse scan of ``gap_on_circle`` before the golden-section polish
GAP_SCAN_ANGLES = 512
# relative central-difference step of the MUC parameter derivatives
DIFF_STEP = 1e-6


@dataclass
class SymbolModel:
    """Momentum-space description of a translationally invariant chain."""

    h_blocks: Mapping[int, np.ndarray]
    jumps: Sequence[Mapping[int, np.ndarray]]
    params: dict = field(default_factory=dict)
    gamma_symbol: Callable[[np.ndarray], np.ndarray] | None = None
    dgamma_symbols: Mapping[str, Callable[[np.ndarray], np.ndarray]] | None = None
    m_blocks: Mapping[int, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.h_blocks = {int(u): np.asarray(b, dtype=complex) for u, b in self.h_blocks.items()}
        for b in self.h_blocks.values():
            if b.shape != (2, 2):
                raise DimensionMismatch("h blocks must be 2x2")
        self.jumps = tuple(
            {int(u): np.asarray(v, dtype=complex).reshape(2) for u, v in fam.items()}
            for fam in self.jumps
        )
        self.m_blocks = self._bath_blocks()
        self._spot_check()

    def _bath_blocks(self) -> dict[int, np.ndarray]:
        # blocks of M = sum_{a,r} l_{a,r} l_{a,r}^dag in the (s - r) block
        # convention shared by every circulant matrix here:
        #   m(u) = M_{(s),(s+u)} = sum_{a,v} l_a(v) (x) l_a(v+u)^dag
        blocks: dict[int, np.ndarray] = {}
        for fam in self.jumps:
            offs = sorted(fam)
            for u1 in offs:
                for u2 in offs:
                    u = u2 - u1
                    blocks.setdefault(u, np.zeros((2, 2), dtype=complex))
                    blocks[u] += np.outer(fam[u1], fam[u2].conj())
        return blocks

    @property
    def reach(self) -> int:
        """Largest block offset entering the drift symbol."""
        hs = [abs(u) for u in self.h_blocks] or [0]
        ms = [abs(u) for u in self.m_blocks] or [0]
        return max(max(hs), max(ms))

    def _transform(self, blocks: Mapping[int, np.ndarray], phis: np.ndarray) -> np.ndarray:
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        out = np.zeros((phis.size, 2, 2), dtype=complex)
        for u, b in blocks.items():
            out += np.exp(-1j * phis * u)[:, None, None] * b
        return out

    def h_tilde(self, phis) -> np.ndarray:
        return self._transform(self.h_blocks, phis)

    def m_tilde(self, phis) -> np.ndarray:
        return self._transform(self.m_blocks, phis)

    def _laurent(self, blocks: Mapping[int, np.ndarray], z: np.ndarray) -> np.ndarray:
        """Analytic continuation ``sum_u f(u) z^{-u}`` off the unit circle."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros((z.size, 2, 2), dtype=complex)
        for u, b in blocks.items():
            out += (z ** (-u))[:, None, None] * b
        return out

    def x_at(self, z) -> np.ndarray:
        re_blocks = {u: np.real(b) for u, b in self.m_blocks.items()}
        return 4.0 * (1j * self._laurent(self.h_blocks, z) + self._laurent(re_blocks, z))

    def y_at(self, z) -> np.ndarray:
        im_blocks = {u: np.imag(b) for u, b in self.m_blocks.items()}
        return -8j * self._laurent(im_blocks, z)

    def x_tilde(self, phis) -> np.ndarray:
        re_blocks = {u: np.real(b) for u, b in self.m_blocks.items()}
        return 4.0 * (1j * self.h_tilde(phis) + self._transform(re_blocks, phis))

    def y_tilde(self, phis) -> np.ndarray:
        im_blocks = {u: np.imag(b) for u, b in self.m_blocks.items()}
        return -8j * self._transform(im_blocks, phis)

    def _spot_check(self, n_angles: int = 16) -> None:
        phis = np.linspace(-np.pi, np.pi, n_angles, endpoint=False)
        h_p = self.h_tilde(phis)
        h_m = self.h_tilde(-phis)
        if np.max(np.abs(h_p + np.transpose(h_m, (0, 2, 1)))) > 1e-10 * max(
            1.0, np.max(np.abs(h_p))
        ):
            raise DimensionMismatch("h symbol violates h~(phi) = -h~(-phi)^T")
        m_p = self.m_tilde(phis)
        herm_dev = np.max(np.abs(m_p - np.conj(np.transpose(m_p, (0, 2, 1)))))
        if herm_dev > 1e-10 * max(1.0, np.max(np.abs(m_p))):
            raise DimensionMismatch("m symbol is not Hermitian pointwise")
        eigs = np.linalg.eigvalsh(m_p)
        if np.min(eigs) < -1e-10 * max(1.0, np.max(np.abs(eigs))):
            raise DimensionMismatch("m symbol is not PSD pointwise")


def symbol_shape(model: SymbolModel, phi) -> tuple[np.ndarray, np.ndarray]:
    """Drift and source symbols at one angle (or batch of angles)."""
    x = model.x_tilde(phi)
    y = model.y_tilde(phi)
    if np.isscalar(phi):
        return x[0], y[0]
    return x, y


def _xhat(xp: np.ndarray, xm: np.ndarray) -> np.ndarray:
    """Batched 4x4 vectorized drift ``x+ (x) 1 + 1 (x) x-`` of ``x+ g + g x-^T``."""
    eye = np.eye(2)
    # add before reshaping: numpy sums into an owned temporary in place,
    # saving a 16 n complex buffer (256 MB at 2^20 angles)
    return (
        np.einsum("nab,cd->nacbd", xp, eye) + np.einsum("ab,ncd->nacbd", eye, xm)
    ).reshape(-1, 4, 4)


def _solve_blocks(xp: np.ndarray, xm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched solve of ``x+ g + g x-^T = y`` via the 4x4 vectorized form."""
    try:
        vec = np.linalg.solve(_xhat(xp, xm), y.reshape(-1, 4, 1))
    except np.linalg.LinAlgError as exc:
        raise CriticalAngle(f"vectorized drift symbol is singular: {exc}") from exc
    return vec.reshape(-1, 2, 2)


def symbol_covariance(model: SymbolModel, phi) -> np.ndarray:
    """Covariance symbol gamma~(phi) from the 2x2 Lyapunov equation."""
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    xp = model.x_tilde(phis)
    xm = model.x_tilde(-phis)
    y = model.y_tilde(phis)
    gam = _solve_blocks(xp, xm, y)
    res = np.einsum("nab,nbc->nac", xp, gam) + np.einsum(
        "nab,ncb->nac", gam, xm
    ) - y
    scale = max(np.max(np.abs(y)), np.max(np.abs(xp)) * max(np.max(np.abs(gam)), 1e-300), 1e-300)
    if np.max(np.abs(res)) > 1e-12 * scale:
        raise CriticalAngle(
            f"symbol Lyapunov residual {np.max(np.abs(res)):.3e} too large (critical angle?)"
        )
    if np.isscalar(phi):
        return gam[0]
    return gam


def gamma_grid(model: SymbolModel, phis: np.ndarray) -> np.ndarray:
    """gamma~ on a grid: closed form when the model carries one, else solves."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if model.gamma_symbol is not None:
        return np.asarray(model.gamma_symbol(phis))
    return symbol_covariance(model, phis)


# --- rational continuation ----------------------------------------------------


@dataclass(frozen=True)
class RationalSymbol:
    """gamma~(z) = eta(z) / d(z) with a common Laurent shift cleared.

    ``eta`` has shape (2, 2, deg+1): ascending coefficients of ``z^K eta``;
    ``d`` the ascending coefficients of ``z^K d``.  The shift K cancels in
    the ratio, so poles and residues may be read off the stored
    polynomials directly.  ``model`` is the source chain, kept so that
    near-pinch refinements can fall back on well-conditioned local solves.
    """

    eta: np.ndarray
    d: np.ndarray
    shift: int
    model: "SymbolModel | None" = None

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
    xhat = _xhat(model.x_tilde(phis), model.x_tilde(-phis))
    d_vals = np.linalg.det(xhat)
    # adjugate through cofactors so critical angles (singular xhat) stay exact
    eta_vals = (_adjugate4(xhat) @ model.y_tilde(phis).reshape(m, 4, 1))[:, :, 0]
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
    rat = RationalSymbol(eta=eta_arr, d=d_poly, shift=k_shift - v, model=model)
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
    points: int = 256,
    tol: float = 1e-11,
) -> np.ndarray:
    """(1/2 pi i) closed contour integral of ``func`` around ``center``.

    Trapezoid samples are doubled until two successive estimates agree;
    convergence is geometric in the clearance between the contour and the
    nearest singularity, so tight geometries simply take more points.
    """

    def estimate(m: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(m) / m
        z = center + radius * np.exp(1j * theta)
        vals = func(z)
        dz = 1j * radius * np.exp(1j * theta)
        return np.tensordot(vals, dz, axes=(0, 0)) / (1j * m)

    prev = estimate(points)
    while points < (1 << 17):
        points *= 2
        cur = estimate(points)
        if np.max(np.abs(cur - prev)) <= tol * max(1.0, float(np.max(np.abs(cur)))):
            return cur
        prev = cur
    return prev


def _symbol_scale(rational: RationalSymbol) -> float:
    phis = np.linspace(-np.pi, np.pi, 32, endpoint=False) + 0.017
    vals = rational.gamma_at(np.exp(1j * phis))
    return float(max(np.max(np.abs(vals)), 1e-12))


def pole_structure(rational: RationalSymbol) -> tuple[list[dict], np.ndarray]:
    """Islands of denominator roots with removability verdicts.

    Multiple roots split by rounding are re-merged by single-linkage; an
    island is removable when the contour integral of gamma~ around it is
    negligible against the symbol scale (unit-circle roots of d are
    guaranteed removable by the structure of the adjugate solution).
    Islands hugging the unit circle are kept as candidates and left to the
    decay-based refinement.
    """
    roots = numerics.polynomial_roots(rational.d)
    scale = _symbol_scale(rational)
    out = []
    if roots.size == 0:
        return out, roots
    for g in _link_islands(roots, threshold=1e-6):
        members = roots[g]
        center = complex(np.mean(members))
        spread = float(np.max(np.abs(members - center))) if len(g) > 1 else 0.0
        others = np.delete(roots, g)
        gap = float(np.min(np.abs(others - center))) if others.size else np.inf
        near_circle = abs(abs(center) - 1.0) <= max(10.0 * spread, 1e-3)
        radius = min(0.45 * gap, 0.45 * abs(center), max(3.0 * spread, 1e-3))
        clean = (not near_circle) and radius > 1.5 * spread and radius < abs(
            abs(center) - 1.0
        )
        if clean:
            strength = _contour_integral(rational.gamma_at, center, radius)
            removable = bool(np.max(np.abs(strength)) < 1e-10 * scale)
        else:
            strength = None
            removable = False  # decided downstream by the decay refinement
        out.append(
            {
                "center": center,
                "members": members,
                "multiplicity": len(g),
                "spread": spread,
                "radius": radius,
                "clean": clean,
                "removable": removable,
                "strength": strength,
            }
        )
    return out, roots


def _xi_by_decay(rational: RationalSymbol) -> float:
    """Correlation length from the large-distance decay of gamma(r).

    One FFT of gamma~ on a fine circle grid gives every gamma(r) at once;
    the slope of ``ln ||gamma(r)||`` over the clean part of the decay is
    immune to the root-splitting noise that plagues near-multiple poles.
    The grid grows until the window has decayed through several decades
    (or the sequence is flat: criticality).
    """
    n_fft = 1 << 13
    while True:
        # half-spacing offset keeps high-symmetry critical angles off-grid;
        # it only changes gamma(r) by a pure phase, so the norms are exact
        phis = 2.0 * np.pi * (np.arange(n_fft) + 0.5) / n_fft
        try:
            if rational.model is not None:
                # pointwise solves stay well conditioned at a near-critical
                # pinch, where the polynomial ratio hits its cancellation floor
                vals = _solve_blocks(
                    rational.model.x_tilde(phis),
                    rational.model.x_tilde(-phis),
                    rational.model.y_tilde(phis),
                )
            else:
                vals = rational.gamma_at(np.exp(1j * phis))
        except CriticalAngle:
            return np.inf
        blocks = np.fft.ifft(vals, axis=0)  # gamma(r), r = 0 .. n_fft-1
        tail = np.linalg.norm(blocks.reshape(n_fft, 4), axis=1)[4 : n_fft // 3]
        rs = np.arange(4, n_fft // 3)
        peak = float(np.max(tail)) or 1e-300
        below_lo = np.nonzero(tail <= 1e-2 * peak)[0]
        below_hi = np.nonzero(tail <= 1e-7 * peak)[0]
        if below_hi.size == 0 and n_fft < (1 << 20):
            n_fft *= 2
            continue
        r_b = below_hi[0] if below_hi.size else tail.size
        r_a = below_lo[0] if below_lo.size else 0
        if r_b - r_a < 16:
            r_a = max(0, r_b - 32)
        sel = slice(r_a, r_b)
        good = tail[sel] > 1e-12 * peak
        if np.sum(good) < 4 or tail[sel][good][-1] > 0.3 * tail[sel][good][0]:
            return np.inf  # no resolvable decay: critical
        slope = np.polyfit(rs[sel][good], np.log(tail[sel][good]), 1)[0]
        if not np.isfinite(slope) or slope >= -1e-9:
            return np.inf
        return float(-1.0 / slope)


def correlation_length(rational: RationalSymbol) -> CorrelationLength:
    """Dominant non-removable pole inside the unit disk and ``xi = -1/ln|z|``.

    Clean well-separated islands give the pole location directly; islands
    whose rounding spread is comparable to their distance from the unit
    circle (the near-critical pinch) hand over to the decay-slope
    refinement, which also decides apparent criticality.
    """
    clusters, _ = pole_structure(rational)
    candidates = []
    for c in clusters:
        inside_members = c["members"][np.abs(c["members"]) < 1.0 - UNIT_CIRCLE_TOL]
        if inside_members.size == 0 or c["removable"]:
            continue
        if np.max(np.abs(inside_members)) < 1e-12:
            continue  # origin block: finite-range piece, no decay scale
        candidates.append((c, inside_members))
    if not candidates:
        return CorrelationLength(xi=0.0, dominant_pole=None, kind="short_range_trivial")
    dom, inside_members = max(
        candidates, key=lambda ci: float(np.max(np.abs(ci[1])))
    )
    z0 = complex(inside_members[np.argmax(np.abs(inside_members))])
    if dom["clean"]:
        return CorrelationLength(xi=-1.0 / np.log(abs(z0)), dominant_pole=z0, kind="finite")
    xi = _xi_by_decay(rational)
    if not np.isfinite(xi):
        return CorrelationLength(xi=np.inf, dominant_pole=z0, kind="critical")
    zr = np.exp(-1.0 / xi)
    return CorrelationLength(
        xi=float(xi), dominant_pole=zr * z0 / abs(z0), kind="finite"
    )


def real_space_correlation(rational: RationalSymbol, r: int) -> np.ndarray:
    """Real-space block ``gamma(r) = sum Res_{z in disk} [z^{r-1} gamma~(z)]``.

    Simple well-separated poles use the direct residue formula; clusters
    and the ``z = 0`` contribution (present for small ``r``) go through
    contour integration, which is what keeps multiple poles exact.
    """
    if r < 0:
        raise DimensionMismatch("r must be a nonnegative integer")
    clusters, all_roots = pole_structure(rational)
    d_der = npoly.polyder(rational.d)
    total = np.zeros((2, 2), dtype=complex)

    def weighted(z):
        return rational.gamma_at(z) * (z ** (r - 1))[:, None, None]

    relevant = [
        c
        for c in clusters
        if not c["removable"]
        and np.any(np.abs(c["members"]) < 1.0 - UNIT_CIRCLE_TOL)
        and abs(c["center"]) > 1e-12
    ]
    if any(not c["clean"] for c in relevant):
        # messy island (near-critical pinch or unresolvable multiplet): the
        # contour-integration fallback, one mid-annulus circle
        return _residue_sum_unit_disk(
            weighted,
            all_roots,
            _symbol_scale(rational),
            "real-space correlation: non-removable pole on the unit circle",
        )
    for c in relevant:
        z0, mult = c["center"], c["multiplicity"]
        if mult == 1:
            num = npoly.polyval(z0, rational.eta.reshape(4, -1).T).reshape(2, 2)
            total += z0 ** (r - 1) * num / npoly.polyval(z0, d_der)
        else:
            total += _contour_integral(weighted, z0, c["radius"])
    # z = 0 contribution: Laurent parts of gamma~ plus the z^{r-1} factor
    zero_radius = 0.3 * min(
        [abs(c["center"]) - c["radius"] for c in relevant] + [1.0]
    )
    total += _contour_integral(weighted, 0.0, max(zero_radius, 1e-9))
    return total


def real_space_correlation_quadrature(model: SymbolModel, r: int, tol: float = 1e-10) -> np.ndarray:
    """Independent check: ``gamma(r) = (1/2 pi) int gamma~(phi) e^{i phi r} dphi``."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            def integrand(phis, a=a, b=b):
                return gamma_grid(model, phis)[:, a, b] * np.exp(1j * phis * r)

            out[a, b] = numerics.periodic_quadrature(integrand, tol) / (2.0 * np.pi)
    return out


# --- mean Uhlmann curvature per site -------------------------------------------


def _central_difference(
    builder: Callable[..., SymbolModel],
    params: Mapping[str, float],
    name: str,
    evaluate: Callable[[SymbolModel, np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """``d gamma~ / d name`` by central differences of ``evaluate(model, points)``,
    with the shifted models built once and step ``DIFF_STEP * max(1, |p|)``."""
    h = DIFF_STEP * max(1.0, abs(params[name]))
    up, dn = dict(params), dict(params)
    up[name] += h
    dn[name] -= h
    up_model, dn_model = builder(**up), builder(**dn)
    return lambda pts: (evaluate(up_model, pts) - evaluate(dn_model, pts)) / (2.0 * h)


def _muc_terms(gam: np.ndarray, dmu: np.ndarray, dnu: np.ndarray) -> tuple:
    """Numerator ``(i/4) Tr{ g~ [d_mu g~, d_nu g~] }`` and ``1 - det g~`` of the
    MUC density, batched over points; a NaN symbol passes through silently."""
    comm = np.einsum("nab,nbc->nac", dmu, dnu) - np.einsum("nab,nbc->nac", dnu, dmu)
    with np.errstate(invalid="ignore"):
        one_minus = 1.0 - np.linalg.det(gam)
    return 0.25j * np.einsum("nab,nba->n", gam, comm), one_minus


def muc_integrand(
    builder: Callable[..., SymbolModel],
    params: Mapping[str, float],
    pair: tuple[str, str],
) -> Callable[[np.ndarray], np.ndarray]:
    """The angle-resolved MUC density

        u(phi) = (i/4) Tr{ g~ [d_mu g~, d_nu g~] } / (1 - det g~)^2,

    set to zero where ``det g~ = 1`` (two pure eigenmodes: the continuity
    branch, not a singularity).  Parameter derivatives are the model's
    closed forms when it carries them, otherwise central differences.
    Where the density is not finite, the model's own Lyapunov solve
    decides: a singular drift there raises ``CriticalAngle``, a regular
    one marks a removable 0/0 of the closed form, which the continuity
    branch also sets to zero."""
    model = builder(**params)
    closed = model.dgamma_symbols or {}
    derivatives = [
        closed.get(name) or _central_difference(builder, params, name, gamma_grid)
        for name in pair
    ]

    def u_of(phis: np.ndarray) -> np.ndarray:
        phis = np.atleast_1d(phis)
        num, one_minus = _muc_terms(gamma_grid(model, phis), *(f(phis) for f in derivatives))
        bad = ~(np.isfinite(num) & np.isfinite(one_minus))
        if np.any(bad) and not np.all(np.isfinite(symbol_covariance(model, phis[bad]))):
            raise CriticalAngle("MUC density is not finite: critical angle on the grid")
        ok = np.abs(one_minus) > 1e-12
        return np.where(ok, num / np.where(ok, one_minus**2, 1.0), 0.0)

    return u_of


def muc_per_site(
    builder: Callable[..., SymbolModel],
    params: Mapping[str, float],
    pair: tuple[str, str],
    mode: str = "quadrature",
    tol: float = 1e-8,
) -> float:
    """Mean Uhlmann curvature per site for one parameter pair.

    ``mode='quadrature'`` integrates the angle density with point-doubling
    (NoConvergence near critical manifolds carries the last estimate);
    ``mode='residue'`` sums residues of the analytic continuation
    ``z^{-1} u(z)`` over the unit disk, an entirely independent pipeline.
    """
    if mode == "quadrature":
        u_of = muc_integrand(builder, params, pair)
        val = numerics.periodic_quadrature(u_of, tol) / (2.0 * np.pi)
        return float(np.real(val))
    if mode != "residue":
        raise DimensionMismatch(f"unknown MUC mode {mode!r}")
    return _muc_residue(builder, params, pair)


def gamma_at_points(model: SymbolModel, z: np.ndarray) -> np.ndarray:
    """Covariance symbol continued to arbitrary complex points by local solves.

    Solving ``x(z) g + g x(1/z)^T = y(z)`` pointwise avoids the valley
    amplification that global polynomial numerators suffer near multiple
    roots, so values stay accurate wherever the system is regular.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return _solve_blocks(model.x_at(z), model.x_at(1.0 / z), model.y_at(z))


def _muc_residue(builder, params, pair) -> float:
    """Residue form of the MUC per site.

    Pole candidates come from the exact center-point polynomials d(z) and
    ``d^2 - det(eta)`` (no finite differences touch them); the density
    u(z) itself is evaluated locally by complex-point solves.
    """
    model = builder(**params)
    eta, d, _ = _symbol_coefficients(model)
    derivatives = [_central_difference(builder, params, name, gamma_at_points) for name in pair]

    def u_at(z: np.ndarray) -> np.ndarray:
        num, one_minus_det = _muc_terms(gamma_at_points(model, z), *(f(z) for f in derivatives))
        return num / one_minus_det**2

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
    """Single-linkage grouping: noise-split multiple roots re-merge here."""
    n = roots.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            link = max(threshold, 0.08 * max(abs(roots[i]), abs(roots[j])))
            if abs(roots[i] - roots[j]) <= link:
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
    band = max(UNIT_CIRCLE_TOL, 1e-7)
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= band] if roots.size else roots
    for z0 in on_circle:
        probe = z0 / abs(z0) * (1.0 - 1e-4)
        if np.max(np.abs(func(np.array([probe])))) > 1e8 * scale:
            raise NoConvergence(circle_message, last_estimate=None)
    inner = roots[np.abs(roots) < 1.0 - band] if roots.size else roots
    r_in = float(np.max(np.abs(inner))) if inner.size else 0.0
    rho = 0.5 * (1.0 + r_in)
    return _contour_integral(func, 0.0, rho, points=1024, tol=1e-13)


def gap_on_circle(model: SymbolModel) -> float:
    """Dissipative gap ``2 min_{phi,j} Re x_j(e^{i phi})`` on the circle.

    Coarse grid scan polished by golden-section around the minimum.
    """

    def min_re(phi: float | np.ndarray) -> np.ndarray:
        x = model.x_tilde(np.atleast_1d(phi))
        eigs = np.linalg.eigvals(x)
        return np.min(np.real(eigs), axis=1)

    phis = np.linspace(-np.pi, np.pi, GAP_SCAN_ANGLES, endpoint=False)
    vals = min_re(phis)
    i0 = int(np.argmin(vals))
    dphi = 2.0 * np.pi / GAP_SCAN_ANGLES
    best = float(vals[i0])
    try:
        res = minimize_scalar(
            lambda p: float(min_re(p)[0]),
            bracket=(phis[i0] - dphi, phis[i0], phis[i0] + dphi),
            method="golden",
            options={"xtol": 1e-12},
        )
        best = min(best, float(res.fun))
    except ValueError:
        # flat bracket: refine on a local fine grid instead
        fine = np.linspace(phis[i0] - dphi, phis[i0] + dphi, 257)
        best = min(best, float(np.min(min_re(fine))))
    return 2.0 * best


def to_lindblad_model(model: SymbolModel, n_cells: int):
    """Wrap the chain onto a ring of ``n_cells`` as a finite Lindblad model.

    Requires the ring to be longer than twice the block reach so that
    wrapped couplings do not collide.
    """
    from .liouvillian import QuadraticLindbladModel

    reach_h = max([abs(u) for u in model.h_blocks] or [0])
    reach_j = max([abs(u) for fam in model.jumps for u in fam] or [0])
    if n_cells <= 2 * max(reach_h, reach_j):
        raise DimensionMismatch(f"ring of {n_cells} cells too short for the block reach")
    d = 2 * n_cells
    h = np.zeros((d, d), dtype=complex)
    for u, blk in model.h_blocks.items():
        for r in range(n_cells):
            s = (r + u) % n_cells
            h[2 * r : 2 * r + 2, 2 * s : 2 * s + 2] += blk
    jumps = []
    for fam in model.jumps:
        for r in range(n_cells):
            vec = np.zeros(d, dtype=complex)
            for u, l2 in fam.items():
                s = (r + u) % n_cells
                vec[2 * s : 2 * s + 2] += l2
            jumps.append(vec)
    return QuadraticLindbladModel(n_modes=n_cells, h=0.5 * (h - h.T), jumps=tuple(jumps))
