"""Builders and analytic references for the worked example models.

Closed XY chain (Berry phases, metric, curvature), two-level solid angle,
Dicke model in the Born-Oppenheimer treatment, boundary-driven XY chain,
rotated XY with local dissipation, and the reservoir-only chain.

Spin chains are fermionized in the global Majorana convention of
:mod:`nessgeom.gaussian` (``sigma^z_j = -i w_{2j-1} w_{2j}``); the momentum
symbols quoted by the builders are expressed in the same flavor frame,
which differs from spin-up-is-occupied writeups by conjugation with sigma_x
(the second and third Pauli components flip sign).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyOnLoop,
    DimensionMismatch,
    GaplessMode,
    GridTooSmall,
    OnCriticalSet,
)
from .gaussian import _PAULI_X, _PAULI_Y, _PAULI_Z, _kron_chain
from .geometry import GeometryResult, incompatibility_ratio
from .liouvillian import QuadraticLindbladModel
from .momentum import SymbolModel


# --- closed XY chain ------------------------------------------------------------


@dataclass(frozen=True)
class XYParams:
    """Anisotropy, field, rotation angle and (even) chain length."""

    delta: float
    h: float
    theta: float = 0.0
    n: int = 2

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise DimensionMismatch(f"n must be even and >= 2, got {self.n}")


def xy_dispersion(params: XYParams, k: int) -> tuple[float, float]:
    """Quasiparticle energy and Bogoliubov angle of mode k.

    ``eps_k = sqrt(eta_k^2 + delta^2 sin^2 q_k)`` with
    ``eta_k = cos q_k - h``, ``q_k = 2 pi k / n``;
    ``theta_k = arccos(eta_k / eps_k)``.
    """
    if not 0 <= k < params.n:
        raise DimensionMismatch(f"mode index {k} outside 0..{params.n - 1}")
    q = 2.0 * np.pi * k / params.n
    eta = np.cos(q) - params.h
    eps = np.hypot(eta, params.delta * np.sin(q))
    if eps < 1e-14:
        raise GaplessMode(f"mode k={k} is gapless; Bogoliubov angle undefined")
    return float(eps), float(np.arccos(np.clip(eta / eps, -1.0, 1.0)))


def _paired_modes(n: int) -> range:
    """Momentum labels of the (k, -k) paired modes, k = 1 .. n/2 - 1."""
    return range(1, n // 2)


def xy_ground_berry_phase(params: XYParams) -> float:
    """Ground-state Berry phase of the rotation loop,
    ``sum_{k>0} pi (1 - cos theta_k)``.

    The sum runs over the paired modes k = 1 .. n/2 - 1; the self-paired
    k = 0 and k = n/2 modes only ever contribute multiples of 2 pi.
    """
    total = 0.0
    for k in _paired_modes(params.n):
        _, theta_k = xy_dispersion(params, k)
        total += np.pi * (1.0 - np.cos(theta_k))
    return float(total)


def xy_relative_phase(params: XYParams) -> float:
    """Ground-to-first-excited relative geometric phase at finite n,
    ``-pi (1 - cos theta_{k0})`` at the dispersion minimum (ties broken
    toward smaller k)."""
    best = None
    for k in _paired_modes(params.n):
        eps, theta_k = xy_dispersion(params, k)
        if best is None or eps < best[0] - 1e-15:
            best = (eps, theta_k)
    return float(-np.pi * (1.0 - np.cos(best[1])))


def xy_thermodynamic_relative_phase(delta: float, h: float) -> float:
    """Thermodynamic limit of :func:`xy_relative_phase`: 0 for
    ``|h| > 1 - delta^2``, else
    ``-pi + pi h delta / sqrt((1-delta^2)(1-delta^2-h^2))``."""
    d2 = delta * delta
    if abs(h) > 1.0 - d2:
        return 0.0
    return float(-np.pi + np.pi * h * delta / np.sqrt((1 - d2) * (1 - d2 - h * h)))


def xy_qgt_finite(params: XYParams) -> GeometryResult:
    """Ground-state QGT over (theta, h, delta) from the mode sums.

    Only ``d theta_k / dh = delta sin q / eps^2`` and
    ``d theta_k / d delta = sin q (cos q - h) / eps^2`` survive; the
    rotation direction adds the ``sin^2 theta_k`` metric term and the Berry
    curvature ``F_{mu theta}``.
    """
    n = params.n
    g = np.zeros((3, 3))
    f = np.zeros((3, 3))
    for k in _paired_modes(n):
        q = 2.0 * np.pi * k / n
        eps, theta_k = xy_dispersion(params, k)
        dth = {
            0: 0.0,  # rotation angle
            1: params.delta * np.sin(q) / eps**2,  # field
            2: np.sin(q) * (np.cos(q) - params.h) / eps**2,  # anisotropy
        }
        dphi = {0: 1.0, 1: 0.0, 2: 0.0}
        s2 = np.sin(theta_k) ** 2
        for mu in range(3):
            for nu in range(3):
                g[mu, nu] += 0.25 * (dth[mu] * dth[nu] + s2 * dphi[mu] * dphi[nu])
                f[mu, nu] += 0.5 * (dth[mu] * dphi[nu] - dth[nu] * dphi[mu]) * np.sin(theta_k)
    q_mat = g + 0.5j * f
    try:
        r = incompatibility_ratio(g, f)
    except Exception:  # noqa: BLE001 - singular metric at special points
        r = None
    return GeometryResult(parameters=("theta", "h", "delta"), g=g, u=f, q=q_mat, r_ratio=r)


def xy_qgt_thermodynamic(delta: float, h: float) -> tuple[dict[str, float], float]:
    """Per-site closed forms of the metric and the scalar curvature.

    Returns a dict of ``g_.. / n`` coefficients over (theta, h, delta) and
    ``n R`` for the region.  Raises OnCriticalSet on ``|h| = 1`` or
    ``delta = 0``.
    """
    ad = abs(delta)
    if abs(abs(h) - 1.0) < 1e-9 or ad < 1e-9:
        raise OnCriticalSet(f"(delta, h) = ({delta}, {h}) lies on a critical set")
    d2 = delta * delta
    if abs(h) < 1.0:
        comps = {
            "g_theta_theta": ad / (8.0 * (ad + 1.0)),
            "g_hh": 1.0 / (16.0 * ad * (1.0 - h * h)),
            "g_delta_delta": 1.0 / (16.0 * ad * (1.0 + ad) ** 2),
            "g_h_delta": 0.0,
        }
        curvature = -8.0 / ad
    else:
        ah = abs(h)
        root = np.sqrt(h * h - 1.0 + d2)
        comps = {
            "g_theta_theta": d2 / (8.0 * (1.0 - d2)) * (ah / root - 1.0),
            "g_hh": ah * d2 / (16.0 * (h * h - 1.0) * root**3),
            "g_delta_delta": (
                2.0 / (1.0 - d2) ** 2 * (ah / root - 1.0)
                - ah * d2 / ((1.0 - d2) * root**3)
            ) / 16.0,
            "g_h_delta": -ah * delta / (16.0 * h * root**3),
        }
        curvature = 8.0 * (
            4.0 + 5.0 * ah / root - 2.0 * (h * h + ah * root - 1.0) / d2
        )
    return comps, float(curvature)


# --- two-level system ------------------------------------------------------------


def two_level_berry_phase(loop: np.ndarray) -> float:
    """Berry phase ``Omega / 2`` of a closed loop of Hamiltonian vectors.

    ``loop``: (m, 3) array of field vectors (need not be normalized,
    must avoid the degeneracy at the origin).  The solid angle is summed
    from Van Oosterom-Strackee signed triangle angles fanned around an
    apex direction clear of the loop's antipodes.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise DimensionMismatch("loop must be an (m, 3) array with m >= 3")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms < 1e-14):
        raise DegeneracyOnLoop("loop passes through the degeneracy point")
    v = pts / norms[:, None]
    if np.linalg.norm(v[0] - v[-1]) > 1e-12:
        v = np.vstack([v, v[0]])
    # fan apex: any direction not antipodal to a vertex works (the phase is
    # defined mod 2 pi); great-circle loops leave the vertex mean degenerate
    candidates = [np.mean(v[:-1], axis=0)] + [np.eye(3)[i] for i in range(3)]
    center = None
    for cand in candidates:
        nc = np.linalg.norm(cand)
        if nc < 1e-12:
            continue
        cand = cand / nc
        if np.min(np.linalg.norm(v + cand, axis=1)) > 1e-6:
            center = cand
            break
    if center is None:
        raise DegeneracyOnLoop("no fan apex clear of the loop's antipodes")
    omega = 0.0
    for i in range(v.shape[0] - 1):
        a, b, c = center, v[i], v[i + 1]
        num = np.dot(a, np.cross(b, c))
        den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
        omega += 2.0 * np.arctan2(num, den)
    return float(omega / 2.0)


# --- Dicke model -----------------------------------------------------------------


@dataclass(frozen=True)
class DickeParams:
    """Adiabatic-regime Dicke model in dimensionless form."""

    big_d: float
    alpha: float
    n: int
    q_max: float | None = None
    points: int = 2000

    def __post_init__(self):
        if self.big_d <= 1.0:
            raise DimensionMismatch("big_d = 2 Delta / omega must exceed 1")
        if self.alpha < 0.0:
            raise DimensionMismatch("alpha must be nonnegative")
        if self.points < 200:
            raise DimensionMismatch("need at least 200 grid points")

    def grid_extent(self) -> float:
        if self.q_max is not None:
            return float(self.q_max)
        if self.alpha > 1.0:
            big_l = np.sqrt(2.0 * self.alpha * self.big_d)
            q_m = np.sqrt(self.n) * self.big_d * np.sqrt(self.alpha**2 - 1.0) / big_l
            return float(max(12.0, 1.5 * q_m + 10.0))
        return 12.0


def _dicke_solve(params: DickeParams, points: int) -> tuple[np.ndarray, np.ndarray, float]:
    from scipy.linalg import eigh_tridiagonal  # deferred: only the Dicke model needs scipy

    q_max = params.grid_extent()
    q = np.linspace(-q_max, q_max, points)
    dq = q[1] - q[0]
    big_e = np.sqrt(params.big_d**2 + 2.0 * params.alpha * params.big_d * q**2 / params.n)
    potential = q**2 - params.n * big_e
    diag = 2.0 / dq**2 + potential
    off = -np.ones(points - 1) / dq**2
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    psi = vecs[:, 0]
    psi = psi / np.sqrt(np.sum(psi**2) * dq)
    edge_mass = (np.sum(psi[:3] ** 2) + np.sum(psi[-3:] ** 2)) * dq
    if edge_mass > 1e-8:
        raise GridTooSmall(
            f"wavefunction mass {edge_mass:.2e} at the grid edge; enlarge q_max"
        )
    sx = -np.sum(psi**2 * params.big_d / big_e) * dq
    return q, psi, float(sx)


def dicke_berry_phase(params: DickeParams, check_convergence: bool = True) -> tuple[float, float]:
    """Per-qubit Berry phase and magnetisation of the lowest adiabatic state.

    Solves the one-dimensional oscillator equation in the adiabatic
    potential by finite differences; ``phi/n = pi (1 + <S_x>/n)`` with
    ``<S_x>/n = -int psi_0^2 D / E(q) dq``.
    """
    _, _, sx = _dicke_solve(params, params.points)
    if check_convergence:
        _, _, sx2 = _dicke_solve(params, 2 * params.points - 1)
        if abs(np.pi * (sx2 - sx)) > 1e-6:
            raise GridTooSmall(
                f"Berry phase moved by {np.pi * abs(sx2 - sx):.2e} under grid doubling"
            )
        sx = sx2
    phi_per_qubit = np.pi * (1.0 + sx)
    return float(phi_per_qubit), float(sx)


def dicke_thermodynamic_berry_phase(alpha: float) -> float:
    """Thermodynamic limit: 0 in the normal phase, ``pi (1 - 1/alpha)`` beyond."""
    if alpha <= 1.0:
        return 0.0
    return float(np.pi * (1.0 - 1.0 / alpha))


def dicke_scaling_reference(n: int, big_d: float) -> float:
    """Critical-point expansion ``pi [2 c1 / (2nD)^{2/3} - 2 c0 / (2nD)^{4/3}]``."""
    c0, c1 = 1.06036, 0.36203
    s = 2.0 * n * big_d
    return float(np.pi * (2.0 * c1 / s ** (2.0 / 3.0) - 2.0 * c0 / s ** (4.0 / 3.0)))


# --- boundary-driven XY chain ------------------------------------------------------


@dataclass(frozen=True)
class BoundaryXYParams:
    """Open XY chain with loss/gain reservoirs at both edges."""

    delta: float
    h: float
    n: int
    kappa_l_plus: float = 0.3
    kappa_l_minus: float = 0.5
    kappa_r_plus: float = 0.1
    kappa_r_minus: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise DimensionMismatch("need at least two sites")
        ks = (self.kappa_l_plus, self.kappa_l_minus, self.kappa_r_plus, self.kappa_r_minus)
        if any(k < 0 for k in ks):
            raise DimensionMismatch("rates must be nonnegative")
        if all(k == 0 for k in ks):
            raise DimensionMismatch("at least one reservoir rate must be positive")

    @property
    def h_critical(self) -> float:
        return abs(1.0 - self.delta**2)


def _xy_couplings(n: int, xx: float, yy: float, z: float) -> tuple[np.ndarray, ...]:
    """Nonzeros ``(rows, cols, vals)`` of the real antisymmetric K with
    ``sum_j [xx XX + yy YY] + z sum_j Z = -(i/2) w^T K w`` on the open chain.

    ``sigma^x_j sigma^x_{j+1} = -i w_{2j} w_{2j+1}``,
    ``sigma^y_j sigma^y_{j+1} = +i w_{2j-1} w_{2j+2}``,
    ``sigma^z_j = -i w_{2j-1} w_{2j}`` in the global convention, so the
    pairs ``(2j+1, 2j+2)``, ``(2j, 2j+3)`` and ``(2j, 2j+1)`` carry
    ``xx``, ``-yy`` and ``z`` above the diagonal.  K is linear in
    ``(xx, yy, z)``; zero couplings are left out.
    """
    j, k = np.arange(n - 1), np.arange(n)
    upper = np.concatenate((2 * j + 1, 2 * j, 2 * k))
    lower = np.concatenate((2 * j + 2, 2 * j + 3, 2 * k + 1))
    vals = np.concatenate((np.full(n - 1, xx), np.full(n - 1, -yy), np.full(n, z)))
    rows, cols = np.concatenate((upper, lower)), np.concatenate((lower, upper))
    vals = np.concatenate((vals, -vals))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def _edge_jumps(params: BoundaryXYParams) -> list[tuple[int, int, float]]:
    """``(site, sign, rate)`` of each edge jump ``sqrt(rate) sigma^sign`` with a
    positive rate: the first site, then the last, each gain (+1) before loss (-1)."""
    edges = ((0, (params.kappa_l_plus, params.kappa_l_minus)),
             (params.n - 1, (params.kappa_r_plus, params.kappa_r_minus)))
    return [(site, sign, rate) for site, rates in edges
            for sign, rate in zip((1, -1), rates) if rate > 0]


def build_boundary_driven_xy(params: BoundaryXYParams) -> QuadraticLindbladModel:
    """Boundary-driven XY chain as a quadratic Lindblad model.

    Edge jumps ``sqrt(k^+) sigma^+`` and ``sqrt(k^-) sigma^-`` become the
    linear Majorana vectors of ``c^dag`` and ``c`` at the first and last
    site (the Jordan-Wigner string of the right edge collapses onto the
    parity-even physical sector).
    """
    n = params.n
    dim = 2 * n
    rows, cols, vals = _xy_couplings(
        n, (1.0 + params.delta) / 2.0, (1.0 - params.delta) / 2.0, params.h
    )
    h_im = np.zeros((dim, dim))
    h_im[rows, cols] = -0.5 * vals  # H = -(i/2) K
    jumps = []
    for site, sign, rate in _edge_jumps(params):
        vec = np.zeros(dim, dtype=complex)
        vec[2 * site] = 0.5
        vec[2 * site + 1] = 0.5j if sign > 0 else -0.5j  # sigma^+ = c^dag, sigma^- = c
        jumps.append(np.sqrt(rate) * vec)
    return QuadraticLindbladModel(n_modes=n, h_im=h_im, jumps=tuple(jumps))


def boundary_xy_shape_derivatives(params: BoundaryXYParams) -> dict[str, tuple]:
    """Exact real ``(dX, dB)`` of the boundary-driven chain along ``delta`` and ``h``.

    ``X = 4 [iH + Re M]`` with ``H = -(i/2) K`` affine in (delta, h) through
    the couplings ``((1+delta)/2, (1-delta)/2, h)``, and the bath M set by
    the rates alone.  So ``dX = 2 dK``, with dK the kernel of the coupling
    slopes, given as its nonzeros ``(rows, cols, vals)`` (at most two per
    row), and ``dB = None``: the source does not change.
    """
    def dx(xx: float, yy: float, z: float) -> tuple[np.ndarray, ...]:
        rows, cols, vals = _xy_couplings(params.n, xx, yy, z)
        return rows, cols, 2.0 * vals

    return {"delta": (dx(0.5, -0.5, 0.0), None), "h": (dx(0.0, 0.0, 1.0), None)}


def boundary_xy_spin_operators(params: BoundaryXYParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense spin Hamiltonian and jump operators for the oracle cross-check."""
    n = params.n
    eye = np.eye(2, dtype=complex)

    def site_op(op: np.ndarray, j: int) -> np.ndarray:
        return _kron_chain([op if m == j else eye for m in range(n)])

    h_dense = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n - 1):
        h_dense += 0.5 * (1.0 + params.delta) * site_op(_PAULI_X, j) @ site_op(_PAULI_X, j + 1)
        h_dense += 0.5 * (1.0 - params.delta) * site_op(_PAULI_Y, j) @ site_op(_PAULI_Y, j + 1)
    for j in range(n):
        h_dense += params.h * site_op(_PAULI_Z, j)
    ladder = {1: 0.5 * (_PAULI_X + 1j * _PAULI_Y), -1: 0.5 * (_PAULI_X - 1j * _PAULI_Y)}
    jumps = [np.sqrt(rate) * site_op(ladder[sign], site) for site, sign, rate in _edge_jumps(params)]
    return h_dense, jumps


# --- translationally invariant dissipative models ---------------------------------


def build_reservoir_chain(lam: float = 0.0, theta: float = 0.0) -> SymbolModel:
    """Ring of fermions driven only by a three-site engineered reservoir.

    Jump family ``[(1+lam) l0 . w_r + l1 . w_{r+1} + lam l2 . w_{r+2}] / n(lam)``
    with ``l0 = (cos t, -sin t)``, ``l1 = l2 = i (sin t, cos t)`` and
    ``n(lam) = 4 (lam^2 + lam + 1)``, with exact derivative families along
    ``lam`` and ``theta``.  The solved covariance symbol has eigenvalues
    ``+- g(phi) sqrt(1 + lam^2 + 2 lam cos phi)``,
    ``g = (1 + lam) / (1 + lam + lam cos phi + lam^2)``, singular at lam = -1.
    """
    nl = 4.0 * (lam**2 + lam + 1.0)
    l0 = np.array([np.cos(theta), -np.sin(theta)])
    l1 = 1j * np.array([np.sin(theta), np.cos(theta)])
    fam = {0: (1.0 + lam) * l0 / nl, 1: l1 / nl, 2: lam * l1 / nl}
    # exact derivative families: quotient rule in lam, l0' = -(sin t, cos t)
    # and l1' = i (cos t, -sin t) in theta
    dnl = 4.0 * (2.0 * lam + 1.0)
    dfam_lam = {
        0: (nl - (1.0 + lam) * dnl) / nl**2 * l0,
        1: -dnl / nl**2 * l1,
        2: (nl - lam * dnl) / nl**2 * l1,
    }
    dl0 = -np.array([np.sin(theta), np.cos(theta)])
    dl1 = 1j * np.array([np.cos(theta), -np.sin(theta)])
    dfam_theta = {0: (1.0 + lam) * dl0 / nl, 1: dl1 / nl, 2: lam * dl1 / nl}
    return SymbolModel(
        h_blocks={},
        jumps=[fam],
        dl={"lam": [dfam_lam], "theta": [dfam_theta]},
    )


def build_rotated_xy_dissipative(
    delta: float = 0.5,
    h: float = 0.5,
    theta: float = 0.0,
    mu_minus: float = 1.0,
    mu_plus: float = 0.5,
    epsilon: float = 1e-3,
) -> SymbolModel:
    """Rotated XY ring with weak local loss/gain reservoirs.

    The finite coupling ``epsilon`` enters the drift at order epsilon^2,
    and the solved covariance symbol moves with it; its weak-coupling limit
    epsilon -> 0 is

        gamma~ = g(phi) [ t cos(th) sx + sy - t sin(th) sz ],
        g = q u^2 / (u^2 + delta^2 s^2),   t = delta s / u,   u = cos phi - h,

    with ``q = (mu_-^2 - mu_+^2) / (mu_-^2 + mu_+^2)`` (flavor frame as in
    the reservoir chain; the spin-frame writeup flips sy, sz).  The model
    carries exact derivative blocks along every parameter.
    """
    if mu_minus**2 + mu_plus**2 <= 0.0:
        raise DimensionMismatch("need a nonzero reservoir rate")
    # Majorana blocks of the rotated XY Hamiltonian: rotation acts as an
    # orthogonal flavor rotation on each site
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    h0 = np.array([[0.0, -0.5j * h], [0.5j * h, 0.0]])
    h1 = np.array([[0.0, 0.25j * (1.0 - delta)], [-0.25j * (1.0 + delta), 0.0]])

    def ring(b0, b1):
        return {0: b0, 1: b1, -1: -b1.T}

    def turned(a):
        return rot @ a @ rot.T

    blocks = ring(turned(h0), turned(h1))
    c_minus, c_plus = np.array([0.5, -0.5j]), np.array([0.5, 0.5j])
    jumps = [
        {0: epsilon * mu_minus * c_minus},  # c_r
        {0: epsilon * mu_plus * c_plus},  # c_r^dag
    ]
    # exact derivative blocks: h and delta enter h0 and h1 linearly, and
    # d rot / d theta is the rotation by theta + pi/2
    drot = np.array([[-np.sin(theta), -np.cos(theta)], [np.cos(theta), -np.sin(theta)]])

    def dturned(a):
        return drot @ a @ rot.T + rot @ a @ drot.T

    dh = {
        "h": ring(turned(np.array([[0.0, -0.5j], [0.5j, 0.0]])), np.zeros((2, 2))),
        "delta": ring(np.zeros((2, 2)), turned(np.array([[0.0, -0.25j], [-0.25j, 0.0]]))),
        "theta": ring(dturned(h0), dturned(h1)),
    }
    dl = {
        "mu_minus": [{0: epsilon * c_minus}, {}],
        "mu_plus": [{}, {0: epsilon * c_plus}],
        "epsilon": [{0: mu_minus * c_minus}, {0: mu_plus * c_plus}],
    }
    return SymbolModel(
        h_blocks=blocks,
        jumps=jumps,
        dh=dh,
        dl=dl,
    )
