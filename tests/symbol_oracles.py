"""Closed-form references for the momentum-space builders.

The covariance symbols of ``models.build_reservoir_chain`` (exact) and of
``models.build_rotated_xy_dissipative`` (its weak-coupling limit
epsilon -> 0), with their parameter derivatives, written as Pauli
components in the flavor frame of :mod:`nessgeom.models`.  The library
solves every symbol; these forms are independent oracles for those solves.
Also the real-space correlation blocks, by residues on the library's pole
islands and by quadrature, the finite ring a symbol model wraps onto, and
the boundary-XY zz correlation by Wick contraction, which only the tests
read.
"""
import numpy as np

from nessgeom import momentum, numerics
from nessgeom.errors import CriticalAngle, DimensionMismatch
from nessgeom.gaussian import as_gamma
from nessgeom.liouvillian import QuadraticLindbladModel

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_assemble(v: np.ndarray) -> np.ndarray:
    """(3, m) Pauli components -> (m, 2, 2) Hermitian symbols."""
    return (
        v[0][:, None, None] * _SX + v[1][:, None, None] * _SY + v[2][:, None, None] * _SZ
    )


def reservoir_vector(phis, lam, theta):
    phis = np.atleast_1d(phis)
    with np.errstate(invalid="ignore"):  # 0/0 at lam = -1, phi = 0 stays NaN
        g = (1.0 + lam) / (1.0 + lam + lam * np.cos(phis) + lam**2)
    s1 = np.sin(phis) + lam * np.sin(2.0 * phis)
    c1 = np.cos(phis) + lam * np.cos(2.0 * phis)
    return np.array([g * s1 * np.cos(2 * theta), -g * c1, g * s1 * np.sin(2 * theta)])


def reservoir_vector_dlam(phis, lam, theta):
    phis = np.atleast_1d(phis)
    p = 1.0 + lam + lam * np.cos(phis) + lam**2
    with np.errstate(invalid="ignore"):
        g = (1.0 + lam) / p
        dg = (p - (1.0 + lam) * (1.0 + np.cos(phis) + 2.0 * lam)) / p**2
    s1 = np.sin(phis) + lam * np.sin(2.0 * phis)
    c1 = np.cos(phis) + lam * np.cos(2.0 * phis)
    ds1 = np.sin(2.0 * phis)
    dc1 = np.cos(2.0 * phis)
    return np.array(
        [
            (dg * s1 + g * ds1) * np.cos(2 * theta),
            -(dg * c1 + g * dc1),
            (dg * s1 + g * ds1) * np.sin(2 * theta),
        ]
    )


def reservoir_vector_dtheta(phis, lam, theta):
    phis = np.atleast_1d(phis)
    with np.errstate(invalid="ignore"):
        g = (1.0 + lam) / (1.0 + lam + lam * np.cos(phis) + lam**2)
    s1 = np.sin(phis) + lam * np.sin(2.0 * phis)
    return np.array(
        [
            -2.0 * g * s1 * np.sin(2 * theta),
            np.zeros_like(phis),
            2.0 * g * s1 * np.cos(2 * theta),
        ]
    )


def reservoir_gamma(lam, theta, phis):
    """Exact covariance symbol of the reservoir chain."""
    return pauli_assemble(reservoir_vector(phis, lam, theta))


def reservoir_dgamma(name, lam, theta, phis):
    """Exact derivative of the reservoir symbol along ``lam`` or ``theta``."""
    vector = {"lam": reservoir_vector_dlam, "theta": reservoir_vector_dtheta}[name]
    return pauli_assemble(vector(phis, lam, theta))


def _polarization(mu_minus, mu_plus):
    return (mu_minus**2 - mu_plus**2) / (mu_minus**2 + mu_plus**2)


def rotated_xy_vector(phis, delta, h, theta, q_pol):
    # the site-flavor rotation by theta conjugates the symbol with
    # exp(-i theta sigma_y), a rotation by 2 theta of the (x, z) components
    phis = np.atleast_1d(phis)
    s, u = np.sin(phis), np.cos(phis) - h
    dd = u**2 + delta**2 * s**2
    with np.errstate(invalid="ignore"):  # 0/0 at h = 1, phi = 0 stays NaN
        g = q_pol * u**2 / dd
        gt = q_pol * delta * s * u / dd
    return np.array([gt * np.cos(2 * theta), g, -gt * np.sin(2 * theta)])


def rotated_xy_dvec(phis, delta, h, theta, q_pol, which: str):
    if which == "theta":
        v = rotated_xy_vector(phis, delta, h, theta, q_pol)
        return np.array([2.0 * v[2], np.zeros_like(v[1]), -2.0 * v[0]])
    phis = np.atleast_1d(phis)
    s, u = np.sin(phis), np.cos(phis) - h
    dd = u**2 + delta**2 * s**2
    with np.errstate(invalid="ignore"):
        if which == "delta":
            dg = -2.0 * q_pol * u**2 * delta * s**2 / dd**2
            dgt = q_pol * s * u * (u**2 - delta**2 * s**2) / dd**2
        elif which == "h":
            # chain rule through u' = -1
            dg = -2.0 * q_pol * u * delta**2 * s**2 / dd**2
            dgt = q_pol * delta * s * (u**2 - delta**2 * s**2) / dd**2
        else:
            raise ValueError(f"unknown parameter {which!r}")
    return np.array([dgt * np.cos(2 * theta), dg, -dgt * np.sin(2 * theta)])


def rotated_xy_gamma(delta, h, theta, mu_minus, mu_plus, phis):
    """Weak-coupling limit of the rotated-XY covariance symbol."""
    q_pol = _polarization(mu_minus, mu_plus)
    return pauli_assemble(rotated_xy_vector(phis, delta, h, theta, q_pol))


def rotated_xy_dgamma(name, delta, h, theta, mu_minus, mu_plus, phis):
    """Derivative of the weak-coupling limit along ``delta``, ``h`` or ``theta``."""
    q_pol = _polarization(mu_minus, mu_plus)
    return pauli_assemble(rotated_xy_dvec(phis, delta, h, theta, q_pol, name))


def real_space_correlation(model: momentum.SymbolModel, r: int) -> np.ndarray:
    """Real-space block ``gamma(r) = sum Res_{z in disk} [z^{r-1} gamma~(z)]``.

    Each non-removable island of ``pole_structure`` contributes the
    integral of ``z^{r-1} gamma~`` over its own contour, and one small
    circle around ``z = 0`` adds the origin block (present for small
    ``r``).  When an island is unresolved or sits on the unit circle, one
    mid-annulus contour over the whole disk is used instead.
    """
    if r < 0:
        raise DimensionMismatch("r must be a nonnegative integer")
    islands, roots = momentum.pole_structure(model)
    if roots is None:
        raise CriticalAngle("real-space correlation: det xhat vanishes identically")

    def weighted(z):
        return momentum.gamma_at_points(model, z) * (z ** (r - 1))[:, None, None]

    poles = [isl for isl in islands if not isl.removable]
    if any(not isl.resolved or isl.side == 0 for isl in poles):
        return momentum._residue_sum_unit_disk(
            weighted,
            roots,
            momentum._symbol_scale(model),
            "real-space correlation: non-removable pole on the unit circle",
        )
    total = np.zeros((2, 2), dtype=complex)
    for isl in poles:
        total += momentum._contour_integral(weighted, isl.center, isl.radius)[0]
    # the origin circle runs midway between the origin block and the nearest island
    radii = np.abs(roots)
    origin = radii[radii < momentum.ORIGIN_RADIUS]
    away = radii[radii >= momentum.ORIGIN_RADIUS]
    radius = 0.5 * (max([0.0, *origin]) + min([1.0, *away]))
    total += momentum._contour_integral(weighted, 0.0, radius)[0]
    return total


def real_space_correlation_quadrature(model, r: int, tol: float = 1e-10) -> np.ndarray:
    """``gamma(r) = (1/2 pi) int gamma~(phi) e^{i phi r} dphi`` by trapezoid doubling,
    independent of the rational continuation and its pole structure."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            def integrand(phis, a=a, b=b):
                return momentum.symbol_covariance(model, phis)[:, a, b] * np.exp(1j * phis * r)

            out[a, b] = numerics.periodic_quadrature(integrand, tol) / (2.0 * np.pi)
    return out


def to_lindblad_model(model: momentum.SymbolModel, n_cells: int) -> QuadraticLindbladModel:
    """Wrap the chain onto a ring of ``n_cells`` as a finite Lindblad model.

    Requires the ring to be longer than twice the block reach so that
    wrapped couplings do not collide.
    """
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
    h = 0.5 * (h - h.T)
    assert not np.any(h.real), "Hamiltonian blocks must be Hermitian antisymmetric"
    return QuadraticLindbladModel(n_modes=n_cells, h_im=h.imag, jumps=tuple(jumps))


def boundary_xy_zz_correlation(gamma, j: int, k: int) -> float:
    """Connected ``<sigma^z_j sigma^z_k>`` from Wick contractions (1-based sites)."""
    g = as_gamma(gamma)
    n = g.shape[0] // 2
    if not (1 <= j < k <= n):
        raise DimensionMismatch(f"need 1 <= j < k <= {n}")
    a, b, c, d = 2 * j - 2, 2 * j - 1, 2 * k - 2, 2 * k - 1
    cross = g[a, c] * g[b, d] - g[a, d] * g[b, c]
    return float(np.real(cross))
