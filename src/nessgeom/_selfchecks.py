"""Randomized cross-module equivalence suites behind ``nessgeom oracle``.

Each check runs ``cases`` random instances from a recorded seed and
returns (name, passed, detail).  The dense small-Hilbert-space engine is
the ground truth throughout.
"""
from __future__ import annotations

import numpy as np

from . import gaussian, geometry, liouvillian, numerics, oracle
from .models import BoundaryXYParams, boundary_xy_spin_operators, build_boundary_driven_xy


def _rand_antisym(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return a - a.T


def _random_gamma_family(rng, n_modes, n_params):
    base = _rand_antisym(rng, 2 * n_modes, 0.8)
    directions = [_rand_antisym(rng, 2 * n_modes, 0.5) for _ in range(n_params)]

    def gamma_of(lam):
        om = base + sum(l * d for l, d in zip(lam, directions))
        return gaussian.gamma_from_omega(om)

    return gamma_of


def _random_stable_model(rng, n_modes, n_jumps=None):
    dim = 2 * n_modes
    h_im = _rand_antisym(rng, dim, 0.5)
    n_jumps = n_jumps or rng.integers(1, 4)
    jumps = tuple(
        rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(n_jumps)
    )
    return liouvillian.QuadraticLindbladModel(n_modes=n_modes, h_im=h_im, jumps=jumps)


def check_gaussian_vs_dense_qgt(seed, cases):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        gamma_of = _random_gamma_family(rng, n, p)
        point = rng.uniform(-0.3, 0.3, size=p)
        tang = geometry.tangents_finite_difference(gamma_of, point)
        res = geometry.qgt(gamma_of(point), tang)
        fam = oracle.ParametrizedFamily(
            evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
            labels=[f"l{i}" for i in range(p)],
        )
        gd = oracle.bures_metric_dense(fam, point)
        ud = oracle.muc_dense(fam, point)
        worst = max(worst, float(np.max(np.abs(res.g - gd))), float(np.max(np.abs(res.u - ud))))
    return worst <= 1e-8, f"max |gaussian - dense| = {worst:.2e} (tol 1e-8)"


def check_boundary_xy_anchor(seed, cases, convention_flip=False):
    params = BoundaryXYParams(delta=1.25, h=0.3, n=3)
    model = build_boundary_driven_xy(params)
    shape = liouvillian.shape_matrices(model)
    b = -shape.b if convention_flip else shape.b
    gamma = 1j * numerics.LyapunovSolver(shape.x).solve(b)
    h_dense, jump_ops = boundary_xy_spin_operators(params)
    ness = oracle.dense_lindblad_ness(h_dense, jump_ops)
    dev = float(np.max(np.abs(gamma - gaussian.gamma_from_dense(ness.rho))))
    return dev <= 1e-8, f"dense vs Lyapunov NESS entrywise dev = {dev:.2e} (tol 1e-8)"


def check_fidelity_properties(seed, cases):
    rng = np.random.default_rng(seed)
    msgs = []
    ok = True
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        rho1 = _rand_state(rng, d)
        rho2 = _rand_state(rng, d)
        f12 = oracle.fidelity(rho1, rho2)
        ok &= -1e-10 <= f12 <= 1.0 + 1e-10
        ok &= abs(f12 - oracle.fidelity(rho2, rho1)) <= 1e-10
        u = _rand_unitary(rng, d)
        ok &= abs(f12 - oracle.fidelity(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T)) <= 1e-10
        # multiplicativity on product states
        s1, s2 = _rand_state(rng, 2), _rand_state(rng, 2)
        ok &= (
            abs(
                oracle.fidelity(np.kron(rho1, s1), np.kron(rho2, s2))
                - f12 * oracle.fidelity(s1, s2)
            )
            <= 1e-10
        )
        # strong concavity: F(sum p_j rho_j, sum q_j sigma_j) >= sum sqrt(p_j q_j) F_j
        sigma1, sigma2 = _rand_state(rng, d), _rand_state(rng, d)
        p, q = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
        lhs = oracle.fidelity(
            p * rho1 + (1 - p) * sigma1, q * rho2 + (1 - q) * sigma2
        )
        rhs = np.sqrt(p * q) * f12 + np.sqrt((1 - p) * (1 - q)) * oracle.fidelity(
            sigma1, sigma2
        )
        ok &= lhs >= rhs - 1e-10
        # monotonicity under a fixed partial-trace channel
        if d == 4:
            r1 = _partial_trace(rho1)
            r2 = _partial_trace(rho2)
            ok &= oracle.fidelity(r1, r2) >= f12 - 1e-10
    return ok, "symmetry/unitary/multiplicativity/strong-concavity/monotonicity on random states"


def check_qcb_sandwich(seed, cases):
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 5))
        p = 2
        fam = _rand_dense_family(rng, d, p)
        point = rng.uniform(-0.2, 0.2, size=p)
        g = oracle.bures_metric_dense(fam, point)
        gq = oracle.qcb_metric(fam, point)
        lo = np.min(np.linalg.eigvalsh(gq - 0.5 * g))
        hi = np.min(np.linalg.eigvalsh(g - gq))
        worst = min(worst, float(lo), float(hi))
        ok &= lo >= -1e-10 and hi >= -1e-10
    return ok, f"g/2 <= g_qcb <= g matrix order, worst margin {worst:.2e}"


def check_gap_equality(seed, cases):
    rng = np.random.default_rng(seed)
    checked = 0
    worst = 0.0
    while checked < cases:
        model = _random_stable_model(rng, int(rng.integers(2, 5)))
        shape = liouvillian.shape_matrices(model)
        rep = liouvillian.gap_report(shape.x)
        if rep.delta <= 0.01:
            continue
        checked += 1
        rel = max(
            abs(rep.delta - rep.delta_xhat), abs(rep.delta - rep.delta_liouville)
        ) / rep.delta
        worst = max(worst, rel)
    return worst <= 1e-8, f"three gap notions agree to {worst:.2e} on {checked} stable models"


def check_qgt_gap_bound(seed, cases):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(cases):
        n = int(rng.integers(2, 4))
        model = _random_stable_model(rng, n)
        shape = liouvillian.shape_matrices(model)
        state = rng.bit_generator.state
        dx = -4.0 * _rand_antisym(rng, 2 * n, 0.3)  # dX = 4i dH, dH = i d(Im H)
        db = np.zeros_like(shape.b)
        point = liouvillian.point_geometry(shape, {"l0": (dx, db)})
        if point.gap <= 1e-3:
            rng.bit_generator.state = state  # a skipped case draws no direction
            continue
        lhs, rhs, holds = geometry.qgt_gap_bound(
            point.qgt.q[0, 0], point.gamma, dx, db, point.gap
        )
        ok &= holds
    return ok, "|Q|/n <= 2 P Delta^-2 (|dY| + 2|dX|)^2 on random stable models"


def check_susceptibility_identity(seed, cases):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 9))
        h0 = _rand_hermitian(rng, d)
        obs = [_rand_hermitian(rng, d) for _ in range(2)]
        beta = rng.uniform(0.2, 2.0)
        u_suscept = oracle.muc_from_susceptibility(h0, obs, beta)
        fam = oracle.thermal_family(h0, obs, beta)
        u_dense = oracle.muc_dense(fam, np.zeros(2))
        worst = max(worst, float(np.max(np.abs(u_suscept - u_dense))))
    return worst <= 1e-9, f"Lehmann susceptibility vs dense MUC dev = {worst:.2e} (tol 1e-9)"


def check_sld_series(seed, cases):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        dk = _rand_hermitian(rng, d, 0.4)
        rho = oracle.thermal_state(_rand_hermitian(rng, d, 0.6), 1.0).rho
        p, v = np.linalg.eigh(rho)
        d_eig = (v * np.log(p)) @ v.conj().T
        # trace-preserving perturbation of the exponent
        d_kernel = dk - np.trace(rho @ dk) * np.eye(d)
        drho = _drho_from_dkernel(rho, d_kernel)
        l_series = oracle.sld_series_check(rho, d_kernel)
        l_ref = 2.0 * oracle.sld_generator(rho, drho)
        worst = max(worst, float(np.max(np.abs(l_series - l_ref))))
    return worst <= 1e-10, f"Bernoulli-series SLD vs 2 G dev = {worst:.2e} (tol 1e-10)"


def check_wick_vs_dense(seed, cases):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = 3
        gamma = gaussian.gamma_from_omega(_rand_antisym(rng, 2 * n, 0.7))
        rho = gaussian.dense_state_from_gamma(gamma).rho
        w = gaussian.majorana_operators(n)
        idx = tuple(int(i) for i in rng.integers(1, 2 * n + 1, size=4))
        op = np.eye(2**n, dtype=complex)
        for i in idx:
            op = op @ w[i - 1]
        dense_val = complex(np.trace(rho @ op))
        worst = max(worst, abs(dense_val - gaussian.wick_expectation(gamma, idx)))
    return worst <= 1e-10, f"four-point Wick vs dense moments dev = {worst:.2e}"


def check_lyapunov_residual(seed, cases):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        model = _random_stable_model(rng, int(rng.integers(2, 6)))
        shape = liouvillian.shape_matrices(model)
        a = numerics.LyapunovSolver(shape.x).solve(shape.b)
        res = np.linalg.norm(shape.x @ a + a @ shape.x.T - shape.b)
        bound = 1e-10 * (
            np.linalg.norm(shape.x) * np.linalg.norm(a) + np.linalg.norm(shape.b)
        )
        worst = max(worst, float(res / max(bound, 1e-300)))
    return worst <= 1.0, f"residual within {worst:.2f}x of the 1e-10 scaled bound"


# --- helpers -------------------------------------------------------------------------


def _rand_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _rand_dense_family(rng, d, p):
    """Full-rank thermal-type family exp(-(H0 + sum lam_mu O_mu)) normalized."""
    h0 = _rand_hermitian(rng, d, 0.6)
    obs = [_rand_hermitian(rng, d, 0.5) for _ in range(p)]
    return oracle.thermal_family(h0, obs, beta=1.0)


def _rand_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def _rand_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _partial_trace(rho):
    d = rho.shape[0] // 2
    return rho.reshape(2, d, 2, d).trace(axis1=1, axis2=3) / 1.0


def _drho_from_dkernel(rho, d_kernel):
    """Exact Frechet derivative of ``exp`` along d_kernel at log(rho)."""
    p, v = np.linalg.eigh(rho)
    logs = np.log(p)
    dk = v.conj().T @ d_kernel @ v
    diff = logs[:, None] - logs[None, :]
    close = np.abs(diff) < 1e-12
    ratio = np.where(
        close,
        p[:, None],
        (p[:, None] - p[None, :]) / np.where(close, 1.0, diff),
    )
    return v @ (dk * ratio) @ v.conj().T


ALL_CHECKS = [
    ("gaussian_vs_dense_qgt", check_gaussian_vs_dense_qgt),
    ("boundary_xy_dense_anchor", check_boundary_xy_anchor),
    ("fidelity_properties", check_fidelity_properties),
    ("qcb_sandwich", check_qcb_sandwich),
    ("gap_equality", check_gap_equality),
    ("qgt_gap_bound", check_qgt_gap_bound),
    ("susceptibility_identity", check_susceptibility_identity),
    ("sld_series", check_sld_series),
    ("wick_vs_dense", check_wick_vs_dense),
    ("lyapunov_residual", check_lyapunov_residual),
]


def run_all(seed=0, cases=10, convention_flip=False):
    results = []
    if cases <= 0:
        return results
    for name, func in ALL_CHECKS:
        if name == "boundary_xy_dense_anchor":
            ok, detail = func(seed, cases, convention_flip=convention_flip)
        else:
            ok, detail = func(seed, cases)
        results.append((name, ok, f"seed={seed} cases={cases}; {detail}"))
    return results
