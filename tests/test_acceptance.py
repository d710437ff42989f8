"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
All tolerances are pinned here; nothing is deferred to calibration.
"""
import numpy as np
import pytest

from nessgeom import gaussian, geometry, liouvillian, models, momentum, numerics, oracle

from conftest import rand_antisym, rand_gamma_family, rand_stable_model


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        gamma_of = rand_gamma_family(rng, n, p)
        point = rng.uniform(-0.25, 0.25, size=p)
        tang = geometry.tangents_finite_difference(gamma_of, point)
        res = geometry.qgt(gamma_of(point), tang)
        fam = oracle.ParametrizedFamily(
            evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
            labels=[str(i) for i in range(p)],
        )
        dev_g = np.max(np.abs(res.g - oracle.bures_metric_dense(fam, point)))
        dev_u = np.max(np.abs(res.u - oracle.muc_dense(fam, point)))
        worst = max(worst, float(dev_g), float(dev_u))
    _report(1, "oracle equivalence", worst <= 1e-8,
            f"50 random families (n<=4, p<=3): max |gaussian - dense| = {worst:.2e} <= 1e-8")


def test_02_convention_anchor():
    p = models.BoundaryXYParams(delta=1.25, h=0.3, n=3)
    point = liouvillian.point_geometry(
        liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
    )
    h_dense, jump_ops = models.boundary_xy_spin_operators(p)
    ness = oracle.dense_lindblad_ness(h_dense, jump_ops)
    dev = float(np.max(np.abs(point.gamma - gaussian.gamma_from_dense(ness.rho))))
    _report(2, "convention anchor", dev <= 1e-8,
            f"boundary XY n=3 dense vs Lyapunov entrywise dev = {dev:.2e} <= 1e-8")


def test_03_xy_thermodynamic_metric():
    n = 4000
    res = models.xy_qgt_finite(models.XYParams(delta=0.5, h=0.5, n=n))
    comps, _ = models.xy_qgt_thermodynamic(0.5, 0.5)
    devs = {
        "g_theta_theta": abs(res.g[0, 0] / n / comps["g_theta_theta"] - 1.0),
        "g_hh": abs(res.g[1, 1] / n / comps["g_hh"] - 1.0),
        "g_delta_delta": abs(res.g[2, 2] / n / comps["g_delta_delta"] - 1.0),
    }
    metric_ok = max(devs.values()) <= 0.01 and comps["g_hh"] == pytest.approx(1 / 6)
    curv_devs = []
    for delta, h in ((0.5, 0.5), (0.8, 0.2), (1.2, 0.3)):
        numeric = models.xy_scalar_curvature_numeric(delta, h)
        curv_devs.append(abs(numeric / (-8.0 / abs(delta)) - 1.0))
    curv_ok = max(curv_devs) <= 0.02
    _report(3, "XY thermodynamic metric", metric_ok and curv_ok,
            f"per-site metric dev {max(devs.values()):.2e} <= 1%; "
            f"nR vs -8/|delta| dev {max(curv_devs):.2e} <= 2%")


def test_04_berry_phase_topology():
    rng = np.random.default_rng(104)
    formula_ok = True
    for _ in range(40):
        delta = float(rng.uniform(0.05, 0.9))
        h = float(rng.uniform(-1.5, 1.5))
        val = models.xy_relative_phase(thermodynamic=True, delta=delta, h=h)
        d2 = delta * delta
        if abs(h) > 1 - d2:
            expect = 0.0
        else:
            expect = -np.pi + np.pi * h * delta / np.sqrt((1 - d2) * (1 - d2 - h * h))
        formula_ok &= abs(val - expect) < 1e-12
    # finite size at n = 512, away from criticality (|h - 1| > 0.1); the
    # interior dispersion minimum must sit on the momentum grid (h = 0) or
    # at the zone boundary (first branch) for the 1e-3 rate to apply
    finite_devs = []
    for delta, h in ((0.5, 1.4), (0.3, 1.2), (0.3, 0.0), (0.6, 0.0)):
        fin = models.xy_relative_phase(models.XYParams(delta=delta, h=h, n=512))
        thermo = models.xy_relative_phase(thermodynamic=True, delta=delta, h=h)
        finite_devs.append(abs((fin - thermo + np.pi) % (2 * np.pi) - np.pi))
    finite_ok = max(finite_devs) <= 1e-3
    _report(4, "Berry phase topology", formula_ok and finite_ok,
            f"thermodynamic branch exact; finite n=512 dev {max(finite_devs):.2e} <= 1e-3")


def test_05_dicke_scaling():
    big_d = 10.0
    sizes = [50, 100, 200, 500, 1000, 2000, 5000]
    phis = []
    for n in sizes:
        params = models.DickeParams(big_d=big_d, alpha=1.0, n=n, q_max=32.0, points=4000)
        phi, _ = models.dicke_berry_phase(params, check_convergence=False)
        phis.append(phi)
    fit = numerics.fit_power_law(list(zip(sizes, phis)))
    exp_ok = abs(fit.exponent + 2.0 / 3.0) <= 0.05
    ref_devs = [
        abs(phi / models.dicke_scaling_reference(n, big_d) - 1.0)
        for n, phi in zip(sizes, phis)
        if n >= 200
    ]
    ref_ok = max(ref_devs) <= 0.02
    _report(5, "Dicke scaling", exp_ok and ref_ok,
            f"exponent {fit.exponent:.4f} within -2/3 +- 0.05; "
            f"two-term reference dev {max(ref_devs):.2e} <= 2% for n >= 200")


def _boundary_xy_quantities(n, h, delta=1.25):
    pars = models.BoundaryXYParams(delta=delta, h=h, n=n)
    shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(pars))
    solver = numerics.LyapunovSolver(shape.x)
    gap = 2.0 * float(np.min(np.real(solver.spectrum)))
    a = solver.solve(shape.b)
    eps = 1e-6
    dgs, dxs = [], []
    for (up, dn) in (((delta + eps, h), (delta - eps, h)), ((delta, h + eps), (delta, h - eps))):
        s_up = liouvillian.shape_matrices(
            models.build_boundary_driven_xy(models.BoundaryXYParams(up[0], up[1], n))
        )
        s_dn = liouvillian.shape_matrices(
            models.build_boundary_driven_xy(models.BoundaryXYParams(dn[0], dn[1], n))
        )
        dx = (s_up.x - s_dn.x) / (2 * eps)
        db = (s_up.b - s_dn.b) / (2 * eps)
        rhs = db - dx @ a - a @ dx.T
        dgs.append(1j * solver.solve(0.5 * (rhs - rhs.T)))
        dxs.append(dx)
    gam = 1j * a
    res = geometry.qgt(gam, geometry.make_tangents(("delta", "h"), dgs))
    return gap, res, gam, shape, dxs


@pytest.mark.slow
def test_06_table_one_desk_scale():
    # The h_c and SRMC quantities vary smoothly with n, so five sizes fix
    # their exponents (shifted five-point grids agree within 0.06).
    # In the LRMC phase (h=0.3) they are modulated from one size to the
    # next: the gap is 7.6e-5 at n=22 but 1.95e-4 at n=24, 1.84e-6 at n=78
    # but 7.5e-6 at n=80, and the local gmax slopes across {20..320} are
    # 1.52, 5.17, 3.20, 2.79. The modulation is physical (the slowest mode
    # of X has eigenvalue condition 1.00 at every n), so a line through
    # five sizes depends on where each size lands on it: shifted five-point
    # grids give gmax 2.91..3.41 and R -0.39..+0.51. The LRMC rows are
    # therefore fitted over every 8th size in [80, 320]. Coarser steps
    # (12..24) alias with the modulation, and below n=80 |U|/n^2 and R are
    # still falling by 2x per octave, so smaller sizes are pre-asymptotic.
    sizes = [20, 40, 80, 160, 320]
    lrmc_sizes = list(range(80, 321, 8))
    h_c = 0.5625
    lines = []
    ok = True

    def fit_exp(ns, values):
        return float(np.polyfit(np.log(ns), np.log(values), 1)[0])

    lrmc = {n: _boundary_xy_quantities(n, 0.3) for n in lrmc_sizes}
    lrmc_fit = lambda f: fit_exp(lrmc_sizes, [f(lrmc[n]) for n in lrmc_sizes])
    checks = [
        ("LRMC gap", lrmc_fit(lambda q: q[0]), -3.0, 0.3),
        ("LRMC gmax", lrmc_fit(lambda q: q[1].gmax()), 3.0, 0.3),
        ("LRMC |U|", lrmc_fit(lambda q: abs(q[1].u[0, 1])), 2.0, 0.3),
        ("LRMC R", lrmc_fit(lambda q: q[1].r_ratio), 0.0, 0.3),
    ]
    crit = {n: _boundary_xy_quantities(n, h_c) for n in sizes}
    checks.append(("h_c gap", fit_exp(sizes, [crit[n][0] for n in sizes]), -5.0, 0.5))
    srmc = {n: _boundary_xy_quantities(n, 1.2 * h_c) for n in sizes}
    checks.append(("SRMC gmax", fit_exp(sizes, [srmc[n][1].gmax() for n in sizes]), 1.0, 0.3))
    checks.append(
        ("SRMC |U|",
         fit_exp(sizes, [max(abs(srmc[n][1].u[0, 1]), 1e-300) for n in sizes]), 0.0, 0.3)
    )
    for name, got, want, tol in checks:
        good = abs(got - want) <= tol
        ok &= good
        lines.append(f"{name}: {got:+.3f} (target {want:+g} +- {tol})" + ("" if good else " <-- out"))
    grids = (f"LRMC rows over n={lrmc_sizes[0]}..{lrmc_sizes[-1]} step 8 ({len(lrmc_sizes)} sizes), "
             f"h_c/SRMC rows over n={','.join(map(str, sizes))} ({len(sizes)} sizes)")
    _report(6, "Table 1 at desk scale", ok, grids + ": " + "; ".join(lines))


def test_07_translational_propositions():
    # gap closure without criticality at unit coupling
    gap_plus = momentum.gap_on_circle(models.build_reservoir_chain(1.0, 0.3))
    xi_plus = momentum.correlation_length(
        momentum.rationalize(models.build_reservoir_chain(1.0, 0.3))
    ).xi
    plus_ok = gap_plus < 1e-6 and xi_plus < 1.0
    # divergence on the critical side
    xi_minus = momentum.correlation_length(
        momentum.rationalize(models.build_reservoir_chain(-0.9995, 0.3))
    ).xi
    minus_ok = xi_minus > 1e3
    # MUC jump across lam = -1
    u_lo = momentum.muc_per_site(models.build_reservoir_chain(-1.05, 0.3), ("lam", "theta"))
    u_hi = momentum.muc_per_site(models.build_reservoir_chain(-0.95, 0.3), ("lam", "theta"))
    jump_ok = abs(u_hi - u_lo) > 0.1

    # U_dh vanishes in the weak-coupling limit; at finite epsilon it is
    # O(epsilon^2) (worst of these points 5.5e-7 at epsilon = 1e-3, 5.5e-13
    # at 1e-6, in both MUC modes), so the limit is read at epsilon = 1e-6
    rng = np.random.default_rng(107)
    u_dh_worst = 0.0
    for _ in range(20):
        pars = {
            "delta": float(rng.uniform(0.2, 1.5)),
            "h": float(rng.uniform(-0.9, 0.9)),
            "theta": float(rng.uniform(0.0, np.pi)),
            "mu_minus": 1.0,
            "mu_plus": 0.4,
            "epsilon": 1e-6,
        }
        model = models.build_rotated_xy_dissipative(**pars)
        u_dh_worst = max(u_dh_worst, abs(momentum.muc_per_site(model, ("delta", "h"))))
    dh_ok = u_dh_worst <= 1e-10
    base = {"delta": 0.5, "theta": 0.7, "mu_minus": 1.0, "mu_plus": 0.4}
    rot = models.build_rotated_xy_dissipative
    u_in = momentum.muc_per_site(rot(**base, h=0.95), ("h", "theta"))
    u_out = momentum.muc_per_site(rot(**base, h=1.05), ("h", "theta"))
    ht_ok = abs(u_out - u_in) > 0.05
    ok = plus_ok and minus_ok and jump_ok and dh_ok and ht_ok
    _report(7, "translational propositions", ok,
            f"lam=+1: gap={gap_plus:.1e} with xi={xi_plus:.3f}; "
            f"xi(-0.9995)={xi_minus:.0f} > 1e3; U jump across -1 = {abs(u_hi - u_lo):.3f}; "
            f"rotated XY U_dh <= {u_dh_worst:.1e}; U_ht jump {abs(u_out - u_in):.3f}")


def test_08_uhlmann_loop_phase():
    gamma_of = rand_gamma_family(np.random.default_rng(11), 2, 2)
    fam = oracle.ParametrizedFamily(
        evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
        labels=["a", "b"],
    )
    point = np.array([0.12, -0.07])
    u12 = oracle.muc_dense(fam, point)[0, 1]
    errs = []
    for area in (1e-2, 1e-3, 1e-4):
        s = np.sqrt(area)
        loop = [point, point + [s, 0], point + [s, s], point + [0, s], point]
        phase = oracle.uhlmann_loop_phase(fam, loop, steps=256)
        errs.append(abs(phase / area - u12))
    # step-doubling stability of the discrete holonomy at the finest loop
    s = np.sqrt(1e-4)
    loop = [point, point + [s, 0], point + [s, s], point + [0, s], point]
    doubled = abs(
        oracle.uhlmann_loop_phase(fam, loop, steps=512)
        - oracle.uhlmann_loop_phase(fam, loop, steps=256)
    )
    first_order = errs[0] > errs[1] > errs[2]
    ok = first_order and errs[2] <= 1e-4 and doubled <= 1e-6
    _report(8, "Uhlmann loop phase", ok,
            f"phase/area errors {errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}, final <= 1e-4; "
            f"step-doubling moved the phase by {doubled:.1e} <= 1e-6")


def test_09_bounds():
    rng = np.random.default_rng(109)
    r_ok = qcb_ok = bound_ok = True
    # R in [0, 1] and the gap bound on every computed NESS instance
    bound_checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        model = rand_stable_model(rng, n)
        shape = liouvillian.shape_matrices(model)
        state = rng.bit_generator.state
        dxs = [np.real(4j * 1j * rand_antisym(rng, 2 * n, 0.3)) for _ in range(2)]
        dbs = [rand_antisym(rng, 2 * n, 0.3) for _ in range(2)]
        point = liouvillian.point_geometry(shape, dict(zip(("l0", "l1"), zip(dxs, dbs))))
        if point.gap <= 1e-3:
            rng.bit_generator.state = state  # a skipped case draws no directions
            continue
        res = point.qgt
        if res.r_ratio is not None:
            r_ok &= -1e-8 <= res.r_ratio <= 1.0 + 1e-8
        for mu in range(2):
            lhs, rhs, holds = geometry.qgt_gap_bound(
                res.q[mu, mu], point.gamma, dxs[mu], dbs[mu], point.gap
            )
            bound_ok &= holds
            bound_checked += 1
    # the boundary XY LRMC point at n = 40
    gap, res, gam, shape, dxs = _boundary_xy_quantities(40, 0.3)
    for mu in range(2):
        lhs, rhs, holds = geometry.qgt_gap_bound(
            res.q[mu, mu], gam, dxs[mu], np.zeros_like(shape.b), gap
        )
        bound_ok &= holds
        bound_checked += 1
    # QCB sandwich on random thermal families
    for _ in range(10):
        d = int(rng.integers(2, 5))
        h0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h0 = 0.5 * (h0 + h0.conj().T)
        obs = []
        for _ in range(2):
            o = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            obs.append(0.5 * (o + o.conj().T))
        fam = oracle.thermal_family(h0, obs, 1.0)
        g = oracle.bures_metric_dense(fam, np.zeros(2))
        gq = oracle.qcb_metric(fam, np.zeros(2))
        qcb_ok &= np.min(np.linalg.eigvalsh(gq - 0.5 * g)) >= -1e-8
        qcb_ok &= np.min(np.linalg.eigvalsh(g - gq)) >= -1e-8
    # Proposition 1 on 100 random stable models
    gap_ok = True
    checked = 0
    while checked < 100:
        model = rand_stable_model(rng, int(rng.integers(2, 5)))
        rep = liouvillian.gap_report(liouvillian.shape_matrices(model).x)
        if rep.delta <= 0.01:
            continue
        checked += 1
        gap_ok &= abs(rep.delta - rep.delta_xhat) <= 1e-8 * rep.delta
        gap_ok &= abs(rep.delta - rep.delta_liouville) <= 1e-8 * rep.delta
    ok = r_ok and qcb_ok and bound_ok and gap_ok
    _report(9, "bounds", ok,
            f"0<=R<=1; QCB sandwich; gap bound held on {bound_checked} NESS instances; "
            f"Proposition-1 equality on {checked} stable models (1e-8 slack)")


def test_10_susceptibility_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h0 = 0.5 * (h0 + h0.conj().T)
        obs = []
        for _ in range(2):
            o = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            obs.append(0.5 * (o + o.conj().T))
        beta = float(rng.uniform(0.2, 2.0))
        u_s = oracle.muc_from_susceptibility(h0, obs, beta)
        u_d = oracle.muc_dense(oracle.thermal_family(h0, obs, beta), np.zeros(2))
        worst = max(worst, float(np.max(np.abs(u_s - u_d))))
    _report(10, "susceptibility identity", worst <= 1e-9,
            f"20 thermal families (dim <= 8): max dev = {worst:.2e} <= 1e-9")
