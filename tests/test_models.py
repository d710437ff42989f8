import numpy as np
import pytest

from nessgeom import gaussian, liouvillian, models, numerics, oracle
from nessgeom.errors import (
    DegeneracyOnLoop,
    GaplessMode,
    GridTooSmall,
    OnCriticalSet,
)


class TestXYDispersion:
    def test_isotropic_quarter_mode(self):
        p = models.XYParams(delta=1.0, h=0.0, n=8)
        eps, theta = models.xy_dispersion(p, 2)  # q = pi/2
        assert eps == pytest.approx(1.0)
        assert theta == pytest.approx(np.pi / 2)

    def test_large_field_angle_limit(self):
        p = models.XYParams(delta=0.4, h=100.0, n=8)
        _, theta = models.xy_dispersion(p, 2)
        assert theta == pytest.approx(np.pi, abs=1e-2)

    def test_gapless_flagged(self):
        # XX line: eps = 0 at cos q = h
        p = models.XYParams(delta=0.0, h=0.5, n=6)
        with pytest.raises(GaplessMode):
            models.xy_dispersion(p, 1)  # q = pi/3, cos q = 0.5 = h


class TestXYBerryPhases:
    def test_all_equatorial_modes(self):
        p = models.XYParams(delta=1.0, h=0.0, n=8)
        # every paired mode has theta_k = pi/2 at h = 0, delta = 1
        assert models.xy_ground_berry_phase(p) == pytest.approx((p.n // 2 - 1) * np.pi)

    def test_large_field_winds_to_zero_mod_2pi(self):
        p = models.XYParams(delta=0.3, h=50.0, n=12)
        phase = models.xy_ground_berry_phase(p)
        expect = (p.n // 2 - 1) * 2 * np.pi  # each mode contributes ~2 pi
        assert phase == pytest.approx(expect, abs=1e-2)

    def test_against_discrete_connection_loop(self):
        # per paired mode the ground state is a two-level family
        # (cos(t/2), -i e^{i phi} sin(t/2)); its discrete Berry phase over
        # the rotation circle must accumulate to pi (1 - cos theta_k)
        p = models.XYParams(delta=1.0, h=0.5, n=64)
        total = 0.0
        phis = np.linspace(0.0, 2 * np.pi, 4001)
        for k in models._paired_modes(p.n):
            _, theta_k = models.xy_dispersion(p, k)
            states = np.stack(
                [
                    np.full(phis.size, np.cos(theta_k / 2), dtype=complex),
                    -1j * np.exp(1j * phis) * np.sin(theta_k / 2),
                ],
                axis=1,
            )
            overlaps = np.sum(states[:-1].conj() * states[1:], axis=1)
            # accumulate per-step connection angles (no 2 pi wrapping)
            total += np.sum(np.angle(overlaps))
        expected = models.xy_ground_berry_phase(p)
        assert total == pytest.approx(expected, abs=1e-5)

    def test_relative_phase_branches(self):
        assert models.xy_relative_phase(thermodynamic=True, delta=0.5, h=0.9) == 0.0
        assert models.xy_relative_phase(thermodynamic=True, delta=0.3, h=0.0) == pytest.approx(-np.pi)
        val = models.xy_relative_phase(thermodynamic=True, delta=0.1, h=0.5)
        assert val == pytest.approx(-np.pi + 0.05 * np.pi / np.sqrt(0.99 * 0.74), abs=1e-12)

    def test_finite_size_approaches_thermodynamic(self):
        # boundary-minimum points (first branch) converge at second order;
        # h = 0 places the interior minimum exactly on the momentum grid.
        # Generic interior minima only approach at O(1/n) through the grid
        # offset of the minimizing mode, far slower than this tolerance.
        for delta, h in ((0.5, 1.4), (0.3, 1.2), (0.3, 0.0)):
            p = models.XYParams(delta=delta, h=h, n=512)
            fin = models.xy_relative_phase(p)
            thermo = models.xy_relative_phase(thermodynamic=True, delta=delta, h=h)
            diff = (fin - thermo + np.pi) % (2 * np.pi) - np.pi
            assert abs(diff) < 1e-3

    def test_step_behaviour_at_small_anisotropy(self):
        delta = 0.05
        for h in (0.0, 0.4, 0.8):
            val = models.xy_relative_phase(thermodynamic=True, delta=delta, h=h)
            assert abs(val) > 0.9 * np.pi
        for h in (1.0 + delta**2 + 0.01, 1.5):
            val = models.xy_relative_phase(thermodynamic=True, delta=delta, h=h)
            assert abs(val) < 0.1 * np.pi


class TestXYQgt:
    def test_qgt_hermitian_psd(self):
        res = models.xy_qgt_finite(models.XYParams(delta=0.5, h=0.5, n=64))
        assert np.min(np.linalg.eigvalsh(res.q)) > -1e-12

    def test_anisotropy_metric_decays_at_large_field(self):
        g1 = models.xy_qgt_finite(models.XYParams(delta=0.5, h=5.0, n=128)).g[2, 2]
        g2 = models.xy_qgt_finite(models.XYParams(delta=0.5, h=20.0, n=128)).g[2, 2]
        assert g2 < g1 < 1.0

    def test_field_metric_linear_in_n(self):
        p_small = models.XYParams(delta=0.5, h=0.5, n=256)
        p_large = models.XYParams(delta=0.5, h=0.5, n=512)
        ratio = (
            models.xy_qgt_finite(p_large).g[1, 1] / models.xy_qgt_finite(p_small).g[1, 1]
        )
        assert ratio == pytest.approx(2.0, abs=0.02)

    def test_thermodynamic_region_values(self):
        comps, curv = models.xy_qgt_thermodynamic(1.0, 0.5)
        assert comps["g_theta_theta"] == pytest.approx(1.0 / 16.0)
        comps, curv = models.xy_qgt_thermodynamic(0.5, 0.5)
        assert comps["g_hh"] == pytest.approx(1.0 / 6.0)
        assert curv == pytest.approx(-16.0)

    def test_on_critical_set_rejected(self):
        with pytest.raises(OnCriticalSet):
            models.xy_qgt_thermodynamic(0.5, 1.0)
        with pytest.raises(OnCriticalSet):
            models.xy_qgt_thermodynamic(0.0, 0.5)

    def test_numeric_curvature_matches_closed_form(self):
        for delta, h in ((0.5, 0.5), (0.8, 0.2), (1.2, 0.3)):
            numeric = models.xy_scalar_curvature_numeric(delta, h)
            assert numeric == pytest.approx(-8.0 / abs(delta), rel=0.02)

    def test_finite_size_converges_to_closed_forms(self):
        res = models.xy_qgt_finite(models.XYParams(delta=0.5, h=0.5, n=4000))
        comps, _ = models.xy_qgt_thermodynamic(0.5, 0.5)
        n = 4000
        assert res.g[0, 0] / n == pytest.approx(comps["g_theta_theta"], rel=0.01)
        assert res.g[1, 1] / n == pytest.approx(comps["g_hh"], rel=0.01)
        assert res.g[2, 2] / n == pytest.approx(comps["g_delta_delta"], rel=0.01)


class TestTwoLevelBerryPhase:
    def test_equatorial_loop_gives_pi(self):
        phis = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        loop = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)
        assert abs(models.two_level_berry_phase(loop)) == pytest.approx(np.pi, abs=1e-3)

    def test_latitude_cap_area(self):
        theta0 = 0.7
        phis = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        loop = np.stack(
            [
                np.sin(theta0) * np.cos(phis),
                np.sin(theta0) * np.sin(phis),
                np.full_like(phis, np.cos(theta0)),
            ],
            axis=1,
        )
        expect = np.pi * (1 - np.cos(theta0))
        assert abs(models.two_level_berry_phase(loop)) == pytest.approx(expect, abs=1e-3)

    def test_infinitesimal_loop_half_area(self):
        s = 1e-3
        loop = np.array(
            [[1.0, 0.0, 0.0], [1.0, s, 0.0], [1.0, s, s], [1.0, 0.0, s], [1.0, 0.0, 0.0]]
        )
        assert abs(models.two_level_berry_phase(loop)) == pytest.approx(s * s / 2, rel=1e-2)

    def test_degeneracy_rejected(self):
        loop = np.array([[1.0, 0, 0], [0.0, 0, 0], [0, 1.0, 0]])
        with pytest.raises(DegeneracyOnLoop):
            models.two_level_berry_phase(loop)


class TestDicke:
    def test_thermodynamic_references(self):
        assert models.dicke_thermodynamic_berry_phase(0.5) == 0.0
        assert models.dicke_thermodynamic_berry_phase(2.0) == pytest.approx(np.pi / 2)

    def test_normal_phase_vanishes_with_n(self):
        phis = []
        for n in (50, 200):
            phi, _ = models.dicke_berry_phase(
                models.DickeParams(big_d=10.0, alpha=0.5, n=n), check_convergence=False
            )
            phis.append(phi)
        assert phis[1] < phis[0] < 0.1

    def test_scaling_law_at_criticality(self):
        for n in (200, 1000):
            params = models.DickeParams(big_d=10.0, alpha=1.0, n=n, q_max=30.0, points=3000)
            phi, _ = models.dicke_berry_phase(params, check_convergence=False)
            assert phi == pytest.approx(models.dicke_scaling_reference(n, 10.0), rel=0.02)

    def test_thermodynamic_approach_rate(self):
        # away from the critical coupling the limit is reached as 1/n
        for alpha in (0.5, 3.0):
            sizes = [50, 100, 200, 400, 800]
            devs = []
            for n in sizes:
                params = models.DickeParams(big_d=10.0, alpha=alpha, n=n)
                phi, _ = models.dicke_berry_phase(params, check_convergence=False)
                devs.append(abs(phi - models.dicke_thermodynamic_berry_phase(alpha)))
            fit = numerics.fit_power_law(list(zip(sizes, devs)))
            assert abs(fit.exponent + 1.0) < 0.2

    def test_grid_too_small_flagged(self):
        params = models.DickeParams(big_d=10.0, alpha=3.0, n=400, q_max=3.0)
        with pytest.raises(GridTooSmall):
            models.dicke_berry_phase(params)


class TestBoundaryXY:
    @pytest.mark.parametrize("n", [3, 4])
    def test_dense_anchor(self, n):
        p = models.BoundaryXYParams(delta=1.25, h=0.3, n=n)
        cov = liouvillian.ness_covariance(
            liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        )
        h_dense, jump_ops = models.boundary_xy_spin_operators(p)
        ness = oracle.dense_lindblad_ness(h_dense, jump_ops)
        dev = np.max(np.abs(cov.gamma - gaussian.gamma_from_dense(ness.rho)))
        assert dev < 1e-8

    def test_paper_figure_rates_accepted(self):
        p = models.BoundaryXYParams(delta=0.9, h=0.4, n=6, kappa_l_plus=0.3,
                                    kappa_l_minus=0.5, kappa_r_plus=0.1, kappa_r_minus=0.5)
        model = models.build_boundary_driven_xy(p)
        assert len(model.jumps) == 4
        rep = liouvillian.gap_report(liouvillian.shape_matrices(model).x)
        assert rep.delta > 0

    def test_zz_correlation_against_dense(self):
        p = models.BoundaryXYParams(delta=0.8, h=0.4, n=3)
        cov = liouvillian.ness_covariance(
            liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        )
        h_dense, jump_ops = models.boundary_xy_spin_operators(p)
        rho = oracle.dense_lindblad_ness(h_dense, jump_ops).rho
        w = gaussian.majorana_operators(p.n)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            sz_j = -1j * w[2 * j - 2] @ w[2 * j - 1]
            sz_k = -1j * w[2 * k - 2] @ w[2 * k - 1]
            dense_val = np.real(
                np.trace(rho @ sz_j @ sz_k) - np.trace(rho @ sz_j) * np.trace(rho @ sz_k)
            )
            assert models.boundary_xy_zz_correlation(cov.gamma, j, k) == pytest.approx(
                dense_val, abs=1e-10
            )

    def test_zero_field_gamma_zero_is_trivial(self):
        cov0 = liouvillian.ness_covariance(
            liouvillian.shape_matrices(
                models.build_boundary_driven_xy(models.BoundaryXYParams(delta=1.25, h=0.0, n=6))
            )
        )
        assert np.max(np.abs(np.linalg.eigvalsh(cov0.gamma))) <= 1.0 + 1e-10

    def test_srmc_exponential_decay_scale(self):
        # short-range phase just beyond h_c (where the asymptotic rate
        # formula applies and the signal clears the solver noise floor):
        # zz correlations decay with xi^-1 ~ 4 sqrt(2 (h - h_c) / h_c)
        p = models.BoundaryXYParams(delta=1.25, h=0.62, n=200)
        cov = liouvillian.ness_covariance(
            liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        )
        mid = p.n // 2
        rs = np.arange(4, 20)
        vals = np.array(
            [abs(models.boundary_xy_zz_correlation(cov.gamma, mid, mid + int(r))) for r in rs]
        )
        slope = -np.polyfit(rs, np.log(vals), 1)[0]
        hc = p.h_critical
        expect = 4.0 * np.sqrt(2.0 * (p.h - hc) / hc)
        assert slope == pytest.approx(expect, rel=0.2)

    @pytest.mark.parametrize("delta, h, n", [(1.25, 0.3, 5), (0.5, 0.30011, 12), (1.0, 0.0, 4)])
    def test_shape_derivatives_are_exact(self, delta, h, n):
        # X and Y are affine in (delta, h), so a central difference with
        # step 1 is exact up to rounding
        kappas = dict(kappa_l_plus=0.2, kappa_r_minus=0.7)

        def shape(dd, hh):
            p = models.BoundaryXYParams(delta=dd, h=hh, n=n, **kappas)
            return liouvillian.shape_matrices(models.build_boundary_driven_xy(p))

        exact = models.boundary_xy_shape_derivatives(
            models.BoundaryXYParams(delta=delta, h=h, n=n, **kappas)
        )
        assert list(exact) == ["delta", "h"]
        steps = {"delta": (1.0, 0.0), "h": (0.0, 1.0)}
        for name, (dd, hh) in steps.items():
            up, dn = shape(delta + dd, h + hh), shape(delta - dd, h - hh)
            dx, dy = exact[name]
            fd = (up.x - dn.x) / 2.0
            assert np.max(np.abs(dx - fd)) <= 1e-12 * np.max(np.abs(fd))
            assert not np.any(dy) and not np.any(up.y - dn.y)


class TestSymbolBuilders:
    def test_reservoir_chain_closed_form(self):
        from nessgeom import momentum

        model = models.build_reservoir_chain(0.5, 0.3)
        phis = np.array([0.4, 1.3, -2.2])
        np.testing.assert_allclose(
            momentum.symbol_covariance(model, phis), model.gamma_symbol(phis), atol=1e-12
        )

    def test_reservoir_eigenvalue_magnitudes(self):
        lam, theta = 0.6, 0.9
        model = models.build_reservoir_chain(lam, theta)
        phis = np.array([0.5, 2.0])
        gam = model.gamma_symbol(phis)
        for i, phi in enumerate(phis):
            g = (1 + lam) / (1 + lam + lam * np.cos(phi) + lam**2)
            expect = abs(g) * np.sqrt(1 + lam**2 + 2 * lam * np.cos(phi))
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(gam[i])), [-expect, expect], atol=1e-12
            )

    def test_rotated_xy_zero_angle_symbol(self):
        mu_m, mu_p = 1.0, 0.4
        q = (mu_m**2 - mu_p**2) / (mu_m**2 + mu_p**2)
        model = models.build_rotated_xy_dissipative(0.5, 0.5, 0.7, mu_m, mu_p)
        gam0 = model.gamma_symbol(np.array([0.0]))[0]
        # t(0) = 0: the symbol is the pure polarization q sigma_y (flavor frame)
        np.testing.assert_allclose(gam0, q * np.array([[0, -1j], [1j, 0]]), atol=1e-12)

    def test_rotated_xy_closed_form_derivatives(self):
        model = models.build_rotated_xy_dissipative(0.5, 0.5, 0.7, 1.0, 0.4)
        phis = np.array([0.3, 1.2, -0.8])
        hstep = 1e-6
        for name in ("delta", "h", "theta"):
            up = dict(model.params)
            dn = dict(model.params)
            up[name] += hstep
            dn[name] -= hstep
            fd = (
                models.build_rotated_xy_dissipative(
                    up["delta"], up["h"], up["theta"], 1.0, 0.4
                ).gamma_symbol(phis)
                - models.build_rotated_xy_dissipative(
                    dn["delta"], dn["h"], dn["theta"], 1.0, 0.4
                ).gamma_symbol(phis)
            ) / (2 * hstep)
            np.testing.assert_allclose(
                model.dgamma_symbols[name](phis), fd, atol=1e-9
            )
