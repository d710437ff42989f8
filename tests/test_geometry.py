import numpy as np
import pytest

from nessgeom import gaussian, geometry, liouvillian, numerics, oracle
from nessgeom.errors import (
    EvaluationFailure,
    RankChangeSingularity,
    SingularFisher,
    ZeroGap,
)

from conftest import rand_antisym, rand_gamma, rand_gamma_family, rand_stable_model


class TestTransportKernel:
    def test_zero_tangent(self, rng):
        gamma = rand_gamma(rng, 2)
        k = geometry.transport_kernel(gamma, np.zeros_like(gamma))
        np.testing.assert_allclose(k, 0.0, atol=1e-14)

    def test_single_mode_diagonal(self):
        # dGamma from moving Omega by dOmega: dgamma = (1 - g^2) dOmega / 2,
        # giving the kernel diagonal -dOmega / 2 in the eigenbasis
        g, dom = 0.4, 0.37
        gamma = g * 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        dgamma = 0.5 * (1 - g * g) * dom * 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        k = geometry.transport_kernel(gamma, dgamma)
        vals = np.linalg.eigvalsh(k)
        np.testing.assert_allclose(sorted(vals), [-dom / 2, dom / 2], atol=1e-12)

    def test_discrete_lyapunov_relation(self, rng):
        gamma = rand_gamma(rng, 3)
        dgamma = numerics.hermitize_antisymmetric(1j * rand_antisym(rng, 6, 0.2))
        k = geometry.transport_kernel(gamma, dgamma)
        np.testing.assert_allclose(gamma @ k @ gamma - k, dgamma, atol=1e-9)

    def test_matches_dense_sld_half(self, rng):
        gamma_of = rand_gamma_family(rng, 3, 1)
        point = np.array([0.05])
        tang = geometry.tangents_finite_difference(gamma_of, point)
        k = geometry.transport_kernel(gamma_of(point), tang.d_gamma[0])
        # dense parallel-transport generator of the same family
        fam = oracle.ParametrizedFamily(
            evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
            labels=["l"],
        )
        rho = fam.rho(point)
        g_dense = oracle.sld_generator(rho, fam.drho(point)[0])
        # G = (1/4) (w K w) + eta with the trace-preserving scalar
        # eta = +(1/4) Tr(K Gamma); compare via the dense quadratic form
        n = 3
        w = gaussian.majorana_operators(n)
        quad = sum(
            k[i, j] * w[i] @ w[j] for i in range(2 * n) for j in range(2 * n)
        )
        g_rebuilt = 0.25 * (quad + np.trace(k @ gamma_of(point)) * np.eye(2**n))
        assert np.max(np.abs(g_rebuilt - g_dense)) < 1e-7
        assert np.max(np.abs(g_rebuilt @ rho + rho @ g_rebuilt - fam.drho(point)[0])) < 1e-8

    def test_rank_change_flagged(self):
        gamma = 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])  # pure mode
        dgamma = 0.1j * np.array([[0.0, 1.0], [-1.0, 0.0]])  # occupation moves off 1
        with pytest.raises(RankChangeSingularity):
            geometry.transport_kernel(gamma, dgamma)


class TestQgt:
    def test_zero_tangents(self, rng):
        gamma = rand_gamma(rng, 2)
        tang = geometry.make_tangents(("a", "b"), [np.zeros((4, 4))] * 2)
        res = geometry.qgt(gamma, tang)
        np.testing.assert_allclose(res.q, 0.0, atol=1e-14)

    def test_pure_state_family_matches_berry_curvature(self, rng):
        # rotating pure single mode: u equals twice Im of the projector QGT
        base = rand_antisym(rng, 2, 1.0)

        def gamma_of(lam):
            rot = np.array(
                [
                    [np.cos(lam[0]), -np.sin(lam[0])],
                    [np.sin(lam[0]), np.cos(lam[0])],
                ]
            )
            full = np.zeros((4, 4))
            full[:2, :2] = rot
            full[2:, 2:] = np.eye(2)
            mix = np.eye(4)
            c, s = np.cos(lam[1]), np.sin(lam[1])
            mix[1, 1] = mix[2, 2] = c
            mix[1, 2], mix[2, 1] = -s, s
            q = full @ mix
            d = np.zeros((4, 4), dtype=complex)
            for k in range(2):
                d[2 * k, 2 * k + 1] = 1j
                d[2 * k + 1, 2 * k] = -1j
            return q @ d @ q.T

        point = np.array([0.3, 0.2])
        tang = geometry.tangents_finite_difference(gamma_of, point)
        res = geometry.qgt(gamma_of(point), tang)
        fam = oracle.ParametrizedFamily(
            evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
            labels=["a", "b"],
        )
        q_pure = oracle.pure_state_qgt(fam, point)
        np.testing.assert_allclose(res.u, 2.0 * np.imag(q_pure), atol=1e-7)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            n, p = int(rng.integers(2, 4)), 2
            gamma_of = rand_gamma_family(rng, n, p)
            point = rng.uniform(-0.2, 0.2, size=p)
            tang = geometry.tangents_finite_difference(gamma_of, point)
            res = geometry.qgt(gamma_of(point), tang)
            fam = oracle.ParametrizedFamily(
                evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
                labels=[str(i) for i in range(p)],
            )
            np.testing.assert_allclose(res.g, oracle.bures_metric_dense(fam, point), atol=1e-8)
            np.testing.assert_allclose(res.u, oracle.muc_dense(fam, point), atol=1e-8)

    def test_q_psd_and_symmetries(self, rng):
        gamma_of = rand_gamma_family(rng, 3, 3)
        point = np.zeros(3)
        res = geometry.qgt(gamma_of(point), geometry.tangents_finite_difference(gamma_of, point))
        assert np.min(np.linalg.eigvalsh(res.q)) > -1e-10 * max(np.trace(res.q).real, 1e-30)
        np.testing.assert_allclose(res.g, res.g.T)
        np.testing.assert_allclose(res.u, -res.u.T)
        # matrix inequality ||4g|| >= ||2iU||
        assert (
            np.max(np.abs(np.linalg.eigvalsh(4 * res.g)))
            >= np.max(np.abs(np.linalg.eigvalsh(2j * res.u))) - 1e-10
        )

    def test_continuity_at_rank_extremes(self, rng):
        # fixed rotation family with occupations pinned at 1 - 10^-m: Q must
        # be Cauchy in m, approaching the continuity-rule (pure) value
        from scipy.linalg import expm as sla_expm

        gen1 = rand_antisym(rng, 6, 1.0)
        gen2 = rand_antisym(rng, 6, 1.0)

        def q_at(occ):
            d = np.zeros((6, 6), dtype=complex)
            for k in range(3):
                d[2 * k, 2 * k + 1] = 1j * occ
                d[2 * k + 1, 2 * k] = -1j * occ

            def gamma_of(lam):
                q_rot = sla_expm(lam[0] * gen1 + lam[1] * gen2)
                return q_rot @ d @ q_rot.T

            point = np.array([0.05, -0.08])
            tang = geometry.tangents_finite_difference(gamma_of, point)
            return geometry.qgt(gamma_of(point), tang, check_rank=False).q

        q8 = q_at(1.0 - 1e-8)
        q10 = q_at(1.0 - 1e-10)
        q_pure = q_at(1.0)
        assert np.max(np.abs(q8 - q10)) < 1e-6 * max(1.0, np.max(np.abs(q10)))
        assert np.max(np.abs(q10 - q_pure)) < 1e-6 * max(1.0, np.max(np.abs(q_pure)))


class TestIncompatibilityRatio:
    def test_zero_curvature(self):
        assert geometry.incompatibility_ratio(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_two_parameter_closed_form(self):
        j1, j2, u = 3.0, 5.0, 0.4
        g = np.diag([j1, j2]) / 4.0
        uu = np.array([[0.0, u], [-u, 0.0]])
        r = geometry.incompatibility_ratio(g, uu)
        assert r == pytest.approx(2 * u / np.sqrt(j1 * j2), abs=1e-12)
        assert r == pytest.approx(np.sqrt(np.linalg.det(2 * uu) / np.linalg.det(4 * g)), abs=1e-12)

    def test_bounds_on_random_families(self, rng):
        for _ in range(10):
            gamma_of = rand_gamma_family(rng, 3, 2)
            point = rng.uniform(-0.2, 0.2, size=2)
            res = geometry.qgt(gamma_of(point), geometry.tangents_finite_difference(gamma_of, point))
            if res.r_ratio is not None:
                assert -1e-12 <= res.r_ratio <= 1.0 + 1e-10

    def test_singular_fisher(self):
        with pytest.raises(SingularFisher):
            geometry.incompatibility_ratio(np.zeros((2, 2)), np.zeros((2, 2)))


class TestFiniteDifferenceTangents:
    def test_constant_and_linear_families(self, rng):
        g0 = rand_gamma(rng, 2)
        tang = geometry.tangents_finite_difference(lambda lam: g0, np.zeros(2))
        for d in tang.d_gamma:
            np.testing.assert_allclose(d, 0.0, atol=1e-9)
        base = numerics.hermitize_antisymmetric(0.3j * rand_antisym(rng, 4))
        tang = geometry.tangents_finite_difference(lambda lam: lam[0] * base, np.array([0.5]))
        np.testing.assert_allclose(tang.d_gamma[0], base, atol=1e-9)

    def test_matches_analytic_ness_tangents(self, rng):
        model = rand_stable_model(rng, 3)
        shape = liouvillian.shape_matrices(model)
        cov = liouvillian.ness_covariance(shape)
        dx = np.real(4j * 1j * rand_antisym(rng, 6, 0.2))
        analytic = liouvillian.ness_tangents(shape, [dx], [np.zeros_like(shape.y)], cov.gamma)

        def gamma_of(lam):
            x = shape.x + lam[0] * dx
            return numerics.solve_continuous_lyapunov(x, shape.y)

        fd = geometry.tangents_finite_difference(gamma_of, np.zeros(1))
        assert np.max(np.abs(fd.d_gamma[0] - analytic.d_gamma[0])) < 1e-6

    def test_evaluation_failure_wrapped(self):
        def broken(lam):
            raise ValueError("boom")

        with pytest.raises(EvaluationFailure):
            geometry.tangents_finite_difference(broken, np.zeros(1))


class TestGapBound:
    def test_zero_qgt_holds(self, rng):
        gamma = rand_gamma(rng, 2)
        lhs, rhs, holds = geometry.qgt_gap_bound(
            0.0, gamma, np.eye(4), np.zeros((4, 4)), 0.1 * np.eye(4), np.zeros((4, 4)), 1.0
        )
        assert holds and lhs == 0.0

    def test_zero_gap_rejected(self, rng):
        with pytest.raises(ZeroGap):
            geometry.qgt_gap_bound(
                1.0, rand_gamma(rng, 2), np.eye(4), np.zeros((4, 4)),
                np.eye(4), np.zeros((4, 4)), 0.0,
            )

    def test_random_stable_models(self, rng):
        held = 0
        for _ in range(10):
            model = rand_stable_model(rng, 2)
            shape = liouvillian.shape_matrices(model)
            rep = liouvillian.gap_report(shape.x)
            if rep.delta <= 1e-3:
                continue
            cov = liouvillian.ness_covariance(shape)
            dx = np.real(4j * 1j * rand_antisym(rng, 4, 0.3))
            dy = np.zeros_like(shape.y)
            tang = liouvillian.ness_tangents(shape, [dx], [dy], cov.gamma)
            res = geometry.qgt(cov.gamma, tang)
            lhs, rhs, holds = geometry.qgt_gap_bound(
                res.q[0, 0], cov.gamma, shape.x, shape.y, dx, dy, rep.delta
            )
            assert holds, (lhs, rhs)
            held += 1
        assert held >= 5


class TestEndToEnd:
    def test_ness_family_geometry_gaussian_vs_dense(self, rng):
        # random dissipative model family: Lyapunov NESS geometry must match
        # the dense-oracle geometry of the dense Lindblad steady states
        from nessgeom import models  # noqa: F401  (namespace parity with usage below)

        n = 2
        h0 = 1j * rand_antisym(rng, 2 * n, 0.4)
        h1 = 1j * rand_antisym(rng, 2 * n, 0.3)
        jump0 = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        jump1 = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)

        def model_of(lam):
            return liouvillian.QuadraticLindbladModel(
                n_modes=n,
                h=h0 + lam[0] * h1,
                jumps=(jump0 + lam[1] * jump1,),
            )

        def gamma_of(lam):
            shape = liouvillian.shape_matrices(model_of(lam))
            return liouvillian.ness_covariance(shape).gamma

        def rho_of(lam):
            m = model_of(lam)
            w = gaussian.majorana_operators(n)
            h_d = sum(m.h[j, k] * w[j] @ w[k] for j in range(2 * n) for k in range(2 * n))
            jops = [sum(l[j] * w[j] for j in range(2 * n)) for l in m.jumps]
            return oracle.dense_lindblad_ness(h_d, jops).rho

        point = np.array([0.1, -0.2])
        tang = geometry.tangents_finite_difference(gamma_of, point)
        res = geometry.qgt(gamma_of(point), tang)
        fam = oracle.ParametrizedFamily(evaluator=rho_of, labels=["a", "b"])
        np.testing.assert_allclose(res.g, oracle.bures_metric_dense(fam, point), atol=1e-7)
        np.testing.assert_allclose(res.u, oracle.muc_dense(fam, point), atol=1e-7)

    def test_analytic_and_fd_pipelines_match_at_scale(self):
        # point_geometry (exact shape derivatives, tangents on one
        # factorization) against finite differences of the steady state at n = 20
        from nessgeom import models

        n, delta, h = 20, 1.25, 0.3
        pars = models.BoundaryXYParams(delta=delta, h=h, n=n)
        shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(pars))
        point = liouvillian.point_geometry(shape, models.boundary_xy_shape_derivatives(pars))
        res_analytic = point.qgt

        def gamma_of(lam):
            p = models.BoundaryXYParams(delta=lam[0], h=lam[1], n=n)
            s = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
            return numerics.solve_continuous_lyapunov(s.x, s.y)

        tang = geometry.tangents_finite_difference(gamma_of, np.array([delta, h]))
        res_fd = geometry.qgt(gamma_of(np.array([delta, h])), tang)
        assert res_analytic.gmax() == pytest.approx(res_fd.gmax(), rel=1e-5)
        assert res_analytic.u[0, 1] == pytest.approx(res_fd.u[0, 1], rel=1e-4)
