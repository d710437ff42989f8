import numpy as np
import pytest

from nessgeom import gaussian, geometry, liouvillian, models, numerics, oracle
from nessgeom.errors import (
    DimensionMismatch,
    EmptyJumps,
    InstabilityDetected,
    NotReal,
    SingularSylvester,
)

from conftest import rand_antisym, rand_stable_model
import symbol_oracles


def dense_from_model(model):
    n = model.n_modes
    w = gaussian.majorana_operators(n)
    h_dense = sum(
        1j * model.h_im[j, k] * w[j] @ w[k] for j in range(2 * n) for k in range(2 * n)
    )
    jump_ops = [sum(l[j] * w[j] for j in range(2 * n)) for l in model.jumps]
    return h_dense, jump_ops


def bath_matrix(jumps):
    """``M = sum_a l_a l_a^dag`` in complex arithmetic, the reference for
    the real assembly of ``shape_matrices``."""
    return sum(np.outer(l, np.conj(l)) for l in jumps)


class TestBathAndShapes:
    def test_single_unit_vector(self):
        # M = e_1 e_1^T: X = 4 Re M, and a real M has no source
        model = liouvillian.QuadraticLindbladModel(
            n_modes=1, h_im=np.zeros((2, 2)), jumps=(np.array([1.0, 0.0]),)
        )
        s = liouvillian.shape_matrices(model)
        np.testing.assert_array_equal(s.x, np.diag([4.0, 0.0]))
        np.testing.assert_array_equal(s.b, np.zeros((2, 2)))

    def test_real_jumps_have_real_bath(self, rng):
        jumps = tuple(rng.normal(size=4) for _ in range(3))
        model = liouvillian.QuadraticLindbladModel(n_modes=2, h_im=np.zeros((4, 4)), jumps=jumps)
        assert np.max(np.abs(liouvillian.shape_matrices(model).b)) < 1e-14

    def test_kernel_must_be_real_antisymmetric(self, rng):
        # H is Hermitian antisymmetric, so purely imaginary: the model takes Im H
        a, jumps = rand_antisym(rng, 4), (rng.normal(size=4),)
        for complex_kernel in (1j * a, a.astype(complex)):
            with pytest.raises(NotReal, match="h_im"):
                liouvillian.QuadraticLindbladModel(n_modes=2, h_im=complex_kernel, jumps=jumps)
        with pytest.raises(DimensionMismatch, match="antisymmetric"):
            liouvillian.QuadraticLindbladModel(n_modes=2, h_im=a + 1e-6 * np.eye(4), jumps=jumps)
        with pytest.raises(DimensionMismatch, match="4x4"):
            liouvillian.QuadraticLindbladModel(n_modes=2, h_im=a[:2, :2], jumps=jumps)

    def test_empty_rejected(self):
        model = liouvillian.QuadraticLindbladModel(n_modes=1, h_im=np.zeros((2, 2)), jumps=())
        with pytest.raises(EmptyJumps):
            liouvillian.shape_matrices(model)

    def test_shape_invariants(self, rng):
        model = rand_stable_model(rng, 3)
        s = liouvillian.shape_matrices(model)
        m = bath_matrix(model.jumps)
        assert s.x.dtype == s.b.dtype == np.float64
        np.testing.assert_allclose(s.x + s.x.T, 8 * np.real(m), atol=1e-10)
        np.testing.assert_allclose(s.x, 4 * (np.real(m) - model.h_im), atol=1e-13)
        np.testing.assert_allclose(s.b, -8 * np.imag(m), atol=1e-13)
        assert np.array_equal(s.b, -s.b.T)
        assert np.array_equal(s.y, 1j * s.b)
        assert np.min(np.linalg.eigvalsh(m)) > -1e-10

    def test_hamiltonian_free_real_jumps_maximally_mixed(self, rng):
        # enough real jumps to make the drift full rank: unique Gamma = 0
        jumps = tuple(rng.normal(size=6) for _ in range(6))
        model = liouvillian.QuadraticLindbladModel(n_modes=3, h_im=np.zeros((6, 6)), jumps=jumps)
        s = liouvillian.shape_matrices(model)
        np.testing.assert_allclose(s.b, 0.0, atol=1e-14)
        cov = liouvillian.ness_covariance(s)
        np.testing.assert_allclose(cov.gamma, 0.0, atol=1e-12)

    def test_pure_loss_chain_all_modes_empty(self):
        # jumps c_j = (w_{2j-1} - i w_{2j})/2 at every site
        n = 2
        jumps = []
        for j in range(n):
            v = np.zeros(2 * n, dtype=complex)
            v[2 * j] = 0.5
            v[2 * j + 1] = -0.5j
            jumps.append(np.sqrt(0.8) * v)
        model = liouvillian.QuadraticLindbladModel(
            n_modes=n, h_im=np.zeros((4, 4)), jumps=tuple(jumps)
        )
        cov = liouvillian.ness_covariance(liouvillian.shape_matrices(model))
        modes = gaussian.eigenmodes(cov.gamma)
        np.testing.assert_allclose(modes.gammas, 1.0, atol=1e-12)
        # occupation sign fixed by the dense oracle
        h_d, jops = dense_from_model(model)
        ness = oracle.dense_lindblad_ness(h_d, jops)
        np.testing.assert_allclose(
            gaussian.gamma_from_dense(ness.rho), cov.gamma, atol=1e-10
        )
        # every mode is empty: <c_j^dag c_j> = (1 + Im Gamma_{2j-1,2j}) / 2 = 0
        for j in range(n):
            occ = (1.0 + np.imag(cov.gamma[2 * j, 2 * j + 1])) / 2.0
            assert occ == pytest.approx(0.0, abs=1e-12)


class TestGapReport:
    def test_diagonal_example(self):
        rep = liouvillian.gap_report(np.diag([1.0, 2.0]))
        assert rep.delta == pytest.approx(2.0)
        assert rep.delta_xhat == pytest.approx(2.0)
        assert rep.delta_liouville == pytest.approx(2.0)

    def test_conjugate_pair_is_one_schur_block(self):
        # eigenvalues 0.3 +- 2i and 0.7: the pair sums to 0.6 below 2 * 0.7
        rot = np.array([[0.3, 2.0, 0.0], [-2.0, 0.3, 0.0], [0.0, 0.0, 0.7]])
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        rep = liouvillian.gap_report(q @ rot @ q.T)
        assert rep.delta_liouville == pytest.approx(0.6, rel=1e-13)
        assert rep.delta == pytest.approx(0.6, rel=1e-13)
        assert rep.delta_xhat == pytest.approx(0.6, rel=1e-13)
        np.testing.assert_allclose(
            rep.spectrum, np.sort_complex([0.3 - 2j, 0.3 + 2j, 0.7]), atol=1e-13
        )
        assert rep.condition_estimate == pytest.approx(
            numerics.general_eigendecomposition(q @ rot @ q.T)[1], rel=1e-8
        )

    def test_instability_detected(self):
        with pytest.raises(InstabilityDetected):
            liouvillian.gap_report(np.diag([-1.0, 2.0]))

    def test_gap_equality_on_100_random_models(self, rng):
        checked = 0
        while checked < 100:
            model = rand_stable_model(rng, int(rng.integers(2, 5)))
            rep = liouvillian.gap_report(liouvillian.shape_matrices(model).x)
            if rep.delta <= 0.01:
                continue
            checked += 1
            assert abs(rep.delta - rep.delta_xhat) <= 1e-8 * rep.delta
            assert abs(rep.delta - rep.delta_liouville) <= 1e-8 * rep.delta

    def test_stability_invariant(self, rng):
        for _ in range(20):
            model = rand_stable_model(rng, 3)
            rep = liouvillian.gap_report(liouvillian.shape_matrices(model).x)
            assert np.min(np.real(rep.spectrum)) >= -1e-10


class TestNess:
    def test_physicality_random(self, rng):
        for _ in range(10):
            model = rand_stable_model(rng, int(rng.integers(2, 5)))
            cov = liouvillian.ness_covariance(liouvillian.shape_matrices(model))
            assert np.max(np.abs(np.linalg.eigvalsh(cov.gamma))) <= 1.0 + 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_agreement(self, rng, n):
        model = rand_stable_model(rng, n)
        cov = liouvillian.ness_covariance(liouvillian.shape_matrices(model))
        h_d, jops = dense_from_model(model)
        ness = oracle.dense_lindblad_ness(h_d, jops)
        assert np.max(np.abs(cov.gamma - gaussian.gamma_from_dense(ness.rho))) < 1e-8

    def test_non_unique_flagged(self):
        # single decoupled undriven mode: x has a zero pair
        model = liouvillian.QuadraticLindbladModel(
            n_modes=2,
            h_im=np.zeros((4, 4)),
            jumps=(np.array([0.5, -0.5j, 0.0, 0.0]),),
        )
        with pytest.raises(SingularSylvester):
            liouvillian.ness_covariance(liouvillian.shape_matrices(model))

    def test_one_uniqueness_rule_with_point_geometry(self):
        # n=40, delta=1: the smallest pair sum of the drift spectrum is 2.7e-11
        # of its scale, above the solver's 1e-12 singularity threshold
        p = models.BoundaryXYParams(delta=1.0, h=1.1304758631173196e-4, n=40)
        shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        derivatives = models.boundary_xy_shape_derivatives(p)
        point = liouvillian.point_geometry(shape, derivatives)
        cov = liouvillian.ness_covariance(shape)
        assert np.linalg.norm(cov.gamma.imag - point.a) <= 1e-12 * np.linalg.norm(point.a)
        dxs, dbs = zip(*derivatives.values())
        tang = liouvillian.ness_tangents(shape, dxs, dbs, cov)
        for got, want in zip(tang.d_a, point.tangents.d_a):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestNessTangents:
    def test_zero_derivatives(self, rng):
        model = rand_stable_model(rng, 2)
        shape = liouvillian.shape_matrices(model)
        cov = liouvillian.ness_covariance(shape)
        tang = liouvillian.ness_tangents(
            shape, [np.zeros((4, 4))], [np.zeros((4, 4))], cov.gamma
        )
        np.testing.assert_allclose(tang.d_gamma[0], 0.0, atol=1e-12)

    def test_source_scaling_linearity(self, rng):
        model = rand_stable_model(rng, 2)
        shape = liouvillian.shape_matrices(model)
        cov = liouvillian.ness_covariance(shape)
        # family Y -> (1 + lam) Y: dGamma solves X G' + G' X^T = Y
        tang = liouvillian.ness_tangents(shape, [np.zeros((4, 4))], [shape.b], cov.gamma)
        np.testing.assert_allclose(tang.d_gamma[0], cov.gamma, atol=1e-10)

    def test_matches_finite_differences(self, rng):
        model = rand_stable_model(rng, 3)
        shape = liouvillian.shape_matrices(model)
        cov = liouvillian.ness_covariance(shape)
        dx = np.real(4j * 1j * rand_antisym(rng, 6, 0.2))
        db = rand_antisym(rng, 6, 0.2)
        analytic = liouvillian.ness_tangents(shape, [dx], [db], cov.gamma)

        def gamma_of(lam):
            return 1j * numerics.LyapunovSolver(shape.x + lam[0] * dx).solve(shape.b + lam[0] * db)

        fd = geometry.tangents_finite_difference(gamma_of, np.zeros(1))
        assert np.max(np.abs(fd.d_gamma[0] - analytic.d_gamma[0])) < 1e-6


class TestPointGeometry:
    def test_matches_ness_covariance_and_tangents(self, rng):
        shape = liouvillian.shape_matrices(rand_stable_model(rng, 3))
        dx = np.real(4j * 1j * rand_antisym(rng, 6, 0.2))
        db = rand_antisym(rng, 6, 0.2)
        point = liouvillian.point_geometry(shape, {"a": (dx, db), "b": (dx.T, 0 * db)})
        cov = liouvillian.ness_covariance(shape)
        tang = liouvillian.ness_tangents(shape, [dx, dx.T], [db, 0 * db], cov.gamma, ("a", "b"))
        assert point.gap == pytest.approx(liouvillian.gap_report(shape.x).delta, rel=1e-10)
        np.testing.assert_allclose(point.gamma, cov.gamma, atol=1e-13)
        assert point.tangents.parameters == tang.parameters == ("a", "b")
        for got, want in zip(point.tangents.d_gamma, tang.d_gamma):
            np.testing.assert_allclose(got, want, atol=1e-13)
        res = geometry.qgt(cov.gamma, tang)
        np.testing.assert_allclose(point.qgt.q, res.q, atol=1e-12)

    def test_complex_direction_rejected(self, rng):
        shape = liouvillian.shape_matrices(rand_stable_model(rng, 2))
        dx = rand_antisym(rng, 4, 0.2)
        db = 1j * rand_antisym(rng, 4, 0.2)
        with pytest.raises(NotReal, match="dB"):
            liouvillian.point_geometry(shape, {"a": (dx, db)})
        with pytest.raises(NotReal, match="dB"):
            liouvillian.ness_tangents(shape, [dx], [db], 1j * np.zeros((4, 4)))
        with pytest.raises(NotReal, match="dX"):
            liouvillian.point_geometry(shape, {"a": (1j * dx, np.zeros((4, 4)))})

    def test_no_directions_solve_only_the_steady_state(self, rng):
        point = liouvillian.point_geometry(liouvillian.shape_matrices(rand_stable_model(rng, 2)))
        assert point.tangents is None and point.qgt is None
        assert np.all(np.isfinite(point.gamma))


class TestReservoirChainRing:
    def test_symbol_eigenvalues_match_closed_forms(self):
        from nessgeom.models import build_reservoir_chain

        lam, theta = 0.7, 0.4
        model = build_reservoir_chain(lam, theta)
        nl = 4.0 * (lam**2 + lam + 1.0)
        for phi in (0.0, 0.9, 2.2):
            eigs = np.sort(np.real(np.linalg.eigvals(model.symbols(np.exp(1j * phi))[0][0, 0])))
            x1 = 4.0 * (1.0 + lam) ** 2 / nl**2
            x2 = 4.0 * (1.0 + 2.0 * lam * np.cos(phi) + lam**2) / nl**2
            np.testing.assert_allclose(eigs, sorted([x1, x2]), atol=1e-12)

    def test_uncoupled_reservoir_ring_gap(self):
        # at lam = 0 both drift eigenvalues are flat at 1/4: delta = 1/2
        from nessgeom.models import build_reservoir_chain

        ring = symbol_oracles.to_lindblad_model(build_reservoir_chain(0.0, 0.9), 8)
        rep = liouvillian.gap_report(liouvillian.shape_matrices(ring).x)
        assert rep.delta == pytest.approx(0.5, abs=1e-12)

    def test_ring_matches_symbol_and_dense(self):
        from nessgeom import momentum
        from nessgeom.models import build_reservoir_chain

        model = build_reservoir_chain(0.5, 0.3)
        ring = symbol_oracles.to_lindblad_model(model, 5)
        cov = liouvillian.ness_covariance(liouvillian.shape_matrices(ring))
        phik = 2 * np.pi * np.arange(5) / 5
        gk = momentum.symbol_covariance(model, phik)
        block0 = np.mean(gk, axis=0)
        np.testing.assert_allclose(cov.gamma[0:2, 0:2], block0, atol=1e-12)
        h_d, jops = dense_from_model(ring)
        ness = oracle.dense_lindblad_ness(h_d, jops)
        assert np.max(np.abs(cov.gamma - gaussian.gamma_from_dense(ness.rho))) < 1e-10


class TestSpectrumAgainstClosedForms:
    def test_ring_drift_spectrum_matches_symbol_eigenvalues(self):
        # the block-circulant drift's full spectrum is the union of the
        # 2x2 symbol eigenvalues over the discrete momenta
        from nessgeom import numerics
        from nessgeom.models import build_reservoir_chain

        lam, theta, n = 0.7, 0.4, 9
        model = build_reservoir_chain(lam, theta)
        ring = symbol_oracles.to_lindblad_model(model, n)
        shape = liouvillian.shape_matrices(ring)
        eigs, cond = numerics.general_eigendecomposition(shape.x)
        assert cond < 1e8
        phik = 2 * np.pi * np.arange(n) / n
        nl = 4.0 * (lam**2 + lam + 1.0)
        expected = []
        for phi in phik:
            expected.append(4 * (1 + lam) ** 2 / nl**2)
            expected.append(4 * (1 + 2 * lam * np.cos(phi) + lam**2) / nl**2)
        np.testing.assert_allclose(
            np.sort(np.real(eigs)), np.sort(expected), atol=1e-12
        )
        assert np.max(np.abs(np.imag(eigs))) < 1e-12

    def test_boundary_bath_matrix_hand_assembly(self):
        from nessgeom.models import BoundaryXYParams, build_boundary_driven_xy

        p = BoundaryXYParams(delta=1.25, h=0.3, n=4)
        model = build_boundary_driven_xy(p)
        s = liouvillian.shape_matrices(model)
        by_hand = np.zeros((8, 8), dtype=complex)
        for l in model.jumps:
            by_hand += np.outer(l, l.conj())
        # the real assembly on each jump's support matches the complex sum bit for bit
        assert np.array_equal(s.x, 4.0 * (np.real(by_hand) - model.h_im))
        b = -8.0 * np.imag(by_hand)
        assert np.array_equal(s.b, 0.5 * (b - b.T))
        # the bath (and so the source) has support only on the edge sites
        assert np.max(np.abs(by_hand[2:6, :])) == 0.0
        assert np.max(np.abs(s.b[2:6, :])) == 0.0
