import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from nessgeom import liouvillian, momentum, numerics
from nessgeom.errors import (
    DegenerateInput,
    NoConvergence,
    NonPositiveValue,
    NotAntisymmetric,
    NotFiniteRange,
    NotReal,
    SingularSylvester,
)

from conftest import rand_antisym, rand_stable_model


class TestLyapunov:
    def test_identity_drift_halves_source(self):
        x = np.eye(2)
        b = np.array([[0.0, 2.0], [-2.0, 0.0]])
        a = numerics.LyapunovSolver(x).solve(b)
        np.testing.assert_allclose(a, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)

    def test_scalar_sylvester_pair(self):
        a, b, yval = 0.7, 1.9, 0.43
        x = np.diag([a, b])
        source = np.array([[0.0, yval], [-yval, 0.0]])
        sol = numerics.LyapunovSolver(x).solve(source)
        assert abs(sol[0, 1] - yval / (a + b)) < 1e-14

    def test_defective_drift(self, rng):
        # two Jordan blocks: the Schur path needs no diagonalizability
        x = np.array(
            [[1.0, 1.0, 0, 0], [0, 1.0, 0, 0], [0, 0, 2.0, 1.0], [0, 0, 0, 2.0]]
        )
        b = rand_antisym(rng, 4)
        a = numerics.LyapunovSolver(x).solve(b)
        assert np.linalg.norm(x @ a + a @ x.T - b) < 1e-10 * (
            np.linalg.norm(x) * np.linalg.norm(a) + np.linalg.norm(b)
        )
        assert np.max(np.abs(a + a.T)) < 1e-12

    def test_residual_bound_on_random_instances(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7)) * 2
            m = rng.normal(size=(dim, dim))
            x = m @ m.T + 0.1 * np.eye(dim) + rand_antisym(rng, dim)
            b = rand_antisym(rng, dim)
            a = numerics.LyapunovSolver(x).solve(b)
            res = np.linalg.norm(x @ a + a @ x.T - b)
            assert res <= 1e-10 * (
                np.linalg.norm(x) * np.linalg.norm(a) + np.linalg.norm(b)
            )

    def test_singular_pair_raises(self):
        x = np.diag([1.0, -1.0])  # x_1 + x_2 = 0
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SingularSylvester):
            numerics.LyapunovSolver(x).solve(b)

    def test_solver_reuse_matches_one_shot(self, rng):
        x = rng.normal(size=(6, 6))
        x = x @ x.T + 0.5 * np.eye(6)
        solver = numerics.LyapunovSolver(x)
        for _ in range(3):
            b = rand_antisym(rng, 6)
            np.testing.assert_allclose(
                solver.solve(b), numerics.LyapunovSolver(x).solve(b), atol=1e-12
            )


LEAF = numerics._SYLVESTER_LEAF
# sizes above the leaf so the recursion runs, odd and even
blocked_sizes = st.integers(min_value=LEAF + 1, max_value=3 * LEAF)


def _quasi_triangular(rng, n, extra_blocks):
    """Real Schur-like matrix, spectrum in Re > 0, with a 2x2 block across every
    split the recursion makes at the top level plus ``extra_blocks`` random ones."""
    t = np.triu(rng.normal(size=(n, n))) / np.sqrt(n)
    t[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n)
    starts = {n // 2 - 1}
    for i in rng.integers(0, n - 1, size=extra_blocks):
        if all(abs(int(i) - s) > 1 for s in starts):
            starts.add(int(i))
    for i in starts:
        re, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5), -rng.uniform(0.3, 1.5)
        t[i, i] = t[i + 1, i + 1] = re
        t[i, i + 1], t[i + 1, i] = b, c
    return t


def _full_trsyl(a, b, c):
    trsyl = sla.get_lapack_funcs("trsyl", dtype=np.float64)
    z, scale, info = trsyl(a, b, c, tranb="T")
    assert info >= 0
    return z / scale


class TestBlockedSylvester:
    @settings(max_examples=20, deadline=None)
    @given(n=blocked_sizes, m=blocked_sizes, extra=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_sylvester_matches_full_trsyl(self, n, m, extra, seed):
        rng = np.random.default_rng(seed)
        a, b = _quasi_triangular(rng, m, extra), _quasi_triangular(rng, n, extra)
        c = rng.normal(size=(m, n))
        z = c.copy()
        numerics._solve_quasi_triangular_sylvester(a, b, z)
        ref = _full_trsyl(a, b, c)
        assert np.linalg.norm(z - ref) <= 1e-11 * np.linalg.norm(ref)
        assert np.linalg.norm(a @ z + z @ b.T - c) <= 1e-12 * (
            (np.linalg.norm(a) + np.linalg.norm(b)) * np.linalg.norm(z) + np.linalg.norm(c)
        )

    @settings(max_examples=20, deadline=None)
    @given(n=blocked_sizes, extra=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_lyapunov_matches_trsyl_and_scipy(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        t = _quasi_triangular(rng, n, extra)
        c = rand_antisym(rng, n)
        z = c.copy()
        numerics._solve_quasi_triangular_sylvester(t, t, z)
        for ref in (_full_trsyl(t, t, c), sla.solve_continuous_lyapunov(t, c)):
            assert np.linalg.norm(z - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_split_keeps_two_by_two_blocks(self, rng):
        n = 2 * LEAF + 1
        t = _quasi_triangular(rng, n, 0)
        k = numerics._split_index(t)
        assert k == n // 2 + 1 and t[k, k - 1] == 0.0
        eigs = numerics._quasi_triangular_eigenvalues(t)
        np.testing.assert_allclose(
            np.sort_complex(eigs), np.sort_complex(np.linalg.eigvals(t)), atol=1e-10
        )

    @settings(max_examples=15, deadline=None)
    @given(n=blocked_sizes, seed=st.integers(0, 2**32 - 1))
    def test_solver_matches_scipy_on_general_drifts(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, n)) / np.sqrt(n) + 1.5 * np.eye(n)
        b = rand_antisym(rng, n)
        a = numerics.LyapunovSolver(x).solve(b)
        ref = sla.solve_continuous_lyapunov(x, b)
        assert np.linalg.norm(a - ref) <= 1e-11 * np.linalg.norm(ref)
        assert a.dtype == np.float64

    def test_near_singular_pair_sum_raises(self, rng):
        n = LEAF + 7
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        spectrum = rng.uniform(0.5, 2.0, size=n)
        spectrum[-2:] = 0.7, -0.7 + 1e-14  # x_i + x_j ~ 1e-14
        x = (q * spectrum) @ q.T
        with pytest.raises(SingularSylvester):
            numerics.LyapunovSolver(x).solve(rand_antisym(rng, n))

    def test_source_with_symmetric_part_raises(self, rng):
        x = np.eye(4) + 0.1 * rand_antisym(rng, 4)
        b = rand_antisym(rng, 4) + 1e-6 * np.eye(4)
        with pytest.raises(NotAntisymmetric):
            numerics.LyapunovSolver(x).solve(b)

    def test_complex_source_rejected(self, rng):
        # a complex b is refused by name, with no ComplexWarning and no
        # silently dropped imaginary part, even when that part is zero
        x = np.eye(4) + 0.1 * rand_antisym(rng, 4)
        solver = numerics.LyapunovSolver(x)
        for b in (1j * rand_antisym(rng, 4), rand_antisym(rng, 4).astype(complex)):
            with pytest.raises(NotReal):
                solver.solve(b)

    def test_tangents_share_one_factorization(self, rng, monkeypatch):
        model = rand_stable_model(rng, 4)
        shape = liouvillian.shape_matrices(model)
        gamma = liouvillian.ness_covariance(shape).gamma
        dxs = [rng.normal(size=(8, 8)) for _ in range(3)]
        dbs = [rand_antisym(rng, 8) for _ in range(3)]
        inits = []
        init = numerics.LyapunovSolver.__init__

        def counting_init(self, x):
            inits.append(x)
            init(self, x)

        monkeypatch.setattr(numerics.LyapunovSolver, "__init__", counting_init)
        tang = liouvillian.ness_tangents(shape, dxs, dbs, gamma)
        assert len(inits) == 1
        for dx, db, dg in zip(dxs, dbs, tang.d_gamma):
            rhs = 1j * db - dx @ gamma - gamma @ dx.T
            ref = sla.solve_continuous_lyapunov(shape.x, np.imag(rhs))
            assert np.linalg.norm(dg.imag - ref) <= 1e-11 * np.linalg.norm(ref)


class TestAntisymmetricLyapunov:
    @pytest.mark.parametrize("n", [63, 64, 65, 66, 130])
    def test_recursion_matches_scipy(self, rng, n):
        t = _quasi_triangular(rng, n, 3)
        if n > LEAF:  # the middle split lands on a 2x2 block and moves past it
            assert numerics._split_index(t) == n // 2 + 1
        c = rand_antisym(rng, n)
        z = c.copy()
        numerics._solve_antisymmetric_lyapunov(t, z)
        ref = sla.solve_continuous_lyapunov(t, c)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.max(np.abs(z + z.T)) <= 1e-14 * np.max(np.abs(z))

    @pytest.mark.parametrize("n", [63, 64, 65, 66, 130])
    def test_solver_real_and_imaginary_forms(self, rng, n):
        x = rng.normal(size=(n, n)) / np.sqrt(n) + 1.5 * np.eye(n)
        b = rand_antisym(rng, n)
        solver = numerics.LyapunovSolver(x)
        a = solver.solve(b)
        assert a.dtype == np.float64 and np.array_equal(a, -a.T)
        ref = sla.solve_continuous_lyapunov(x, b)
        assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, block", [(1, 64), (7, 3), (128, 64), (130, 64), (130, 17)])
    def test_blocked_transpose_subtraction_is_numpys(self, rng, n, block):
        # the solver's in-place m -= m^T, bit for bit, signed zeros included
        m = rng.normal(size=(n, n))
        m[::3, ::2] = 0.0
        m[1::4] = -0.0
        want = m.copy()
        want -= want.T
        numerics._subtract_transpose(m, block)
        assert m.tobytes() == want.tobytes()

    def test_solve_holds_two_scratch_arrays(self, rng):
        import tracemalloc

        n = 512
        x = rng.normal(size=(n, n)) / np.sqrt(n) + 1.5 * np.eye(n)
        b = rand_antisym(rng, n)
        solver = numerics.LyapunovSolver(x)
        solver.solve(b)
        tracemalloc.start()
        try:
            solver.solve(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two n x n arrays and a few blocks (buffering a whole transpose reads 3.03)
        assert peak <= 2.5 * 8 * n * n

    @pytest.mark.parametrize("ratio, singular", [(0.5, True), (4.0, False)])
    def test_singular_sylvester_threshold(self, rng, ratio, singular):
        # pair sum x_a + x_b = ratio * 1e-12 * max|x|: the rule is pair_min <= 1e-12 scale
        n = 2 * LEAF + 2
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        spectrum = rng.uniform(0.5, 2.0, size=n)
        spectrum[0] = 2.0
        spectrum[-2:] = 0.7, -0.7 + ratio * 2e-12
        x = (q * spectrum) @ q.T
        solver = numerics.LyapunovSolver(x)
        assert solver.pair_min == pytest.approx(ratio * 2e-12, rel=1e-2)
        b = rand_antisym(rng, n)
        if singular:
            with pytest.raises(SingularSylvester, match="min"):
                solver.solve(b)
        else:
            a = solver.solve(b)
            res = x @ a + a @ x.T - b
            assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(a)


class TestEigendecompositions:
    def test_general_rotation_and_triangular(self):
        vals, cond = numerics.general_eigendecomposition(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-14)
        assert cond < 10.0
        tri = np.triu(np.ones((3, 3))) + np.diag([1.0, 2.0, 3.0])
        vals, _ = numerics.general_eigendecomposition(tri)
        np.testing.assert_allclose(sorted(vals.real), [2.0, 3.0, 4.0], atol=1e-12)

    def test_conjugation_closure(self, rng):
        a = rng.normal(size=(10, 10))
        vals, _ = numerics.general_eigendecomposition(a)
        paired = np.sort_complex(np.conj(vals))
        np.testing.assert_allclose(
            np.sort_complex(vals), paired, atol=1e-10 * max(1.0, np.max(np.abs(vals)))
        )

    def test_near_defective_flagged(self):
        x = np.array([[1.0, 1.0], [1e-14, 1.0]])
        _, cond = numerics.general_eigendecomposition(x)
        assert cond > 1e6


class TestPolynomials:
    def test_simple_roots(self):
        roots = numerics.polynomial_roots([-1.0, 0.0, 1.0])  # z^2 - 1
        np.testing.assert_allclose(sorted(roots.real), [-1.0, 1.0], atol=1e-12)

    def test_double_root_clustered(self):
        roots = numerics.polynomial_roots([0.0, 0.0, 1.0])  # z^2
        clusters = momentum._link_islands(roots, threshold=1e-6)
        assert len(clusters) == 1 and len(clusters[0]) == 2

    def test_reservoir_denominator_roots(self):
        # lam z^2 + 2 (1 + lam + lam^2) z + lam at lam = 1
        roots = numerics.polynomial_roots([1.0, 6.0, 1.0])
        expect = sorted([-3 + 2 * np.sqrt(2), -3 - 2 * np.sqrt(2)])
        np.testing.assert_allclose(sorted(roots.real), expect, atol=1e-12)

    def test_roots_roundtrip_property(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 8))
            roots = rng.normal(size=k) + 1j * rng.normal(size=k)
            coeffs = np.polynomial.polynomial.polyfromroots(roots)
            back = numerics.polynomial_roots(coeffs)
            assert np.max(np.abs(np.sort_complex(back) - np.sort_complex(roots))) < 1e-8 * max(
                1.0, np.max(np.abs(roots))
            )

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            numerics.polynomial_roots([0.0, 0.0])


class TestQuadrature:
    def test_trivial_integrands(self):
        assert abs(numerics.periodic_quadrature(np.cos, 1e-12)) < 1e-12
        assert abs(numerics.periodic_quadrature(np.ones_like, 1e-12) - 2 * np.pi) < 1e-12

    def test_smooth_integrand(self):
        val = numerics.periodic_quadrature(lambda p: 1.0 / (2.0 + np.cos(p)), 1e-12)
        assert abs(val - 2 * np.pi / np.sqrt(3.0)) < 1e-10

    def test_no_convergence_carries_estimate(self):
        # sharp integrable spike: needs more points than the cap allows
        def spiky(p):
            return 1e-8 / (1e-16 + p**2)

        with pytest.raises(NoConvergence) as err:
            numerics.periodic_quadrature(spiky, 1e-14, max_points=1 << 12)
        assert err.value.last_estimate is not None


class TestPowerLawFit:
    def test_exact_powers(self):
        fit = numerics.fit_power_law([(n, float(n) ** 2) for n in (4, 8, 16, 32, 64)])
        assert abs(fit.exponent - 2.0) < 1e-12
        assert abs(fit.prefactor - 1.0) < 1e-12
        assert fit.r_squared > 1.0 - 1e-12
        fit = numerics.fit_power_law([(n, 3.0 / n) for n in (4, 8, 16, 32)])
        assert abs(fit.exponent + 1.0) < 1e-12
        assert abs(fit.prefactor - 3.0) < 1e-12
        assert fit.n_range == (4, 32)

    def test_overflowing_prefactor_raises(self):
        samples = [(n, math.exp(720.0 - 100.0 * math.log(n))) for n in (80, 160, 320, 640, 1280)]
        with pytest.raises(NotFiniteRange, match="720"):
            numerics.fit_power_law(samples)

    def test_rejections(self):
        with pytest.raises(NonPositiveValue):
            numerics.fit_power_law([(1, 1.0), (2, 2.0), (3, 3.0)])
        with pytest.raises(NonPositiveValue):
            numerics.fit_power_law([(1, 1.0), (2, -2.0), (3, 3.0), (4, 4.0)])
