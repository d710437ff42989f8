import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from nessgeom import gaussian, geometry, liouvillian, models, momentum, numerics
from nessgeom.errors import (
    DegenerateInput,
    NoConvergence,
    NonPositiveValue,
    NotAntisymmetric,
    NotFiniteRange,
    NotReal,
    SingularSylvester,
)

from conftest import dense_slope, rand_antisym, rand_stable_model


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


def _gees_spectrum(x):
    """``(wr, wi)`` of LAPACK's ``gees`` after the workspace query
    ``scipy.linalg.schur`` makes."""
    gees = sla.get_lapack_funcs("gees", (x,))
    lwork = gees(lambda *_: None, x, lwork=-1)[-2][0].real.astype(np.int_)
    _, _, wr, wi, _, _, info = gees(lambda *_: None, x, lwork=lwork)
    assert info == 0
    return wr, wi


# boundary-XY points (n, delta, h), and the seeds and orders of random drifts;
# orders above 75 (80 and 150) take LAPACK's aggressive-deflation QR, the rest
# its small-order one
SCHUR_DRIFTS = [(4, 1.25, 0.3), (20, 1.25, 0.3), (31, 1.25, 0.3), (40, 1.0, 0.01),
                ("random", 1, 7), ("random", 2, 33), ("random", 3, 150)]


class TestSchurSpectrum:
    @pytest.mark.parametrize("case", SCHUR_DRIFTS, ids=str)
    def test_spectrum_is_lapacks_bit_for_bit(self, case, monkeypatch):
        # each 2x2 block [[a, b], [c, a]] of T holds a +- i sqrt|b| sqrt|c|, as in dlanv2
        monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
        if case[0] == "random":
            n = case[2]
            x = np.random.default_rng(case[1]).normal(size=(n, n))
        else:
            x = _boundary_shape(*case)[0].x
        solver = numerics.LyapunovSolver(x)
        assert solver.path == "schur"
        wr, wi = _gees_spectrum(x)
        assert solver.spectrum.real.tobytes() == wr.tobytes()
        assert solver.spectrum.imag.tobytes() == wi.tobytes()

    @pytest.mark.parametrize("n, path", [(20, "schur"), (40, "modes"), (160, "modes")])
    def test_three_gaps_are_one_number(self, n, path, monkeypatch):
        if path == "schur":
            monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
        x = _boundary_shape(n, 1.25, 0.3)[0].x
        assert numerics.LyapunovSolver(x).path == path
        rep = liouvillian.gap_report(x)
        assert rep.delta == rep.delta_xhat == rep.delta_liouville

    def test_three_gaps_are_one_number_on_random_models(self, rng):
        for _ in range(20):
            rep = liouvillian.gap_report(liouvillian.shape_matrices(rand_stable_model(rng, 4)).x)
            assert rep.delta == rep.delta_xhat == rep.delta_liouville


def _boundary_shape(n, delta, h):
    p = models.BoundaryXYParams(delta=delta, h=h, n=n)
    shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
    return shape, models.boundary_xy_shape_derivatives(p)


def _point_on(factor, shape, derivatives):
    """Steady state, tangents, gmax, R, |U| and purity on one factorization,
    called directly; each solve meets the solver's residual bound."""
    def solve(b):
        a = factor.solve(b)
        a = 0.5 * (a - a.T)
        res = np.linalg.norm(shape.x @ a + a @ shape.x.T - b)
        assert res <= 1e-10 * (np.linalg.norm(shape.x) * np.linalg.norm(a) + np.linalg.norm(b))
        return a

    a = solve(shape.b)
    d_a = [solve(liouvillian._tangent_source(a, dx, db)) for dx, db in derivatives.values()]
    modes = gaussian.real_eigenmodes(a)
    qgt = geometry.qgt(modes, geometry.TangentSet(tuple(derivatives), tuple(d_a)))
    return {"a": a, "d_a": np.stack(d_a), "gmax": qgt.gmax(), "R": qgt.r_ratio,
            "U": abs(qgt.u[0, 1]), "purity": gaussian.purity(modes)}


class _OneCell:
    """A modes factorization of a stack of one, read as its one cell's: the
    factor works on stacks, ``_point_on`` on one drift."""

    def __init__(self, factor):
        self.factor = factor
        self.spectrum, self.q = factor.spectrum[0], factor.q[0]
        self._rho = factor._groups[0][2][0] if factor._groups else None

    def solve(self, b):
        return self.factor.solve(b)[0]

    def condition_estimate(self):
        return float(self.factor.condition_estimate()[0])


def _modes(x):
    x = x[None]
    return _OneCell(numerics._ModesFactor(x, numerics._sparse_rows(x), numerics._bath_support(x)))


def _assert_points_agree(got, want, rtol=1e-8):
    for key in ("a", "d_a"):
        assert np.linalg.norm(got[key] - want[key]) <= rtol * np.linalg.norm(want[key]), key
    for key in ("gmax", "R", "purity"):
        if want[key] is None:  # delta = 0: the Fisher matrix is singular on both paths
            assert got[key] is None
        else:
            assert got[key] == pytest.approx(want[key], rel=rtol, abs=0.0), key


def _long_double_refined(factor, x_rows, b, a, steps=3):
    """``a`` refined against the residual ``b - X a - a X^T`` formed in long
    double (X exact in double), each correction solved on ``factor``."""
    cols, vals = x_rows
    b, a = b.astype(np.longdouble), a.astype(np.longdouble)
    for _ in range(steps):
        xa = np.zeros_like(a)
        for s in range(cols.shape[1]):
            xa += vals[:, s, None].astype(np.longdouble) * a[cols[:, s]]
        r = (b - (xa - xa.T)).astype(float)
        da = factor.solve(0.5 * (r - r.T))
        a = a + 0.5 * (da - da.T)
    return a.astype(float)


def _refined_point(got, shape, derivatives):
    """The point of :func:`_point_on` with ``got``'s A and tangents refined
    in long double (each correction solved on the Schur path)."""
    schur, x_rows = numerics._SchurFactor(shape.x), numerics._sparse_rows(shape.x)
    a = _long_double_refined(schur, x_rows, shape.b, got["a"])
    d_a = [_long_double_refined(schur, x_rows, liouvillian._tangent_source(a, dx, db), da)
           for (dx, db), da in zip(derivatives.values(), got["d_a"])]
    modes = gaussian.real_eigenmodes(a)
    qgt = geometry.qgt(modes, geometry.TangentSet(tuple(derivatives), tuple(d_a)))
    return {"a": a, "d_a": np.stack(d_a), "gmax": qgt.gmax(), "R": qgt.r_ratio,
            "U": abs(qgt.u[0, 1]), "purity": gaussian.purity(modes)}


def _record_aberth(monkeypatch):
    """Record each start ``_aberth_roots`` is given and how its first cell
    ended: its reason for failing, or "settled"."""
    aberth, starts, outcomes = numerics._aberth_roots, [], []

    def recorded(mu, weights, start, tol):
        starts.append(start)
        roots, why = aberth(mu, weights, start, tol)
        outcomes.append(why[0] or "settled")
        return roots, why

    monkeypatch.setattr(numerics, "_aberth_roots", recorded)
    return starts, outcomes


# LRMC, SRMC, delta = 0, a weak field, and real roots besides the LRMC edge pair's
MODES_POINTS = [(1.25, 0.3), (1.25, 0.9), (0.0, 0.3), (0.5, 0.02), (1.5, 0.1)]


class TestModesFactor:
    def test_bath_support_reads_the_structure(self, rng):
        shape, _ = _boundary_shape(40, 1.25, 0.3)
        assert numerics._bath_support(shape.x).tolist() == [0, 1, 78, 79]
        x = shape.x.copy()
        x[10, 13] *= 1.0 + 1e-15  # X^T = P X P must hold exactly
        assert numerics._bath_support(x) is None
        assert numerics._bath_support(np.eye(20)) is None  # a bath on every row
        assert numerics._bath_support(rng.normal(size=(20, 20))) is None
        assert numerics._bath_support(np.eye(5)[:, ::-1]) is None  # odd order

    @pytest.mark.parametrize("n", [40, 160, pytest.param(320, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("delta, h", MODES_POINTS)
    def test_matches_schur_path(self, n, delta, h):
        shape, derivatives = _boundary_shape(n, delta, h)
        modes, schur = _modes(shape.x), numerics._SchurFactor(shape.x)
        if (delta, h) == (1.5, 0.1):
            assert modes._rho.size > 0
        # each eigenvalue of either path within 1e-12 ||X|| of one of the other's
        gaps = np.abs(modes.spectrum[:, None] - schur.spectrum[None, :])
        assert modes.spectrum.size == schur.spectrum.size
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12 * np.linalg.norm(
            shape.x, 2)
        _assert_points_agree(_point_on(modes, shape, derivatives),
                             _point_on(schur, shape, derivatives))

    @pytest.mark.slow
    def test_weak_field_lrmc_matches_refined_reference(self):
        # at delta = 1.25, h = 0.02, n = 320 the Schur path's own R is 1.7e-8
        # off the long-double-refined value (the modes path's 4.6e-10), so
        # this point is held to that reference rather than to the Schur path
        shape, derivatives = _boundary_shape(320, 1.25, 0.02)
        got = _point_on(_modes(shape.x), shape, derivatives)
        _assert_points_agree(got, _refined_point(got, shape, derivatives))

    @pytest.mark.slow
    def test_seed5_scaling_point_matches_refined_reference(self):
        # the n = 320 point of the seed-5 chain_scaling run: against the
        # long-double-refined point, the modes path's R and muc are 2.4e-8 off
        # and the Schur path's 1.5e-6 (as is scipy's solve_continuous_lyapunov)
        shape, derivatives = _boundary_shape(320, 1.25, 0.3118290266967333)
        got = _point_on(_modes(shape.x), shape, derivatives)
        ref = _refined_point(got, shape, derivatives)
        for key in ("a", "d_a"):
            assert np.linalg.norm(got[key] - ref[key]) <= 1e-8 * np.linalg.norm(ref[key]), key
        for key in ("R", "U"):
            assert got[key] == pytest.approx(ref[key], rel=1e-7, abs=0.0), key

    def test_modes_path_runs_at_the_scaling_sizes(self):
        # no order floor: the warm-up cell and the smallest scaling size too
        for n in (2, 4, 20, 31, 40, 320):
            solver = numerics.LyapunovSolver(_boundary_shape(n, 1.25, 0.3)[0].x)
            assert (solver.path, solver.fallback) == ("modes", None)

    def test_a_sweep_row_takes_the_modes_path(self):
        # the delta = 1.5 row of the n = 40 sweep grid; at h = 0.891 a
        # mirrored start heads for two real roots and is iterated in full
        for h in (0.041, 0.291, 0.591, 0.891, 1.191):
            solver = numerics.LyapunovSolver(_boundary_shape(40, 1.5, h)[0].x)
            assert (solver.path, solver.fallback) == ("modes", None)
        assert _modes(_boundary_shape(40, 1.5, 0.891)[0].x)._rho.size == 2

    @pytest.mark.parametrize("n", [32, 40, 48, 63])
    def test_small_orders_match_the_refined_reference(self, n):
        # A and the tangents against long-double-refined solutions of the
        # same sources; scipy's own A is only reproduced bit for bit by the
        # Schur path, so gmax and purity are held to it at 1e-6
        shape, derivatives = _boundary_shape(n, 1.25, 0.3)
        x_rows = numerics._sparse_rows(shape.x)
        schur = numerics._SchurFactor(shape.x)
        got = _point_on(_modes(shape.x), shape, derivatives)
        a = _long_double_refined(schur, x_rows, shape.b, got["a"])
        assert np.linalg.norm(got["a"] - a) <= 1e-11 * np.linalg.norm(a)
        for (dx, db), d_a in zip(derivatives.values(), got["d_a"]):
            source = liouvillian._tangent_source(got["a"], dx, db)
            ref = _long_double_refined(schur, x_rows, source, d_a)
            assert np.linalg.norm(d_a - ref) <= 1e-11 * np.linalg.norm(ref)
        a = sla.solve_continuous_lyapunov(shape.x, shape.b)
        a = 0.5 * (a - a.T)
        d_as = []
        for dx, _ in derivatives.values():
            dx = dense_slope(dx, 2 * n)
            d_as.append(sla.solve_continuous_lyapunov(shape.x, -(dx @ a + a @ dx.T)))
        ref = geometry.qgt(1j * a, geometry.TangentSet(tuple(derivatives), tuple(d_as)))
        assert got["gmax"] == pytest.approx(ref.gmax(), rel=1e-6)
        assert got["purity"] == pytest.approx(gaussian.purity(1j * a), rel=1e-6)

    @pytest.mark.parametrize("n", [40, 160, pytest.param(320, marks=pytest.mark.slow)])
    def test_xx_chain_at_zero_field_gives_the_schur_numbers(self, n, monkeypatch):
        # J's singular values pair up and X has double eigenvalues: the
        # modes path refuses before Aberth and the point takes the Schur path
        shape, derivatives = _boundary_shape(n, 0.0, 0.0)
        assert _modes(shape.x).factor.why == ["two singular values of the kernel coincide"]
        point = liouvillian.point_geometry(shape, derivatives)
        monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
        want = liouvillian.point_geometry(shape, derivatives)
        assert point.a.tobytes() == want.a.tobytes() and point.gap == want.gap
        for got, ref in zip(point.tangents.d_a, want.tangents.d_a):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [40, 160])
    def test_stalled_aberth_restarts_and_certifies(self, n, monkeypatch):
        # the flat band of the ordered phase (delta = 1, h = 0.041, a chain_sweep
        # cell): J's singular values cluster, Aberth from the pair guesses gives
        # up after 5 sweeps and settles from LAPACK's eigenvalues
        shape, derivatives = _boundary_shape(n, 1.0, 0.041)
        starts, outcomes = _record_aberth(monkeypatch)
        solver = numerics.LyapunovSolver(shape.x)
        assert (solver.path, solver.fallback) == ("modes", None)
        assert re.fullmatch(r"\d+ of \d+ roots unsettled after 5 Aberth sweeps", outcomes[0])
        assert outcomes[1:] == ["settled"]
        # the restart's layout: the roots above the real axis, half the real
        # ones, their conjugates, the other half
        start = starts[1][0]  # the stack of one's start
        m = np.count_nonzero(start.imag > 0.0)
        assert np.array_equal(start[n:n + m], start[:m].conj())
        assert not np.any(start[m:n].imag) and not np.any(start[n + m:].imag)
        _assert_points_agree(_point_on(_OneCell(solver._modes), shape, derivatives),
                             _point_on(numerics._SchurFactor(shape.x), shape, derivatives))

    def test_near_singular_restart_is_refused_by_its_certificate(self, monkeypatch):
        # test_cli's NEAR_SINGULAR point: the restart settles, but the Cauchy
        # eigenvectors of so tight a cluster miss the eigenpair bound
        shape, _ = _boundary_shape(40, 1.0, 1.1304758631173196e-4)
        _, outcomes = _record_aberth(monkeypatch)
        solver = numerics.LyapunovSolver(shape.x)
        assert outcomes[1:] == ["settled"]
        assert solver.path == "schur" and solver.fallback.startswith("eigenpair bound")

    @pytest.mark.parametrize("n", [40, 160])
    def test_both_starts_stalled_fall_back_to_schur(self, n, monkeypatch):
        shape, _ = _boundary_shape(n, 1.0, 0.041)
        monkeypatch.setattr(numerics, "_ABERTH_MAX_SWEEPS", 1)
        solver = numerics.LyapunovSolver(shape.x)
        assert solver.path == "schur"
        assert re.fullmatch(r"\d+ roots unsettled after 1 Aberth sweeps; from LAPACK's "
                            r"eigenvalues, \d+ roots unsettled after 1 Aberth sweeps",
                            solver.fallback)

    def test_condition_estimate_is_that_of_the_real_basis(self):
        shape, _ = _boundary_shape(40, 1.25, 0.3)
        modes = _modes(shape.x)
        v_r = modes.q.copy()
        v_r[1::2] *= -1.0
        want = np.linalg.norm(v_r) * np.linalg.norm(np.linalg.inv(v_r))
        assert modes.condition_estimate() == pytest.approx(want, rel=1e-10)
        rep = liouvillian.gap_report(shape.x)
        assert rep.condition_estimator == "modes_frobenius"
        assert rep.condition_estimate == modes.condition_estimate()
        assert rep.delta_liouville == rep.delta

    def test_certificate_failure_falls_back_to_schur(self, monkeypatch):
        shape, derivatives = _boundary_shape(160, 1.25, 0.3)
        monkeypatch.setattr(numerics, "_ABERTH_MAX_SWEEPS", 1)
        solver = numerics.LyapunovSolver(shape.x)
        assert solver.path == "schur"
        assert re.fullmatch(r"161 roots unsettled after 1 Aberth sweeps; from LAPACK's "
                            r"eigenvalues, \d+ roots unsettled after 1 Aberth sweeps",
                            solver.fallback)
        point = liouvillian.point_geometry(shape, derivatives)
        monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
        want = liouvillian.point_geometry(shape, derivatives)
        assert point.a.tobytes() == want.a.tobytes() and point.gap == want.gap
        assert point.qgt.gmax() == want.qgt.gmax()

    def test_failed_solve_residual_falls_back_to_schur(self, monkeypatch):
        shape, _ = _boundary_shape(160, 1.25, 0.3)
        solver = numerics.LyapunovSolver(shape.x)
        assert solver.path == "modes"
        spoiled = numerics._ModesFactor.solve
        monkeypatch.setattr(numerics._ModesFactor, "solve",
                            lambda self, b: 1.001 * spoiled(self, b))
        a = solver.solve(shape.b)
        assert solver.path == "schur" and solver.fallback.startswith("solve residual")
        want = numerics._SchurFactor(shape.x).solve(shape.b)
        assert np.array_equal(a, 0.5 * (want - want.T))

    def test_certificate_failure_in_a_stack_is_the_cell_alone(self, monkeypatch):
        # the near-singular cell of test_cli: its restart settles, but its
        # eigenpair bound fails; in a stack of 3 it falls back to Schur inside
        # the stack, with the reason and the A it has alone, and its
        # stack-mates stay on the modes path
        cells = [(1.25, 0.3), (1.0, 1.1304758631173196e-4), (0.5, 0.02)]
        shapes = models.boundary_xy_shapes([models.BoundaryXYParams(d, h, 40) for d, h in cells])
        stacked = numerics.LyapunovSolver(shapes.x)
        a = stacked.solve(shapes.b)
        alone = numerics.LyapunovSolver(_boundary_shape(40, *cells[1])[0].x)
        assert stacked.path == ["modes", "schur", "modes"]
        assert stacked.fallback[1] == alone.fallback and alone.fallback.startswith("eigenpair bound")
        assert stacked.fallback[::2] == [None, None]
        assert a[1].tobytes() == alone.solve(shapes.b).tobytes()
        # with one sweep allowed every cell falls back, each with both starts'
        # reasons as it has them alone
        monkeypatch.setattr(numerics, "_ABERTH_MAX_SWEEPS", 1)
        stacked = numerics.LyapunovSolver(shapes.x)
        a = stacked.solve(shapes.b)
        assert stacked.path == ["schur"] * 3
        for i, cell in enumerate(cells):
            alone = numerics.LyapunovSolver(_boundary_shape(40, *cell)[0].x)
            assert "; from LAPACK's eigenvalues, " in alone.fallback
            assert stacked.fallback[i] == alone.fallback
            assert a[i].tobytes() == alone.solve(shapes.b).tobytes()

    def test_lapack_failure_in_a_stack_is_the_cell_alone(self, monkeypatch):
        # LAPACK failing on one cell's SVD, or on the eigenvalues its restart
        # starts from, sends that cell alone to the Schur path, with the
        # reason it has alone; its stack-mates stay on the modes path
        cells = [(1.25, 0.3), (1.0, 0.041), (0.5, 0.02)]
        shapes = models.boundary_xy_shapes([models.BoundaryXYParams(d, h, 40) for d, h in cells])
        alone_x = shapes.x[1].copy()
        svd, eigvals = np.linalg.svd, np.linalg.eigvals

        def failing(lapack, m):  # on the middle cell's kernel or drift only
            if any(np.array_equal(m, mine) for mine in (alone_x[0::2, 1::2], alone_x)):
                raise np.linalg.LinAlgError("did not converge")
            return lapack(m)

        for name, lapack, reason in (
                ("svd", svd, r"SVD of the kernel failed: did not converge"),
                ("eigvals", eigvals, r"\d+ of \d+ roots unsettled after 5 Aberth sweeps; from "
                 r"LAPACK's eigenvalues, eigenvalues of the drift failed: did not converge")):
            monkeypatch.setattr(np.linalg, name, lambda m, lapack=lapack: failing(lapack, m))
            stacked, alone = numerics.LyapunovSolver(shapes.x), numerics.LyapunovSolver(alone_x)
            assert stacked.path == ["modes", "schur", "modes"] and alone.path == "schur"
            assert re.fullmatch(reason, alone.fallback)
            assert stacked.fallback == [None, alone.fallback, None]
            assert stacked.solve(shapes.b)[1].tobytes() == alone.solve(shapes.b).tobytes()
            monkeypatch.undo()

    def test_failed_solve_residual_in_a_stack_is_the_cell_alone(self, monkeypatch):
        # the modes solve of the middle cell of a stack of 3 is spoiled: it
        # falls back to Schur inside the stack, with the reason and the A it
        # has alone, and its stack-mates stay on the modes path
        cells = [(1.25, 0.5), (1.25, 0.3), (1.5, 0.1)]
        shapes = models.boundary_xy_shapes([models.BoundaryXYParams(d, h, 160) for d, h in cells])
        stacked, alone = numerics.LyapunovSolver(shapes.x), numerics.LyapunovSolver(shapes.x[1])
        want = [stacked.solve(shapes.b)[i] for i in (0, 2)]
        spoiled = numerics._ModesFactor.solve
        scale = {3: np.array([1.0, 1.001, 1.0])[:, None, None], 1: 1.001}
        monkeypatch.setattr(numerics._ModesFactor, "solve",
                            lambda self, b: scale[len(self.why)] * spoiled(self, b))
        a, a_alone = stacked.solve(shapes.b), alone.solve(shapes.b)
        assert stacked.path == ["modes", "schur", "modes"]
        assert alone.path == "schur" and alone.fallback.startswith("solve residual")
        assert stacked.fallback == [None, alone.fallback, None]
        assert a[1].tobytes() == a_alone.tobytes()
        assert [a[i].tobytes() for i in (0, 2)] == [w.tobytes() for w in want]

    def test_singular_secular_matrix_is_an_exact_root(self):
        # an exactly singular M gives a finite solution along its null vector,
        # so the Newton step 1/(poles + tr(M^-1 s G_2)) vanishes to rounding
        m = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
        g2 = np.array([np.eye(2), np.eye(2)], dtype=complex)
        y = numerics._secular_solve(m, g2)
        assert np.all(np.isfinite(y))
        steps = 1.0 / (1.0 + np.einsum("naa->n", y))
        assert steps[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert abs(steps[1]) <= 1e-15
        assert np.abs(y[1, 0]).max() <= 1e-15 * np.abs(y[1, 1]).max()  # along e_2

    def test_divide_by_pair_sums_solves_the_real_block_form(self, rng):
        m, q = 5, 3
        alpha, beta, rho = rng.uniform(0.1, 1.0, m), rng.normal(size=m), rng.uniform(0.1, 1.0, q)
        lam = np.zeros((2 * m + q, 2 * m + q))  # a 2x2 block per pair, then the reals
        pairs = np.arange(m)
        lam[2 * pairs, 2 * pairs] = lam[2 * pairs + 1, 2 * pairs + 1] = alpha
        lam[2 * pairs, 2 * pairs + 1], lam[2 * pairs + 1, 2 * pairs] = beta, -beta
        lam[2 * m:, 2 * m:] = np.diag(rho)
        c = rand_antisym(rng, 2 * m + q)
        z = c.copy()
        numerics._divide_by_pair_sums(z, alpha + 1j * beta, rho, block=2)
        assert np.linalg.norm(lam @ z + z @ lam.T - c) <= 1e-13 * np.linalg.norm(c)

    def test_sparse_product_matches_the_dense_one(self, rng):
        x = np.where(rng.uniform(size=(70, 70)) < 0.05, rng.normal(size=(70, 70)), 0.0)
        x[3] = 0.0  # an empty row
        rows = numerics._sparse_rows(x)
        for a in (rng.normal(size=(70, 70)), rng.normal(size=(70, 9)) + 1j * rng.normal(size=(70, 9))):
            got = numerics._sparse_product(rows, a)
            assert np.linalg.norm(got - x @ a) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(a)
        assert numerics._sparse_rows(rng.normal(size=(10, 10))) is None

    def test_modes_factor_and_solve_hold_few_arrays(self, rng):
        import tracemalloc

        n = 256
        d = 2 * n
        shape, derivatives = _boundary_shape(n, 1.25, 0.3)
        _modes(shape.x)
        tracemalloc.start()
        try:
            solver = numerics.LyapunovSolver(shape.x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert solver.path == "modes"
        # q alone, where the Schur path holds T and U
        assert held <= 1.1 * 8 * d * d
        source = liouvillian._tangent_source(solver.solve(shape.b), *derivatives["h"])
        tracemalloc.start()
        try:
            solver.solve(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two d x d arrays and a few blocks, as on the Schur path
        assert peak <= 2.5 * 8 * d * d
