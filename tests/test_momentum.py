import time
import warnings

import numpy as np
import pytest

from nessgeom import cli, momentum, numerics
from nessgeom.errors import CriticalAngle, DimensionMismatch, NoConvergence, NotFiniteRange
from nessgeom.models import build_reservoir_chain, build_rotated_xy_dissipative

import symbol_oracles


def reservoir(lam=0.5, theta=0.3):
    return build_reservoir_chain(lam, theta)


def rot_xy(**kw):
    eps = kw.pop("epsilon", 1e-3)
    return build_rotated_xy_dissipative(
        kw["delta"], kw["h"], kw["theta"], kw["mu_minus"], kw["mu_plus"], eps
    )


def models_rotated(delta, h, theta):
    return build_rotated_xy_dissipative(delta, h, theta, 1.0, 0.4, 1e-3)


ROT_PARAMS = {"delta": 0.5, "h": 0.5, "theta": 0.7, "mu_minus": 1.0, "mu_plus": 0.4}


class TestSymbolShape:
    def test_no_bath_means_no_source(self):
        model = momentum.SymbolModel(
            h_blocks={0: np.array([[0.0, -0.5j], [0.5j, 0.0]])}, jumps=[]
        )
        _, _, y = model.symbols(np.exp(0.7j))
        np.testing.assert_allclose(y, 0.0, atol=1e-14)

    def test_real_even_bath_means_no_source(self):
        # a single real on-site jump: m real symmetric, phi-independent
        model = momentum.SymbolModel(h_blocks={}, jumps=[{0: np.array([1.0, 0.5])}])
        _, _, y = model.symbols(np.exp(1.1j))
        np.testing.assert_allclose(y, 0.0, atol=1e-14)

    def test_reservoir_drift_eigenvalues(self):
        lam, theta = 0.7, 0.4
        model = reservoir(lam, theta)
        nl = 4.0 * (lam**2 + lam + 1.0)
        for phi in (0.0, 0.9, 2.2):
            x = model.symbols(np.exp(1j * phi))[0][0, 0]
            eigs = np.sort(np.real(np.linalg.eigvals(x)))
            expect = sorted(
                [4 * (1 + lam) ** 2 / nl**2, 4 * (1 + 2 * lam * np.cos(phi) + lam**2) / nl**2]
            )
            np.testing.assert_allclose(eigs, expect, atol=1e-12)


class TestSymbolCovariance:
    def test_zero_source_zero_symbol(self):
        # two independent real on-site jumps: full-rank drift, zero source
        model = momentum.SymbolModel(
            h_blocks={}, jumps=[{0: np.array([1.0, 0.5])}, {0: np.array([0.3, -1.2])}]
        )
        gam = momentum.symbol_covariance(model, 0.9)
        np.testing.assert_allclose(gam, 0.0, atol=1e-13)

    def test_reservoir_matches_closed_form(self):
        model = reservoir(0.5, 0.3)
        phis = np.array([0.3, 1.4, -2.0])
        np.testing.assert_allclose(
            momentum.symbol_covariance(model, phis),
            symbol_oracles.reservoir_gamma(0.5, 0.3, phis),
            atol=1e-12,
        )

    def test_rotated_xy_weak_coupling_limit(self):
        model = rot_xy(**ROT_PARAMS, epsilon=1e-4)
        phis = np.array([0.3, 1.2, 2.5, -0.8])
        limit = symbol_oracles.rotated_xy_gamma(**ROT_PARAMS, phis=phis)
        dev = np.max(np.abs(momentum.symbol_covariance(model, phis) - limit))
        assert dev < 1e-6

    def test_det_bounded_by_one(self):
        for model in (reservoir(0.8, 0.2), rot_xy(**ROT_PARAMS)):
            phis = np.linspace(-np.pi, np.pi, 64, endpoint=False)
            dets = np.real(np.linalg.det(momentum.symbol_covariance(model, phis)))
            assert np.max(dets) <= 1.0 + 1e-10

    def test_critical_angle_flagged(self):
        model = reservoir(-1.0, 0.3)
        with pytest.raises(CriticalAngle):
            momentum.symbol_covariance(model, 0.0)
        # off the circle too: at lam = -1 the drift is singular at every z
        with pytest.raises(CriticalAngle):
            momentum.gamma_at_points(reservoir(-1.0, 0.0), np.array([0.5, 0.3j, 2.0]))


RESERVOIR_POINTS = [{"lam": 0.5, "theta": 0.3}, {"lam": -1.3, "theta": 1.1},
                    {"lam": 1.7, "theta": 2.4}]
ROTATED_POINTS = [
    {"delta": 0.5, "h": 0.5, "theta": 0.7, "mu_minus": 1.0, "mu_plus": 0.4, "epsilon": 1e-3},
    {"delta": 1.1, "h": 1.4, "theta": 0.2, "mu_minus": 0.7, "mu_plus": 0.9, "epsilon": 1e-2},
    {"delta": 0.8, "h": -0.3, "theta": 2.0, "mu_minus": 1.0, "mu_plus": 0.3, "epsilon": 0.1},
]
BUILDER_POINTS = [(build_reservoir_chain, p) for p in RESERVOIR_POINTS] + [
    (build_rotated_xy_dissipative, p) for p in ROTATED_POINTS
]


def _jump_blocks(model):
    return {(a, u): v for a, fam in enumerate(model.jumps) for u, v in fam.items()}


def _derivative_jump_blocks(model, name):
    fams = model.dl.get(name, [{}] * len(model.jumps))
    return {(a, u): v for a, fam in enumerate(fams) for u, v in fam.items()}


def _assert_blocks_close(exact, reference, base):
    scale = max([np.max(np.abs(b)) for b in [*reference.values(), *base.values()]] + [1e-300])
    for key in set(exact) | set(reference):
        dev = np.max(np.abs(exact.get(key, 0.0) - reference.get(key, 0.0)))
        assert dev <= 1e-8 * scale, (key, dev, scale)


class TestExactTangents:
    @pytest.mark.parametrize("builder, params", BUILDER_POINTS)
    def test_derivative_blocks_match_central_differences(self, builder, params):
        model = builder(**params)
        for name in params:
            step = 1e-5 * max(1.0, abs(params[name]))
            up = builder(**dict(params, **{name: params[name] + step}))
            dn = builder(**dict(params, **{name: params[name] - step}))
            for exact, blocks in (
                (model.dh.get(name, {}), lambda m: m.h_blocks),
                (_derivative_jump_blocks(model, name), _jump_blocks),
                (model.dm_blocks.get(name, {}), lambda m: m.m_blocks),
            ):
                hi, lo = blocks(up), blocks(dn)
                central = {
                    k: (hi.get(k, 0.0) - lo.get(k, 0.0)) / (2.0 * step) for k in set(hi) | set(lo)
                }
                _assert_blocks_close(exact, central, blocks(model))

    def test_underivable_parameter_rejected(self):
        with pytest.raises(DimensionMismatch):
            momentum.gamma_at_points(reservoir(), np.array([0.5]), ("mu",))

    @pytest.mark.parametrize("params", RESERVOIR_POINTS)
    def test_tangents_match_reservoir_closed_form(self, params):
        model = build_reservoir_chain(**params)
        phis = np.linspace(-np.pi, np.pi, 64, endpoint=False) + 0.0123
        names = ("lam", "theta")
        _, tangents = momentum.gamma_at_points(model, np.exp(1j * phis), names)
        closed = np.array([symbol_oracles.reservoir_dgamma(n, **params, phis=phis) for n in names])
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(tangents - closed)) <= 1e-12 * scale

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
    @pytest.mark.parametrize("params", ROTATED_POINTS)
    def test_tangents_approach_rotated_closed_form(self, params, epsilon):
        # the closed form is the epsilon -> 0 limit of the solved symbol; the
        # solved tangents leave it at order epsilon^2 (about 1.4 epsilon^2
        # times the tangent scale at these points)
        model = build_rotated_xy_dissipative(**dict(params, epsilon=epsilon))
        phis = np.linspace(-np.pi, np.pi, 64, endpoint=False) + 0.0123
        names = ("delta", "h", "theta")
        _, tangents = momentum.gamma_at_points(model, np.exp(1j * phis), names)
        limit = {k: params[k] for k in ("delta", "h", "theta", "mu_minus", "mu_plus")}
        closed = np.array([symbol_oracles.rotated_xy_dgamma(n, **limit, phis=phis) for n in names])
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(tangents - closed)) <= 2.0 * epsilon**2 * scale

    def test_modes_agree_without_closed_forms(self):
        # a chain with next-neighbour jumps and no closed-form symbols: the
        # quadrature runs on the tangent kernel on the circle, the residue
        # mode on the same kernel at complex points
        k0 = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        k1 = np.array([[0.0, 0.125j], [-0.375j, 0.0]])
        c_minus, c_plus, c_next = np.array([0.5, -0.5j]), np.array([0.5, 0.5j]), np.array([0.3, 0.1j])

        def builder(a, b):
            return momentum.SymbolModel(
                h_blocks={0: a * k0, 1: k1, -1: -k1.T},
                jumps=[{0: c_minus, 1: b * c_next}, {0: 0.4 * c_plus}],
                dh={"a": {0: k0}},
                dl={"b": [{1: c_next}, {}]},
            )

        model = builder(a=0.6, b=0.7)
        uq = momentum.muc_per_site(model, ("a", "b"), mode="quadrature", tol=1e-12)
        ur = momentum.muc_per_site(model, ("a", "b"), mode="residue")
        assert abs(uq) > 1e-3
        assert abs(uq - ur) < 1e-10


class TestRationalize:
    def test_constant_symbols_degree_zero(self):
        model = momentum.SymbolModel(
            h_blocks={0: np.array([[0.0, -0.5j], [0.5j, 0.0]])},
            jumps=[{0: np.array([0.5, -0.5j])}],
        )
        # gamma~ constant in z: correlations vanish beyond r = 0 and the
        # correlation length is flagged trivially short ranged
        g0 = symbol_oracles.real_space_correlation(model, 0)
        g1 = symbol_oracles.real_space_correlation(model, 1)
        assert np.max(np.abs(g1)) < 1e-10 * max(np.max(np.abs(g0)), 1e-10)
        cl = momentum.correlation_length(model)
        assert cl.kind == "short_range_trivial" and cl.xi == 0.0

    def test_reservoir_denominator_roots(self):
        # d contains the paper quadratic's inner root (twice, through two
        # pair factors, so raw roots split at the sqrt of rounding)
        rat = momentum.rationalize(reservoir(1.0, 0.3))
        roots = numerics.polynomial_roots(rat.d)
        expect = -3 + 2 * np.sqrt(2)
        assert np.min(np.abs(roots - expect)) < 1e-5

    def test_grid_invariant(self):
        model = rot_xy(**ROT_PARAMS)
        rat = momentum.rationalize(model)
        phis = np.linspace(-np.pi, np.pi, 32, endpoint=False) + 0.05
        np.testing.assert_allclose(
            rat.gamma_at(np.exp(1j * phis)),
            momentum.symbol_covariance(model, phis),
            atol=1e-8,
        )

    def test_reach_beyond_64_rejected_in_both_pipelines(self):
        # a jump coupling cells 65 apart: rationalize and the residue-mode
        # MUC share the evaluation-interpolation step and its reach guard
        model = momentum.SymbolModel(
            h_blocks={0: np.array([[0.0, -0.5j], [0.5j, 0.0]])},
            jumps=[{0: np.array([0.5, -0.5j]), 65: np.array([0.1, 0.2j])}],
        )
        assert model.reach == 65
        with pytest.raises(NotFiniteRange):
            momentum.rationalize(model)
        with pytest.raises(NotFiniteRange):
            momentum.muc_per_site(model, ("a", "b"), mode="residue")


class TestAdjugate:
    def test_nonsingular_batch_matches_det_inverse(self, rng):
        a = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        expect = np.linalg.det(a)[:, None, None] * np.linalg.inv(a)
        np.testing.assert_allclose(
            momentum._adjugate4(a), expect, atol=1e-12 * np.max(np.abs(expect))
        )

    def test_rank_three_batch_annihilates(self, rng):
        # adj(a) a = det(a) 1 = 0 for a singular a, while adj(a) != 0 at rank 3
        u = rng.normal(size=(50, 4, 3)) + 1j * rng.normal(size=(50, 4, 3))
        v = rng.normal(size=(50, 3, 4)) + 1j * rng.normal(size=(50, 3, 4))
        a = u @ v
        adj = momentum._adjugate4(a)
        scale = np.max(np.abs(adj), axis=(1, 2))
        assert np.min(scale) > 1e-6
        assert np.max(np.max(np.abs(adj @ a), axis=(1, 2)) / scale) < 1e-12 * np.max(np.abs(a))


class TestCorrelationLength:
    def test_reservoir_at_unit_coupling(self):
        cl = momentum.correlation_length(reservoir(1.0, 0.3))
        assert cl.kind == "finite"
        assert cl.xi == pytest.approx(-1.0 / np.log(3 - 2 * np.sqrt(2)), rel=1e-6)
        assert abs(cl.dominant_pole) == pytest.approx(3 - 2 * np.sqrt(2), rel=1e-6)

    def test_divergence_towards_minus_one(self):
        for theta in (0.0, 0.3):
            xi_values = []
            for lam in (-0.99, -0.999, -0.9995):
                cl = momentum.correlation_length(reservoir(lam, theta))
                xi_values.append(cl.xi)
            assert xi_values[0] < xi_values[1] < xi_values[2]
            assert xi_values[2] > 1e3

    def test_exact_critical_point(self):
        cl = momentum.correlation_length(reservoir(-1.0, 0.3))
        assert cl.kind in ("critical", "short_range_trivial")

    def test_analytic_pole_positions(self):
        for theta in (0.0, 0.3):
            for lam in (-1.9, -1.3, -1.04, -0.99, -0.96, 0.06, 0.5, 1.0, 2.0):
                cl = momentum.correlation_length(reservoir(lam, theta))
                b = 2.0 * (1 + lam + lam**2)
                roots = np.roots([lam, b, lam])
                zin = np.min(np.abs(roots))
                assert cl.kind == "finite"
                assert cl.xi == pytest.approx(-1.0 / np.log(zin), rel=1e-10)

    def test_rotated_xy_critical_cell_matches_real_axis_bisection(self):
        # h = 1: d(z) has a reciprocal pair at 1 -+ 1.25e-6, so xi ~ 8e5 is
        # far longer than any FFT window; the reference root of the locally
        # assembled det xhat(x) is bisected on the real axis
        model = rot_xy(delta=0.5, h=1.0, theta=0.0, mu_minus=1.0, mu_plus=0.5)

        def det_re(x):
            z = np.array([x])
            x, x_inv, _ = model.symbols(z)
            return np.linalg.det(momentum._xhat(x[0], x_inv[0]))[0].real

        lo, hi = 1.0 - 1e-5, 1.0 - 1e-7
        f_lo = det_re(lo)
        assert f_lo * det_re(hi) < 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.sign(det_re(mid)) == np.sign(f_lo):
                lo = mid
            else:
                hi = mid
        xi_ref = -1.0 / np.log(0.5 * (lo + hi))
        cl = momentum.correlation_length(model)
        assert cl.kind == "finite"
        assert cl.xi == pytest.approx(xi_ref, rel=1e-8)
        assert cl.xi == pytest.approx(799999.99997, rel=1e-8)

    def test_rotated_xy_near_critical_matches_tail_ratio(self):
        # h = 0.999: one pole dominates gamma(r) for r >= 2000, so the ratio
        # of FFT tail norms at r = 2000 and 4000 gives xi to rounding
        model = rot_xy(delta=0.5, h=0.999, theta=0.0, mu_minus=1.0, mu_plus=0.5)
        n = 1 << 18
        phis = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        blocks = np.fft.ifft(momentum.symbol_covariance(model, phis), axis=0)
        norms = np.linalg.norm(blocks.reshape(n, 4), axis=1)
        xi_ref = 2000.0 / np.log(norms[2000] / norms[4000])
        cl = momentum.correlation_length(model)
        assert cl.xi == pytest.approx(xi_ref, rel=1e-8)
        assert cl.xi == pytest.approx(498.99823, rel=1e-7)

    @pytest.mark.parametrize("lam", [-0.999, -0.9995, -0.9999])
    def test_pinch_cells_match_the_analytic_pole(self, lam):
        # the inner root of lam z^2 + b z + lam, b = 2 (1 + lam + lam^2), with
        # b^2 - 4 lam^2 = 2 (1 + lam)^2 (b - 2 lam) written without cancellation
        eps = 1.0 + lam
        b = 2.0 * (1.0 + lam + lam**2)
        sq = eps * np.sqrt(2.0 * (b - 2.0 * lam))
        xi_ref = -1.0 / np.log1p(-(2.0 * eps**2 + sq) / (b + sq))
        momentum.correlation_length(reservoir(lam, 0.0))  # warm-up
        for theta in (0.0, 0.3, 1.1):
            costs = []
            for _ in range(3):  # best of three: the machine may be shared
                start = time.perf_counter()
                cl = momentum.correlation_length(reservoir(lam, theta))
                costs.append(time.perf_counter() - start)
            assert cl.kind == "finite"
            assert cl.xi == pytest.approx(xi_ref, rel=2e-9)
            assert min(costs) <= 0.05

    def test_rotated_xy_critical_field_off_the_real_axis(self):
        # xi does not depend on theta; at theta = 0.3 the decay fit used to
        # give up with NoConvergence
        on_axis, off_axis = (
            momentum.correlation_length(rot_xy(delta=0.5, h=1.0, theta=theta, mu_minus=1.0,
                                               mu_plus=0.5))
            for theta in (0.0, 0.3)
        )
        assert off_axis.kind == "finite" and np.isfinite(off_axis.xi)
        assert off_axis.xi == pytest.approx(on_axis.xi, rel=1e-9)

    def test_unresolved_outer_island_is_named(self, monkeypatch):
        # one contour point cap below what the islands need: no island
        # resolves, and the refusal names the island and the reason
        monkeypatch.setattr(momentum, "ISLAND_MAX_POINTS", 32)
        with pytest.raises(NoConvergence) as err:
            momentum.correlation_length(rot_xy(delta=0.5, h=1.0, theta=0.0, mu_minus=1.0,
                                               mu_plus=0.5))
        message = str(err.value)
        assert "could hold the outermost pole" in message
        assert "contour radius" in message and "its contour failed" in message

    def test_singular_pencil_reads_as_critical(self):
        # lam = -1: det xhat vanishes at every z (to rounding at theta = 0.3)
        model = reservoir(-1.0, 0.3)
        assert momentum._pencil_roots(model) is None
        with pytest.raises(CriticalAngle):
            symbol_oracles.real_space_correlation(model, 1)

    def test_island_contour_resolves_critical_cell(self):
        # the inside root at 1 - 1.25e-6 is one island whose contour of
        # local solves converges quickly and whose winding matches
        islands, _ = momentum.pole_structure(rot_xy(delta=0.5, h=1.0, theta=0.0, mu_minus=1.0,
                                                    mu_plus=0.5))
        outer = max(islands, key=lambda isl: abs(isl.center))
        assert outer.resolved and not outer.removable
        assert outer.points <= 256
        assert abs(outer.poles[0]) == pytest.approx(1.0 - 1.25e-6, abs=1e-11)


class TestPencilRoots:
    @pytest.mark.parametrize("model", [reservoir(0.5, 0.3), reservoir(1.0, 0.3),
                                       rot_xy(**ROT_PARAMS)], ids=["lam=0.5", "lam=1", "rot"])
    def test_islands_cover_the_roots_of_the_rational_denominator(self, model):
        # away from the lam -> -1 pinch the FFT coefficients of d are clean:
        # every root of d inside the disk and off the origin block lies in an
        # island of pencil candidates, and every pole the contours locate is
        # a root of d
        islands, _ = momentum.pole_structure(model)
        roots = numerics.polynomial_roots(momentum.rationalize(model).d)
        inside = roots[(np.abs(roots) > momentum.ORIGIN_RADIUS) & (np.abs(roots) < 1.0)]
        assert inside.size
        for r in inside:
            assert any(abs(r - isl.center) < isl.radius for isl in islands)
        poles = np.concatenate([isl.poles for isl in islands if isl.resolved])
        assert poles.size
        for p in poles:
            assert np.min(np.abs(roots - p)) < 1e-6 * abs(p)

    def test_constant_symbol_has_no_candidates(self):
        model = momentum.SymbolModel(
            h_blocks={0: np.array([[0.0, -0.5j], [0.5j, 0.0]])},
            jumps=[{0: np.array([0.5, -0.5j])}],
        )
        assert momentum._pencil_roots(model).size == 0


class TestContourIntegral:
    def test_residue_of_simple_pole(self):
        val, points = momentum._contour_integral(
            lambda z: 3.0 / (z - 0.2), 0.0, 0.5, tol=1e-12
        )
        assert val == pytest.approx(3.0, abs=1e-12)
        assert points <= 256

    def test_pole_on_contour_raises_with_estimate(self):
        pole = np.exp(0.3j)  # on the unit circle, never on a sample point
        with pytest.raises(NoConvergence) as err:
            momentum._contour_integral(lambda z: 1.0 / (z - pole), 0.0, 1.0)
        assert err.value.last_estimate is not None

    def test_no_convergence_says_where_it_stopped(self):
        pole = np.exp(0.3j)
        with pytest.raises(NoConvergence) as err:
            momentum._contour_integral(lambda z: 1.0 / (z - pole), 0.0, 1.0, max_points=256)
        message = str(err.value)
        assert "at 256 points" in message
        assert "times its target" in message


class TestRealSpaceCorrelation:
    def test_matches_quadrature(self):
        model = reservoir(1.0, 0.3)
        for r in (0, 1, 3, 8):
            res = symbol_oracles.real_space_correlation(model, r)
            quad = symbol_oracles.real_space_correlation_quadrature(model, r)
            assert np.max(np.abs(res - quad)) < 1e-8

    def test_exponential_decay_slope(self):
        model = reservoir(1.0, 0.3)
        cl = momentum.correlation_length(model)
        rs = np.arange(6, 16)
        norms = [np.max(np.abs(symbol_oracles.real_space_correlation(model, int(r)))) for r in rs]
        slope = np.polyfit(rs, np.log(norms), 1)[0]
        assert slope == pytest.approx(-1.0 / cl.xi, rel=1e-6)

    def test_slow_decay_near_criticality(self):
        model = rot_xy(delta=0.5, h=0.999, theta=0.3, mu_minus=1.0, mu_plus=0.4)
        cl = momentum.correlation_length(model)
        assert cl.xi > 50.0  # slow decay flagged by a large correlation length
        g5 = symbol_oracles.real_space_correlation(model, 5)
        quad5 = symbol_oracles.real_space_correlation_quadrature(model, 5, tol=1e-9)
        assert np.max(np.abs(g5 - quad5)) < 1e-6

    def test_negative_r_rejected(self):
        with pytest.raises(DimensionMismatch):
            symbol_oracles.real_space_correlation(reservoir(0.5, 0.3), -1)


class TestMucPerSite:
    def test_modes_agree_on_random_noncritical_points(self, rng):
        worst = 0.0
        for _ in range(6):
            lam = float(rng.uniform(-0.8, 2.0))
            if abs(lam - 1.0) < 0.1 or abs(lam + 1.0) < 0.2:
                continue
            theta = float(rng.uniform(0.0, np.pi))
            pars = {"lam": lam, "theta": theta}
            uq = momentum.muc_per_site(
                reservoir(**pars), ("lam", "theta"), mode="quadrature", tol=1e-10
            )
            ur = momentum.muc_per_site(reservoir(**pars), ("lam", "theta"), mode="residue")
            worst = max(worst, abs(uq - ur))
        assert worst < 1e-6

    def test_modes_agree_at_spec_reference_point(self):
        # u_{h theta} of the rotated XY at (delta, h) = (0.5, 0.5)
        pars = dict(ROT_PARAMS)
        uq = momentum.muc_per_site(rot_xy(**pars), ("h", "theta"), mode="quadrature", tol=1e-10)
        ur = momentum.muc_per_site(rot_xy(**pars), ("h", "theta"), mode="residue")
        assert abs(uq - ur) < 1e-6

    def test_modes_agree_twenty_noncritical_points(self, rng):
        # ten per model, mixing pairs with nonzero curvature values
        worst = 0.0
        count = 0
        while count < 10:
            lam = float(rng.uniform(-0.8, 2.0))
            if abs(lam - 1.0) < 0.15 or abs(lam + 1.0) < 0.2:
                continue
            pars = {"lam": lam, "theta": float(rng.uniform(0.0, np.pi))}
            uq = momentum.muc_per_site(
                reservoir(**pars), ("lam", "theta"), mode="quadrature", tol=1e-9
            )
            ur = momentum.muc_per_site(reservoir(**pars), ("lam", "theta"), mode="residue")
            worst = max(worst, abs(uq - ur))
            count += 1
        for i in range(10):
            inside = i % 2 == 0
            pars = {
                "delta": float(rng.uniform(0.3, 1.2)),
                "h": float(rng.uniform(-0.8, 0.8)) if inside else float(rng.uniform(1.15, 1.8)),
                "theta": float(rng.uniform(0.0, np.pi)),
                "mu_minus": 1.0,
                "mu_plus": 0.4,
            }
            pair = ("delta", "theta") if inside else ("h", "theta")
            uq = momentum.muc_per_site(rot_xy(**pars), pair, mode="quadrature", tol=1e-9)
            ur = momentum.muc_per_site(rot_xy(**pars), pair, mode="residue")
            worst = max(worst, abs(uq - ur))
        assert worst < 1e-6

    @pytest.mark.parametrize("lam", [-1.1262, -1.0502, -1.02, -0.98, -0.9445, -0.9])
    def test_residue_mode_settles_beside_the_pinch(self, lam):
        # the contour radius approaches the unit circle as lam -> -1; exact
        # tangents keep the density smooth enough for the 1e-13 stopping test
        for theta in (0.0, 0.3, 1.1):
            pars = {"lam": lam, "theta": theta}
            model = build_reservoir_chain(**pars)
            uq = momentum.muc_per_site(model, ("lam", "theta"), mode="quadrature", tol=1e-10)
            ur = momentum.muc_per_site(model, ("lam", "theta"), mode="residue")
            assert abs(uq - ur) < 1e-10, (lam, theta, uq, ur)

    def test_residue_grid_point_budget(self, monkeypatch):
        # every cell of a fixed residue-mode grid settles within 4,096
        # contour points in all: noise in the density would make the contour
        # keep doubling
        points = []
        solve = momentum.gamma_at_points

        def counted(model, z, *args):
            points.append(np.size(z))
            return solve(model, z, *args)

        monkeypatch.setattr(momentum, "gamma_at_points", counted)
        spec = cli.SweepSpec(model="reservoir_chain", axes=cli._parse_grid(["lam=-1.1:1.9:0.6"]))
        _, grid = spec.grid()
        assert grid.shape == (6, 1)
        for (lam,) in grid:
            points.clear()
            cli.evaluate_point("reservoir_chain", {"lam": lam, "muc_mode": "residue"}, ("muc",))
            assert 0 < sum(points) <= 4096, (lam, sum(points))

    @pytest.mark.parametrize("pair", [("lam",), ("lam", "theta", "lam")])
    def test_pair_of_other_than_two_names_rejected(self, pair):
        with pytest.raises(DimensionMismatch):
            momentum.muc_integrand(reservoir(), pair)
        for mode in ("quadrature", "residue"):
            with pytest.raises(DimensionMismatch):
                momentum.muc_per_site(reservoir(), pair, mode=mode)

    def test_rotated_xy_delta_h_vanishes(self, rng):
        # the (delta, h) curvature vanishes in the weak-coupling limit; at
        # finite epsilon it is O(epsilon^2) (-5.6e-8 at epsilon = 1e-3 on the
        # first sample, in both modes), so the limit is read at epsilon = 1e-6
        for _ in range(5):
            pars = {
                "delta": float(rng.uniform(0.2, 1.5)),
                "h": float(rng.uniform(-0.9, 0.9)),
                "theta": float(rng.uniform(0, np.pi)),
                "mu_minus": 1.0,
                "mu_plus": 0.4,
                "epsilon": 1e-6,
            }
            val = momentum.muc_per_site(rot_xy(**pars), ("delta", "h"), mode="quadrature")
            assert abs(val) < 1e-10

    def test_rotated_xy_h_theta_jump(self):
        vals = {}
        for h in (0.95, 1.05):
            pars = dict(ROT_PARAMS)
            pars["h"] = h
            vals[h] = momentum.muc_per_site(rot_xy(**pars), ("h", "theta"), mode="quadrature")
        assert abs(vals[1.05] - vals[0.95]) > 0.05

    def test_rotated_xy_critical_field_is_not_critical(self):
        # at h = 1 the Hamiltonian symbol vanishes at phi = 0, but the
        # finite-epsilon drift stays regular there: no CriticalAngle
        pars = dict(ROT_PARAMS, h=1.0)
        u_of = momentum.muc_integrand(rot_xy(**pars), ("h", "theta"))
        assert np.all(np.isfinite(u_of(np.array([0.0, 1e-6, 0.3]))))
        assert np.isfinite(
            momentum.muc_per_site(rot_xy(**pars), ("h", "theta"), mode="quadrature")
        )

    @pytest.mark.parametrize("epsilon", [0.1, 0.3])
    def test_rotated_xy_quadrature_follows_epsilon(self, epsilon):
        # the quadrature reads the solved symbol at the cell's epsilon, not
        # its epsilon -> 0 limit (which gives -3.9e-18 for every epsilon)
        params = {"delta": 0.5, "h": 0.5, "theta": 0.3, "epsilon": epsilon}
        quad, res = (
            cli.evaluate_point("rotated_xy", dict(params, muc_mode=mode), ("muc",))["muc"]
            for mode in ("quadrature", "residue")
        )
        assert abs(res) > 1e-6
        assert quad == pytest.approx(res, rel=1e-8)

    def test_reservoir_near_critical_coupling_names_the_angle(self):
        # at lam = -1 + 1e-9 the drift symbol is singular at phi = 0 in
        # floating point: the quadrature raises CriticalAngle and divides by
        # nothing on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CriticalAngle):
                cli.evaluate_point("reservoir_chain", {"lam": -1.0 + 1e-9, "theta": 0.3}, ("muc",))

    def test_reservoir_jump_across_critical_coupling(self):
        u_lo = momentum.muc_per_site(reservoir(-1.05, 0.3), ("lam", "theta"), mode="quadrature")
        u_hi = momentum.muc_per_site(reservoir(-0.95, 0.3), ("lam", "theta"), mode="quadrature")
        assert abs(u_hi - u_lo) > 0.1

    def test_finite_ring_consistency(self):
        # U_{lam,theta}/n on a 14-cell ring approaches the per-site value
        from nessgeom import geometry, liouvillian

        lam, theta = 0.5, 0.3
        u_inf = momentum.muc_per_site(reservoir(lam, theta), ("lam", "theta"), mode="quadrature")
        n = 14

        def gamma_of(p):
            ring = symbol_oracles.to_lindblad_model(reservoir(p[0], p[1]), n)
            return liouvillian.ness_covariance(liouvillian.shape_matrices(ring)).gamma

        tang = geometry.tangents_finite_difference(gamma_of, np.array([lam, theta]))
        res = geometry.qgt(gamma_of(np.array([lam, theta])), tang)
        assert res.u[0, 1] / n == pytest.approx(u_inf, abs=2e-4)

    def test_finite_ring_consistency_rotated_xy(self):
        # same cross-pipeline check on a model with a Hamiltonian part
        from nessgeom import geometry, liouvillian

        pars = {"delta": 0.5, "h": 1.3, "theta": 0.7, "mu_minus": 1.0, "mu_plus": 0.4}
        u_inf = momentum.muc_per_site(rot_xy(**pars), ("h", "theta"), mode="quadrature")
        devs = []
        for n in (10, 14):
            def gamma_of(p, n=n):
                m = models_rotated(pars["delta"], p[0], p[1])
                ring = symbol_oracles.to_lindblad_model(m, n)
                return liouvillian.ness_covariance(liouvillian.shape_matrices(ring)).gamma

            pt = np.array([pars["h"], pars["theta"]])
            tang = geometry.tangents_finite_difference(gamma_of, pt)
            res = geometry.qgt(gamma_of(pt), tang)
            devs.append(abs(res.u[0, 1] / n - u_inf))
        assert devs[1] < devs[0]  # converging with ring size
        assert devs[1] < 2e-3


class TestGapOnCircle:
    def test_reservoir_values(self):
        assert momentum.gap_on_circle(reservoir(0.0, 0.7)) == pytest.approx(0.5, abs=1e-10)
        assert abs(momentum.gap_on_circle(reservoir(1.0, 0.3))) < 1e-10
        assert abs(momentum.gap_on_circle(reservoir(-1.0, 0.3))) < 1e-10

    def test_rotated_xy_epsilon_squared(self):
        gaps = []
        for eps in (1e-2, 5e-3):
            model = rot_xy(delta=0.5, h=0.5, theta=0.0, mu_minus=1.0, mu_plus=0.4, epsilon=eps)
            gaps.append(momentum.gap_on_circle(model))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=1e-6)

    def test_closed_form_matches_eigvals(self, rng):
        # random complex batches over eleven decades, exact Jordan blocks
        # (upper and lower), near-degenerate triangular pairs and unitary
        # rotations of near-degenerate diagonal pairs
        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        n = 500
        a, b = cplx(n), cplx(n)
        jordan = np.zeros((n, 2, 2), dtype=complex)
        jordan[:, 0, 0] = jordan[:, 1, 1] = a
        jordan[:, 0, 1] = b
        near = jordan.copy()
        near[:, 1, 1] += 1e-9 * cplx(n)
        q = np.linalg.qr(cplx(n, 2, 2))[0]
        diag = np.zeros((n, 2, 2), dtype=complex)
        diag[:, 0, 0], diag[:, 1, 1] = a, a + 1e-9 * cplx(n)
        rotated = q @ diag @ np.conj(np.transpose(q, (0, 2, 1)))
        scaled = cplx(n, 2, 2) * np.logspace(-8, 3, n)[:, None, None]
        for x in (cplx(n, 2, 2), jordan, np.transpose(jordan, (0, 2, 1)), near, rotated, scaled):
            expect = np.min(np.real(np.linalg.eigvals(x)), axis=1)
            dev = np.abs(momentum._min_re_eig2(x) - expect)
            assert np.all(dev <= 1e-14 * np.linalg.norm(x, axis=(1, 2)))

    @pytest.mark.slow
    def test_matches_dense_scan_on_sweep_grids(self):
        # the reservoir grid of a symbol sweep, every fourth cell of its rotated-XY
        # grid (a dense scan of that model costs 0.2 s) and the critical field
        # h = 1; the other parameters are the CLI defaults
        cells = [reservoir(-1.9 + 0.2 * k, 0.0) for k in range(20)]
        cells += [rot_xy(delta=0.5, h=h, theta=0.0, mu_minus=1.0, mu_plus=0.5)
                  for h in [0.025 + 0.2 * k for k in range(10)] + [1.0]]
        phis = np.linspace(-np.pi, np.pi, 1 << 16, endpoint=False)
        for model in cells:
            x = model.symbols(np.exp(1j * phis))[0][0]
            dense = 2.0 * np.min(np.real(np.linalg.eigvals(x)))
            assert abs(momentum.gap_on_circle(model) - dense) <= 1e-12


class TestCriticalityPropositions:
    def test_gap_closure_without_criticality(self):
        # the central counterexample: lam = +1 closes the gap with short range
        assert momentum.gap_on_circle(reservoir(1.0, 0.3)) < 1e-6
        cl = momentum.correlation_length(reservoir(1.0, 0.3))
        assert cl.xi < 1.0

    def test_divergent_xi_implies_vanishing_gap(self):
        # along the approach to lam = -1 and the rotated XY at h -> 1
        for model, builder in (
            (reservoir(-0.9995, 0.3), None),
            (rot_xy(delta=0.5, h=0.9995, theta=0.3, mu_minus=1.0, mu_plus=0.4, epsilon=1e-3), None),
        ):
            cl = momentum.correlation_length(model)
            if cl.xi > 1e3:
                assert momentum.gap_on_circle(model) < 1e-2


class TestRingWrap:
    def test_short_ring_rejected(self):
        with pytest.raises(DimensionMismatch):
            symbol_oracles.to_lindblad_model(reservoir(0.5, 0.3), 4)

    def test_ring_symbol_identity(self):
        model = reservoir(0.5, 0.3)
        from nessgeom import liouvillian

        ring = symbol_oracles.to_lindblad_model(model, 6)
        cov = liouvillian.ness_covariance(liouvillian.shape_matrices(ring))
        phik = 2 * np.pi * np.arange(6) / 6
        gk = momentum.symbol_covariance(model, phik)
        for u in (0, 1, 2):
            block = np.mean(gk * np.exp(1j * phik * u)[:, None, None], axis=0)
            np.testing.assert_allclose(cov.gamma[0:2, 2 * u : 2 * u + 2], block, atol=1e-12)
