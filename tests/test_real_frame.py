"""The real canonical frame of ``G = iA`` against the complex formulas it replaced.

``qgt_complex`` and ``purity_complex`` are the complex-eigenbasis forms of
the QGT and the purity; they stay here as oracles for the real-arithmetic
kernels in ``gaussian.real_eigenmodes`` and ``geometry.qgt``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nessgeom import gaussian, geometry, liouvillian, models, oracle
from nessgeom.errors import DimensionMismatch, NormExceedsOne, RankChangeSingularity

from conftest import rand_antisym, rand_gamma_family, reassemble


def qgt_complex(gamma, d_gammas, *, check_rank=True):
    """``Q_mn = 1/8 sum_jk w_jk (V^+ dG_m V)_jk (V^+ dG_n V)_kj`` on a complex ``eigh`` of G."""
    vals, vecs = np.linalg.eigh(gamma)
    one = 1.0 - np.outer(vals, vals)
    degenerate = np.abs(one) < geometry.DEGENERACY_TOL
    pref = np.outer(1.0 - vals, 1.0 + vals)
    weight = np.where(degenerate, 0.0, pref / np.where(degenerate, 1.0, one**2))
    mats = []
    for d_g in d_gammas:
        d = vecs.conj().T @ d_g @ vecs
        if check_rank and np.any(degenerate & (np.abs(d) > 1e-8 * np.max(np.abs(d_g)))):
            raise RankChangeSingularity("pure-pure weight")
        mats.append(d)
    p = len(mats)
    q = np.array([[0.125 * np.sum(weight * mats[m] * mats[n].T) for n in range(p)]
                  for m in range(p)])
    return np.real(q), 2.0 * np.imag(q)


def purity_complex(gamma):
    vals = np.sort(np.abs(np.linalg.eigvalsh(gamma)))[::2]
    return float(np.prod((1.0 + vals**2) / 2.0))


def canonical_state(seed, occupations):
    """``G = Q (+)_k [[0, i g_k], [-i g_k, 0]] Q^T`` for a random orthogonal Q."""
    rng = np.random.default_rng(seed)
    n = len(occupations)
    q = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0]
    modes = gaussian.EigenmodeDecomposition(q=q, gammas=np.asarray(occupations, dtype=float))
    tangents = geometry.make_tangents(
        ("a", "b", "c"), [1j * rand_antisym(rng, 2 * n) for _ in range(3)]
    )
    return reassemble(modes), tangents


mixed = st.one_of(st.floats(0.0, 0.95), st.just(0.0), st.sampled_from([0.25, 0.6]))
occupation_lists = st.lists(mixed, min_size=1, max_size=7)
seeds = st.integers(0, 2**32 - 1)


class TestAgainstComplexFormula:
    @settings(max_examples=60, deadline=None)
    @given(occ=occupation_lists, seed=seeds)
    def test_qgt_and_purity(self, occ, seed):
        gamma, tang = canonical_state(seed, occ)
        res = geometry.qgt(gamma, tang)
        g_ref, u_ref = qgt_complex(gamma, tang.d_gamma)
        scale = max(np.max(np.abs(g_ref)), 1e-300)
        assert np.max(np.abs(res.g - g_ref)) <= 1e-11 * scale
        assert np.max(np.abs(res.u - u_ref)) <= 1e-11 * scale
        assert gaussian.purity(gamma) == pytest.approx(purity_complex(gamma), rel=1e-12)
        modes = gaussian.eigenmodes(gamma)
        np.testing.assert_allclose(modes.gammas, np.sort(occ)[::-1], atol=1e-12)
        assert np.max(np.abs(reassemble(modes) - gamma)) < 1e-12
        assert np.max(np.abs(modes.q.T @ modes.q - np.eye(2 * len(occ)))) < 1e-12

    def test_repeated_and_zero_modes(self):
        occ = [0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.2]
        gamma, tang = canonical_state(7, occ)
        modes = gaussian.eigenmodes(gamma)
        np.testing.assert_allclose(modes.gammas, sorted(occ, reverse=True), atol=1e-13)
        res = geometry.qgt(modes, tang)
        g_ref, u_ref = qgt_complex(gamma, tang.d_gamma)
        np.testing.assert_allclose(res.g, g_ref, atol=1e-12 * np.max(np.abs(g_ref)))
        np.testing.assert_allclose(res.u, u_ref, atol=1e-12 * np.max(np.abs(g_ref)))
        # in a stack, the mixed planes take their Schur form on their own
        # cell, whose frame is then the one it has alone; each q is
        # column-major, the layout that picks the BLAS path of its products
        other, _ = canonical_state(8, [0.7, 0.3, 0.1, 0.05, 0.6, 0.2, 0.4])
        stacked = gaussian.real_eigenmodes(np.imag(np.stack([gamma, other])))
        for i, state in enumerate((gamma, other)):
            alone = gaussian.eigenmodes(state)
            assert stacked.q[i].flags.f_contiguous and alone.q.flags.f_contiguous
            assert stacked.q[i].tobytes() == alone.q.tobytes()
            assert stacked.gammas[i].tobytes() == alone.gammas.tobytes()

    def test_small_occupations_keep_their_digits(self):
        # sqrt(eig(A^T A)) would read these to ~1e-8 only
        occ = [0.9, 3e-9, 1e-11]
        gamma, _ = canonical_state(3, occ)
        gs = gaussian.mode_occupations(gamma)
        np.testing.assert_allclose(gs, occ, rtol=1e-4, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(occ=occupation_lists, pure=st.integers(1, 3), seed=seeds)
    def test_pure_modes_raise_rank_change(self, occ, pure, seed):
        gamma, tang = canonical_state(seed, [1.0] * pure + occ)
        with pytest.raises(RankChangeSingularity):
            geometry.qgt(gamma, tang)
        with pytest.raises(RankChangeSingularity):
            qgt_complex(gamma, tang.d_gamma)
        # in a stack, that cell's g and u read NaN (point_geometry gives it
        # its RankChangeSingularity) and its mate's are the mate's own
        mate, _ = canonical_state(seed + 1, [0.5] * (pure + len(occ)))
        modes = gaussian.real_eigenmodes(np.imag(np.stack([gamma, mate])))
        both = geometry.TangentSet(tang.parameters, tuple(np.stack([d, d]) for d in tang.d_a))
        res = geometry.qgt(modes, both)
        assert np.all(np.isnan(res.g[0])) and np.all(np.isnan(res.u[0]))
        assert res.g[1].tobytes() == geometry.qgt(mate, tang).g.tobytes()
        # the continuity rule zeroes the same pure-pure terms in both forms
        res = geometry.qgt(gamma, tang, check_rank=False)
        g_ref, u_ref = qgt_complex(gamma, tang.d_gamma, check_rank=False)
        scale = np.max(np.abs(g_ref))
        assert np.max(np.abs(res.g - g_ref)) <= 1e-10 * scale
        assert np.max(np.abs(res.u - u_ref)) <= 1e-10 * scale

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            gaussian.real_eigenmodes(np.zeros((3, 3)))

    def test_frame_passes_through(self):
        gamma, tang = canonical_state(11, [0.7, 0.3, 0.1])
        modes = gaussian.eigenmodes(gamma)
        assert gaussian.eigenmodes(modes) is modes
        assert geometry.qgt(modes, tang).q.tolist() == geometry.qgt(gamma, tang).q.tolist()
        assert gaussian.purity(modes) == gaussian.purity(gamma)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_metric_curvature_and_purity(self, rng, n):
        gamma_of = rand_gamma_family(rng, n, 2)
        point = rng.uniform(-0.2, 0.2, size=2)
        gamma = gamma_of(point)
        tang = geometry.tangents_finite_difference(gamma_of, point)
        res = geometry.qgt(gaussian.eigenmodes(gamma), tang)
        fam = oracle.ParametrizedFamily(
            evaluator=lambda lam: gaussian.dense_state_from_gamma(gamma_of(lam)).rho,
            labels=["a", "b"],
        )
        np.testing.assert_allclose(res.g, oracle.bures_metric_dense(fam, point), atol=1e-8)
        np.testing.assert_allclose(res.u, oracle.muc_dense(fam, point), atol=1e-8)
        rho = gaussian.dense_state_from_gamma(gamma).rho
        assert gaussian.purity(gamma) == pytest.approx(np.trace(rho @ rho).real, rel=1e-10)


class TestPointGeometryFrame:
    def test_real_arrays_and_one_frame(self, monkeypatch):
        p = models.BoundaryXYParams(delta=1.1, h=0.4, n=6)
        shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
        frames = []
        real_eigenmodes = gaussian.real_eigenmodes
        monkeypatch.setattr(gaussian, "real_eigenmodes",
                            lambda a: frames.append(a) or real_eigenmodes(a))
        point = liouvillian.point_geometry(shape, models.boundary_xy_shape_derivatives(p))
        assert len(frames) == 1
        assert point.a.dtype == np.float64 and np.array_equal(point.a, -point.a.T)
        for d in point.tangents.d_a:
            assert d.dtype == np.float64 and np.array_equal(d, -d.T)
        g_ref, u_ref = qgt_complex(point.gamma, point.tangents.d_gamma)
        np.testing.assert_allclose(point.qgt.g, g_ref, rtol=1e-12)
        np.testing.assert_allclose(point.qgt.u, u_ref, atol=1e-12 * np.max(np.abs(g_ref)))
        assert gaussian.purity(point.modes) == pytest.approx(purity_complex(point.gamma), rel=1e-12)

    def test_norm_check_runs_on_the_frame(self, monkeypatch):
        shape = liouvillian.shape_matrices(
            models.build_boundary_driven_xy(models.BoundaryXYParams(delta=1.0, h=0.3, n=3))
        )
        real_eigenmodes = gaussian.real_eigenmodes

        def inflated(a):
            modes = real_eigenmodes(a)
            return gaussian.EigenmodeDecomposition(q=modes.q, gammas=modes.gammas + 1.0)

        monkeypatch.setattr(gaussian, "real_eigenmodes", inflated)
        with pytest.raises(NormExceedsOne):
            liouvillian.point_geometry(shape)
