import itertools

import numpy as np
import pytest

from nessgeom import gaussian
from nessgeom.errors import (
    IndexOutOfRange,
    NessGeomError,
    NormExceedsOne,
    NotAntisymmetric,
    NotHermitian,
    TooManyModes,
)

from conftest import rand_gamma, reassemble

SY = np.array([[0.0, -1j], [1j, 0.0]])


class PureModePresent(NessGeomError):
    """A mode is (numerically) pure, so the kernel Omega diverges."""


def omega_from_gamma(gamma) -> np.ndarray:
    """Invert ``G = tanh(i Omega / 2)`` for the real antisymmetric kernel.

    Raises PureModePresent when any ``|g_k| >= 1 - 1e-12`` (the kernel entry
    diverges; the covariance parameterisation remains regular there).
    """
    g = gaussian.as_gamma(gamma)
    vals, vecs = np.linalg.eigh(g)
    if np.max(np.abs(vals)) >= 1.0 - 1e-12:
        raise PureModePresent("a mode is (numerically) pure; Omega diverges")
    omega = vecs @ np.diag(-2j * np.arctanh(vals)) @ vecs.conj().T
    return np.real(omega)


class TestValidate:
    def test_zero_matrix_is_maximally_mixed(self):
        cov = gaussian.validate(np.zeros((4, 4)))
        assert cov.n_modes == 2
        assert gaussian.purity(cov.gamma) == pytest.approx(0.25)

    def test_pure_mode_block(self):
        cov = gaussian.validate(1j * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert gaussian.purity(cov.gamma) == pytest.approx(1.0)

    def test_violations_named(self):
        with pytest.raises(NormExceedsOne):
            gaussian.validate(1.2j * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(NotAntisymmetric):
            gaussian.validate(np.eye(2) * 0.5)
        with pytest.raises(NotHermitian):
            gaussian.validate(np.array([[0.0, 0.5], [-0.5, 0.0]]))


class TestEigenmodes:
    def test_zero_gamma(self):
        modes = gaussian.eigenmodes(np.zeros((6, 6)))
        np.testing.assert_allclose(modes.gammas, 0.0)
        np.testing.assert_allclose(modes.q @ modes.q.T, np.eye(6), atol=1e-12)

    def test_single_mode_value(self):
        gamma = 0.6j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        modes = gaussian.eigenmodes(gamma)
        np.testing.assert_allclose(modes.gammas, [0.6], atol=1e-14)

    def test_roundtrip_random(self, rng):
        for _ in range(10):
            gamma = rand_gamma(rng, 3)
            modes = gaussian.eigenmodes(gamma)
            assert np.max(np.abs(reassemble(modes) - gamma)) < 1e-10
            assert np.max(np.abs(modes.q @ modes.q.T - np.eye(6))) < 1e-10
            assert np.all(modes.gammas >= -1e-14)
            assert np.all(np.diff(modes.gammas) <= 1e-12)  # descending

    def test_degenerate_and_zero_modes(self, rng):
        # equal occupations plus an exactly empty mode
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        d = np.zeros((6, 6), dtype=complex)
        for k, g in enumerate((0.5, 0.5, 0.0)):
            d[2 * k, 2 * k + 1] = 1j * g
            d[2 * k + 1, 2 * k] = -1j * g
        gamma = q @ d @ q.T
        modes = gaussian.eigenmodes(gamma)
        np.testing.assert_allclose(sorted(modes.gammas), [0.0, 0.5, 0.5], atol=1e-12)
        assert np.max(np.abs(reassemble(modes) - gamma)) < 1e-10


class TestPurityAndOmega:
    def test_purity_values(self):
        g1 = 0.6j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert gaussian.purity(g1) == pytest.approx((1 + 0.36) / 2)
        assert gaussian.purity(np.zeros((2, 2))) == pytest.approx(0.5)

    def test_purity_pure_iff_unit_occupations(self, rng):
        gamma = rand_gamma(rng, 3)
        assert gaussian.purity(gamma) < 1.0 - 1e-10
        modes = gaussian.eigenmodes(gamma)
        pure = gaussian.EigenmodeDecomposition(q=modes.q, gammas=np.ones(3))
        assert gaussian.purity(reassemble(pure)) == pytest.approx(1.0, abs=1e-10)

    def test_omega_roundtrip(self, rng):
        gamma = rand_gamma(rng, 3)
        om = omega_from_gamma(gamma)
        assert np.max(np.abs(om + om.T)) < 1e-10  # real antisymmetric
        assert np.max(np.abs(np.imag(om))) < 1e-12
        assert np.max(np.abs(gaussian.gamma_from_omega(om) - gamma)) < 1e-10

    def test_omega_single_mode_value(self):
        g = np.tanh(1.0) * 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        om = omega_from_gamma(g)
        assert np.max(np.abs(om)) == pytest.approx(2.0, abs=1e-12)

    def test_pure_mode_guard(self):
        g = 1.0j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(PureModePresent):
            omega_from_gamma(g)


class TestWick:
    def test_trivial_moments(self):
        zero = np.zeros((4, 4))
        assert gaussian.wick_expectation(zero, (1, 2, 3, 4)) == pytest.approx(0.0)
        assert gaussian.wick_expectation(zero, (1, 1, 2, 2)) == pytest.approx(1.0)

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            gaussian.wick_expectation(np.zeros((4, 4)), (1, 2, 3, 5))

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_quadruples_match_dense(self, rng, n):
        gamma = rand_gamma(rng, n)
        rho = gaussian.dense_state_from_gamma(gamma).rho
        w = gaussian.majorana_operators(n)
        for idx in itertools.product(range(1, 2 * n + 1), repeat=4):
            op = w[idx[0] - 1] @ w[idx[1] - 1] @ w[idx[2] - 1] @ w[idx[3] - 1]
            dense = complex(np.trace(rho @ op))
            assert abs(dense - gaussian.wick_expectation(gamma, idx)) < 1e-10

    def test_six_point_pfaffian_path(self, rng):
        n = 3
        gamma = rand_gamma(rng, n)
        rho = gaussian.dense_state_from_gamma(gamma).rho
        w = gaussian.majorana_operators(n)
        for idx in ((1, 2, 3, 4, 5, 6), (2, 4, 6, 1, 3, 5)):
            op = np.eye(2**n, dtype=complex)
            for i in idx:
                op = op @ w[i - 1]
            dense = complex(np.trace(rho @ op))
            assert abs(dense - gaussian.wick_expectation(gamma, idx)) < 1e-10

    def test_pfaffian_squares_to_determinant(self, rng):
        for dim in (4, 6, 8):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = a - a.T
            pf = gaussian.pfaffian(a)
            assert abs(pf**2 - np.linalg.det(a)) < 1e-9 * max(1.0, abs(np.linalg.det(a)))


class TestDenseBridge:
    def test_pure_projector_and_identity(self):
        pure = gaussian.dense_state_from_gamma(1j * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.trace(pure.rho) == pytest.approx(1.0)
        assert np.max(np.abs(pure.rho @ pure.rho - pure.rho)) < 1e-12
        mixed = gaussian.dense_state_from_gamma(np.zeros((4, 4)))
        np.testing.assert_allclose(mixed.rho, np.eye(4) / 4.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_roundtrip_all_sizes(self, rng, n):
        gamma = rand_gamma(rng, n)
        rho = gaussian.dense_state_from_gamma(gamma).rho
        assert np.max(np.abs(gaussian.gamma_from_dense(rho) - gamma)) < 1e-10

    def test_mode_limit(self, rng):
        with pytest.raises(TooManyModes):
            gaussian.dense_state_from_gamma(np.zeros((16, 16)), max_modes=7)

    def test_jw_convention_sigma_z(self):
        # sigma^z_j = -i w_{2j-1} w_{2j} in the global convention
        for n in (1, 2, 3):
            w = gaussian.majorana_operators(n)
            for j in range(n):
                sz = np.diag(
                    [1.0 if (b >> (n - 1 - j)) & 1 == 0 else -1.0 for b in range(2**n)]
                )
                np.testing.assert_allclose(-1j * w[2 * j] @ w[2 * j + 1], sz, atol=1e-14)
