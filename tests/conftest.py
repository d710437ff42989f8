import numpy as np
import pytest

from nessgeom import gaussian, liouvillian


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def rand_antisym(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return a - a.T


def rand_gamma(rng, n_modes, scale=0.8):
    return gaussian.gamma_from_omega(rand_antisym(rng, 2 * n_modes, scale))


def rand_gamma_family(rng, n_modes, n_params, scale=0.8):
    base = rand_antisym(rng, 2 * n_modes, scale)
    dirs = [rand_antisym(rng, 2 * n_modes, 0.5) for _ in range(n_params)]

    def gamma_of(lam):
        return gaussian.gamma_from_omega(base + sum(l * d for l, d in zip(lam, dirs)))

    return gamma_of


def dense_slope(slope, dim):
    """The d x d matrix of a slope given as its nonzeros ``(rows, cols, vals)``."""
    rows, cols, vals = slope
    out = np.zeros((dim, dim))
    out[rows, cols] = vals
    return out


def rand_stable_model(rng, n_modes, n_jumps=2):
    dim = 2 * n_modes
    h = 1j * rand_antisym(rng, dim, 0.5)
    jumps = tuple(rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(n_jumps))
    return liouvillian.QuadraticLindbladModel(n_modes=n_modes, h=h, jumps=jumps)
