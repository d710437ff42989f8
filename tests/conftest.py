import numpy as np
import pytest

from nessgeom import gaussian, liouvillian, models


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


def reassemble(modes):
    """``G = Q (+)_k [[0, i g_k], [-i g_k, 0]] Q^T`` from an EigenmodeDecomposition."""
    n = modes.gammas.size
    d = np.zeros((2 * n, 2 * n), dtype=complex)
    for k, g in enumerate(modes.gammas):
        d[2 * k, 2 * k + 1] = 1j * g
        d[2 * k + 1, 2 * k] = -1j * g
    return modes.q @ d @ modes.q.T


def dense_slope(slope, dim):
    """The d x d matrix of a slope given as its nonzeros ``(rows, cols, vals)``."""
    rows, cols, vals = slope
    out = np.zeros((dim, dim))
    out[rows, cols] = vals
    return out


def rand_stable_model(rng, n_modes, n_jumps=2):
    dim = 2 * n_modes
    h_im = rand_antisym(rng, dim, 0.5)
    jumps = tuple(rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(n_jumps))
    return liouvillian.QuadraticLindbladModel(n_modes=n_modes, h_im=h_im, jumps=jumps)


def _xy_metric_per_site(point: np.ndarray) -> np.ndarray:
    """Per-site thermodynamic metric over (theta, h, delta) as a 3x3 matrix."""
    h, delta = float(point[0]), float(point[1])
    comps, _ = models.xy_qgt_thermodynamic(delta, h)
    g = np.zeros((3, 3))
    g[0, 0] = comps["g_theta_theta"]
    g[1, 1] = comps["g_hh"]
    g[2, 2] = comps["g_delta_delta"]
    g[1, 2] = g[2, 1] = comps["g_h_delta"]
    return g


def xy_scalar_curvature_numeric(delta: float, h: float, step: float = 1e-4) -> float:
    """``n R`` from finite differences of the per-site metric.

    The metric depends on (h, delta) only, so the curvature of the
    three-dimensional (theta, h, delta) manifold comes from Christoffel
    symbols assembled over the two active coordinates.
    """
    point = np.array([h, delta])

    def metric(p):
        return _xy_metric_per_site(p)

    # first and second derivatives along (h, delta) => indices 1, 2
    dim = 3
    active = [1, 2]
    g0 = metric(point)
    dg = np.zeros((dim, dim, dim))
    ddg = np.zeros((dim, dim, dim, dim))
    for a_i, a in enumerate(active):
        up, dn = point.copy(), point.copy()
        up[a_i] += step
        dn[a_i] -= step
        dg[a] = (metric(up) - metric(dn)) / (2.0 * step)
        ddg[a][a] = (metric(up) - 2.0 * g0 + metric(dn)) / step**2
    for i, a in enumerate(active):
        for j, b in enumerate(active):
            if a >= b:
                continue
            pp = point.copy(); pp[i] += step; pp[j] += step
            pm = point.copy(); pm[i] += step; pm[j] -= step
            mp = point.copy(); mp[i] -= step; mp[j] += step
            mm = point.copy(); mm[i] -= step; mm[j] -= step
            cross = (metric(pp) - metric(pm) - metric(mp) + metric(mm)) / (4.0 * step**2)
            ddg[a][b] = cross
            ddg[b][a] = cross
    ginv = np.linalg.inv(g0)
    gamma = np.zeros((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                gamma[a, b, c] = 0.5 * sum(
                    ginv[a, d] * (dg[b][d, c] + dg[c][d, b] - dg[d][b, c])
                    for d in range(dim)
                )
    dgamma = np.zeros((dim, dim, dim, dim))  # d_e Gamma^a_{bc}
    for e in range(dim):
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    term = 0.0
                    for d in range(dim):
                        term += 0.5 * (
                            -sum(
                                ginv[a, x] * dg[e][x, y] * ginv[y, d]
                                for x in range(dim)
                                for y in range(dim)
                            )
                            * (dg[b][d, c] + dg[c][d, b] - dg[d][b, c])
                            + ginv[a, d]
                            * (ddg[e][b][d, c] + ddg[e][c][d, b] - ddg[e][d][b, c])
                        )
                    dgamma[e, a, b, c] = term
    ricci = np.zeros((dim, dim))
    for b in range(dim):
        for c in range(dim):
            val = 0.0
            for a in range(dim):
                val += dgamma[a, a, b, c] - dgamma[c, a, b, a]
                for e in range(dim):
                    val += gamma[a, a, e] * gamma[e, b, c] - gamma[a, c, e] * gamma[e, b, a]
            ricci[b, c] = val
    return float(np.sum(ginv * ricci))
