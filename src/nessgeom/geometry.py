"""Geometry of Gaussian states from covariance-matrix data.

The generalized quantum geometric tensor of a Gaussian family is, in the
eigenbasis of the covariance matrix G (eigenvalues ``g_j``),

    Q_mn = (1/8) sum_jk (1 - g_j)(1 + g_k) (d_m G)_jk (d_n G)_kj / (1 - g_j g_k)^2

with terms where ``g_j g_k -> 1`` set to zero by continuity (both modes
pure; the vanishing prefactors make the combined formula stable exactly
where forming the transport kernel first would not be).  The Bures metric
is ``Re Q``, the mean Uhlmann curvature ``2 Im Q``.

``G = i A`` with ``A`` real antisymmetric, and its eigenvalues come in pairs
``-g_b, +g_b`` on the complex vectors ``(q_1 +- i q_2)/sqrt 2`` of the real
canonical 2-plane ``(q_1, q_2)`` of mode b.  So the sum is taken in real
arithmetic on the 2x2 blocks ``E = (Q^T dA Q)_bc``: each splits into a part
``p`` that commutes with the plane rotation and a part ``q`` that
anticommutes with it (see ``_plane_parts``), and

    Re Q_mn = 1/4 sum_bc [ p_m.p_n / (1 - g_b g_c) + q_m.q_n / (1 + g_b g_c) ]
    Im Q_mn = 1/4 sum_bc [ (g_b - g_c) p_m^p_n / (1 - g_b g_c)^2
                           - (g_b + g_c) q_m^q_n / (1 + g_b g_c)^2 ]

with ``x.y = Re(x conj y)`` and ``x^y = Im(x conj y)``; the ``1 - g_b g_c``
terms are the pure-pure pairs of the continuity rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import gaussian
from .errors import (
    EvaluationFailure,
    RankChangeSingularity,
    SingularFisher,
    ZeroGap,
)
from .numerics import _matmul

DEGENERACY_TOL = 1e-10
RANK_CHANGE = ("tangent has weight on a pure-pure mode pair: the state changes "
               "rank along this direction and the continuity rule does not apply")


@dataclass(frozen=True)
class TangentSet:
    """Covariance derivatives, one per parameter label, held as the real
    antisymmetric ``d_mu A`` of ``d_mu G = i d_mu A``."""

    parameters: tuple[str, ...]
    d_a: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.parameters) != len(self.d_a):
            raise EvaluationFailure("one tangent matrix per parameter required")

    @property
    def d_gamma(self) -> tuple[np.ndarray, ...]:
        """The tangents ``d_mu G`` as (purely imaginary) complex matrices."""
        return tuple(1j * d for d in self.d_a)


@dataclass(frozen=True)
class GeometryResult:
    """Bures metric g, MUC u and QGT q = g + (i/2) u at one family point."""

    parameters: tuple[str, ...]
    g: np.ndarray
    u: np.ndarray
    q: np.ndarray
    r_ratio: float | None

    def gmax(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.g))))


def make_tangents(parameters: Sequence[str], d_gammas: Sequence[np.ndarray]) -> TangentSet:
    """Wrap tangent matrices ``d G``, projecting out non-(Hermitian-antisymmetric) noise."""
    d_a = []
    for d in d_gammas:
        im = np.imag(np.asarray(d, dtype=complex))
        d_a.append(0.5 * (im - im.T))
    return TangentSet(parameters=tuple(parameters), d_a=tuple(d_a))


def _plane_parts(e: np.ndarray) -> tuple[np.ndarray, ...]:
    """``Re p, Im p, Re q, Im q`` of every 2x2 block ``E_bc`` of ``e``, where
    ``E = Re p + Im p J + Re q Z + Im q X`` with ``J = [[0, 1], [-1, 0]]``."""
    e00, e01 = e[..., 0::2, 0::2], e[..., 0::2, 1::2]
    e10, e11 = e[..., 1::2, 0::2], e[..., 1::2, 1::2]
    return 0.5 * (e00 + e11), 0.5 * (e01 - e10), 0.5 * (e00 - e11), 0.5 * (e01 + e10)


def qgt(gamma, tangents: TangentSet, *, check_rank: bool = True) -> GeometryResult:
    """Generalized QGT (Bures metric + mean Uhlmann curvature) of a family.

    ``gamma`` is G, a CovarianceMatrix or the canonical form from
    :func:`nessgeom.gaussian.eigenmodes`.  ``check_rank=False`` skips the
    rank-change flag so that limits toward the pure manifold can be probed;
    the continuity rule still zeroes the degenerate pair terms.

    A canonical form of a stack (see :func:`nessgeom.gaussian.real_eigenmodes`)
    with stacked tangents gives g, u, q and r_ratio with the same leading
    axis, r_ratio NaN where undefined; a cell of a stack whose tangent
    changes rank gets NaN g and u instead of the raise.
    """
    modes = gaussian.eigenmodes(gamma)
    gs = modes.gammas
    gg = gs[..., :, None] * gs[..., None, :]
    degenerate = np.abs(1.0 - gg) < DEGENERACY_TOL
    co = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, 1.0 - gg))
    counter = 1.0 / (1.0 + gg)
    del gg
    lead = gs.shape[:-1]
    changes = np.zeros(lead, dtype=bool)
    parts = []
    for d_a in tangents.d_a:
        p_re, p_im, q_re, q_im = _plane_parts(
            _matmul(np.swapaxes(modes.q, -1, -2), _matmul(d_a, modes.q)))
        if check_rank and degenerate.any():
            scale = np.maximum(np.max(np.abs(d_a), axis=(-2, -1), keepdims=True), 1e-300)
            changes |= np.any(degenerate & (np.hypot(p_re, p_im) > 1e-8 * scale), axis=(-2, -1))
            if not lead and changes:
                raise RankChangeSingularity(RANK_CHANGE)
        parts.append((p_re, p_im, q_re, q_im))
    p = len(tangents.d_a)
    g = np.zeros(lead + (p, p))
    u = np.zeros(lead + (p, p))
    for mu in range(p):
        pr_m, pi_m, qr_m, qi_m = parts[mu]
        for nu in range(mu, p):
            pr_n, pi_n, qr_n, qi_n = parts[nu]
            g[..., mu, nu] = g[..., nu, mu] = 0.25 * np.sum(
                co * (pr_m * pr_n + pi_m * pi_n) + counter * (qr_m * qr_n + qi_m * qi_n),
                axis=(-2, -1),
            )
    # the curvature weights are formed once the metric weights are done
    # with: two n x n weight arrays live at a time, at the chain point's
    # memory peak
    co_twist = (gs[..., :, None] - gs[..., None, :]) * co**2
    del co
    counter_twist = (gs[..., :, None] + gs[..., None, :]) * counter**2
    del counter
    for mu in range(p):
        pr_m, pi_m, qr_m, qi_m = parts[mu]
        for nu in range(mu + 1, p):
            pr_n, pi_n, qr_n, qi_n = parts[nu]
            u[..., mu, nu] = 0.5 * np.sum(
                co_twist * (pi_m * pr_n - pr_m * pi_n)
                - counter_twist * (qi_m * qr_n - qr_m * qi_n),
                axis=(-2, -1),
            )
            u[..., nu, mu] = -u[..., mu, nu]
    if lead:
        r = incompatibility_ratio(g, u)
        g[changes] = u[changes] = r[changes] = np.nan
    else:
        try:
            r = incompatibility_ratio(g, u)
        except SingularFisher:
            r = None
    return GeometryResult(parameters=tangents.parameters, g=g, u=u, q=g + 0.5j * u, r_ratio=r)


def incompatibility_ratio(g: np.ndarray, u: np.ndarray) -> float:
    """Asymptotic incompatibility ``R = || 2i J^{-1} U ||_inf`` with ``J = 4g``.

    Evaluated through the similar Hermitian form ``2i J^{-1/2} U J^{-1/2}``
    whose spectral radius it equals; for two parameters this reduces to
    ``sqrt(det(2U) / det(J))``.  Raises SingularFisher when J is singular
    (the ratio is then undefined, not zero).  Of stacks (k, p, p), each
    cell's ratio, NaN where J is singular.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    j = 4.0 * g
    vals, vecs = np.linalg.eigh(j)
    scale = np.maximum(np.max(np.abs(vals), axis=-1), 1e-300)
    singular = np.min(vals, axis=-1) <= 1e-12 * scale
    if g.ndim == 2 and singular:
        raise SingularFisher("Fisher matrix singular: incompatibility ratio undefined")
    vals = np.where(singular[..., None], 1.0, vals)
    inv_sqrt = (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    herm = 2j * inv_sqrt @ u @ inv_sqrt
    r = np.max(np.abs(np.linalg.eigvalsh(herm)), axis=-1)
    if g.ndim == 2:
        return float(r)
    r[singular] = np.nan
    return r


def tangents_finite_difference(
    model_eval: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    parameters: Sequence[str] | None = None,
    steps: float | Sequence[float] | None = None,
) -> TangentSet:
    """Central-difference covariance tangents of ``lambda -> G(lambda)``.

    Default step ``1e-5 * max(1, |lambda_mu|)`` per direction; results are
    projected back onto the Hermitian-antisymmetric subspace to kill
    rounding noise.
    """
    point = np.asarray(point, dtype=float)
    p = point.size
    if parameters is None:
        parameters = [f"l{i}" for i in range(p)]
    if steps is None:
        hs = [1e-5 * max(1.0, abs(point[mu])) for mu in range(p)]
    elif np.isscalar(steps):
        hs = [float(steps)] * p
    else:
        hs = [float(s) for s in steps]
    d_gammas = []
    for mu in range(p):
        up, dn = point.copy(), point.copy()
        up[mu] += hs[mu]
        dn[mu] -= hs[mu]
        try:
            g_up = np.asarray(model_eval(up), dtype=complex)
            g_dn = np.asarray(model_eval(dn), dtype=complex)
        except Exception as exc:  # noqa: BLE001 - wrapped for the caller
            raise EvaluationFailure(f"model evaluation failed at parameter {mu}: {exc}") from exc
        d_gammas.append((g_up - g_dn) / (2.0 * hs[mu]))
    return make_tangents(parameters, d_gammas)


def qgt_gap_bound(
    q_value: complex,
    gamma,
    dx: np.ndarray,
    db: np.ndarray,
    delta: float,
) -> tuple[float, float, bool]:
    """Check ``|Q_mn| / n <= 2 P_G Delta^-2 (||dY|| + 2 ||dX||)^2``.

    ``q_value`` is the QGT component for the direction whose shape-matrix
    derivatives are ``dx`` and ``db = Im dY`` (``||dY|| = ||dB||``);
    ``delta`` is the dissipative gap.  The transport fidelity weight
    ``P_G = (1/8) || (1+G) (x) (1+G) / (1 + G (x) G) ||`` is taken without
    the Kronecker blowup: in the eigenbasis of G every factor diagonalizes,
    so the norm is the maximum of ``(1+g_j)(1+g_k) / (1+g_j g_k)`` over
    mode pairs, and pairs with ``1 + g_j g_k -> 0`` approach the bounded
    limit 2.
    """
    if delta <= 0.0:
        raise ZeroGap(f"gap bound needs a positive gap, got {delta}")
    g = gaussian.as_gamma(gamma)
    n = g.shape[0] // 2
    gs = gaussian.mode_occupations(g)
    vals = np.concatenate((gs, -gs))
    num = np.outer(1.0 + vals, 1.0 + vals)
    den = 1.0 + np.outer(vals, vals)
    tiny = den < 1e-12
    ratio = np.where(tiny, 2.0, np.abs(num) / np.where(tiny, 1.0, den))
    p_gamma = 0.125 * float(np.max(ratio))
    db_norm = float(np.linalg.norm(np.asarray(db), 2))
    dx_norm = float(np.linalg.norm(np.asarray(dx), 2))
    lhs = float(np.abs(q_value)) / n
    rhs = 2.0 * p_gamma / delta**2 * (db_norm + 2.0 * dx_norm) ** 2
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-8))
