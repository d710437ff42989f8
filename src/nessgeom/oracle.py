"""Exact dense small-Hilbert-space engine.

Ground truth for the Gaussian fast paths plus the general mixed-state
geometry: fidelity, Bures metric with its classical/quantum split, SLD
generators, mean Uhlmann curvature, Chernoff-bound metric, discrete Uhlmann
loop holonomy, thermal Fisher-Rao and susceptibility relations, and dense
Lindblad steady states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.special import bernoulli

from .errors import (
    DegenerateNullSpace,
    DimensionMismatch,
    RankChange,
    RankDeficientOnLoop,
    SeriesDivergence,
    SingularState,
)

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class DenseState:
    """Validated density matrix."""

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=complex)
        if r.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"rho shape {r.shape} != ({self.dim}, {self.dim})")
        scale = max(np.max(np.abs(r)), 1e-14)
        if np.max(np.abs(r - r.conj().T)) > 1e-10 * scale:
            raise DimensionMismatch("rho is not Hermitian")
        if abs(np.trace(r) - 1.0) > 1e-10:
            raise DimensionMismatch(f"trace(rho) = {np.trace(r)} != 1")
        if np.min(np.linalg.eigvalsh(r)) < -1e-10:
            raise DimensionMismatch("rho has significantly negative eigenvalues")
        object.__setattr__(self, "rho", r)


@dataclass
class ParametrizedFamily:
    """Differentiable map from parameter vectors to density matrices."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    labels: Sequence[str]
    step: float = 1e-5

    @property
    def n_params(self) -> int:
        return len(self.labels)

    def rho(self, point) -> np.ndarray:
        return _as_rho(self.evaluator(np.asarray(point, dtype=float)))

    def drho(self, point) -> list[np.ndarray]:
        """Central finite differences of rho along each parameter."""
        point = np.asarray(point, dtype=float)
        out = []
        for mu in range(self.n_params):
            h = self.step * max(1.0, abs(point[mu]))
            up, dn = point.copy(), point.copy()
            up[mu] += h
            dn[mu] -= h
            out.append((self.rho(up) - self.rho(dn)) / (2.0 * h))
        return out


def _as_rho(state) -> np.ndarray:
    if isinstance(state, DenseState):
        return state.rho
    return np.asarray(state, dtype=complex)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD matrix, clamping tiny negatives at zero."""
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity ``Tr sqrt(sqrt(rho2) rho1 sqrt(rho2))``."""
    r1, r2 = _as_rho(rho1), _as_rho(rho2)
    s2 = sqrt_psd(r2)
    vals = np.linalg.eigvalsh(s2 @ r1 @ s2)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def bures_distance(rho1, rho2) -> float:
    return float(np.sqrt(max(2.0 - 2.0 * fidelity(rho1, rho2), 0.0)))


def bures_angle(rho1, rho2) -> float:
    return float(np.arccos(np.clip(fidelity(rho1, rho2), -1.0, 1.0)))


def optimal_distinguishing_observable(rho1, rho2) -> np.ndarray:
    """Geometric-mean observable whose eigenbasis saturates Bhattacharyya.

    ``M = rho2^{-1/2} sqrt(sqrt(rho2) rho1 sqrt(rho2)) rho2^{-1/2}``.
    """
    r1, r2 = _as_rho(rho1), _as_rho(rho2)
    vals, vecs = np.linalg.eigh(r2)
    if np.min(vals) < SUPPORT_TOL:
        raise SingularState("rho2 must be full rank for the optimal observable")
    s2 = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_s2 = (vecs / np.sqrt(vals)) @ vecs.conj().T
    m = inv_s2 @ sqrt_psd(s2 @ r1 @ s2) @ inv_s2
    return 0.5 * (m + m.conj().T)


def sld_generator(rho, drho) -> np.ndarray:
    """Parallel-transport generator G with ``drho = G rho + rho G``.

    In the eigenbasis of rho, ``G_jk = (drho)_jk / (p_j + p_k)`` restricted
    to ``p_j + p_k > 1e-12`` and zero elsewhere (the support condition).
    The symmetric logarithmic derivative is ``L = 2 G`` away from rank
    changes.
    """
    r, dr = _as_rho(rho), np.asarray(drho, dtype=complex)
    p, v = np.linalg.eigh(r)
    d = v.conj().T @ dr @ v
    denom = p[:, None] + p[None, :]
    mask = denom > SUPPORT_TOL
    g = np.where(mask, d / np.where(mask, denom, 1.0), 0.0)
    g = v @ g @ v.conj().T
    return 0.5 * (g + g.conj().T)


def _eig_sorted(rho):
    p, v = np.linalg.eigh(_as_rho(rho))
    return p, v


def _pair_sums(p, drs, v, weight):
    """Assemble ``sum_jk weight(p_j, p_k) A_jk B_kj`` for all A, B pairs."""
    mats = [v.conj().T @ dr @ v for dr in drs]
    w = weight(p[:, None], p[None, :])
    n = len(mats)
    out = np.zeros((n, n), dtype=complex)
    for mu in range(n):
        for nu in range(n):
            out[mu, nu] = np.sum(w * mats[mu] * mats[nu].T)
    return out


def bures_metric_dense(family: ParametrizedFamily, point, *, with_split: bool = False):
    """Bures metric tensor from the eigenbasis double sum.

    With ``with_split=True`` returns ``(g, fisher_rao, nonclassical)`` where
    the Fisher-Rao part is the classical contribution of the eigenvalue
    flows and the remainder is the non-commutative part.
    """
    rho = family.rho(point)
    drs = family.drho(point)
    _check_rank_stable(family, point, rho)
    p, v = _eig_sorted(rho)

    def w_bures(pj, pk):
        denom = pj + pk
        ok = denom > SUPPORT_TOL
        return np.where(ok, 0.5 / np.where(ok, denom, 1.0), 0.0)

    g = np.real(_pair_sums(p, drs, v, w_bures))
    g = 0.5 * (g + g.T)
    if not with_split:
        return g
    # classical part: diagonal flows dp_k
    m = family.n_params
    fr = np.zeros((m, m))
    mats = [v.conj().T @ dr @ v for dr in drs]
    keep = p > SUPPORT_TOL
    for mu in range(m):
        for nu in range(m):
            dpm = np.real(np.diag(mats[mu]))[keep]
            dpn = np.real(np.diag(mats[nu]))[keep]
            fr[mu, nu] = 0.25 * np.sum(dpm * dpn / p[keep])
    return g, fr, g - fr


def muc_dense(family: ParametrizedFamily, point) -> np.ndarray:
    """Mean Uhlmann curvature ``U = 2 Im Q`` in the eigenbasis double sum."""
    rho = family.rho(point)
    drs = family.drho(point)
    _check_rank_stable(family, point, rho)
    p, v = _eig_sorted(rho)

    def w_muc(pj, pk):
        denom = (pj + pk) ** 2
        ok = (pj + pk) > SUPPORT_TOL
        return np.where(ok, (pj - pk) / np.where(ok, denom, 1.0), 0.0)

    u = np.real(-1j * _pair_sums(p, drs, v, w_muc))
    return 0.5 * (u - u.T)


def qcb_metric(family: ParametrizedFamily, point) -> np.ndarray:
    """Quantum Chernoff bound metric (denominators ``(sqrt p_j + sqrt p_k)^2``)."""
    rho = family.rho(point)
    drs = family.drho(point)
    _check_rank_stable(family, point, rho)
    p, v = _eig_sorted(rho)

    def w_qcb(pj, pk):
        denom = (np.sqrt(np.clip(pj, 0.0, None)) + np.sqrt(np.clip(pk, 0.0, None))) ** 2
        ok = (pj + pk) > SUPPORT_TOL
        return np.where(ok, 0.5 / np.where(ok, denom, 1.0), 0.0)

    g = np.real(_pair_sums(p, drs, v, w_qcb))
    return 0.5 * (g + g.T)


def _check_rank_stable(family: ParametrizedFamily, point, rho) -> None:
    point = np.asarray(point, dtype=float)
    rank0 = int(np.sum(np.linalg.eigvalsh(rho) > SUPPORT_TOL))
    for mu in range(family.n_params):
        h = family.step * max(1.0, abs(point[mu]))
        for sign in (+1.0, -1.0):
            shifted = point.copy()
            shifted[mu] += sign * h
            rank = int(np.sum(np.linalg.eigvalsh(family.rho(shifted)) > SUPPORT_TOL))
            if rank != rank0:
                raise RankChange(
                    f"rank changes from {rank0} to {rank} across the stencil of "
                    f"parameter {family.labels[mu]!r}"
                )


def pure_state_qgt(family: ParametrizedFamily, point) -> np.ndarray:
    """Fubini-Study QGT of a projector family, ``Tr[dP (1-P) dP]`` (gauge free)."""
    rho = family.rho(point)
    drs = family.drho(point)
    m = family.n_params
    q = np.zeros((m, m), dtype=complex)
    one_minus = np.eye(rho.shape[0]) - rho
    for mu in range(m):
        for nu in range(m):
            q[mu, nu] = np.trace(drs[mu] @ one_minus @ drs[nu])
    return q


def uhlmann_loop_phase(
    family: ParametrizedFamily, loop: Sequence[Sequence[float]], steps: int | None = None
) -> float:
    """Uhlmann geometric phase of a closed parameter loop.

    Builds the discrete amplitude chain ``w_i = sqrt(rho_i) U_i`` with every
    consecutive pair parallel: ``U_{i+1} = V_i^dag U_i`` where ``V_i`` is
    the polar unitary of ``sqrt(rho_i) sqrt(rho_{i+1})``, which makes
    ``w_i^dag w_{i+1}`` positive Hermitian (Pancharatnam in phase).  The
    returned phase is the final-initial overlap argument
    ``arg Tr(w_last^dag w_1)``; with this orientation phase/area converges
    to ``+U_mn`` for an infinitesimal mu-then-nu parallelogram.
    """
    pts = [np.asarray(p, dtype=float) for p in loop]
    if np.linalg.norm(pts[0] - pts[-1]) > 0:
        pts.append(pts[0])
    if steps is not None:
        length = float(sum(np.linalg.norm(b - a) for a, b in zip(pts[:-1], pts[1:]))) or 1.0
        dense_pts = []
        for a, b in zip(pts[:-1], pts[1:]):
            seg = max(1, int(round(steps * np.linalg.norm(b - a) / length)))
            for t in np.linspace(0.0, 1.0, seg, endpoint=False):
                dense_pts.append(a + t * (b - a))
        dense_pts.append(pts[0])
        pts = dense_pts

    sqrts = []
    for p in pts:
        rho = family.rho(p)
        vals = np.linalg.eigvalsh(rho)
        if np.min(vals) < SUPPORT_TOL:
            raise RankDeficientOnLoop(f"state not full rank at loop point {p}")
        sqrts.append(sqrt_psd(rho))
    u = np.eye(sqrts[0].shape[0], dtype=complex)
    for i in range(len(pts) - 1):
        b = sqrts[i] @ sqrts[i + 1]
        uu, _, vh = np.linalg.svd(b)
        v_pol = uu @ vh  # b = |b| v_pol
        u = v_pol.conj().T @ u
    w0 = sqrts[0]
    w_last = sqrts[-1] @ u
    return float(np.angle(np.trace(w_last.conj().T @ w0)))


def thermal_state(h_dense: np.ndarray, beta: float) -> DenseState:
    """Gibbs state ``exp(-beta H) / Z``."""
    h = np.asarray(h_dense, dtype=complex)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (vals - np.min(vals)))
    w /= np.sum(w)
    rho = (vecs * w) @ vecs.conj().T
    return DenseState(dim=h.shape[0], rho=rho)


def fisher_rao_beta(h_dense: np.ndarray, beta: float) -> float:
    """Thermal metric ``g_bb = (1/4)(<H^2> - <H>^2)`` along inverse temperature."""
    rho = thermal_state(h_dense, beta).rho
    h = np.asarray(h_dense, dtype=complex)
    mean = np.real(np.trace(rho @ h))
    mean2 = np.real(np.trace(rho @ h @ h))
    return 0.25 * (mean2 - mean**2)


def thermal_family(h0: np.ndarray, observables: Sequence[np.ndarray], beta: float) -> ParametrizedFamily:
    """Family ``rho(lam) = exp(-beta (H0 + sum lam_mu O_mu)) / Z``."""
    obs = [np.asarray(o, dtype=complex) for o in observables]

    def evaluator(lam):
        h = np.asarray(h0, dtype=complex) + sum(l * o for l, o in zip(lam, obs))
        return thermal_state(h, beta).rho

    return ParametrizedFamily(evaluator=evaluator, labels=[f"l{i}" for i in range(len(obs))])


def muc_from_susceptibility(
    h0_dense: np.ndarray, observables: Sequence[np.ndarray], beta: float
) -> np.ndarray:
    """MUC of a thermal perturbation family from the Lehmann double sum.

    The frequency integral over the dissipative susceptibility collapses on
    the discrete spectrum to ``tanh^2(beta w_ij / 2) / w_ij^2`` weights;
    levels degenerate within 1e-10 are grouped (their weight vanishes with
    ``p_i - p_j``).  Sign convention matches ``U = 2 Im Q``.
    """
    h0 = np.asarray(h0_dense, dtype=complex)
    e, v = np.linalg.eigh(h0)
    scale = max(np.max(np.abs(e)), 1.0)
    w = np.exp(-beta * (e - np.min(e)))
    p = w / np.sum(w)
    omega = e[:, None] - e[None, :]
    distinct = np.abs(omega) > 1e-10 * scale
    weight = np.where(
        distinct,
        (p[:, None] - p[None, :])
        * np.tanh(np.clip(beta * omega / 2.0, -700, 700)) ** 2
        / np.where(distinct, omega**2, 1.0),
        0.0,
    )
    m = len(observables)
    u = np.zeros((m, m))
    mats = [v.conj().T @ np.asarray(o, dtype=complex) @ v for o in observables]
    for mu in range(m):
        for nu in range(m):
            u[mu, nu] = np.real(-1j * np.sum(weight * mats[mu] * mats[nu].T))
    return 0.5 * (u - u.T)


def sld_series_check(rho, d_kernel, *, mode: str = "auto", order: int = 30) -> np.ndarray:
    """SLD of ``rho = e^D`` from ``L = f([D, .])(dD)``, ``f(t) = tanh(t/2)/(t/2)``.

    ``mode='series'`` sums the nested-commutator Bernoulli series in the
    original basis; it converges inside ``|t| < pi`` (the poles of tanh),
    so spreads beyond ``0.6 pi`` raise SeriesDivergence at the default
    truncation.  ``mode='auto'`` falls back to applying ``f`` diagonally on
    commutator eigenvalues in the eigenbasis of D, which is exact for any
    spread.
    """
    r = _as_rho(rho)
    dd = np.asarray(d_kernel, dtype=complex)
    vals, vecs = np.linalg.eigh(r)
    if np.min(vals) < SUPPORT_TOL:
        raise SingularState("sld series check requires a full-rank state")
    d_eigs = np.log(vals)
    spread = float(np.max(d_eigs) - np.min(d_eigs))
    series_ok = spread < 0.6 * np.pi
    if mode == "series" and not series_ok:
        raise SeriesDivergence(
            f"spectral spread {spread:.3f} of D is too close to the series radius pi"
        )
    if mode == "series" or (mode == "auto" and series_ok):
        d_full = (vecs * d_eigs) @ vecs.conj().T
        bern = bernoulli(2 * order + 2)
        term = dd.copy()
        total = np.zeros_like(dd)
        for n in range(order + 1):
            k = 2 * n
            if n > 0:
                # advance by C^2: two nested commutators with D
                term = d_full @ term - term @ d_full
                term = d_full @ term - term @ d_full
            coeff = 4.0 * (4.0 ** (n + 1) - 1.0) * bern[k + 2] / math.factorial(k + 2)
            total = total + coeff * term
        l_op = total
    else:
        # f acting diagonally on commutator eigenvalues d_i - d_j
        dm = vecs.conj().T @ dd @ vecs
        t = d_eigs[:, None] - d_eigs[None, :]
        small = np.abs(t) < 1e-8
        f = np.where(small, 1.0 - t**2 / 12.0, np.tanh(t / 2.0) / np.where(small, 1.0, t / 2.0))
        l_op = vecs @ (f * dm) @ vecs.conj().T
    return 0.5 * (l_op + l_op.conj().T)


def dense_lindblad_ness(h_dense: np.ndarray, jump_ops: Sequence[np.ndarray]) -> DenseState:
    """Null state of the vectorized Liouvillian.

    ``L(rho) = -i [H, rho] + sum_a (2 A rho A^dag - {A^dag A, rho})``;
    the kernel vector of the smallest-magnitude eigenvalue is reshaped,
    Hermitized and normalized.  DegenerateNullSpace is raised when the
    kernel is more than one-dimensional.
    """
    h = np.asarray(h_dense, dtype=complex)
    d = h.shape[0]
    if d > 64:
        raise DimensionMismatch(f"dense Liouvillian limited to d <= 64, got {d}")
    eye = np.eye(d, dtype=complex)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in jump_ops:
        a = np.asarray(a, dtype=complex)
        ada = a.conj().T @ a
        lind += 2.0 * np.kron(a, a.conj()) - np.kron(ada, eye) - np.kron(eye, ada.T)
    vals, vecs = sla.eig(lind)
    order = np.argsort(np.abs(vals))
    scale = max(np.max(np.abs(vals)), 1.0)
    null_count = int(np.sum(np.abs(vals) < 1e-10 * scale))
    if null_count > 1:
        raise DegenerateNullSpace(f"{null_count}-dimensional kernel: steady state not unique")
    rho = vecs[:, order[0]].reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    rho = rho / tr
    residual = np.linalg.norm((lind @ rho.reshape(-1)).reshape(d, d))
    if residual > 1e-10 * scale:
        raise DegenerateNullSpace(f"NESS residual {residual:.3e} too large")
    return DenseState(dim=d, rho=rho)
