"""The chain point's products and norms, and what it takes from scipy.

``numerics._matmul`` and ``numerics._frobenius`` against numpy, the Schur
path's point against scipy's own Lyapunov solver, a modes-path point with
scipy unimportable, and a source guard that keeps bare BLAS entry points out
of the chain point's functions (its products and norms go through
``_matmul`` and the scaled ``_frobenius``) and out of the symbol path's sums
over sample points.
"""
import ast
import inspect
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla

from nessgeom import cli, gaussian, geometry, liouvillian, models, momentum, numerics

from conftest import dense_slope


def _close(got, want, rtol=1e-14):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _operand_pairs(rng):
    """``(a, b)`` pairs in every memory layout the chain point passes in."""
    big = rng.normal(size=(9, 11))
    wide = rng.normal(size=(4, 13))
    square = rng.normal(size=(10, 10))
    k = 4
    yield rng.normal(size=(5, 3)), rng.normal(size=(3, 7))  # C-order, odd shapes
    yield np.asfortranarray(rng.normal(size=(5, 3))), np.asfortranarray(rng.normal(size=(3, 7)))
    yield rng.normal(size=(3, 5)).T, rng.normal(size=(7, 3)).T  # transposed views
    yield big[:, k:], rng.normal(size=(7, 2))  # column slice, as c[:, k:]
    yield big[2:5], wide[:, 2:].T  # row slice times a transposed column slice
    yield rng.normal(size=(6, 6)), square[:k, k:].T  # as b[:k, k:].T
    yield np.asfortranarray(square)[:k, k:], square[k:, :3]  # F-ordered slice
    yield np.zeros((0, 0)), np.zeros((0, 0))
    yield np.zeros((3, 0)), np.zeros((0, 5))
    yield np.zeros((0, 4)), rng.normal(size=(4, 2))
    yield rng.normal(size=(1, 1)), rng.normal(size=(1, 1))
    yield rng.normal(size=(1, 7)), rng.normal(size=(7, 1))
    yield rng.normal(size=(7, 1)), rng.normal(size=(1, 7))


class TestMatmul:
    def test_matches_numpy_in_every_layout(self, rng):
        for a, b in _operand_pairs(rng):
            got = numerics._matmul(a, b)
            _close(got, a @ b)
            assert got.flags.c_contiguous

    def test_inputs_untouched(self, rng):
        for a, b in _operand_pairs(rng):
            a0, b0 = a.copy(), b.copy()
            numerics._matmul(a, b)
            assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_update_in_place(self, rng):
        for a, b in _operand_pairs(rng):
            c = rng.normal(size=(a.shape[0], b.shape[1]))
            want = c - a @ b
            assert numerics._matmul(a, b, c) is c
            _close(c, want)

    def test_update_of_slices_leaves_the_rest(self, rng):
        # the recursion's updates: c[:k] -= a c[k:] and c[:, :k] -= c[:, k:] b^T
        k = 4
        a = rng.normal(size=(9, 9))
        c = rng.normal(size=(9, 10))
        c0 = c.copy()
        numerics._matmul(a[:k, k:], c[k:], c[:k])
        _close(c[:k], c0[:k] - a[:k, k:] @ c0[k:])
        assert np.array_equal(c[k:], c0[k:])
        b = rng.normal(size=(10, 10))
        c0 = c.copy()
        numerics._matmul(c[:, k:], b[:k, k:].T, c[:, :k])
        _close(c[:, :k], c0[:, :k] - c0[:, k:] @ b[:k, k:].T)
        assert np.array_equal(c[:, k:], c0[:, k:])

    def test_frobenius_matches_numpy(self, rng):
        big = rng.normal(size=(9, 11))
        for x in (big, big.T, big[:, 3:], big[2:5], np.asfortranarray(big),
                  np.zeros((0, 0)), np.zeros((3, 0)), np.array([[2.5]])):
            want = np.linalg.norm(x)
            assert abs(numerics._frobenius(x) - want) <= 1e-14 * want
        # scaled where numpy's sqrt(x . x) under- or overflows
        for scale in (1e-200, 1e200):
            for x in (big, big.T, big[:, 3:]):
                want = scale * np.linalg.norm(x)
                assert abs(numerics._frobenius(scale * x) - want) <= 1e-14 * want
        assert numerics._frobenius(np.array([[1e-320]])) == 1e-320  # subnormal
        assert numerics._frobenius(np.array([[np.inf, 1.0]])) == np.inf
        assert np.isnan(numerics._frobenius(np.array([[np.nan, 1.0]])))


@pytest.mark.parametrize("n", [2, 32, 33, 40])
def test_point_geometry_matches_scipy(n, monkeypatch):
    # d = 64, 66 and 80 split the Schur path's recursion around its leaf;
    # the modes path is held to a refined reference in test_numerics
    monkeypatch.setattr(numerics, "_bath_support", lambda x: None)
    p = models.BoundaryXYParams(delta=1.25, h=0.3, n=n)
    shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
    derivatives = models.boundary_xy_shape_derivatives(p)
    point = liouvillian.point_geometry(shape, derivatives)
    a = sla.solve_continuous_lyapunov(shape.x, shape.b)
    a = 0.5 * (a - a.T)
    assert np.linalg.norm(point.a - a) <= 1e-11 * np.linalg.norm(a)
    gap = 2.0 * np.min(np.real(np.linalg.eigvals(shape.x)))
    assert abs(point.gap - gap) <= 1e-10
    d_as = []
    for (dx, _), d_a in zip(derivatives.values(), point.tangents.d_a):
        dx = dense_slope(dx, 2 * n)
        ref = sla.solve_continuous_lyapunov(shape.x, -(dx @ a + a @ dx.T))
        assert np.linalg.norm(d_a - ref) <= 1e-11 * np.linalg.norm(ref)
        d_as.append(ref)
    ref = geometry.qgt(1j * a, geometry.TangentSet(tuple(derivatives), tuple(d_as)))
    assert point.qgt.gmax() == pytest.approx(ref.gmax(), rel=1e-6)
    assert gaussian.purity(point.modes) == pytest.approx(gaussian.purity(1j * a), rel=1e-6)


@pytest.mark.parametrize("n", [32, 33, 40])
def test_slope_product_is_the_gemm(n):
    # the boundary-XY slopes have at most two nonzeros (+-1, +-2) per row
    p = models.BoundaryXYParams(delta=1.25, h=0.3, n=n)
    a = liouvillian.point_geometry(
        liouvillian.shape_matrices(models.build_boundary_driven_xy(p))
    ).a
    for slope, db in models.boundary_xy_shape_derivatives(p).values():
        assert db is None
        dense = dense_slope(slope, 2 * n)
        want = numerics._matmul(dense, a).tobytes()
        assert liouvillian._slope_product(slope, a).tobytes() == want
        assert liouvillian._slope_product(dense, a).tobytes() == want


def test_slope_product_of_a_dense_direction(rng):
    a = rng.normal(size=(12, 12))
    a -= a.T
    for dx in (rng.normal(size=(12, 12)), np.triu(rng.normal(size=(12, 12))),
               np.zeros((12, 12))):
        got = liouvillian._slope_product(dx, a)
        assert got.flags.c_contiguous
        assert np.linalg.norm(got - dx @ a) <= 1e-14 * np.linalg.norm(dx) * np.linalg.norm(a)


# every function of a chain point that assembles, multiplies or takes norms of
# d x d arrays, the modes path's complex products on its Aberth and eigenvector
# blocks included: each product goes through numerics._matmul and each norm
# through numerics._frobenius, which TestMatmul holds to numpy in every layout
# (a bare np.linalg.norm reads 0 on a 1e-200 array)
ROUTED = (
    numerics.LyapunovSolver.__init__,
    numerics.LyapunovSolver.solve,
    numerics._SchurFactor.__init__,
    numerics._SchurFactor.solve,
    numerics._solve_quasi_triangular_sylvester,
    numerics._solve_antisymmetric_lyapunov,
    numerics._ModesFactor.__init__,
    numerics._eigenvector_block,
    numerics._ModesFactor._check_inverse,
    numerics._ModesFactor.solve,
    numerics._bath_support,
    numerics._pair_guesses,
    numerics._real_weights,
    numerics._weighted,
    numerics._secular_matrices,
    numerics._secular_solve,
    numerics._aberth_roots,
    numerics._scale_eigenvectors,
    numerics._divide_by_pair_sums,
    numerics._sparse_rows,
    numerics._sparse_product,
    numerics._pair_min,
    liouvillian.shape_matrices,
    liouvillian.gap_report,
    liouvillian._slope_product,
    liouvillian._tangent_source,
    liouvillian._solve_tangents,
    liouvillian.point_geometry,
    gaussian.real_eigenmodes,
    gaussian._schur_pairs,
    geometry.qgt,
)
# the symbol path's sums over sample points, kept off numpy's BLAS: there its
# threaded GEMM slowed the batched 4x4 solves after it 3-4x, and took 8 ms for
# a 512-point contour sum that einsum forms in 0.05 ms (2-vCPU box)
BLAS_FREE_SUMS = (momentum._contract, momentum._contour_integral)
NUMPY_BLAS = {"np.dot", "np.linalg.norm", "np.tensordot", "np.matmul", "np.inner", "np.vdot"}


def _numpy_blas_uses(source: str) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append("@")
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in NUMPY_BLAS:
            uses.append(ast.unparse(node))
    return uses


def test_guard_sees_numpy_blas():
    src = "def f(a, b):\n    c = a @ b\n    c @= b\n    return np.linalg.norm(np.dot(a, c))\n"
    assert sorted(_numpy_blas_uses(src)) == ["@", "@", "np.dot", "np.linalg.norm"]
    src = ("def f(a, b):\n    def g(v):\n        return np.tensordot(v, b, axes=(0, 0))\n"
           "    return np.matmul(a, b) + np.inner(a, b) + np.vdot(a, g(a))\n")
    assert sorted(_numpy_blas_uses(src)) == ["np.inner", "np.matmul", "np.tensordot", "np.vdot"]


@pytest.mark.parametrize("func", ROUTED + BLAS_FREE_SUMS, ids=lambda f: f.__qualname__)
def test_routed_functions_stay_off_numpy_blas(func):
    assert _numpy_blas_uses(inspect.getsource(func)) == []


# boundary-XY cells that take the modes path: the warm-up size, the scaling
# run's smallest size, a sweep cell and a flat-band cell that restarts Aberth
MODES_CELLS = [dict(n=n, delta=delta, h=h) for n, delta, h in
               ((4, 1.25, 0.3), (20, 1.25, 0.3), (40, 1.25, 0.3), (40, 1.0, 0.041))]


def _without_scipy(monkeypatch):
    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)  # any scipy import now fails


@pytest.mark.parametrize("params", MODES_CELLS,
                         ids=lambda p: "n={n},delta={delta},h={h}".format(**p))
def test_modes_path_point_calls_no_scipy(params, monkeypatch):
    want = cli.evaluate_point("boundary_xy", params, cli.FINITE_QUANTITIES)
    _without_scipy(monkeypatch)
    assert cli.evaluate_point("boundary_xy", params, cli.FINITE_QUANTITIES) == want
    shape = liouvillian.shape_matrices(models.build_boundary_driven_xy(
        models.BoundaryXYParams(**params)))
    assert liouvillian.gap_report(shape.x).condition_estimator == "modes_frobenius"


def test_schur_path_point_needs_scipy(monkeypatch):
    # the XX chain at zero field refuses the modes path: real Schur is scipy's
    _without_scipy(monkeypatch)
    with pytest.raises(ImportError):
        cli.evaluate_point("boundary_xy", {"n": 40, "delta": 0.0, "h": 0.0}, cli.FINITE_QUANTITIES)
