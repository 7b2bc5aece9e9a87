"""Properties of the installed numpy and BLAS that the exact solvers rely on.

The stacked IRLS in ``ateml.learners`` reproduces ``fit_logistic`` bit for
bit only because a stacked ``np.matmul``, ``np.linalg.solve`` or row sum
gives each slice exactly what the 2-D call gives it, and the scalar
coordinate descent only because Python floats round like numpy float64
scalars. A numpy or BLAS upgrade that breaks one of these fails here, by
name, instead of as a stray golden-value mismatch elsewhere.
"""

import numpy as np
import pytest

SHAPES = [(1, 2, 2), (3, 1, 4), (5, 7, 1), (4, 50, 3), (18, 200, 5), (7, 2000, 4),
          (2, 1600, 21), (9, 333, 12), (20, 40, 30), (1, 2500, 51)]


def layouts(rng, K, n, p):
    """The same stack with C-ordered and with Fortran-ordered slices."""
    C = rng.standard_normal((K, n, p))
    return {"C": C, "F": np.ascontiguousarray(C.transpose(0, 2, 1)).transpose(0, 2, 1)}


def require(ok, what):
    assert ok, (f"{what} no longer equals the per-slice 2-D result with numpy "
                f"{np.__version__}; the stacked IRLS in ateml.learners relies on it "
                "to reproduce fit_logistic bit for bit")


@pytest.mark.parametrize("K,n,p", SHAPES)
def test_stacked_linear_algebra_equals_per_slice(K, n, p):
    rng = np.random.default_rng(K * 1000 + n + p)
    b = rng.standard_normal((K, p))
    v = rng.standard_normal((K, n))
    w = rng.random((K, n))
    for order, M in layouts(rng, K, n, p).items():
        slices = [M[k].copy(order=order) for k in range(K)]
        MT = M.transpose(0, 2, 1)
        require(np.array_equal(np.matmul(M, b[:, :, None])[:, :, 0],
                               [m @ b[k] for k, m in enumerate(slices)]),
                f"stacked matrix-vector matmul ({order} slices)")
        require(np.array_equal(np.matmul(MT, v[:, :, None])[:, :, 0],
                               [m.T @ v[k] for k, m in enumerate(slices)]),
                f"stacked transposed matrix-vector matmul ({order} slices)")
        H = np.matmul(MT, M * w[:, :, None])
        require(np.array_equal(H, [m.T @ (m * w[k][:, None]) for k, m in enumerate(slices)]),
                f"stacked weighted cross-product matmul ({order} slices)")
    H = H + np.eye(p)
    require(np.array_equal(np.linalg.solve(H, b[:, :, None])[:, :, 0],
                           [np.linalg.solve(h, b[k]) for k, h in enumerate(H)]),
            "stacked np.linalg.solve")
    require(np.array_equal(v.sum(axis=1), [np.sum(row) for row in v]), "row sums of a (K, n) block")
    pen = np.full(p, 0.25)
    pen[0] = 0.0
    require(np.array_equal(np.matmul((b * b)[:, None, :], pen[:, None])[:, 0, 0],
                           [pen @ (row * row) for row in b]), "stacked dot products")
    require(np.array_equal(np.sqrt(np.matmul(b[:, None, 1:], b[:, 1:, None])[:, 0, 0]),
                           [np.linalg.norm(row[1:]) for row in b]), "stacked norms")


def test_layouts_the_stacked_designs_copy():
    X = np.random.default_rng(0).standard_normal((30, 6))
    ones = np.ones(30)
    require(np.column_stack([ones, X[:, [2]]]).flags.c_contiguous,
            "C order of a design built from one column")
    require(np.column_stack([ones, X[:, [0, 2, 5]]]).flags.f_contiguous,
            "Fortran order of a design built from a column subset")
    F = np.ascontiguousarray(np.zeros((4, 3, 30))).transpose(0, 2, 1)
    require(F[np.array([True, False, True, True])][0].flags.f_contiguous,
            "slice layout kept by boolean indexing of a stack")


def test_python_floats_round_like_numpy_scalars():
    rng = np.random.default_rng(1)
    for a, b in rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-5, 6, (200, 2)):
        fa, fb = float(a), float(b)
        for got, want in [(fa + fb, a + b), (fa - fb, a - b), (fa * fb, a * b),
                          (fa / fb, a / b), (abs(fa), np.abs(a))]:
            assert got == want, "Python float arithmetic differs from numpy float64"
    for z in (0.0, -0.0):
        assert not np.signbit(np.sign(z)), "np.sign of a zero is no longer +0.0"
