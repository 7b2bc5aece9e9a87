"""Properties of the installed numpy and BLAS that the exact solvers rely on.

The stacked IRLS in ``ateml.learners`` reproduces ``fit_logistic`` bit for
bit only because a stacked ``np.matmul``, ``np.linalg.solve``, row sum or
``expit`` gives each slice exactly what the call on that slice alone gives
it, and the scalar coordinate descent only because Python floats round like
numpy float64 scalars. A numpy or BLAS upgrade that breaks one of these
fails here, by name, instead of as a stray golden-value mismatch elsewhere.
``ateml.core``'s ``expit`` and ``logit`` are numpy's ``exp``, ``log`` and
``log1p``; they are also held to scipy's within a few ulp.
"""

import warnings

import numpy as np
import pytest
from scipy import special

from ateml.core import expit, logit

SHAPES = [(1, 2, 2), (3, 1, 4), (5, 7, 1), (4, 50, 3), (18, 200, 5), (7, 2000, 4),
          (2, 1600, 21), (9, 333, 12), (20, 40, 30), (1, 2500, 51)]


def layouts(rng, K, n, p):
    """The same stack with C-ordered and with Fortran-ordered slices."""
    C = rng.standard_normal((K, n, p))
    return {"C": C, "F": np.ascontiguousarray(C.transpose(0, 2, 1)).transpose(0, 2, 1)}


def require(ok, what):
    assert ok, (f"{what} no longer equals the per-slice result with numpy "
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


@pytest.mark.parametrize("K,n", sorted({(K, n) for K, n, _ in SHAPES}))
def test_expit_and_logit_give_a_block_what_they_give_its_rows_and_scalars(K, n):
    rng = np.random.default_rng(K * 1000 + n)
    cases = {"expit": (expit, 10.0 * rng.standard_normal((K, n))),
             "logit": (logit, rng.random((K, n)))}
    for name, (fn, block) in cases.items():
        got = fn(block)
        require(np.array_equal(got, [fn(row) for row in block]),
                f"{name} of a C-contiguous (K, n) block")
        step = max(1, block.size // 300)
        values = block.ravel()[::step]
        want = got.ravel()[::step]
        require(np.array_equal([fn(np.array(v)) for v in values], want), f"{name} of 0-d arrays")
        require(np.array_equal([fn(float(v)) for v in values], want), f"{name} of Python floats")


def ulps(a, b):
    """Largest distance in units of the last place over the finite entries."""
    both = np.isfinite(a) & np.isfinite(b)
    a, b = a[both], b[both]
    return float(np.max(np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))))


def test_expit_and_logit_agree_with_scipy_without_warnings():
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-750.0, 750.0, 300_001), 40.0 * rng.standard_normal(100_000)])
    p = np.concatenate([np.linspace(0.0, 1.0, 300_001), rng.random(100_000),
                        10.0 ** -rng.uniform(0.0, 300.0, 10_000),
                        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000)])
    edges = np.array([0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, np.nan, -1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = {"expit": (expit(x), expit(edges)), "logit": (logit(p), logit(edges))}
    theirs = {"expit": (special.expit(x), special.expit(edges)),
              "logit": (special.logit(p), special.logit(edges))}
    for name in ours:
        (grid, at_edges), (want, want_edges) = ours[name], theirs[name]
        assert ulps(grid, want) <= 4.0, f"{name} is more than 4 ulp from scipy's"
        assert np.array_equal(np.isfinite(grid), np.isfinite(want))
        assert np.array_equal(at_edges, want_edges, equal_nan=True), f"{name} at 0, 1, +-inf, nan"
