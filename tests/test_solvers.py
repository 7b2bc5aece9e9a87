"""The logistic and lasso solvers against their verbatim reference.

``solver_oracle`` holds the solvers as they were before IRLS carried its
accepted candidates forward, before a stack of designs shared one IRLS loop
and before coordinate descent ran on Python floats. Every comparison is
exact: intercepts, coefficients, the sign of every zero, and flags.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_oracle as oracle
from ateml import learners
from ateml.learners import fit_logistic, fit_logistic_lasso, lasso_lambda_max

KINDS = ["normal", "binary", "constant", "duplicate", "near_duplicate", "separating"]


def same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def same_model(new, old):
    return (same(new.intercept, old.intercept) and same(new.coef, old.coef)
            and new.flags == old.flags)


@st.composite
def binary_problem(draw, n_min=2, d_min=1):
    """A 0/1 target with both classes and columns of mixed kinds and scales:
    constant, duplicated or nearly duplicated columns (singular Hessians),
    and columns that separate the classes."""
    n = draw(st.integers(n_min, 40))
    d = draw(st.integers(d_min, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (rng.random(n) < draw(st.sampled_from([0.2, 0.5]))).astype(float)
    y[0], y[-1] = 0.0, 1.0
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(KINDS))
        scale = 10.0 ** draw(st.integers(-4, 4))
        if kind == "constant":
            col = np.full(n, scale)
        elif kind == "binary":
            col = rng.integers(0, 2, n).astype(float)
        elif kind == "separating":
            col = scale * (y - 0.5 + 0.1 * rng.random(n))
        elif cols and kind == "duplicate":
            col = cols[0].copy()
        elif cols and kind == "near_duplicate":
            col = cols[0] + 1e-12 * scale * rng.standard_normal(n)
        else:
            col = scale * rng.standard_normal(n)
        cols.append(col)
    return np.column_stack(cols), y


def near_duplicate_design(seed, n=50, d=3):
    """Columns of very different scales, the last one a near copy of the
    first: IRLS exhausts its step halvings on these (seeds 48, 220, 345)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=d)
    X[:, -1] = X[:, 0] + 10.0 ** rng.integers(-16, -8) * rng.standard_normal(n)
    y = (rng.random(n) < 0.5).astype(float)
    y[0], y[-1] = 0.0, 1.0
    return X, y


# -- logistic IRLS -----------------------------------------------------------


@given(binary_problem(), st.sampled_from([0.0, 0.0, 1e-6, 0.5]))
@settings(max_examples=150)
def test_fit_logistic_matches_reference(problem, ridge):
    X, y = problem
    assert same_model(fit_logistic(X, y, ridge), oracle.fit_logistic(X, y, ridge))


@given(binary_problem(d_min=2), st.data())
@settings(max_examples=100)
def test_stacked_candidates_match_reference(problem, data):
    X, y = problem
    d = X.shape[1]
    base = tuple(data.draw(st.lists(st.integers(0, d - 1), max_size=d - 1, unique=True)))
    extra = [j for j in range(d) if j not in base] + list(base[:1])  # may repeat a base column
    cap = data.draw(st.sampled_from([1, X.shape[0] * (len(base) + 2) * 2, learners._STACK]))
    saved, learners._STACK = learners._STACK, cap
    try:
        fits = learners._fit_logistic_candidates(X, y, base, extra)
    finally:
        learners._STACK = saved
    assert len(fits) == len(extra)
    for j, fit in zip(extra, fits):
        assert same_model(fit, oracle.fit_logistic(X[:, list(base) + [j]], y))


def _events(monkeypatch):
    """Record the order of Newton solves ('S'), log-likelihood evaluations
    ('L') and least-squares fallbacks ('Q') inside the IRLS loop."""
    events = []
    solve, lstsq, loglik = np.linalg.solve, np.linalg.lstsq, learners._penalised_loglik

    def rec(mark, fn):
        def wrapped(*args, **kwargs):
            events.append(mark)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "solve", rec("S", solve))
    monkeypatch.setattr(np.linalg, "lstsq", rec("Q", lstsq))
    monkeypatch.setattr(learners, "_penalised_loglik", rec("L", loglik))
    return events


@pytest.mark.parametrize("seed", [48, 220, 345])
def test_exhausted_halvings_match_reference(seed, monkeypatch):
    X, y = near_duplicate_design(seed)
    want = oracle.fit_logistic(X, y)
    events = _events(monkeypatch)
    assert same_model(fit_logistic(X, y), want)
    # 30 rejected candidates and the fresh evaluation of the halved step
    assert "S" + "L" * 31 in "".join(events)


def test_problems_of_one_stack_halve_independently(monkeypatch):
    y = near_duplicate_design(48)[1]
    Xs = [near_duplicate_design(seed)[0] for seed in (48, 220, 345, 249, 356, 364)]
    M = np.stack([np.column_stack([np.ones(50), X]) for X in Xs])
    events = _events(monkeypatch)
    beta, separated = learners._irls(M, y, 0.0)
    assert "L" * 3 in "".join(events)  # some halving in the stack
    for X, b, s in zip(Xs, beta, separated):
        assert same_model(learners._logistic_model(b, s), oracle.fit_logistic(X, y))


def test_singular_hessian_takes_the_least_squares_step(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, 30).astype(float)  # exact sums: an exactly singular Hessian
    X = np.column_stack([x, x, rng.standard_normal(30)])
    y = (rng.random(30) < 0.5).astype(float)
    want = oracle.fit_logistic(X, y)
    events = _events(monkeypatch)
    assert same_model(fit_logistic(X, y), want)
    assert "Q" in events
    # in a stack, the singular problem falls back alone
    events.clear()
    fits = learners._fit_logistic_candidates(X, y, (0,), [1, 2])
    assert "Q" in events
    for j, fit in zip([1, 2], fits):
        assert same_model(fit, oracle.fit_logistic(X[:, [0, j]], y))


def test_separation_refit_in_a_stack():
    rng = np.random.default_rng(6)
    y = np.tile([0.0, 1.0], 20)
    # a small-scale separating column drives the slope norm past 1e3
    X = np.column_stack([rng.standard_normal(40), 1e-3 * (y - 0.5), rng.standard_normal(40)])
    fits = learners._fit_logistic_candidates(X, y, (0,), [1, 2])
    assert fits[0].flags == ("separation_ridge",) and fits[1].flags == ()
    for j, fit in zip([1, 2], fits):
        assert same_model(fit, oracle.fit_logistic(X[:, [0, j]], y))


# -- lasso coordinate descent ------------------------------------------------


@pytest.mark.parametrize("z", [0.0, -0.0, 0.3, -0.3, 0.7, -0.7, 1.0, -1.0, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, np.inf, -0.2])
def test_scalar_soft_threshold_matches_numpy(z, t):
    with np.errstate(invalid="ignore"):
        want = float(np.sign(z) * np.maximum(np.abs(z) - t, 0.0))
    assert same(learners._soft(z, t), want)


LAMBDA_FRACTIONS = st.sampled_from([0.0, 1e-3, 0.05, 0.3, 0.9, 1.0, 2.0])


@given(binary_problem(), LAMBDA_FRACTIONS)
@settings(max_examples=100)
def test_fit_logistic_lasso_matches_reference(problem, frac):
    X, y = problem
    lam = frac * lasso_lambda_max(X, y)
    assert same_model(fit_logistic_lasso(X, y, lam), oracle.fit_logistic_lasso(X, y, lam))


@st.composite
def regression_problem(draw):
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 3))
    for j in range(d):
        kind = draw(st.sampled_from(["normal", "constant", "duplicate", "binary"]))
        if kind == "constant":
            X[:, j] = 1.5
        elif kind == "duplicate":
            X[:, j] = X[:, 0]
        elif kind == "binary":
            X[:, j] = rng.integers(0, 2, n)
    y = X @ rng.standard_normal(d) * draw(st.sampled_from([0.0, 1.0])) + rng.standard_normal(n)
    return X, y


@given(regression_problem(), st.lists(LAMBDA_FRACTIONS, min_size=1, max_size=4))
@settings(max_examples=100)
def test_lasso_path_and_cd_match_reference(problem, fracs):
    X, y = problem
    lmax = lasso_lambda_max(X, y)
    lams = np.array(sorted((f * lmax for f in fracs), reverse=True))
    new, old = learners._lasso_path(X, y, lams), oracle._lasso_path(X, y, lams)
    for (b0, coef), (c0, ccoef) in zip(new, old):
        assert same(b0, c0) and same(coef, ccoef)
    Xs, _, _, ok = learners._standardize(X)
    n = X.shape[0]
    G, c = Xs.T @ Xs / n, Xs.T @ (y - y.mean()) / n
    for lam in lams[lams > 0]:
        got = learners._cd_lasso(G, c, float(lam), ok, np.zeros(X.shape[1]))
        assert same(got, oracle._cd_lasso(G, c, float(lam), ok, np.zeros(X.shape[1])))


def test_signed_zero_coefficients_survive():
    # a coefficient that enters and then leaves from the negative side ends
    # as -0.0 in both solvers
    for seed in range(200):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 3))
        y = (rng.random(12) < 0.5).astype(float)
        y[0], y[-1] = 0.0, 1.0
        lam = 0.2 * lasso_lambda_max(X, y)
        old = oracle.fit_logistic_lasso(X, y, lam)
        if np.any((old.coef == 0.0) & np.signbit(old.coef)):
            assert same_model(fit_logistic_lasso(X, y, lam), old)
            return
    pytest.fail("no design with a negative zero coefficient found")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_column_whose_spread_overflows_gives_numpy_nans():
    # the standard deviation overflows to inf, so the standardised column is
    # all zeros and coordinate descent divides by zero: numpy's nan, as
    # before, not a ZeroDivisionError from Python floats
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal(20), 1e200 * rng.choice([-1.0, 1.0], 20)])
    y = (rng.random(20) < 0.5).astype(float)
    y[0], y[-1] = 0.0, 1.0
    assert same_model(fit_logistic_lasso(X, y, 0.01), oracle.fit_logistic_lasso(X, y, 0.01))
    lams = np.array([0.1, 0.01])
    for (b0, coef), (c0, ccoef) in zip(learners._lasso_path(X, y, lams), oracle._lasso_path(X, y, lams)):
        assert same(b0, c0) and same(coef, ccoef)
