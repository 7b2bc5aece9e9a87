"""The SMD kernel ``balance._smds`` against the one-column computation it
replaced, kept here as the reference: bit for bit, column by column."""

import numpy as np
import pytest

from ateml.balance import _smds, asam, balance_table, iptw_weights, smd
from ateml.core import Dataset, OutcomeKind, rng_from


def reference_smd(x, A, w=None):
    """One column's SMD, treated minus control, as computed before the
    kernel: None for constant arms of unequal values."""
    x = np.asarray(x, dtype=float)
    A = np.asarray(A)
    t, c = A == 1, A == 0
    if not (t.any() and c.any()):
        raise ValueError("both treatment arms must be non-empty")
    xt, xc = x[t], x[c]
    if xt.min() == xt.max() and xc.min() == xc.max():
        return 0.0 if xt[0] == xc[0] else None
    wt = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    mean_t = float(np.sum(wt[t] * xt) / np.sum(wt[t]))
    mean_c = float(np.sum(wt[c] * xc) / np.sum(wt[c]))
    var_t = float(np.var(xt, ddof=1)) if xt.size > 1 else 0.0
    var_c = float(np.var(xc, ddof=1)) if xc.size > 1 else 0.0
    return (mean_t - mean_c) / float(np.sqrt((var_t + var_c) / 2.0))


def design(seed):
    """A random design: normal and Bernoulli columns, a constant column, a
    column constant within each arm (degenerate), sometimes an arm of one
    unit, and IPTW weights from a logistic score."""
    rng = rng_from(seed)
    n = int(rng.integers(2, 60))
    A = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
    if seed % 4 == 0:
        A[:] = 0
        A[int(rng.integers(n))] = 1  # a treated arm of one unit
    if A.min() == A.max():
        A[0] = 1 - A[0]
    cols = [rng.standard_normal(n) * rng.uniform(0.01, 100.0),
            (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float),
            (rng.random(n) < 0.5).astype(float) * A,
            np.full(n, rng.standard_normal()),
            np.where(A == 1, 0.1, -0.1)]
    X = np.column_stack(cols)
    ps = np.clip(1.0 / (1.0 + np.exp(-X[:, :2] @ rng.standard_normal(2))), 0.01, 0.99)
    return X, A, iptw_weights(ps, A)


def same(got, want):
    """Both None, or the same double bit for bit."""
    if got is None or want is None:
        return got is want
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("weighted", [False, True])
def test_kernel_equals_the_reference_bit_for_bit(seed, weighted):
    X, A, w = design(seed)
    w = w if weighted else None
    s, degenerate = _smds(X, A, w)
    for j in range(X.shape[1]):
        want = reference_smd(X[:, j], A, w)
        assert degenerate[j] == (want is None)
        assert same(None if degenerate[j] else s[j], want), (seed, j)
        assert same(smd(X[:, j], A, w), want)
    assert degenerate[4] and s[3] == 0.0
    finite = [abs(v) for v in (reference_smd(x, A, w) for x in X.T) if v is not None]
    with pytest.warns(UserWarning, match="degenerate"):
        assert same(asam(X, A, w), float(np.mean(finite)))
    ds = Dataset(X, A, np.zeros(X.shape[0]), OutcomeKind.binary())
    table = balance_table(ds, [] if w is None else [("w", w)])
    label = table.labels[-1]
    assert all(same(v, reference_smd(x, A, w)) for v, x in zip(table.smds[label], X.T))
    assert same(table.asam[label], float(np.mean(finite)))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_nonpositive_weights_are_rejected(bad):
    X, A, w = design(1)
    w = w.copy()
    w[-1] = bad
    ds = Dataset(X, A, np.zeros(X.shape[0]), OutcomeKind.binary())
    for call in (lambda: smd(X[:, 0], A, w), lambda: asam(X, A, w),
                 lambda: balance_table(ds, [("w", w)])):
        with pytest.raises(ValueError, match="strictly positive"):
            call()
