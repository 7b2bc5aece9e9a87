"""The batched tree engine against the per-node reference grower.

Every comparison is exact: the same splits, thresholds and leaf values, the
same predictions, and the same training scores after every boosting stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle as oracle
from ateml import learners
from ateml.learners import fit_boost, fit_forest, fit_tree, tree_predict


def assert_same_tree(new, old):
    stack = [(new, old)]
    while stack:
        a, b = stack.pop()
        assert a.is_leaf == b.is_leaf
        if a.is_leaf:
            assert a.value == b.value or (np.isnan(a.value) and np.isnan(b.value))
        else:
            assert (a.feature, a.threshold) == (b.feature, b.threshold)
            stack += [(a.left, b.left), (a.right, b.right)]


@st.composite
def tied_data(draw):
    """Small designs with heavy ties: grid-valued and constant columns,
    duplicated rows, and targets on a grid or far from zero."""
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(1, n))  # rows are drawn from this many distinct ones
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["constant", "binary", "grid", "continuous"]))
        if kind == "constant":
            cols.append(np.full(base, 0.5))
        elif kind == "continuous":
            cols.append(rng.standard_normal(base))
        else:
            cols.append(rng.integers(0, 2 if kind == "binary" else 5, base).astype(float))
    X = np.column_stack(cols)[rng.integers(0, base, n)]
    y_kind = draw(st.sampled_from(["grid", "continuous", "offset"]))
    if y_kind == "grid":
        y = rng.integers(0, 3, n).astype(float)
    elif y_kind == "continuous":
        y = rng.standard_normal(n)
    else:  # large and nearly constant: prefix-sum SSEs lose digits
        y = 1e6 + rng.integers(0, 2, n).astype(float)
    return X, y


MIN_LEAF = st.sampled_from([1, 2, 5, 10])
MAX_DEPTH = st.sampled_from([None, 1, 2, 3, 6])


@given(tied_data(), MIN_LEAF, MAX_DEPTH)
@settings(max_examples=120)
def test_tree_matches_reference(data, min_leaf, max_depth):
    X, y = data
    new = fit_tree(X, y, max_depth, min_leaf)
    old = oracle.fit_tree(X, y, max_depth, min_leaf)
    assert_same_tree(new, old)
    Q = np.vstack([X, X + 0.25])
    assert np.array_equal(tree_predict(new, Q), oracle.tree_predict(old, Q))


@given(tied_data(), MIN_LEAF, MAX_DEPTH, st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_forest_matches_reference(data, min_leaf, max_depth, mtry, seed):
    X, y = data
    mtry = min(mtry, X.shape[1])
    new = fit_forest(X, y, n_trees=3, mtry=mtry, min_leaf=min_leaf, seed=seed,
                     max_depth=max_depth)
    old = oracle.fit_forest(X, y, n_trees=3, mtry=mtry, min_leaf=min_leaf, seed=seed,
                            max_depth=max_depth)
    for a, b in zip(new.trees, old, strict=True):
        assert_same_tree(a, b)
    assert np.array_equal(new.predict(X), oracle.forest_predict(old, X))


@given(tied_data(), st.sampled_from(["squared", "bernoulli"]), MIN_LEAF,
       st.sampled_from([1, 2, 3, 6]))
@settings(max_examples=80)
def test_boost_matches_reference_stage_by_stage(data, loss, min_leaf, max_depth):
    X, y = data
    if loss == "bernoulli":
        y = (y > np.median(y)).astype(float)
    seen_new, seen_old = [], []
    new = fit_boost(X, y, n_trees=4, max_depth=max_depth, shrinkage=0.3, loss=loss,
                    min_leaf=min_leaf, callback=lambda t, F: seen_new.append(F.copy()))
    f0, old = oracle.fit_boost(X, y, n_trees=4, max_depth=max_depth, shrinkage=0.3, loss=loss,
                               min_leaf=min_leaf, callback=lambda t, F: seen_old.append(F.copy()))
    assert new.f0 == f0
    for a, b in zip(seen_new, seen_old, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(new.trees, old, strict=True):
        assert_same_tree(a, b)
    assert np.array_equal(new.predict_raw(X), oracle.boost_predict_raw(f0, old, 0.3, X))


def test_forest_feature_draws_follow_depth_first_order():
    # Deep trees with mtry < d draw once per node; a draw taken out of the
    # depth-first, right-child-first order would change later splits.
    rng = np.random.default_rng(7)
    X = rng.standard_normal((120, 5))
    X[:, 3] = np.round(X[:, 3])
    y = X[:, 0] + np.sin(3 * X[:, 1]) + 0.3 * rng.standard_normal(120)
    new = fit_forest(X, y, n_trees=12, mtry=2, min_leaf=1, seed=11)
    old = oracle.fit_forest(X, y, n_trees=12, mtry=2, min_leaf=1, seed=11)
    for a, b in zip(new.trees, old, strict=True):
        assert_same_tree(a, b)
    Q = rng.standard_normal((50, 5))
    assert np.array_equal(new.predict(Q), oracle.forest_predict(old, Q))


def test_small_caps_split_every_batch(monkeypatch):
    # Tiny block and group caps force several forest groups, many scoring
    # blocks and chunked partitions; the result must not depend on them.
    monkeypatch.setattr(learners, "_BLOCK", 64)
    monkeypatch.setattr(learners, "_PAD", 8)
    monkeypatch.setattr(learners, "_FOREST_SAMPLES", 100)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 6, (45, 3)).astype(float)
    y = X[:, 0] * X[:, 1] + rng.standard_normal(45)
    for mtry in (1, 3):
        new = fit_forest(X, y, n_trees=7, mtry=mtry, min_leaf=2, seed=5)
        old = oracle.fit_forest(X, y, n_trees=7, mtry=mtry, min_leaf=2, seed=5)
        for a, b in zip(new.trees, old, strict=True):
            assert_same_tree(a, b)
        assert np.array_equal(new.predict(X), oracle.forest_predict(old, X))
    boost = fit_boost(X, y, n_trees=3, max_depth=4)
    f0, stages = oracle.fit_boost(X, y, n_trees=3, max_depth=4)
    assert np.array_equal(boost.predict_raw(X), oracle.boost_predict_raw(f0, stages, 0.1, X))


@pytest.mark.parametrize("offset", [1e5, 3e5, 1e6, 7e6, 1e8])
def test_no_gain_split_decided_by_exact_parent_sse(offset):
    # Every split leaves both child means at the parent's, so the best child
    # SSE equals the parent's up to rounding; the prefix-sum SSE is too
    # coarse at this offset to decide, and the node must stay a leaf exactly
    # when the pairwise-summed parent SSE says so.
    X = np.repeat([[0.0], [1.0]], 4, axis=0)
    y = offset + np.tile([0.0, 1.0], 4)
    new = fit_tree(X, y, max_depth=2, min_leaf=1)
    old = oracle.fit_tree(X, y, max_depth=2, min_leaf=1)
    assert_same_tree(new, old)


def test_midpoint_rounding_to_the_upper_value_splits_at_the_lower_value():
    # (a + b) / 2 rounds up to b for these adjacent floats; splitting there
    # would send both rows left and leave an empty right child. The lower
    # value splits the rows apart instead, into two finite leaves.
    lo = 1.0 - 2.0**-53
    X = np.array([[lo], [1.0]])
    y = np.array([0.0, 1.0])
    for depth in (3, None):  # unlimited depth used to grow without end
        new = fit_tree(X, y, max_depth=depth, min_leaf=1)
        old = oracle.fit_tree(X, y, max_depth=depth, min_leaf=1)
        assert new.threshold == lo
        assert (new.left.is_leaf, new.right.is_leaf) == (True, True)
        assert (new.left.value, new.right.value) == (0.0, 1.0)
        assert_same_tree(new, old)
        assert tree_predict(new, np.array([[0.5], [lo], [1.0], [2.0]])).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_midpoint_overflowing_to_inf_splits_at_the_lower_value():
    X = np.array([[1.5e308], [1.7e308]])
    y = np.array([0.0, 1.0])
    new = fit_tree(X, y, max_depth=None, min_leaf=1)
    assert new.threshold == 1.5e308
    assert_same_tree(new, oracle.fit_tree(X, y, max_depth=None, min_leaf=1))
