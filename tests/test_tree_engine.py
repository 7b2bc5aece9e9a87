"""The tree engine against the per-node reference grower.

The engine grows each level with one of two steps, per node or in blocks of
nodes; the property tests run each case once with every level forced onto
each step. Every comparison is exact: the same splits, thresholds and leaf
values, the same predictions, and the same training scores after every
boosting stage.
"""

import tracemalloc

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
# _FEW at either extreme sends every level (and every set of leaves) to one step
STEPS = pytest.mark.parametrize("few", [1 << 30, -(1 << 30)], ids=["per_node", "block"])


@STEPS
@given(tied_data(), MIN_LEAF, MAX_DEPTH)
@settings(max_examples=120)
def test_tree_matches_reference(few, data, min_leaf, max_depth):
    X, y = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_FEW", few)
        new = fit_tree(X, y, max_depth, min_leaf)
    old = oracle.fit_tree(X, y, max_depth, min_leaf)
    assert_same_tree(new, old)
    Q = np.vstack([X, X + 0.25])
    assert np.array_equal(tree_predict(new, Q), oracle.tree_predict(old, Q))


@STEPS
@given(tied_data(), MIN_LEAF, MAX_DEPTH, st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_forest_matches_reference(few, data, min_leaf, max_depth, mtry, seed):
    X, y = data
    mtry = min(mtry, X.shape[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_FEW", few)
        new = fit_forest(X, y, n_trees=3, mtry=mtry, min_leaf=min_leaf, seed=seed,
                         max_depth=max_depth)
    old = oracle.fit_forest(X, y, n_trees=3, mtry=mtry, min_leaf=min_leaf, seed=seed,
                            max_depth=max_depth)
    for a, b in zip(new.trees, old, strict=True):
        assert_same_tree(a, b)
    assert np.array_equal(new.predict(X), oracle.forest_predict(old, X))


def assert_boost_matches_reference(X, y, n_trees, shrinkage, **kw):
    """Equal training scores after every stage, equal stage trees."""
    seen_new, seen_old = [], []
    new = fit_boost(X, y, n_trees=n_trees, shrinkage=shrinkage,
                    callback=lambda t, F: seen_new.append(F.copy()), **kw)
    f0, old = oracle.fit_boost(X, y, n_trees=n_trees, shrinkage=shrinkage,
                               callback=lambda t, F: seen_old.append(F.copy()), **kw)
    assert new.f0 == f0
    assert len(seen_new) == n_trees + 1
    for a, b in zip(seen_new, seen_old, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(new.trees, old, strict=True):
        assert_same_tree(a, b)
    assert np.array_equal(new.predict_raw(X), oracle.boost_predict_raw(f0, old, shrinkage, X))


@STEPS
@given(tied_data(), st.sampled_from(["squared", "bernoulli"]), MIN_LEAF,
       st.sampled_from([1, 2, 3, 6]))
@settings(max_examples=80)
def test_boost_matches_reference_stage_by_stage(few, data, loss, min_leaf, max_depth):
    X, y = data
    if loss == "bernoulli":
        y = (y > np.median(y)).astype(float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_FEW", few)
        assert_boost_matches_reference(X, y, 4, 0.3, max_depth=max_depth, loss=loss,
                                       min_leaf=min_leaf)


@pytest.mark.parametrize("loss, min_leaf", [("bernoulli", 1), ("bernoulli", 10), ("squared", 1)])
def test_boost_matches_reference_on_the_benchmark_shape(loss, min_leaf):
    # The shape of the benchmark's boosting: 1,800 rows, three Bernoulli and
    # three normal columns, depth-2 stages; every level of every stage takes
    # the engine's default step.
    rng = np.random.default_rng(17)
    n = 1800
    X = np.column_stack([rng.integers(0, 2, (n, 3)).astype(float), rng.standard_normal((n, 3))])
    eta = X @ np.array([0.4, -0.3, 0.2, 0.6, -0.5, 0.3])
    if loss == "bernoulli":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.standard_normal(n)
    assert_boost_matches_reference(X, y, 50, 0.05, max_depth=2, loss=loss, min_leaf=min_leaf)


def test_forest_feature_draws_follow_level_order():
    # Deep trees with mtry < d draw once per tree per level, one row per open
    # node; a row handed to a node out of level order, or a level's draw
    # taken for the wrong tree, would change later splits.
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
    # A node scored on its own takes one feature per group here; the copy of
    # column 0 ties with it everywhere, and the tie must still go to column 0.
    Xd = np.column_stack([X, X[:, 0]])
    assert_same_tree(fit_tree(Xd, y, max_depth=4), oracle.fit_tree(Xd, y, max_depth=4))


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


def test_one_large_node_is_scored_in_bounded_memory():
    # Scoring the root's six features in one piece takes ~43 MB of scratch
    # on this 4.8 MB design; a feature group at a time, the fit peaks near
    # the presort's 12.4 MB plus the transposed design.
    rng = np.random.default_rng(5)
    X = rng.standard_normal((100_000, 6))
    y = X[:, 0] + rng.standard_normal(100_000)
    tracemalloc.start()
    try:
        fit_tree(X, y, max_depth=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_forest_groups_do_not_hold_each_others_buffers(monkeypatch):
    # one group's presort, bootstrap ids and targets take (d + 1) * 4 + 4 + 8
    # = 40 bytes a sample, 0.8 MB here; a second group may add only a
    # margin of 64 KiB (its trees' nodes) to the peak of a one-group fit
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20_000, 6))
    y = (rng.random(20_000) < 0.5).astype(float)
    monkeypatch.setattr(learners, "_FOREST_SAMPLES", 20_000)
    peaks = []
    for n_trees in (1, 2):  # one group, then two groups of one tree
        tracemalloc.start()
        try:
            fit_forest(X, y, n_trees=n_trees, max_depth=3, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (64 << 10)
