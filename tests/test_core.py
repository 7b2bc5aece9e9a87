import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ateml.core import (
    Dataset,
    FoldAssignment,
    LearnerSpec,
    OutcomeKind,
    child_seeds,
    loss_logloss,
    loss_mse,
    make_folds,
    make_stratified_folds,
    rng_from,
    run_replicates,
)
from ateml import learners, superlearner
from ateml.estimators import fit_nuisances
from ateml.learners import default_lambda_grid, lasso_cv
from ateml.selection import double_lasso_select
from ateml.superlearner import SLLibrary, level_one


class TestFolds:
    def test_ten_rows_five_folds_forces_pairs(self):
        f = make_folds(10, 5, seed=7)
        sizes = np.bincount(f.fold_of)[1:]
        assert list(sizes) == [2, 2, 2, 2, 2]
        assert sorted(np.unique(f.fold_of)) == [1, 2, 3, 4, 5]

    def test_leave_one_out(self):
        f = make_folds(10, 10, seed=123)
        assert sorted(np.bincount(f.fold_of)[1:]) == [1] * 10

    def test_uneven_sizes(self):
        f = make_folds(7, 3, seed=1)
        assert sorted(np.bincount(f.fold_of)[1:]) == [2, 2, 3]

    def test_deterministic(self):
        a = make_folds(50, 4, seed=9).fold_of
        b = make_folds(50, 4, seed=9).fold_of
        assert np.array_equal(a, b)
        c = make_folds(50, 4, seed=10).fold_of
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n,V", [(10, 1), (10, 11), (3, 0)])
    def test_invalid_arguments(self, n, V):
        with pytest.raises(ValueError):
            make_folds(n, V, seed=0)

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, data):
        V = data.draw(st.integers(2, n))
        seed = data.draw(st.integers(0, 2**32))
        strata = data.draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
        f = make_folds(n, V, seed) if strata is None else make_stratified_folds(strata, V, seed)
        counts = np.bincount(f.fold_of, minlength=V + 1)[1:]
        assert counts.sum() == n
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 1
        # the blocks: fold v's test mask holds exactly the rows labelled v,
        # its train mask the rest, so the test masks tile the rows
        assert len(f.blocks) == V
        for v, (train, test) in enumerate(f.blocks, start=1):
            assert np.array_equal(test, f.fold_of == v)
            assert np.array_equal(train, ~test)
        assert (np.sum([test for _, test in f.blocks], axis=0) == 1).all()

    def test_stratified_spreads_arms(self):
        rng = rng_from(5)
        strata = (rng.random(83) < 0.3).astype(int)
        f = make_stratified_folds(strata, 4, seed=2)
        for arm in (0, 1):
            per_fold = [np.sum(strata[test] == arm) for _, test in f.blocks]
            assert max(per_fold) - min(per_fold) <= 1

    def test_fold_assignment_validates(self):
        with pytest.raises(ValueError):
            FoldAssignment(np.array([1, 1, 1, 3]), 3)  # fold 2 missing
        with pytest.raises(ValueError):
            FoldAssignment(np.array([1, 1, 1, 2]), 2)  # sizes differ by 2
        # a row labelled 0 sits in no test fold, so no fold would predict it
        for labels in ([0, 1, 2, 1, 2, 0], [1, 2, 3, 1, 2, 3], [-1, 1, 2, 1, 2, -1]):
            with pytest.raises(ValueError, match=re.escape("fold labels must lie in 1..2")):
                FoldAssignment(np.array(labels), 2)


def _fitted(*args, **kwargs):
    raise AssertionError("fitted before the fold check")


class _NoFit:
    fit = staticmethod(_fitted)


FOLD_CONSUMERS = {
    "fit_nuisances": lambda ds, folds: fit_nuisances(ds, _NoFit(), _NoFit(), folds=folds),
    "level_one": lambda ds, folds: level_one(SLLibrary((LearnerSpec("ols"),), ("ols",)),
                                             ds.covariates, ds.outcome, folds),
    "lasso_cv": lambda ds, folds: lasso_cv(ds.covariates, ds.outcome, folds,
                                           default_lambda_grid(ds.covariates, ds.outcome)),
    "double_lasso_select": lambda ds, folds: double_lasso_select(
        ds.covariates, ds.treatment, ds.outcome, folds),
}


@pytest.mark.parametrize("consumer", sorted(FOLD_CONSUMERS))
def test_folds_for_other_rows_are_rejected_before_any_fit(consumer, monkeypatch):
    for module, name in ((learners, "_lasso_path"), (learners, "fit_lasso"),
                         (superlearner, "fit_learner")):
        monkeypatch.setattr(module, name, _fitted)
    rng = rng_from(3)
    ds = Dataset(rng.standard_normal((20, 2)), np.tile([0, 1], 10), rng.standard_normal(20),
                 OutcomeKind.bounded(-10.0, 10.0))
    for n in (19, 21):
        with pytest.raises(ValueError, match="^fold assignment does not match the data$"):
            FOLD_CONSUMERS[consumer](ds, make_folds(n, 3, seed=0))


class TestLosses:
    def test_mse_identity(self):
        assert loss_mse([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_mse_hand_values(self):
        assert loss_mse([0.0, 2.0], [1.0, 1.0]) == 1.0
        assert loss_mse([0.5], [0.0]) == 0.25

    def test_mse_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mse_nonnegative_zero_iff_equal(self, vals):
        pred = np.asarray(vals)
        truth = pred + 1.0
        assert loss_mse(pred, pred) == 0.0
        assert loss_mse(pred, truth) > 0.0

    def test_logloss_hand_values(self):
        assert loss_logloss([1.0 - 1e-12], [1.0]) == pytest.approx(0.0, abs=1e-10)
        assert loss_logloss([0.5, 0.5], [0.0, 1.0]) == pytest.approx(np.log(2.0), rel=1e-12)
        assert loss_logloss([0.9], [0.0]) == pytest.approx(-np.log(0.1), rel=1e-12)

    def test_logloss_clips_extremes(self):
        assert np.isfinite(loss_logloss([0.0, 1.0], [1.0, 0.0]))

    def test_logloss_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_logloss([0.5], [1.0, 0.0])


def test_mse_decomposition_identity():
    rng = rng_from(7)
    estimates = rng.standard_normal(500) * 0.3 + 1.1
    theta = 1.0
    mse = float(np.mean((estimates - theta) ** 2))
    bias = float(estimates.mean() - theta)
    var = float(estimates.var(ddof=0))
    assert abs(mse - (var + bias**2)) < 1e-10


class TestDataset:
    def test_requires_both_arms(self):
        with pytest.raises(ValueError, match="both arms"):
            Dataset(np.zeros((3, 1)), np.array([1, 1, 1]), np.zeros(3), OutcomeKind.binary())

    def test_rejects_nonfinite(self):
        X = np.zeros((3, 1))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, np.array([0, 1, 0]), np.zeros(3), OutcomeKind.binary())

    def test_binary_outcome_checked(self):
        with pytest.raises(ValueError, match="binary outcome"):
            Dataset(np.zeros((3, 1)), np.array([0, 1, 0]), np.array([0.0, 0.5, 1.0]),
                    OutcomeKind.binary())

    def test_bounded_outcome_checked(self):
        with pytest.raises(ValueError, match="bounds"):
            Dataset(np.zeros((3, 1)), np.array([0, 1, 0]), np.array([0.0, 2.0, 1.0]),
                    OutcomeKind.bounded(0.0, 1.0))

    def test_default_names(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), np.zeros(3), OutcomeKind.binary())
        assert ds.names == ("x1", "x2")

    def test_take_preserves_kind(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]),
                     np.array([0.1, 0.5, 0.9]), OutcomeKind.bounded(0.0, 1.0))
        sub = ds.take(np.array([0, 1, 1]))
        assert sub.n == 3 and sub.outcome_kind == ds.outcome_kind


def test_child_seeds_deterministic_and_distinct():
    a = child_seeds(123, 5)
    assert a == child_seeds(123, 5)
    assert len(set(a)) == 5
    assert a != child_seeds(124, 5)


def test_rng_streams_are_independent_of_global_state():
    np.random.seed(0)
    first = rng_from(9).standard_normal(3)
    np.random.seed(99)
    second = rng_from(9).standard_normal(3)
    assert np.array_equal(first, second)


def test_replicates_fail_by_one_rule():
    class Result:
        estimate = 2.0

    def estimator(value):
        if isinstance(value, Exception):
            raise value
        return value

    cases = [(1.0,), (ValueError("lost an arm"),), (np.nan,), (RuntimeError("diverged"),),
             (Result(),)]
    done, failures = run_replicates(estimator, cases, "non-finite")
    assert [est for est, _ in done] == [1.0, 2.0] and isinstance(done[1][1], Result)
    assert failures == ["lost an arm", "non-finite", "diverged"]
    with pytest.raises(TypeError):
        run_replicates(estimator, [(TypeError("a bug"),)], "non-finite")

    def unmade():
        raise ValueError("bad case")
        yield

    with pytest.raises(ValueError, match="bad case"):
        run_replicates(estimator, unmade(), "non-finite")
