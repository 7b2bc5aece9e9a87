import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ateml.core import (
    Dataset,
    FitError,
    FoldAssignment,
    LearnerSpec,
    OutcomeKind,
    child_seeds,
    cv_risk,
    loss_logloss,
    loss_mse,
    make_folds,
    make_stratified_folds,
    rng_from,
)


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
        f = make_folds(n, V, seed)
        counts = np.bincount(f.fold_of, minlength=V + 1)[1:]
        assert counts.sum() == n
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 1

    def test_stratified_spreads_arms(self):
        rng = rng_from(5)
        strata = (rng.random(83) < 0.3).astype(int)
        f = make_stratified_folds(strata, 4, seed=2)
        for arm in (0, 1):
            per_fold = [np.sum(strata[f.test_mask(v)] == arm) for v in range(1, 5)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_fold_assignment_validates(self):
        with pytest.raises(ValueError):
            FoldAssignment(np.array([1, 1, 1, 3]), 3, seed=0)  # fold 2 missing
        with pytest.raises(ValueError):
            FoldAssignment(np.array([1, 1, 1, 2]), 2, seed=0)  # sizes differ by 2


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


class TestCvRisk:
    def test_constant_target_ols_is_zero(self):
        rng = rng_from(0)
        X = rng.standard_normal((20, 3))
        y = np.full(20, 4.2)
        folds = make_folds(20, 4, seed=1)
        assert cv_risk(LearnerSpec("ols"), X, y, folds) == pytest.approx(0.0, abs=1e-16)

    def test_huge_lasso_penalty_matches_fold_mean_oracle(self):
        rng = rng_from(1)
        X = rng.standard_normal((24, 2))
        y = rng.standard_normal(24) * 2.0 + 1.0
        folds = make_folds(24, 4, seed=3)
        # independent oracle: each fold is scored by the training-block mean
        expected = []
        for v in range(1, 5):
            tr, te = folds.train_mask(v), folds.test_mask(v)
            expected.append(np.mean((y[te] - y[tr].mean()) ** 2))
        got = cv_risk(LearnerSpec("lasso", {"lam": 1e12}), X, y, folds)
        assert got == pytest.approx(float(np.mean(expected)), rel=1e-12)

    def test_noiseless_line_recovered(self):
        X = np.arange(8.0)[:, None]
        y = 3.0 * X[:, 0] - 1.0
        folds = make_folds(8, 2, seed=2)
        assert cv_risk(LearnerSpec("ols"), X, y, folds) < 1e-20

    def test_reproducible_bit_identical(self):
        rng = rng_from(3)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        folds = make_folds(30, 3, seed=5)
        spec = LearnerSpec("forest", {"n_trees": 5, "seed": 11})
        assert cv_risk(spec, X, y, folds) == cv_risk(spec, X, y, folds)

    def test_programming_error_is_not_wrapped(self):
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2, seed=0)
        with pytest.raises(TypeError):
            cv_risk(LearnerSpec("tree", {"max_depth": "deep"}), np.zeros((4, 1)),
                    np.array([1.0, 2.0, 0.0, 1.0]), folds)

    def test_fit_failure_names_fold(self):
        X = np.zeros((4, 1))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2, seed=0)
        with pytest.raises(FitError, match="fold 1"):
            cv_risk(LearnerSpec("logistic"), X, y, folds, loss="logloss")


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
