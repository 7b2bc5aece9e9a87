import numpy as np
import pytest

from ateml.core import FoldAssignment, LearnerSpec, loss_mse, make_folds, rng_from
from ateml.superlearner import (
    SLLibrary,
    discrete_sl,
    fit_super_learner,
    level_one,
    meta_weights,
    sl_risk_report,
)


def _intercept_only():
    # a huge l1 penalty reduces the fit to the training mean
    return LearnerSpec("lasso", {"lam": 1e12})


class TestLevelOne:
    def test_training_mean_candidate_hand_folds(self):
        # interleaved folds make every training block mean 0.5
        X = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 1.0, 1.0])
        folds = FoldAssignment(np.array([1, 2, 1, 2]), 2, seed=0)
        lib = SLLibrary((_intercept_only(),), ("mean",))
        Z = level_one(lib, X, y, folds)
        assert np.allclose(Z.ravel(), [0.5, 0.5, 0.5, 0.5])

    def test_zero_predictor_gives_zero_column(self):
        # symmetric targets: every training block averages to exactly zero
        X = np.zeros((4, 1))
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2, seed=0)
        lib = SLLibrary((_intercept_only(),), ("mean",))
        Z = level_one(lib, X, y, folds)
        assert np.allclose(Z.ravel(), 0.0)

    def test_identical_candidates_identical_columns(self):
        rng = rng_from(0)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        folds = make_folds(30, 3, seed=1)
        lib = SLLibrary((LearnerSpec("ols"), LearnerSpec("ols")), ("a", "b"))
        Z = level_one(lib, X, y, folds)
        assert np.array_equal(Z[:, 0], Z[:, 1])

    def test_programming_error_is_not_wrapped(self):
        X = np.zeros((4, 1))
        y = np.array([1.0, 2.0, 0.0, 1.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2, seed=0)
        lib = SLLibrary((LearnerSpec("tree", {"max_depth": "deep"}),), ("tree",))
        with pytest.raises(TypeError):
            level_one(lib, X, y, folds)

    def test_failure_names_candidate_and_fold(self):
        from ateml.core import FitError

        X = np.zeros((4, 1))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2, seed=0)
        lib = SLLibrary((LearnerSpec("logistic"),), ("logit",))
        with pytest.raises(FitError, match="'logit'.*fold 1"):
            level_one(lib, X, y, folds, target_kind="probability")


class TestMetaWeights:
    def test_perfect_candidate_takes_all(self):
        rng = rng_from(1)
        y = rng.standard_normal(40)
        Z = np.column_stack([y, y + 1.0])
        w, _ = meta_weights(Z, y, "mse")
        assert w[0] == pytest.approx(1.0, abs=1e-8)

    def test_y_and_complement(self):
        rng = rng_from(2)
        y = (rng.random(60) < 0.5).astype(float)
        Z = np.column_stack([y, 1.0 - y])
        w, _ = meta_weights(Z, y, "mse")
        assert np.allclose(w, [1.0, 0.0], atol=1e-8)

    def test_single_candidate(self):
        w, _ = meta_weights(np.ones((5, 1)), np.ones(5), "mse")
        assert np.array_equal(w, [1.0])

    def test_simplex_invariant(self):
        rng = rng_from(3)
        y = rng.standard_normal(50)
        Z = rng.standard_normal((50, 4))
        for loss in ("mse",):
            w, _ = meta_weights(Z, y, loss)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_logloss_weights_valid(self):
        rng = rng_from(4)
        y = (rng.random(80) < 0.4).astype(float)
        Z = np.clip(np.column_stack([y * 0.8 + 0.1, rng.random(80), np.full(80, 0.4)]), 0, 1)
        w, _ = meta_weights(Z, y, "logloss")
        assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, abs=1e-10)
        assert w[0] > 0.5  # the informative column dominates

    def test_level_one_optimality_random_problems(self):
        rng = rng_from(5)
        for _ in range(20):
            n, m = int(rng.integers(20, 60)), int(rng.integers(2, 6))
            y = rng.standard_normal(n)
            Z = rng.standard_normal((n, m))
            w, _ = meta_weights(Z, y, "mse")
            best_single = min(loss_mse(Z[:, k], y) for k in range(m))
            assert loss_mse(Z @ w, y) <= best_single + 1e-8


class TestFitSuperLearner:
    def test_single_candidate_equals_candidate(self):
        rng = rng_from(6)
        X = rng.standard_normal((50, 2))
        y = X @ np.array([1.0, -1.0])
        lib = SLLibrary((LearnerSpec("ols"),), ("ols",))
        sl = fit_super_learner(lib, X, y, V=5, seed=0)
        assert np.array_equal(sl.weights, [1.0])
        assert np.allclose(sl.predict(X), y, atol=1e-10)

    def test_ols_beats_intercept_on_linear_data(self):
        rng = rng_from(7)
        X = rng.standard_normal((60, 2))
        y = X @ np.array([2.0, 1.0])
        lib = SLLibrary((_intercept_only(), LearnerSpec("ols")), ("mean", "ols"))
        sl = fit_super_learner(lib, X, y, V=5, seed=1)
        assert sl.weights[1] > 0.99
        assert sl.meta_risk <= min(sl.candidate_risks) + 1e-10

    def test_duplicate_candidates_any_split_same_prediction(self):
        rng = rng_from(8)
        X = rng.standard_normal((40, 2))
        y = X[:, 0] + rng.standard_normal(40)
        lib = SLLibrary((LearnerSpec("ols"), LearnerSpec("ols")), ("a", "b"))
        sl = fit_super_learner(lib, X, y, V=4, seed=2)
        solo = fit_super_learner(SLLibrary((LearnerSpec("ols"),), ("a",)), X, y, V=4, seed=2)
        assert np.allclose(sl.predict(X), solo.predict(X), atol=1e-10)

    def test_deterministic_weights(self):
        rng = rng_from(9)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        lib = SLLibrary((LearnerSpec("ols"), _intercept_only()), ("ols", "mean"))
        w1 = fit_super_learner(lib, X, y, V=5, seed=3).weights
        w2 = fit_super_learner(lib, X, y, V=5, seed=3).weights
        assert np.array_equal(w1, w2)

    def test_probability_predictions_clipped(self):
        rng = rng_from(10)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        lib = SLLibrary((LearnerSpec("ols"),), ("lpm",))
        sl = fit_super_learner(lib, X, y, V=4, seed=0, target_kind="probability")
        pred = sl.predict(X * 50)
        assert pred.min() >= 0.0 and pred.max() <= 1.0


    def test_library_fit_uses_its_own_fold_count(self):
        rng = rng_from(30)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] + rng.standard_normal(60)
        lib = SLLibrary((LearnerSpec("ols"), _intercept_only()), ("ols", "mean"), V=4)
        model = lib.fit(X, y, "regression", 5)
        direct = fit_super_learner(lib, X, y, V=4, seed=5)
        assert model.folds.V == 4
        assert np.array_equal(model.weights, direct.weights)
        assert model.meta["sl_weights"] == direct.weight_table()


class TestDiscreteSl:
    def test_argmin(self):
        lib_names = ("a", "b", "c")
        from ateml.superlearner import SLRiskReport

        rep = SLRiskReport(lib_names, (0.3, 0.1, 0.2), 0.1, 0.1)
        assert discrete_sl(rep) == 1

    def test_tie_goes_low(self):
        from ateml.superlearner import SLRiskReport

        rep = SLRiskReport(("a", "b"), (0.1, 0.1), 0.1, 0.1)
        assert discrete_sl(rep) == 0

    def test_single(self):
        from ateml.superlearner import SLRiskReport

        rep = SLRiskReport(("a",), (0.5,), 0.5, 0.5)
        assert discrete_sl(rep) == 0


class TestRiskReport:
    def test_perfect_learner_near_zero_risk(self):
        rng = rng_from(11)
        X = rng.standard_normal((40, 2))
        y = X @ np.array([1.0, 2.0])
        lib = SLLibrary((LearnerSpec("ols"),), ("ols",))
        rep = sl_risk_report(lib, X, y, V_outer=4, V_inner=3, seed=0)
        assert rep.candidate_risks[0] < 1e-20
        assert rep.convex_risk < 1e-20
        assert rep.kind == "outer_cv"

    def test_all_rows_present_and_finite(self):
        rng = rng_from(12)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        lib = SLLibrary((LearnerSpec("ols"), _intercept_only()), ("ols", "mean"))
        rep = sl_risk_report(lib, X, y, V_outer=3, V_inner=3, seed=1)
        assert len(rep.candidate_risks) == 2
        assert np.isfinite(rep.candidate_risks).all()
        assert np.isfinite(rep.discrete_risk) and np.isfinite(rep.convex_risk)
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "name,cv_risk"
        assert len(csv.splitlines()) == 5  # header + 2 candidates + discrete + convex

    def test_dominant_candidate_ranks_better(self):
        wins = 0
        for seed in range(30):
            rng = rng_from(4000 + seed)
            X = rng.standard_normal((60, 2))
            y = X @ np.array([2.0, -1.0]) + 0.2 * rng.standard_normal(60)
            lib = SLLibrary((LearnerSpec("ols"), _intercept_only()), ("ols", "mean"))
            rep = sl_risk_report(lib, X, y, V_outer=3, V_inner=3, seed=seed)
            wins += rep.candidate_risks[0] < rep.candidate_risks[1]
        assert wins >= 27  # >= 90% of seeds rank the informative model first

    def test_honest_holdout_for_interpolating_learner(self):
        # a depth-unbounded tree memorises its training data; an honest
        # report must still show positive out-of-sample risk on noise
        rng = rng_from(13)
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        lib = SLLibrary((LearnerSpec("tree", {"max_depth": 30, "min_leaf": 1}),), ("deep_tree",))
        rep = sl_risk_report(lib, X, y, V_outer=3, V_inner=3, seed=2)
        in_sample = np.mean((y - y) ** 2)  # the memorised fit would be exact
        assert rep.candidate_risks[0] > 0.1
        assert rep.candidate_risks[0] > in_sample

    def test_library_validation(self):
        with pytest.raises(ValueError):
            SLLibrary((), ())
        with pytest.raises(ValueError):
            SLLibrary((LearnerSpec("ols"), LearnerSpec("ols")), ("same", "same"))
