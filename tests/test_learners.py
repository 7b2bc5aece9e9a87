from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from ateml import learners
from ateml.core import LearnerSpec, child_seeds, make_folds, rng_from
from ateml.dgp import builtin_specs, gen_dataset
from ateml.learners import (
    BoostModel,
    _cv_penalty,
    _logistic_lasso_fold_losses,
    default_lambda_grid,
    fit_boost,
    fit_forest,
    fit_lasso,
    fit_learner,
    fit_logistic,
    fit_logistic_lasso,
    fit_ols,
    fit_tree,
    lasso_cv,
    lasso_lambda_max,
    tree_predict,
)


def _standardized_column(rng, n):
    x = rng.standard_normal(n)
    x = x - x.mean()
    return x / np.sqrt(np.mean(x * x))


class TestOls:
    def test_constant_target(self):
        rng = rng_from(0)
        X = rng.standard_normal((12, 3))
        m = fit_ols(X, np.full(12, 2.5))
        assert m.intercept == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(m.coef, 0.0, atol=1e-12)

    def test_exact_line(self):
        m = fit_ols(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 2.0, 4.0]))
        assert m.intercept == pytest.approx(0.0, abs=1e-12)
        assert m.coef[0] == pytest.approx(2.0, rel=1e-12)

    def test_duplicated_column_same_predictions(self):
        rng = rng_from(1)
        x = rng.standard_normal(30)
        y = 1.5 * x + rng.standard_normal(30)
        single = fit_ols(x[:, None], y)
        doubled = fit_ols(np.column_stack([x, x]), y)
        assert np.allclose(single.predict(x[:, None]),
                           doubled.predict(np.column_stack([x, x])), atol=1e-10)

    def test_residuals_orthogonal_to_columns(self):
        rng = rng_from(2)
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        m = fit_ols(X, y)
        r = y - m.predict(X)
        assert np.max(np.abs(X.T @ r)) < 1e-8
        assert abs(r.sum()) < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fit_ols(np.array([[np.inf]]), np.array([1.0]))


class TestLogistic:
    def test_independent_target_gives_intercept_model(self):
        rng = rng_from(3)
        X = rng.standard_normal((400, 2))
        y = (rng.random(400) < 0.5).astype(float)
        m = fit_logistic(X, y)
        # score equations: intercept matches the marginal log-odds
        assert m.intercept == pytest.approx(np.log(y.mean() / (1 - y.mean())), abs=0.25)
        assert np.max(np.abs(m.coef)) < 0.25

    def test_score_equations_solved(self):
        rng = rng_from(4)
        X = rng.standard_normal((150, 3))
        eta = 0.5 + X @ np.array([1.0, -0.5, 0.0])
        y = (rng.random(150) < expit(eta)).astype(float)
        m = fit_logistic(X, y)
        p = m.predict_proba(X)
        M = np.column_stack([np.ones(150), X])
        assert np.max(np.abs(M.T @ (y - p))) < 1e-6

    def test_separable_data_ridge_gives_perfect_accuracy(self):
        x = np.linspace(-2, 2, 40)
        y = (x > 0).astype(float)
        m = fit_logistic(x[:, None], y, ridge=1e-6)
        assert np.isfinite(m.coef).all()
        assert np.mean((m.predict_proba(x[:, None]) > 0.5) == y) == 1.0

    def test_separation_flagged_with_zero_ridge(self):
        # margin so tight the MLE coefficient diverges past the 1e3 guard
        x = np.repeat([-1e-3, 1e-3], 20)
        y = (x > 0).astype(float)
        m = fit_logistic(x[:, None], y, ridge=0.0)
        assert "separation_ridge" in m.flags
        assert np.isfinite(m.coef).all()

    def test_separation_is_flagged_only_by_the_slope_norm(self):
        # Perfectly separated either way; at unit scale the score falls
        # below 1e-8 while the slope is still small, so no refit happens.
        y = np.tile([0.0, 1.0], 20)
        x = y + 0.01 * np.random.default_rng(6).random(40)
        m = fit_logistic(x[:, None], y)
        assert m.flags == ()
        assert m.coef[0] == pytest.approx(44.43, abs=0.01)
        assert fit_logistic(1e-3 * x[:, None], y).flags == ("separation_ridge",)

    def test_large_n_fit_converges_in_a_few_evaluations(self, monkeypatch):
        # |log-likelihood| is near 1.2e5 here, where one float spacing
        # (1.5e-11) is wider than an absolute 1e-12 acceptance slack: near
        # the optimum rounding alone rejected each step, and this fit made
        # 2,029 log-likelihood evaluations before the iteration cap
        spec = replace(builtin_specs()["confounded_linear"], n=200_000)
        ds = gen_dataset(spec, seed=1).dataset
        evals = []
        loglik = learners._penalised_loglik
        monkeypatch.setattr(learners, "_penalised_loglik",
                            lambda *args: evals.append(1) or loglik(*args))
        m = fit_logistic(ds.covariates, ds.treatment.astype(float))
        assert len(evals) <= 10
        assert m.flags == ()

    def test_a_fit_stopped_at_the_iteration_cap_is_flagged(self, monkeypatch):
        rng = rng_from(21)
        X = rng.standard_normal((150, 3))
        y = (rng.random(150) < expit(X @ np.array([1.0, -0.5, 0.25]))).astype(float)
        assert fit_logistic(X, y).flags == ()
        monkeypatch.setattr(learners, "_IRLS_CAP", 2)
        assert fit_logistic(X, y).flags == ("iteration_cap",)
        fits = learners._fit_logistic_candidates(X, y, (0,), [1, 2])
        assert [m.flags for m in fits] == [("iteration_cap",)] * 2
        # a separated problem's ridge refit keeps the refit's own flag
        x = np.repeat([-1e-3, 1e-3], 20)
        monkeypatch.setattr(learners, "_IRLS_CAP", 5)
        assert fit_logistic(x[:, None], (x > 0).astype(float)).flags == (
            "iteration_cap", "separation_ridge")

    def test_all_zero_covariate_intercept_only(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        m = fit_logistic(np.zeros((5, 1)), y)
        assert np.allclose(m.predict_proba(np.zeros((5, 1))), y.mean(), atol=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((3, 1)), np.ones(3))


class TestLasso:
    def test_lambda_zero_is_least_squares(self):
        rng = rng_from(5)
        X = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        lasso = fit_lasso(X, y, 0.0)
        ols = fit_ols(X, y)
        assert np.allclose(lasso.coef, ols.coef, atol=1e-8)
        assert lasso.intercept == pytest.approx(ols.intercept, abs=1e-8)

    def test_lambda_zero_rank_deficient_predictions(self):
        rng = rng_from(6)
        x = rng.standard_normal(20)
        X = np.column_stack([x, x])
        y = x + 0.1 * rng.standard_normal(20)
        lasso = fit_lasso(X, y, 0.0)
        ols = fit_ols(X, y)
        assert np.allclose(lasso.predict(X), ols.predict(X), atol=1e-8)

    def test_at_lambda_max_all_zero(self):
        rng = rng_from(7)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30) + 0.7
        lmax = lasso_lambda_max(X, y)
        fit = fit_lasso(X, y, lmax)
        assert np.all(fit.coef == 0.0)
        assert fit.intercept == pytest.approx(y.mean(), rel=1e-12)

    def test_soft_threshold_closed_form(self):
        rng = rng_from(8)
        x = _standardized_column(rng, 200)
        y = 0.8 * x  # <x, y>/n = 0.8 exactly since <x, x>/n = 1
        fit = fit_lasso(x[:, None], y, 0.3)
        assert fit.coef[0] == pytest.approx(0.5, abs=1e-10)

    def test_kkt_conditions(self):
        rng = rng_from(9)
        for trial in range(20):
            n, d = int(rng.integers(20, 80)), int(rng.integers(2, 10))
            X = rng.standard_normal((n, d))
            X[:, -1] = X[:, 0] * 0.9 + 0.1 * rng.standard_normal(n)  # correlated pair
            y = X @ rng.standard_normal(d) + rng.standard_normal(n)
            lam = float(rng.uniform(0.01, 1.0)) * lasso_lambda_max(X, y)
            fit = fit_lasso(X, y, lam)
            assert _kkt_violation(X, y, fit, lam) < 1e-6

    def test_l1_norm_monotone_in_lambda(self):
        rng = rng_from(10)
        X = rng.standard_normal((60, 6))
        y = X @ np.array([2.0, -1.0, 0.5, 0.0, 0.0, 0.0]) + rng.standard_normal(60)
        lmax = lasso_lambda_max(X, y)
        lams = np.geomspace(lmax, lmax * 1e-3, 12)
        norms = [np.abs(fit_lasso(X, y, lam).coef).sum() for lam in lams]
        for small, large in zip(norms[1:], norms[:-1]):
            assert small >= large - 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fit_lasso(np.array([[np.nan]]), np.array([1.0]), 0.1)


def _kkt_violation(X, y, fit, lam):
    """Max KKT residual on the standardized scale."""
    mu = X.mean(axis=0)
    sd = np.sqrt(np.mean((X - mu) ** 2, axis=0))
    ok = sd > 0
    Xs = (X[:, ok] - mu[ok]) / sd[ok]
    beta_s = fit.coef[ok] * sd[ok]
    r = (y - y.mean()) - Xs @ beta_s
    g = Xs.T @ r / X.shape[0]
    viol = 0.0
    inactive = beta_s == 0.0
    if inactive.any():
        viol = max(viol, float(np.max(np.abs(g[inactive]))) - lam)
    if (~inactive).any():
        viol = max(viol, float(np.max(np.abs(g[~inactive] - lam * np.sign(beta_s[~inactive])))))
    return viol


class TestLassoCv:
    def test_grid_of_one(self):
        rng = rng_from(11)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        fit = lasso_cv(X, y, make_folds(30, 3, seed=0), np.array([0.123]))
        want = fit_lasso(X, y, 0.123)
        assert fit.intercept == want.intercept and np.array_equal(fit.coef, want.coef)

    def test_pure_noise_selects_heavy_penalty(self):
        hits = 0
        for seed in range(30):
            rng = rng_from(1000 + seed)
            X = rng.standard_normal((200, 8))
            y = rng.standard_normal(200)
            fit = lasso_cv(X, y, make_folds(200, 4, seed), default_lambda_grid(X, y))
            hits += np.count_nonzero(fit.coef) <= 2
        assert hits >= 27  # >= 90% of seeds keep at most two columns

    def test_strong_signal_keeps_the_signal_column(self):
        hits = 0
        for seed in range(20):
            rng = rng_from(2000 + seed)
            X = rng.standard_normal((80, 10))
            y = 3.0 * X[:, 0] + 0.1 * rng.standard_normal(80)
            fit = lasso_cv(X, y, make_folds(80, 4, seed), default_lambda_grid(X, y))
            hits += fit.coef[0] != 0.0
        assert hits == 20

    def test_descending_grid_required(self):
        with pytest.raises(ValueError, match="descending"):
            lasso_cv(np.zeros((10, 1)) + np.arange(10.0)[:, None], np.arange(10.0),
                     make_folds(10, 5, seed=0), np.array([0.1, 0.2]))


class TestTree:
    def test_constant_target_single_leaf(self):
        root = fit_tree(np.arange(8.0)[:, None], np.full(8, 3.3), max_depth=4, min_leaf=1)
        assert root.is_leaf and root.value == pytest.approx(3.3)

    def test_perfect_binary_stump(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(X, y, max_depth=1, min_leaf=1)
        assert not root.is_leaf
        assert root.feature == 0 and root.threshold == pytest.approx(0.5)
        assert sorted([root.left.value, root.right.value]) == [0.0, 1.0]
        assert np.array_equal(tree_predict(root, X), y)

    def test_min_leaf_equal_n_forces_mean(self):
        rng = rng_from(12)
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        root = fit_tree(X, y, max_depth=5, min_leaf=10)
        assert root.is_leaf and root.value == pytest.approx(y.mean())

    def test_piecewise_constant(self):
        rng = rng_from(13)
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        root = fit_tree(X, y, max_depth=3, min_leaf=5)
        pred = tree_predict(root, X)
        assert len(np.unique(pred)) <= 2**3

    def test_depth_respected(self):
        rng = rng_from(14)
        X = rng.standard_normal((100, 3))
        y = rng.standard_normal(100)
        root = fit_tree(X, y, max_depth=2, min_leaf=1)

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(root) <= 2

    @pytest.mark.parametrize("kwargs, message", [
        ({"min_leaf": 0}, "min_leaf must be >= 1"),
        ({"min_leaf": -4}, "min_leaf must be >= 1"),
        ({"max_depth": 0}, "max_depth must be >= 1"),
    ])
    def test_growth_limits_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_tree(np.arange(8.0)[:, None], np.arange(8.0), **kwargs)


class TestForest:
    def test_degenerate_ensemble_equals_tree(self):
        # one tree with mtry = d draws no features: it is the tree fitted on
        # the bootstrap rows its generator draws first
        rng = rng_from(15)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        forest = fit_forest(X, y, n_trees=1, mtry=3, min_leaf=2, seed=0, max_depth=4)
        rows = rng_from(child_seeds(0, 1)[0]).integers(0, 40, size=40)
        tree = fit_tree(X[rows], y[rows], max_depth=4, min_leaf=2)
        assert np.array_equal(forest.predict(X), tree_predict(tree, X))

    def test_constant_target(self):
        rng = rng_from(16)
        X = rng.standard_normal((30, 2))
        forest = fit_forest(X, np.full(30, 1.5), n_trees=5, seed=3)
        assert np.allclose(forest.predict(X), 1.5)

    def test_prediction_is_mean_of_trees(self):
        rng = rng_from(17)
        X = rng.standard_normal((80, 4))
        y = rng.standard_normal(80)
        forest = fit_forest(X, y, n_trees=7, mtry=2, min_leaf=3, seed=5)
        Q = rng.standard_normal((50, 4))
        manual = np.mean([tree_predict(t, Q) for t in forest.trees], axis=0)
        assert np.allclose(forest.predict(Q), manual, atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = rng_from(18)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        a = fit_forest(X, y, n_trees=4, seed=7).predict(X)
        b = fit_forest(X, y, n_trees=4, seed=7).predict(X)
        assert np.array_equal(a, b)

    def test_mtry_validated(self):
        with pytest.raises(ValueError):
            fit_forest(np.zeros((5, 2)), np.zeros(5), mtry=3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"min_leaf": 0}, "min_leaf must be >= 1"),
        ({"min_leaf": -4}, "min_leaf must be >= 1"),
        ({"max_depth": 0}, "max_depth must be >= 1"),
    ])
    def test_growth_limits_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_forest(np.arange(8.0)[:, None], np.arange(8.0), n_trees=2, **kwargs)

    def test_predict_rejects_too_few_columns(self):
        rng = rng_from(19)
        X = rng.standard_normal((40, 3))
        forest = fit_forest(X, X[:, 2] + rng.standard_normal(40), n_trees=3, mtry=3, seed=1)
        with pytest.raises(ValueError, match="columns"):
            forest.predict(X[:, :2])


class TestBoost:
    def test_single_stage_is_centred_stump(self):
        rng = rng_from(19)
        X = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        boost = fit_boost(X, y, n_trees=1, max_depth=1, shrinkage=1.0, loss="squared")
        stump = fit_tree(X, y - y.mean(), max_depth=1, min_leaf=1)
        assert np.allclose(boost.predict(X), y.mean() + tree_predict(stump, X))

    def test_shrinkage_scales_first_stage_exactly(self):
        rng = rng_from(20)
        X = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        full = fit_boost(X, y, n_trees=1, max_depth=2, shrinkage=1.0, loss="squared")
        tenth = fit_boost(X, y, n_trees=1, max_depth=2, shrinkage=0.1, loss="squared")
        assert np.allclose(tenth.predict(X) - y.mean(),
                           0.1 * (full.predict(X) - y.mean()), atol=1e-12)

    def test_bernoulli_uninformative_features_stay_at_base_rate(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        boost = fit_boost(np.zeros((4, 1)), y, n_trees=5, max_depth=1,
                          shrinkage=0.5, loss="bernoulli")
        assert np.allclose(boost.predict(np.zeros((4, 1))), 0.5, atol=1e-12)

    def test_raw_composition_identity(self):
        rng = rng_from(21)
        X = rng.standard_normal((50, 3))
        y = (rng.random(50) < expit(X[:, 0])).astype(float)
        boost = fit_boost(X, y, n_trees=6, max_depth=2, shrinkage=0.3, loss="bernoulli")
        manual = boost.f0 + boost.nu * np.sum([tree_predict(t, X) for t in boost.trees], axis=0)
        assert np.allclose(boost.predict_raw(X), manual, atol=1e-12)
        assert np.allclose(boost.predict(X), expit(manual), atol=1e-12)

    def test_invalid_shrinkage(self):
        with pytest.raises(ValueError):
            fit_boost(np.zeros((4, 1)), np.zeros(4), shrinkage=0.0)

    @pytest.mark.parametrize("min_leaf", [0, -4])
    def test_min_leaf_validated(self, min_leaf):
        with pytest.raises(ValueError, match="min_leaf must be >= 1"):
            fit_boost(np.arange(8.0)[:, None], np.arange(8.0), n_trees=2, min_leaf=min_leaf)

    def test_max_depth_none_is_unbounded(self):
        rng = rng_from(22)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        unbounded = fit_boost(X, y, n_trees=3, max_depth=None, shrinkage=0.5)
        deep = fit_boost(X, y, n_trees=3, max_depth=8, shrinkage=0.5)
        M = rng.standard_normal((20, 2))
        assert np.array_equal(unbounded.predict(M), deep.predict(M))
        assert np.array_equal(unbounded.predict(X), deep.predict(X))

    def test_spec_with_max_depth_none_fits(self):
        rng = rng_from(23)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        model = fit_learner(LearnerSpec("boost", {"max_depth": None, "n_trees": 3}), X, y)
        deep = fit_boost(X, y, n_trees=3, max_depth=8)
        assert np.array_equal(model.predict(X), deep.predict(X))

    @pytest.mark.parametrize("kwargs", [{"max_depth": 0}, {"max_depth": -2}, {"n_trees": 0}])
    def test_depth_and_stage_count_rejected_before_stage_zero(self, kwargs):
        seen = []
        with pytest.raises(ValueError, match="n_trees and max_depth must be >= 1"):
            fit_boost(np.arange(8.0)[:, None], np.arange(8.0),
                      callback=lambda t, F: seen.append(t), **kwargs)
        assert seen == []

    @pytest.mark.parametrize("loss", ["squared", "bernoulli"])
    def test_callback_sees_each_stage_of_the_kept_model(self, loss):
        from dataclasses import replace

        rng = rng_from(23)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < expit(X[:, 0])).astype(float)
        seen = []
        boost = fit_boost(X, y, n_trees=5, max_depth=2, shrinkage=0.3, loss=loss,
                          callback=lambda t, F: seen.append((t, F.copy())))
        assert [t for t, _ in seen] == list(range(6))
        for t, F in seen:
            assert np.array_equal(F, replace(boost, trees=boost.trees[:t]).predict_raw(X))


class TestLogisticLasso:
    def test_heavy_penalty_is_intercept_only(self):
        rng = rng_from(22)
        X = rng.standard_normal((120, 4))
        y = (rng.random(120) < expit(X[:, 0])).astype(float)
        m = fit_logistic_lasso(X, y, 10.0)
        assert np.all(m.coef == 0.0)
        assert np.allclose(m.predict_proba(X), y.mean(), atol=1e-6)

    def test_small_penalty_close_to_mle(self):
        rng = rng_from(23)
        X = rng.standard_normal((300, 2))
        y = (rng.random(300) < expit(0.3 + X @ np.array([1.0, -0.6]))).astype(float)
        penalised = fit_logistic_lasso(X, y, 1e-6)
        mle = fit_logistic(X, y)
        assert np.allclose(penalised.coef, mle.coef, atol=1e-3)

    def test_active_set_shrinks_with_penalty(self):
        rng = rng_from(24)
        X = rng.standard_normal((200, 6))
        y = (rng.random(200) < expit(X @ np.array([1.2, -0.8, 0.0, 0.0, 0.0, 0.0]))).astype(float)
        small = np.count_nonzero(fit_logistic_lasso(X, y, 0.01).coef)
        large = np.count_nonzero(fit_logistic_lasso(X, y, 0.15).coef)
        assert large <= small

    def test_cv_selects_and_refits(self):
        rng = rng_from(25)
        X = rng.standard_normal((150, 3))
        y = (rng.random(150) < expit(1.5 * X[:, 0])).astype(float)
        grid = default_lambda_grid(X, y, 10, ratio=1e-3)
        lam = _cv_penalty(X, y, grid, make_folds(150, 3, seed=1), _logistic_lasso_fold_losses)
        assert lam > 0 and fit_logistic_lasso(X, y, lam).coef[0] != 0.0

    def test_a_fit_stopped_at_the_pass_cap_is_flagged(self, monkeypatch):
        rng = rng_from(27)
        X = rng.standard_normal((120, 3))
        y = (rng.random(120) < expit(X[:, 0])).astype(float)
        assert fit_logistic_lasso(X, y, 0.01).flags == ()
        monkeypatch.setattr(learners, "_LOGIT_LASSO_CAP", 1)
        assert fit_logistic_lasso(X, y, 0.01).flags == ("iteration_cap",)

    @pytest.mark.parametrize("grid,message", [([], "non-empty"), ([0.01, 0.1], "descending")])
    def test_cv_rejects_an_empty_or_ascending_grid(self, grid, message):
        rng = rng_from(26)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < expit(X[:, 0])).astype(float)
        with pytest.raises(ValueError, match=message):
            _cv_penalty(X, y, np.array(grid), make_folds(60, 3, seed=0),
                        _logistic_lasso_fold_losses)


class TestFitLearnerDispatch:
    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="hyperparameters"):
            fit_learner(LearnerSpec("tree", {"depth": 3}), np.zeros((4, 1)), np.zeros(4))

    @pytest.mark.parametrize("family,key", [
        ("logistic", "ridge"), ("lasso", "n_lambda"), ("lasso", "v"), ("lasso", "seed"),
        ("forest", "min_leaf"), ("forest", "max_depth"), ("boost", "min_leaf"),
    ])
    def test_keys_no_spec_sets_are_rejected(self, family, key):
        # the fits behind these keys always take their defaults
        with pytest.raises(ValueError, match=rf"unknown {family} hyperparameters: \['{key}'\]"):
            fit_learner(LearnerSpec(family, {key: 1}), np.zeros((4, 1)), np.zeros(4))

    def test_probability_clipped(self):
        rng = rng_from(26)
        X = rng.standard_normal((30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        model = fit_learner(LearnerSpec("ols"), X, y, target_kind="probability")
        pred = model.predict(X * 100)
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_interactions_expand_design(self):
        rng = rng_from(27)
        X = rng.standard_normal((60, 3))
        y = X[:, 0] * X[:, 1] + 0.01 * rng.standard_normal(60)
        plain = fit_learner(LearnerSpec("ols"), X, y)
        inter = fit_learner(LearnerSpec("ols", {"interactions": True}), X, y)
        mse_plain = np.mean((plain.predict(X) - y) ** 2)
        mse_inter = np.mean((inter.predict(X) - y) ** 2)
        assert mse_inter < mse_plain / 10

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            LearnerSpec("svm")
