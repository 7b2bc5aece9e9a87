import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ateml.core import FoldAssignment, LearnerSpec, loss_mse, make_folds, rng_from
from ateml import superlearner
from ateml.learners import fit_learner
from ateml.superlearner import SLLibrary, fit_super_learner, level_one, meta_weights


def _intercept_only():
    # a huge l1 penalty reduces the fit to the training mean
    return LearnerSpec("lasso", {"lam": 1e12})


class TestLevelOne:
    def test_training_mean_candidate_hand_folds(self):
        # interleaved folds make every training block mean 0.5
        X = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 1.0, 1.0])
        folds = FoldAssignment(np.array([1, 2, 1, 2]), 2)
        lib = SLLibrary((_intercept_only(),), ("mean",))
        Z = level_one(lib, X, y, folds)
        assert np.allclose(Z.ravel(), [0.5, 0.5, 0.5, 0.5])
        # independent oracle on random data: each fold gets its training-block mean
        rng = rng_from(1)
        X = rng.standard_normal((24, 2))
        y = rng.standard_normal(24) * 2.0 + 1.0
        folds = make_folds(24, 4, seed=3)
        expected = np.empty(24)
        for tr, te in folds.blocks:
            expected[te] = y[tr].mean()
        Z = level_one(lib, X, y, folds)
        assert np.allclose(Z.ravel(), expected, rtol=1e-12, atol=0.0)

    def test_zero_predictor_gives_zero_column(self):
        # symmetric targets: every training block averages to exactly zero
        X = np.zeros((4, 1))
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2)
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
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2)
        lib = SLLibrary((LearnerSpec("tree", {"max_depth": "deep"}),), ("tree",))
        with pytest.raises(TypeError):
            level_one(lib, X, y, folds)

    def test_failure_names_candidate_and_fold(self):
        from ateml.core import FitError

        X = np.zeros((4, 1))
        y = np.array([1.0, 1.0, 0.0, 0.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2)
        lib = SLLibrary((LearnerSpec("logistic"),), ("logit",))
        with pytest.raises(FitError, match="'logit'.*fold 1"):
            level_one(lib, X, y, folds, target_kind="probability")


def simplex_oracle(Z, y):
    """Brute force over every support S: the least-squares weights on S with
    sum 1 (w = e_first + B u, B's columns e_k - e_first), kept when all are
    >= 0; returns the least objective."""
    m = Z.shape[1]
    best = np.inf
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            Zs = Z[:, support]
            B = np.vstack([-np.ones(size - 1), np.eye(size - 1)])
            u = np.linalg.lstsq(Zs @ B, y - Zs[:, 0], rcond=None)[0] if size > 1 else np.zeros(0)
            ws = B @ u
            ws[0] += 1.0
            if (ws >= 0).all():
                best = min(best, float(np.mean((Zs @ ws - y) ** 2)))
    return best


@st.composite
def level_one_problems(draw, max_m=6):
    """(Z, y) with n in 1..12 rows (so n < m occurs) and columns drawn at
    random, as combinations or copies of earlier columns, or constant."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "collinear", "duplicate", "constant"]),
                          min_size=m, max_size=m))
    cols = []
    for kind in kinds:
        if kind == "constant":
            cols.append(np.full(n, rng.uniform(-1, 1)))
        elif kind == "duplicate" and cols:
            cols.append(cols[rng.integers(len(cols))].copy())
        elif kind == "collinear" and cols:
            cols.append(np.column_stack(cols) @ rng.dirichlet(np.ones(len(cols))))
        else:
            cols.append(rng.uniform(-1, 1, n))
    Z = np.column_stack(cols)
    y = draw(st.sampled_from([rng.uniform(-1, 1, n), (rng.random(n) < 0.5).astype(float),
                              Z @ rng.dirichlet(np.ones(m))]))
    return Z, y


class TestMetaWeights:
    def test_perfect_candidate_takes_all(self):
        rng = rng_from(1)
        y = rng.standard_normal(40)
        Z = np.column_stack([y, y + 1.0])
        w = meta_weights(Z, y)
        assert w[0] == pytest.approx(1.0, abs=1e-8)

    def test_y_and_complement(self):
        rng = rng_from(2)
        y = (rng.random(60) < 0.5).astype(float)
        Z = np.column_stack([y, 1.0 - y])
        w = meta_weights(Z, y)
        assert np.allclose(w, [1.0, 0.0], atol=1e-8)

    @settings(max_examples=50)
    @given(level_one_problems(max_m=1))
    def test_single_candidate(self, problem):
        Z, y = problem
        assert meta_weights(Z, y).tolist() == [1.0]

    def test_simplex_invariant(self):
        rng = rng_from(3)
        y = rng.standard_normal(50)
        Z = rng.standard_normal((50, 4))
        w = meta_weights(Z, y)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_non_finite_input_is_rejected(self):
        Z = np.ones((4, 2))
        Z[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            meta_weights(Z, np.ones(4))

    def test_level_one_optimality_random_problems(self):
        rng = rng_from(5)
        for _ in range(20):
            n, m = int(rng.integers(20, 60)), int(rng.integers(2, 6))
            y = rng.standard_normal(n)
            Z = rng.standard_normal((n, m))
            w = meta_weights(Z, y)
            best_single = min(loss_mse(Z[:, k], y) for k in range(m))
            assert loss_mse(Z @ w, y) <= best_single + 1e-8


class TestMetaWeightsOracle:
    @settings(max_examples=300)
    @given(level_one_problems())
    def test_matches_the_brute_force_optimum(self, problem):
        Z, y = problem
        w = meta_weights(Z, y)
        assert abs(loss_mse(Z @ w, y) - simplex_oracle(Z, y)) <= 1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # round-off never leaves a weight just off 0
        assert np.all((w == 0.0) | (w > 1e-12))
        grad = 2.0 * Z.T @ (Z @ w - y) / Z.shape[0]
        assert grad @ w - grad.min() < 1e-9

    @settings(max_examples=150)
    @given(level_one_problems())
    def test_a_copy_never_takes_weight_from_its_lower_index_twin(self, problem):
        Z, y = problem
        w = meta_weights(Z, y)
        for k in range(Z.shape[1]):
            if any(np.array_equal(Z[:, j], Z[:, k]) for j in range(k)):
                assert w[k] == 0.0


class TestFitSuperLearner:
    def test_single_candidate_equals_candidate(self):
        rng = rng_from(6)
        X = rng.standard_normal((50, 2))
        y = X @ np.array([1.0, -1.0])
        lib = SLLibrary((LearnerSpec("ols"),), ("ols",), V=5)
        sl = fit_super_learner(lib, X, y, seed=0)
        assert np.array_equal(sl.weights, [1.0])
        assert np.allclose(sl.predict(X), y, atol=1e-10)

    def test_ols_beats_intercept_on_linear_data(self):
        rng = rng_from(7)
        X = rng.standard_normal((60, 2))
        y = X @ np.array([2.0, 1.0])
        lib = SLLibrary((_intercept_only(), LearnerSpec("ols")), ("mean", "ols"), V=5)
        sl = fit_super_learner(lib, X, y, seed=1)
        assert sl.weights[1] > 0.99
        assert sl.candidate_risks[1] < 1e-20  # OLS recovers the noiseless line out of fold
        assert sl.meta_risk <= min(sl.candidate_risks) + 1e-10

    def test_duplicate_candidates_any_split_same_prediction(self):
        rng = rng_from(8)
        X = rng.standard_normal((40, 2))
        y = X[:, 0] + rng.standard_normal(40)
        lib = SLLibrary((LearnerSpec("ols"), LearnerSpec("ols")), ("a", "b"), V=4)
        sl = fit_super_learner(lib, X, y, seed=2)
        solo = fit_super_learner(SLLibrary((LearnerSpec("ols"),), ("a",), V=4), X, y, seed=2)
        assert np.allclose(sl.predict(X), solo.predict(X), atol=1e-10)

    def test_deterministic_weights(self):
        rng = rng_from(9)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        lib = SLLibrary((LearnerSpec("ols"), _intercept_only(),
                         LearnerSpec("forest", {"n_trees": 5, "seed": 11})), ("ols", "mean", "forest"),
                        V=5)
        first = fit_super_learner(lib, X, y, seed=3)
        again = fit_super_learner(lib, X, y, seed=3)
        assert np.array_equal(first.weights, again.weights)
        assert first.candidate_risks == again.candidate_risks

    def test_probability_predictions_clipped(self):
        rng = rng_from(10)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        lib = SLLibrary((LearnerSpec("ols"),), ("lpm",), V=4)
        sl = fit_super_learner(lib, X, y, seed=0, target_kind="probability")
        pred = sl.predict(X * 50)
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_library_fit_uses_its_own_fold_count(self):
        rng = rng_from(30)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] + rng.standard_normal(60)
        lib = SLLibrary((LearnerSpec("ols"), _intercept_only()), ("ols", "mean"), V=4)
        model = lib.fit(X, y, "regression", 5)
        direct = fit_super_learner(lib, X, y, seed=5)
        other_v = fit_super_learner(replace(lib, V=10), X, y, seed=5)
        assert np.array_equal(model.weights, direct.weights)
        assert not np.array_equal(model.weights, other_v.weights)
        assert model.meta["sl_weights"] == direct.weight_table()

    def test_refits_only_the_candidates_it_weighs(self, monkeypatch):
        X, y, lib = _one_zero_weight_problem()
        full_fits = []

        def counting_fit(spec, X_fit, *args, **kwargs):
            if X_fit.shape[0] == X.shape[0]:
                full_fits.append(spec)
            return fit_learner(spec, X_fit, *args, **kwargs)

        monkeypatch.setattr(superlearner, "fit_learner", counting_fit)
        sl = fit_super_learner(lib, X, y, seed=1)
        kept = [spec for spec, w in zip(lib.candidates, sl.weights) if w != 0.0]
        assert (sl.weights == 0.0).sum() == 1
        assert full_fits == kept
        assert [m is None for m in sl.models] == [w == 0.0 for w in sl.weights]

    def test_prediction_equals_the_sum_over_every_refit(self):
        X, y, lib = _one_zero_weight_problem()
        sl = fit_super_learner(lib, X, y, seed=1)
        by_hand = np.zeros(X.shape[0])
        for w, spec in zip(sl.weights, lib.candidates):
            by_hand += w * fit_learner(spec, X, y).predict(X)
        assert np.array_equal(sl.predict(X), by_hand)

    def test_a_candidate_that_adds_nothing_weighs_exactly_zero(self, monkeypatch):
        # the tree alone predicts every held-out row, so the separated logistic candidate and the boost weigh
        # exactly 0 and only the tree is refit
        X, a, lib = _separated_problem()
        full_fits = []

        def counting_fit(spec, X_fit, *args, **kwargs):
            if X_fit.shape[0] == X.shape[0]:
                full_fits.append(spec.family)
            return fit_learner(spec, X_fit, *args, **kwargs)

        monkeypatch.setattr(superlearner, "fit_learner", counting_fit)
        sl = lib.fit(X, a, "probability", 0)
        assert sl.weights.tolist() == [0.0, 1.0, 0.0]
        assert full_fits == ["tree"]
        assert sl.flags == ()

    def test_flags_include_those_of_the_kept_refits(self):
        # beside an intercept-only candidate the separated logistic candidate
        # carries the fit, and its full-data refit is ridge-refitted
        X, a, _ = _separated_problem()
        lib = SLLibrary((LearnerSpec("logistic"), _intercept_only()), ("logistic", "mean"), V=4)
        sl = lib.fit(X, a, "probability", 0)
        assert sl.weights.tolist() == [1.0, 0.0]
        assert sl.models[0].flags == ("separation_ridge",)
        assert sl.flags == ("separation_ridge",)


def _separated_problem():
    # x1 = +-1e-3 separates the arms; x2 is noise
    rng = np.random.default_rng(0)
    a = np.repeat([0.0, 1.0], 30)
    X = np.column_stack([np.where(a == 1, 1e-3, -1e-3), rng.standard_normal(60)])
    lib = SLLibrary(
        (LearnerSpec("logistic"), LearnerSpec("tree", {"max_depth": 3, "min_leaf": 10}),
         LearnerSpec("boost", {"n_trees": 100, "nu": 0.1, "max_depth": 2})),
        ("logistic", "tree", "boost"), V=4)
    return X, a, lib


def _one_zero_weight_problem():
    # noisy linear data on which the intercept-only candidate weighs exactly 0
    rng = rng_from(1)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([2.0, 1.0]) + 0.5 * rng.standard_normal(60)
    lib = SLLibrary((LearnerSpec("ols"), _intercept_only(), LearnerSpec("tree", {"max_depth": 2})),
                    ("ols", "mean", "tree"), V=5)
    return X, y, lib


def test_library_validation():
    with pytest.raises(ValueError):
        SLLibrary((), ())
    with pytest.raises(ValueError):
        SLLibrary((LearnerSpec("ols"), LearnerSpec("ols")), ("same", "same"))
