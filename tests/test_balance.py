import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ateml.core import Dataset, LearnerSpec, OutcomeKind, rng_from
from ateml.balance import (
    BalanceBoostedPS,
    WeightVector,
    asam,
    balance_table,
    boosted_balance_ps,
    estimate_ps,
    iptw_weights,
    ps_match,
    smd,
)
from conftest import make_confounded


def _binary_dataset(n, seed, informative=False):
    rng = rng_from(seed)
    X = rng.standard_normal((n, 2))
    if informative:
        ps = 1.0 / (1.0 + np.exp(-4.0 * X[:, 0]))
    else:
        ps = np.full(n, 0.4)
    A = (rng.random(n) < ps).astype(int)
    y = rng.standard_normal(n)
    return Dataset(X, A, y, OutcomeKind.bounded(float(y.min()), float(y.max())))


class TestEstimatePs:
    def test_independent_treatment_flat_score(self):
        rng = rng_from(0)
        X = rng.uniform(-1.0, 1.0, size=(2000, 2))  # bounded so slope noise stays small
        A = (rng.random(2000) < 0.4).astype(int)
        ds = Dataset(X, A, np.zeros(2000), OutcomeKind.binary())
        fit = estimate_ps(LearnerSpec("logistic"), ds, 0.01)
        assert np.allclose(fit.ps, ds.treatment.mean(), atol=0.06)
        assert fit.clipped_fraction == 0.0

    def test_perfectly_predictive_clips_to_bounds(self):
        x = np.linspace(-3, 3, 100)
        A = (x > 0).astype(int)
        ds = Dataset(x[:, None], A, np.zeros(100), OutcomeKind.binary())
        fit = estimate_ps(LearnerSpec("logistic"), ds, 0.01)
        assert set(np.round(fit.ps, 6)) <= {0.01, 0.99}
        assert "positivity_warning" in fit.flags

    def test_trim_quarter_restricts_range(self):
        ds = _binary_dataset(300, 1, informative=True)
        fit = estimate_ps(LearnerSpec("logistic"), ds, 0.25)
        assert fit.ps.min() >= 0.25 and fit.ps.max() <= 0.75

    def test_trim_validated(self):
        ds = _binary_dataset(50, 2)
        with pytest.raises(ValueError):
            estimate_ps(LearnerSpec("logistic"), ds, 0.7)


class TestIptwWeights:
    def test_half_score_gives_weight_two(self):
        w = iptw_weights(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        assert np.allclose(w.w, 2.0)

    def test_quarter_score_hand_values(self):
        w = iptw_weights(np.array([0.25, 0.25]), np.array([1, 0]))
        assert w.w[0] == pytest.approx(4.0)
        assert w.w[1] == pytest.approx(4.0 / 3.0)

    def test_trimmed_extreme(self):
        ps = np.clip(np.array([1.0, 0.0]), 0.01, 0.99)
        w = iptw_weights(ps, np.array([1, 0]))
        assert w.w[0] == pytest.approx(1 / 0.99)
        assert w.w[1] == pytest.approx(1 / 0.99)

    def test_mass_identity_at_marginal_score(self):
        rng = rng_from(3)
        A = (rng.random(40) < 0.3).astype(int)
        if A.sum() in (0, 40):
            A[0] = 1 - A[0]
        w = iptw_weights(np.full(40, A.mean()), A)
        assert np.sum(w.w[A == 1]) == pytest.approx(40.0, rel=1e-12)
        assert np.sum(w.w[A == 0]) == pytest.approx(40.0, rel=1e-12)

    def test_per_arm_normalization(self):
        rng = rng_from(4)
        ps = rng.uniform(0.2, 0.8, 30)
        A = (rng.random(30) < 0.5).astype(int)
        w = iptw_weights(ps, A, normalization="mean_one_per_arm")
        assert np.mean(w.w[A == 1]) == pytest.approx(1.0, abs=1e-10)
        assert np.mean(w.w[A == 0]) == pytest.approx(1.0, abs=1e-10)


class TestSmd:
    def test_identical_distributions_zero(self):
        x = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        A = np.array([1, 1, 1, 0, 0, 0])
        assert smd(x, A) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        x = np.array([2.0, 4.0, 0.0, 2.0])
        A = np.array([1, 1, 0, 0])
        assert smd(x, A) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-12)

    def test_weights_constructed_to_rebalance(self):
        # weights (1, 1, 4) move the control mean from 2 to 3 = treated mean
        x = np.array([2.0, 4.0, 0.0, 2.0, 4.0])
        A = np.array([1, 1, 0, 0, 0])
        w = WeightVector(np.array([1.0, 1.0, 1.0, 1.0, 4.0]))
        assert smd(x, A, w) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_marker(self):
        x = np.array([1.0, 1.0, 0.0, 0.0])
        A = np.array([1, 1, 0, 0])
        assert smd(x, A) is None

    def test_constant_equal_means_zero(self):
        x = np.ones(4)
        A = np.array([1, 1, 0, 0])
        assert smd(x, A) == 0.0

    def test_empty_arm_rejected(self):
        with pytest.raises(ValueError):
            smd(np.ones(3), np.array([1, 1, 1]))

    @given(st.floats(-50, 50), st.floats(0.1, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_affine_equivariance(self, a, b, seed):
        rng = rng_from(seed)
        x = rng.standard_normal(30)
        A = np.array([1] * 15 + [0] * 15)
        base = smd(x, A)
        moved = smd(a + b * x, A)
        assert abs(abs(base) - abs(moved)) < 1e-10


class TestAsam:
    def test_balanced_columns_zero(self):
        X = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (2, 1))
        A = np.array([1, 1, 0, 0])
        assert asam(X, A) == pytest.approx(0.0, abs=1e-15)

    def test_exact_mean_of_two_columns(self):
        # column SMDs engineered to 0.2 and 0.4 exactly
        root2 = np.sqrt(2.0)
        col1 = np.array([0.2 * root2, 2 + 0.2 * root2, 0.0, 2.0])
        col2 = np.array([0.4 * root2, 2 + 0.4 * root2, 0.0, 2.0])
        A = np.array([1, 1, 0, 0])
        X = np.column_stack([col1, col2])
        assert smd(col1, A) == pytest.approx(0.2, rel=1e-12)
        assert smd(col2, A) == pytest.approx(0.4, rel=1e-12)
        assert asam(X, A) == pytest.approx(0.3, rel=1e-12)

    def test_matches_columnwise_definition(self):
        ds, _ = make_confounded(n=120, seed=5)
        X, A = ds.covariates, ds.treatment
        expected = np.mean([abs(smd(X[:, j], A)) for j in range(X.shape[1])])
        assert asam(X, A) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_columns_warned_and_excluded(self):
        X = np.column_stack([np.array([1.0, 1.0, 0.0, 0.0]), np.array([2.0, 4.0, 0.0, 2.0])])
        A = np.array([1, 1, 0, 0])
        with pytest.warns(UserWarning, match="degenerate"):
            val = asam(X, A)
        assert val == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-12)

    def test_all_degenerate_is_error(self):
        X = np.array([[1.0], [1.0], [0.0], [0.0]])
        A = np.array([1, 1, 0, 0])
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                asam(X, A)


class TestBoostedBalance:
    def test_schedule_includes_baseline_and_strides(self):
        ds, _ = make_confounded(n=200, seed=1)
        out = boosted_balance_ps(ds, max_trees=10, max_depth=2, shrinkage=0.1, stride=10)
        assert [it for it, _ in out.trace] == [0, 10]

    def test_chosen_iteration_minimises_trace(self):
        ds, _ = make_confounded(n=300, seed=2)
        out = boosted_balance_ps(ds, max_trees=60, max_depth=2, shrinkage=0.1, stride=10)
        chosen_asam = dict(out.trace)[out.chosen_iteration]
        assert all(chosen_asam <= a for _, a in out.trace)

    def test_randomized_treatment_keeps_low_iterations(self):
        for seed in range(10):
            ds = _binary_dataset(250, 100 + seed)
            out = boosted_balance_ps(ds, max_trees=50, max_depth=2, shrinkage=0.1, stride=10)
            baseline = out.trace[0][1]
            assert dict(out.trace)[out.chosen_iteration] <= baseline + 0.01

    def test_kept_model_is_truncated_at_the_chosen_iteration(self):
        ds, _ = make_confounded(n=300, seed=3)
        out = boosted_balance_ps(ds, max_trees=60, max_depth=2, shrinkage=0.1, stride=10)
        learner = BalanceBoostedPS(max_trees=60, max_depth=2, shrinkage=0.1)
        model = learner.fit(ds.covariates, ds.treatment.astype(float))
        assert len(model.trees) == out.chosen_iteration == model.meta["chosen_iteration"]
        assert np.array_equal(model.predict(ds.covariates), out.ps_fit.raw_ps)
        held_out = model.predict(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -2.0]]))
        assert ((held_out > 0) & (held_out < 1)).all()

    def test_confounded_improves_balance(self):
        wins = 0
        for seed in range(20):
            ds, _ = make_confounded(n=300, seed=300 + seed)
            out = boosted_balance_ps(ds, max_trees=80, max_depth=2, shrinkage=0.1, stride=10)
            w = iptw_weights(out.ps_fit, ds.treatment)
            wins += asam(ds.covariates, ds.treatment, w) < asam(ds.covariates, ds.treatment)
        assert wins >= 19


class TestPsMatch:
    def test_nearest_by_distance(self):
        ps = np.array([0.6, 0.59, 0.2])
        A = np.array([1, 0, 0])
        m = ps_match(ps, A)
        assert m.match_index[0] == 1

    def test_twins_tie_lowest_index(self):
        ps = np.array([0.3, 0.7, 0.3, 0.7])
        A = np.array([1, 1, 0, 0])
        m = ps_match(ps, A)
        assert m.match_index[0] == 2 and m.match_index[1] == 3
        assert m.match_index[2] == 0 and m.match_index[3] == 1

    def test_single_control_takes_all(self):
        ps = np.array([0.5, 0.6, 0.7, 0.4])
        A = np.array([1, 1, 1, 0])
        m = ps_match(ps, A)
        assert all(m.match_index[i] == 3 for i in range(3))

    def test_opposite_arm_and_count_sums(self):
        rng = rng_from(6)
        ps = rng.uniform(0.2, 0.8, 50)
        A = (rng.random(50) < 0.4).astype(int)
        if A.min() == A.max():
            A[0] = 1 - A[0]
        m = ps_match(ps, A)
        assert np.all(A[m.match_index] == 1 - A)
        n1, n0 = int(A.sum()), int((1 - A).sum())
        assert m.match_counts[A == 0].sum() == n1  # controls absorb the treated matches
        assert m.match_counts[A == 1].sum() == n0
        assert np.all(m.match_counts >= 0)


class TestBalanceTable:
    def test_no_adjustments(self):
        ds, _ = make_confounded(n=100, seed=7)
        rep = balance_table(ds, [])
        assert rep.labels == ("unweighted",)
        assert len(rep.smds["unweighted"]) == ds.d

    def test_true_ps_weighting_reduces_flags(self):
        wins = 0
        for seed in range(30):
            ds, true_ps = make_confounded(n=400, seed=700 + seed)
            w = iptw_weights(np.clip(true_ps, 0.01, 0.99), ds.treatment)
            rep = balance_table(ds, [("true_iptw", w)])
            wins += rep.n_flagged["true_iptw"] <= rep.n_flagged["unweighted"]
        assert wins >= 27

    def test_asam_matches_library_function(self):
        ds, true_ps = make_confounded(n=200, seed=8)
        w = iptw_weights(np.clip(true_ps, 0.01, 0.99), ds.treatment)
        rep = balance_table(ds, [("w", w)])
        assert rep.asam["unweighted"] == pytest.approx(asam(ds.covariates, ds.treatment))
        assert rep.asam["w"] == pytest.approx(asam(ds.covariates, ds.treatment, w))

    def test_match_adjustment_uses_frequency_weights(self):
        ds, true_ps = make_confounded(n=150, seed=9)
        m = ps_match(np.clip(true_ps, 0.01, 0.99), ds.treatment)
        rep = balance_table(ds, [("match", m)])
        manual = asam(ds.covariates, ds.treatment, m.balance_weights)
        assert rep.asam["match"] == pytest.approx(manual)

    def test_csv_shape(self):
        ds, _ = make_confounded(n=100, seed=10)
        w = iptw_weights(np.full(ds.n, 0.5), ds.treatment)
        csv = balance_table(ds, [("half", w)]).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "covariate,smd_unweighted,smd_half"
        assert len(lines) == 1 + ds.d
