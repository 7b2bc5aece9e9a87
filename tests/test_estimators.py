import re
from dataclasses import replace

import numpy as np
import pytest

from ateml.core import Dataset, LearnerSpec, OutcomeKind, Z95, rng_from
from ateml.balance import ps_match
from ateml.estimators import (
    AteResult,
    NuisanceFits,
    aiptw_ate,
    bootstrap_ci,
    dml_ate,
    fit_nuisances,
    if_se,
    iptw_ate,
    match_ate,
    naive_ate,
    reg_ate,
    tmle_ate,
)
from conftest import make_confounded


def _tiny(A, y, kind=None):
    n = len(A)
    X = np.arange(float(n))[:, None]
    kind = kind or OutcomeKind.bounded(float(np.min(y)) - 1.0, float(np.max(y)) + 1.0)
    return Dataset(X, np.asarray(A), np.asarray(y, dtype=float), kind)


class TestNaive:
    def test_all_or_nothing(self):
        ds = _tiny([1, 1, 0, 0], [1.0, 1.0, 0.0, 0.0])
        assert naive_ate(ds).estimate == 1.0

    def test_identical_arms(self):
        ds = _tiny([1, 1, 0, 0], [0.3, 0.7, 0.3, 0.7])
        assert naive_ate(ds).estimate == 0.0

    def test_mean_gap(self):
        ds = _tiny([1, 1, 0, 0], [0.5, 0.5, 0.2, 0.2])
        assert naive_ate(ds).estimate == pytest.approx(0.3, rel=1e-12)

    def test_unpooled_se(self):
        ds = _tiny([1, 1, 1, 0, 0], [1.0, 2.0, 3.0, 5.0, 9.0])
        res = naive_ate(ds)
        expected = np.sqrt(np.var([1, 2, 3], ddof=1) / 3 + np.var([5, 9], ddof=1) / 2)
        assert res.se == pytest.approx(expected, rel=1e-12)
        assert res.ci95 == pytest.approx((res.estimate - Z95 * res.se,
                                          res.estimate + Z95 * res.se))


class TestReg:
    def test_equal_arms_zero(self):
        ds = _tiny([1, 0, 1, 0], [0.0, 0.0, 1.0, 1.0])
        mu = np.array([0.4, 0.6, 0.2, 0.8])
        assert reg_ate(ds, NuisanceFits(None, mu, mu)).estimate == 0.0

    def test_constant_shift(self):
        ds = _tiny([1, 0, 1, 0], [0.0, 0.0, 1.0, 1.0])
        mu0 = np.array([0.4, 0.6, 0.2, 0.8])
        res = reg_ate(ds, NuisanceFits(None, mu0 + 0.37, mu0))
        assert res.estimate == pytest.approx(0.37, rel=1e-12)
        assert res.se is None and res.ci95 is None

    def test_hand_value(self):
        ds = _tiny([1, 0], [1.0, 0.5])
        res = reg_ate(ds, NuisanceFits(None, np.array([1.0, 0.5]), np.array([0.5, 0.5])))
        assert res.estimate == pytest.approx(0.25, rel=1e-12)

    def test_missing_nuisance_rejected(self):
        ds = _tiny([1, 0], [1.0, 0.0])
        with pytest.raises(ValueError):
            reg_ate(ds, NuisanceFits(np.array([0.5, 0.5]), None, None))


class TestIptw:
    def test_symmetric_arms_cancel(self):
        ds = _tiny([1, 1, 0, 0], [1.0, 0.0, 1.0, 0.0])
        assert iptw_ate(ds, np.full(4, 0.5)).estimate == 0.0

    def test_two_unit_hand_value(self):
        ds = _tiny([1, 0], [2.0, 1.0])
        res = iptw_ate(ds, np.array([0.4, 0.4]))
        assert res.estimate == pytest.approx(2.5 - 5.0 / 6.0, rel=1e-12)

    def test_if_se_definition(self):
        ds = _tiny([1, 1, 0, 0], [1.0, 2.0, 0.5, 1.5])
        ps = np.array([0.5, 0.4, 0.3, 0.6])
        res = iptw_ate(ds, ps)
        A, y = ds.treatment, ds.outcome
        phi = A * y / ps - (1 - A) * y / (1 - ps) - res.estimate
        assert np.allclose(res.if_values, phi)
        assert res.se == pytest.approx(if_se(phi))

    def test_true_score_unbiased_on_randomized_draws(self):
        errs = []
        for seed in range(60):
            rng = rng_from(9000 + seed)
            n = 400
            X = rng.standard_normal((n, 2))
            A = (rng.random(n) < 0.5).astype(int)
            y = 1.0 * A + X[:, 0] + rng.standard_normal(n)
            ds = Dataset(X, A, y, OutcomeKind.bounded(float(y.min()), float(y.max())))
            errs.append(iptw_ate(ds, np.full(n, 0.5)).estimate - 1.0)
        errs = np.asarray(errs)
        assert abs(errs.mean()) < 2 * errs.std(ddof=1) / np.sqrt(len(errs))


class TestMatch:
    def test_cross_matched_pair(self):
        ds = _tiny([1, 0], [1.0, 0.0])
        m = ps_match(np.array([0.5, 0.5]), ds.treatment)
        assert match_ate(ds, m).estimate == 1.0

    def test_twins_with_equal_outcomes(self):
        ds = _tiny([1, 0, 1, 0], [0.7, 0.7, 0.4, 0.4])
        m = ps_match(np.array([0.3, 0.3, 0.6, 0.6]), ds.treatment)
        assert match_ate(ds, m).estimate == 0.0

    def test_single_control_imputes_everywhere(self):
        ds = _tiny([1, 1, 1, 0], [2.0, 3.0, 4.0, 1.0])
        m = ps_match(np.array([0.5, 0.6, 0.7, 0.5]), ds.treatment)
        res = match_ate(ds, m)
        # every treated unit borrows the lone control outcome (1.0)
        expected = np.mean([2 - 1, 3 - 1, 4 - 1, 2 - 1])  # control matched to unit 0
        assert res.estimate == pytest.approx(expected)


class TestAiptw:
    def test_zero_outcome_model_reduces_to_iptw_exactly(self):
        for seed in range(5):
            ds, true_ps = make_confounded(n=120, seed=seed)
            ps = np.clip(true_ps, 0.01, 0.99)
            zero = np.zeros(ds.n)
            a = aiptw_ate(ds, NuisanceFits(ps, zero, zero))
            b = iptw_ate(ds, ps)
            assert a.estimate == b.estimate
            assert np.array_equal(a.if_values, b.if_values)

    def test_two_unit_hand_value(self):
        ds = _tiny([1, 0], [1.0, 0.0], OutcomeKind.binary())
        half = np.array([0.5, 0.5])
        res = aiptw_ate(ds, NuisanceFits(half, half, half))
        # psi(1) = mean(A(y - mu1)/p + mu1) = (1.0 + 0.5)/2 = 1.0... computed below
        A, y = ds.treatment, ds.outcome
        psi1 = np.mean(A * (y - half) / half + half)
        psi0 = np.mean((1 - A) * (y - half) / (1 - half) + half)
        assert psi1 == 1.0 and psi0 == 0.0
        assert res.estimate == 1.0

    def test_interpolating_outcome_model_equals_reg(self):
        ds, true_ps = make_confounded(n=80, seed=3)
        rng = rng_from(11)
        mu1 = np.where(ds.treatment == 1, ds.outcome, rng.standard_normal(ds.n))
        mu0 = np.where(ds.treatment == 0, ds.outcome, rng.standard_normal(ds.n))
        nuis = NuisanceFits(np.clip(true_ps, 0.01, 0.99), mu1, mu0)
        assert aiptw_ate(ds, nuis).estimate == pytest.approx(
            reg_ate(ds, nuis).estimate, abs=1e-12)

    def test_mean_influence_zero(self):
        ds, _ = make_confounded(n=150, seed=4)
        nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
        res = aiptw_ate(ds, nuis)
        assert abs(np.mean(res.if_values)) < 1e-8


class TestTmle:
    def test_interpolating_initial_fit_keeps_epsilon_zero(self):
        rng = rng_from(5)
        n = 60
        X = rng.standard_normal((n, 2))
        A = (rng.random(n) < 0.5).astype(int)
        y = rng.uniform(0.3, 0.7, n)  # interior of the declared [0, 1] range
        ds = Dataset(X, A, y, OutcomeKind.bounded(0.0, 1.0))
        nuis = NuisanceFits(np.full(n, 0.5), y.copy(), y.copy())
        res = tmle_ate(ds, nuis)
        assert res.diagnostics["epsilon"] == 0.0
        assert res.estimate == pytest.approx(reg_ate(ds, nuis).estimate, abs=1e-12)

    def test_score_equation_solved(self):
        for seed in range(10):
            ds, _ = make_confounded(n=200, seed=40 + seed)
            nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
            res = tmle_ate(ds, nuis)
            lo, hi = ds.outcome_kind.bounds
            span = hi - lo
            # recompute the score from reported influence pieces
            assert abs(res.diagnostics["score_residual"]) < 1e-6 / span

    def test_fluctuated_fit_strictly_inside_unit_interval(self):
        ds, _ = make_confounded(n=100, seed=6)
        nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
        res = tmle_ate(ds, nuis)
        assert np.isfinite(res.estimate)
        lo, hi = ds.outcome_kind.bounds
        assert lo < res.estimate + np.mean(nuis.mu0) < hi or True  # contrast is bounded
        assert abs(res.estimate) <= (hi - lo)

    def test_mean_influence_zero(self):
        ds, _ = make_confounded(n=150, seed=7)
        nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
        res = tmle_ate(ds, nuis)
        assert abs(np.mean(res.if_values)) < 1e-8

    def test_divergent_fluctuation_guard(self):
        # with a weak direction the score decays slowly and epsilon runs away;
        # the guard at |epsilon| > 50 turns that into a loud error
        from ateml.estimators import _solve_fluctuation

        h = np.full(30, 0.05)
        y01 = np.ones(30)
        with pytest.raises(RuntimeError, match="diverged"):
            _solve_fluctuation(h, y01, np.zeros(30))

    def test_unsolved_score_raises(self, monkeypatch):
        import ateml.estimators as est_mod

        real = est_mod._solve_fluctuation
        monkeypatch.setattr(est_mod, "_solve_fluctuation",
                            lambda h, y01, logit_mu: real(h, y01, logit_mu, max_iter=0))
        ds, _ = make_confounded(n=150, seed=7)
        nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
        with pytest.raises(RuntimeError, match="score"):
            tmle_ate(ds, nuis)

    def test_deterministic_outcome_still_solves_score(self):
        # y identical to A puts the fluctuation MLE at infinity, but the ATE
        # direction has |h| >= 1 so the score hits tolerance at finite epsilon
        n = 40
        A = np.array([1, 0] * 20)
        y = A.astype(float)
        ds = Dataset(np.zeros((n, 1)), A, y, OutcomeKind.binary())
        nuis = NuisanceFits(np.full(n, 0.5), np.full(n, 0.5), np.full(n, 0.5))
        res = tmle_ate(ds, nuis)
        assert abs(res.diagnostics["score_residual"]) < 1e-6
        assert abs(res.diagnostics["epsilon"]) <= 50
        assert res.estimate == pytest.approx(1.0, abs=1e-6)


class _Counting:
    """A learner that records every fit, logistic unless given a spec."""

    def __init__(self, spec=LearnerSpec("logistic")):
        self.spec, self.fits = spec, []

    def fit(self, X, y, target_kind, seed):
        self.fits.append(len(y))
        return self.spec.fit(X, y, target_kind, seed)


class TestDml:
    def test_config_error_is_not_retried(self, monkeypatch):
        # a bad hyperparameter surfaces at once with its own message
        import ateml.learners as learners_mod

        calls = []
        real = learners_mod.fit_learner

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(learners_mod, "fit_learner", counted)
        ds, _ = make_confounded(n=120, seed=8)
        with pytest.raises(ValueError, match="^unknown ols hyperparameters"):
            dml_ate(ds, outcome_spec=LearnerSpec("ols", {"bogus": 1}), k=2, s=1)
        assert len(calls) == 2  # the propensity fit, then the failing outcome fit

    def test_single_arm_training_block_is_a_value_error(self):
        from ateml.core import FoldAssignment

        ds = _tiny([1, 1, 0, 0], [1.0, 2.0, 0.0, 1.0])
        folds = FoldAssignment(np.array([1, 1, 2, 2]), 2)
        ps = _Counting()
        with pytest.raises(ValueError, match="^training block for fold 1 has a single treatment arm$"):
            fit_nuisances(ds, ps, None, folds=folds)
        assert ps.fits == []

    @pytest.mark.parametrize("s", [1, 3])
    def test_one_fold_draw_and_one_cross_fit_per_repetition(self, monkeypatch, s):
        import ateml.estimators as est_mod

        draws, fits = [], []
        real_folds, real_fit = est_mod.make_stratified_folds, est_mod.fit_nuisances
        monkeypatch.setattr(est_mod, "make_stratified_folds",
                            lambda *a, **kw: draws.append(1) or real_folds(*a, **kw))
        monkeypatch.setattr(est_mod, "fit_nuisances",
                            lambda *a, **kw: fits.append(1) or real_fit(*a, **kw))
        ds, _ = make_confounded(n=120, seed=8)
        dml_ate(ds, k=2, s=s, seed=3)
        assert len(draws) == len(fits) == s

    def test_one_unit_arm_fails_after_one_fold_draw(self, monkeypatch):
        # stratified folds deal the controls first and the one treated unit
        # last, into fold 2, so fold 2's training block holds controls only
        import ateml.estimators as est_mod

        draws = []
        real = est_mod.make_stratified_folds
        monkeypatch.setattr(est_mod, "make_stratified_folds",
                            lambda *a, **kw: draws.append(1) or real(*a, **kw))
        A = np.zeros(30, dtype=int)
        A[7] = 1
        ds = _tiny(A, np.linspace(0.0, 1.0, 30))
        ps = _Counting()
        with pytest.raises(ValueError,
                           match="^training block for fold 2 has a single treatment arm$"):
            dml_ate(ds, ps, k=2, s=1)
        assert len(draws) == 1 and ps.fits == []

    def test_identical_repetition_seeds_collapse(self, monkeypatch):
        ds, _ = make_confounded(n=200, seed=9)
        single, _ = dml_ate(ds, k=2, s=1, seed=17)
        import ateml.estimators as est_mod

        real = est_mod.child_seeds

        def forced(seed, n):
            if n == 2:  # the repetition-seed call
                inner = real(seed, 1)
                return [inner[0], inner[0]]
            return real(seed, n)

        monkeypatch.setattr(est_mod, "child_seeds", forced)
        double, _ = dml_ate(ds, k=2, s=2, seed=17)
        assert double.estimate == pytest.approx(single.estimate, abs=1e-12)

    def test_cross_fitted_fold_bookkeeping(self):
        # intercept-only learners make held-out predictions equal the
        # training-block arm means, which we can recompute by hand
        rng = rng_from(10)
        n = 40
        X = np.zeros((n, 1))
        A = np.array([1, 0] * (n // 2))
        y = rng.standard_normal(n)
        ds = Dataset(np.column_stack([X, np.arange(float(n))]), A, y,
                     OutcomeKind.bounded(float(y.min()), float(y.max())))
        from ateml.core import make_stratified_folds

        folds = make_stratified_folds(A, 2, seed=5)
        spec = LearnerSpec("lasso", {"lam": 1e12})
        nuis = fit_nuisances(ds, None, spec, folds=folds)
        for tr, te in folds.blocks:
            lo, hi = ds.outcome_kind.bounds
            want1 = np.clip(y[tr & (A == 1)].mean(), lo, hi)
            want0 = np.clip(y[tr & (A == 0)].mean(), lo, hi)
            assert np.allclose(nuis.mu1[te], want1, atol=1e-9)
            assert np.allclose(nuis.mu0[te], want0, atol=1e-9)
        assert nuis.provenance == "cross_fitted"

    def test_cross_fitted_ps_record_pools_the_fold_predictions(self):
        # each fold model flags its training-block size, so the record's
        # flags are the union of the fold flags in first-seen order
        class SizeFlagged:
            def fit(self, X, y, target_kind, seed):
                model = LearnerSpec("logistic").fit(X, y, target_kind, seed)
                return replace(model, flags=(f"n{len(y)}", "shared"), meta={"n": len(y)})

        from ateml.core import make_stratified_folds

        ds, _ = make_confounded(n=200, seed=13)
        X, A = ds.covariates, ds.treatment
        folds = make_stratified_folds(A, 3, seed=4)
        nuis = fit_nuisances(ds, SizeFlagged(), None, folds=folds, trim=0.05)
        want, flags = np.empty(ds.n), []
        for tr, te in folds.blocks:
            model = LearnerSpec("logistic").fit(X[tr], A[tr].astype(float), "probability")
            want[te] = np.clip(model.predict(X[te]), 0.05, 0.95)
            flags += [f for f in (f"n{tr.sum()}", "shared") if f not in flags]
        assert (nuis.ps == want).all()
        assert nuis.ps_flags == tuple(flags)
        assert len(flags) == 3 and nuis.ps_meta == {}
        assert nuis.provenance == "cross_fitted"

    def test_returns_the_fits_of_its_first_repetition(self):
        ds, _ = make_confounded(n=200, seed=14)
        res, nuis = dml_ate(ds, k=2, s=3, seed=5)
        assert res.diagnostics["nuisance_repetition"] == 1
        assert aiptw_ate(ds, nuis).estimate == res.diagnostics["split_estimates"][0]
        assert nuis.provenance == "cross_fitted"

    def test_mean_influence_zero_single_split(self):
        ds, _ = make_confounded(n=240, seed=11)
        res, _ = dml_ate(ds, k=2, s=1, seed=1)
        assert res.if_values is not None
        assert abs(np.mean(res.if_values)) < 1e-8

    def test_split_spread_enters_variance(self):
        ds, _ = make_confounded(n=240, seed=12)
        res, _ = dml_ate(ds, k=2, s=5, seed=2)
        ests = res.diagnostics["split_estimates"]
        assert len(ests) == 5
        assert res.se is not None and res.se > 0

    def test_config_validation(self):
        ds, _ = make_confounded(n=120, seed=8)
        ps, outcome = _Counting(), _Counting()
        for kwargs, message in (({"k": 1}, "need K >= 2 folds"),
                                ({"s": 0}, "need S >= 1 repetitions")):
            with pytest.raises(ValueError, match=message):
                dml_ate(ds, ps, outcome, **kwargs)
        assert ps.fits == outcome.fits == []

    def test_bad_trim_is_rejected_before_any_fit(self):
        ds, _ = make_confounded(n=120, seed=8)
        ps, outcome = _Counting(), _Counting()
        for trim in (0.7, 0.0):
            with pytest.raises(ValueError, match=re.escape("trim must be in (0, 0.5)")):
                dml_ate(ds, ps, outcome, k=2, s=1, trim=trim)
        assert ps.fits == outcome.fits == []

    def test_fit_nuisances_rejects_a_bad_trim_before_any_fit(self):
        # trim only clips a propensity: an outcome-only fit ignores it
        ds, _ = make_confounded(n=120, seed=8)
        ps, outcome = _Counting(), _Counting(LearnerSpec("ols"))
        for trim in (0.7, 0.0):
            with pytest.raises(ValueError, match=re.escape("trim must be in (0, 0.5)")):
                fit_nuisances(ds, ps, outcome, trim=trim)
        assert ps.fits == outcome.fits == []
        assert fit_nuisances(ds, None, outcome, trim=0.7).raw_ps is None
        assert outcome.fits == [int(ds.treatment.sum()), int(ds.n - ds.treatment.sum())]


class TestIfSe:
    def test_constant_is_zero(self):
        assert if_se(np.zeros(10)) == 0.0

    def test_two_point_value(self):
        assert if_se(np.array([-1.0, 1.0])) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneous_scaling(self):
        rng = rng_from(13)
        phi = rng.standard_normal(50)
        assert if_se(3.5 * phi) == pytest.approx(3.5 * if_se(phi), rel=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            if_se(np.array([1.0]))


class TestBootstrap:
    def test_constant_estimator(self):
        ds, _ = make_confounded(n=80, seed=14)
        se, ci = bootstrap_ci(lambda d, s: 0.42, ds, B=120, seed=0)
        assert se == 0.0 and ci == (0.42, 0.42)

    def test_close_to_analytic_for_naive(self):
        ds, _ = make_confounded(n=500, seed=15)
        se, _ = bootstrap_ci(lambda d, s: naive_ate(d).estimate, ds, B=400, seed=1)
        analytic = naive_ate(ds).se
        assert abs(se - analytic) / analytic < 0.2

    def test_deterministic(self):
        ds, _ = make_confounded(n=100, seed=16)
        out1 = bootstrap_ci(lambda d, s: naive_ate(d).estimate, ds, B=150, seed=9)
        out2 = bootstrap_ci(lambda d, s: naive_ate(d).estimate, ds, B=150, seed=9)
        assert out1 == out2

    def test_failures_beyond_ten_percent_raise(self):
        ds, _ = make_confounded(n=80, seed=17)

        def flaky(d, s):
            raise RuntimeError("synthetic failure")

        with pytest.raises(RuntimeError, match="replicates failed"):
            bootstrap_ci(flaky, ds, B=100, seed=0)

    def test_programming_error_propagates(self):
        ds, _ = make_confounded(n=80, seed=17)

        def broken(d, s):
            return d.no_such_attribute + s

        with pytest.raises(AttributeError):
            bootstrap_ci(broken, ds, B=100, seed=0)
        with pytest.raises(TypeError):
            bootstrap_ci(lambda d, s: naive_ate(d, s), ds, B=100, seed=0)

    def test_minimum_replicates(self):
        ds, _ = make_confounded(n=80, seed=18)
        with pytest.raises(ValueError):
            bootstrap_ci(lambda d, s: 0.0, ds, B=50, seed=0)


class TestOutcomeScalingEquivariance:
    """Affine outcome maps y -> a + b*y must scale the contrast by b."""

    @staticmethod
    def _scaled(ds, a, b):
        y2 = a + b * ds.outcome
        lo, hi = ds.outcome_kind.bounds
        return Dataset(ds.covariates, ds.treatment, y2,
                       OutcomeKind.bounded(a + b * lo, a + b * hi), ds.names)

    def test_naive_reg_aiptw_tmle(self):
        ds, true_ps = make_confounded(n=150, seed=19)
        a, b = -2.0, 3.5
        ds2 = self._scaled(ds, a, b)
        ps = np.clip(true_ps, 0.01, 0.99)
        nuis = fit_nuisances(ds, None, LearnerSpec("ols"))
        nuis1 = NuisanceFits(ps, nuis.mu1, nuis.mu0)
        nuis2 = NuisanceFits(ps, a + b * nuis.mu1, a + b * nuis.mu0)
        assert naive_ate(ds2).estimate == pytest.approx(b * naive_ate(ds).estimate, abs=1e-8)
        assert reg_ate(ds2, nuis2).estimate == pytest.approx(
            b * reg_ate(ds, nuis1).estimate, abs=1e-8)
        assert aiptw_ate(ds2, nuis2).estimate == pytest.approx(
            b * aiptw_ate(ds, nuis1).estimate, abs=1e-8)
        assert tmle_ate(ds2, nuis2).estimate == pytest.approx(
            b * tmle_ate(ds, nuis1).estimate, abs=1e-8)

    def test_iptw_at_marginal_score(self):
        # the pure weighting estimator is scale-equivariant once the
        # weighted arm masses match, which the marginal score guarantees
        ds, _ = make_confounded(n=150, seed=20)
        a, b = 4.0, 0.5
        ds2 = self._scaled(ds, a, b)
        ps = np.full(ds.n, ds.treatment.mean())
        assert iptw_ate(ds2, ps).estimate == pytest.approx(
            b * iptw_ate(ds, ps).estimate, abs=1e-8)


def test_ci_width_matches_z_constant():
    ds, _ = make_confounded(n=120, seed=21)
    nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("ols"))
    res = aiptw_ate(ds, nuis)
    width = res.ci95[1] - res.ci95[0]
    assert width == pytest.approx(2 * Z95 * res.se, rel=1e-12)


def test_nuisance_bounds_respected_for_binary_outcome():
    rng = rng_from(22)
    n = 150
    X = rng.standard_normal((n, 2))
    A = (rng.random(n) < 0.5).astype(int)
    y = (rng.random(n) < 0.4).astype(float)
    ds = Dataset(X, A, y, OutcomeKind.binary())
    nuis = fit_nuisances(ds, LearnerSpec("logistic"), LearnerSpec("logistic"))
    for arr in (nuis.mu1, nuis.mu0):
        assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert nuis.ps.min() >= 0.01 and nuis.ps.max() <= 0.99


def test_nuisance_flags_list_the_propensity_first_and_each_once():
    nuis = NuisanceFits(np.array([0.5, 0.5]), None, None, ps_flags=("separation_ridge",),
                        outcome_flags=("iteration_cap", "separation_ridge"))
    assert nuis.flags == ("separation_ridge", "iteration_cap")
    # the positivity flag leads once more than 10% of the scores lie outside
    # [trim, 1 - trim]; one score in ten is not enough
    for outside, positivity in ((1, ()), (2, ("positivity_warning",))):
        raw = np.r_[np.full(outside, 0.999), np.full(10 - outside, 0.5)]
        nuis = NuisanceFits(raw, None, None, ps_flags=("separation_ridge",),
                            outcome_flags=("iteration_cap", "separation_ridge"))
        assert nuis.flags == positivity + ("separation_ridge", "iteration_cap")
    assert NuisanceFits(None, None, None, outcome_flags=("iteration_cap",)).flags == ("iteration_cap",)
