import dataclasses
from collections import Counter

import numpy as np
import pytest

import solver_oracle
from ateml import learners, selection
from ateml.core import Dataset, LearnerSpec, make_folds
from ateml.dgp import builtin_specs, gen_dataset
from ateml.estimators import fit_nuisances


def _per_candidate(features, target, base, extra):
    """The reference for the stacked fits: one oracle fit per candidate."""
    return [solver_oracle.fit_logistic(features[:, list(base) + [j]], target) for j in extra]


def _counting(monkeypatch):
    """Record the (base + (j,), rows) problem of every stacked logistic fit."""
    problems = []
    stacked = selection._fit_logistic_candidates

    def counted(features, target, base, extra):
        problems.extend((tuple(base) + (j,), features.shape[0]) for j in extra)
        return stacked(features, target, base, extra)

    monkeypatch.setattr(selection, "_fit_logistic_candidates", counted)
    return problems


def test_ctmle_candidate_fits_each_fold_propensity_once(monkeypatch):
    ds = gen_dataset(builtin_specs()["sparse_highdim"], seed=3).dataset
    initial = fit_nuisances(ds, None, LearnerSpec("ols"), seed=0)
    eng = selection._TargetingEngine(ds, initial, 5, 0.01, 0)
    problems = _counting(monkeypatch)
    got = eng.score(eng.fit((0, 1), (2,)))[0]
    # one full-sample fit and one per training fold: V + 1 = 6
    assert [c for c, _ in problems] == [(0, 1, 2)] * 6
    assert problems[0][1] == ds.n and all(rows < ds.n for _, rows in problems[1:])

    monkeypatch.setattr(selection, "_fit_logistic_candidates", _per_candidate)
    want = eng.score(eng.fit((0, 1), (2,)))[0]
    assert got[:3] == want[:3]  # cv loss, full-sample loss, epsilon
    assert got[3].estimate == want[3].estimate
    assert np.array_equal(got[3].phi, want[3].phi)


def _greedy_data(seed):
    spec = dataclasses.replace(builtin_specs()["sparse_highdim"], n=200)
    ds = gen_dataset(spec, seed=seed).dataset
    ds = Dataset(ds.covariates[:, :6].copy(), ds.treatment, ds.outcome, ds.outcome_kind)
    return ds, fit_nuisances(ds, None, LearnerSpec("ols"), seed=0)


def _same_result(got, want):
    (res, trace), (want_res, want_trace) = got, want
    assert repr(trace) == repr(want_trace)  # losses, epsilons, covariates, evals, flags
    assert (res.estimate, res.se, res.ci95, res.diagnostics) == (
        want_res.estimate, want_res.se, want_res.ci95, want_res.diagnostics)
    assert np.array_equal(res.if_values, want_res.if_values)


# seed 4 reruns four stages and forces three of them; seed 27 reruns one stage
# and then finds an improving candidate
@pytest.mark.parametrize("cap", [None, 1000], ids=["one_stack", "capped"])
@pytest.mark.parametrize("seed", [4, 27])
def test_greedy_stages_equal_a_per_candidate_loop(seed, cap, monkeypatch):
    ds, initial = _greedy_data(seed)
    if cap is not None:  # 200 rows: at most 2 candidates per stack
        monkeypatch.setattr(learners, "_STACK", cap)
    got = selection.ctmle_greedy(ds, initial, V=3, seed=0)

    monkeypatch.setattr(selection, "_fit_logistic_candidates", _per_candidate)
    want = selection.ctmle_greedy(ds, initial, V=3, seed=0)

    trace = got[1]
    assert len(trace.candidate_evals_per_round) > 1
    assert (seed == 4) == bool(trace.flags)
    _same_result(got, want)


def test_greedy_rerun_rescores_without_refitting(monkeypatch):
    ds, initial = _greedy_data(4)
    problems = _counting(monkeypatch)
    _, trace = selection.ctmle_greedy(ds, initial, V=3, seed=0)
    assert len(trace.candidate_evals_per_round) == 5  # stages 1, 2, 3 and 5 rerun
    fits = Counter(c for c, _ in problems)
    # every stage extends the accepted set by each remaining covariate once
    assert len(fits) == 6 + 5 + 4 + 3 + 2 + 1
    assert set(fits.values()) == {3 + 1}  # the full sample and V = 3 folds
    # the scorings still count every rerun candidate: the intercept, the 21
    # extensions and the reruns of 6 + 5 + 4 + 2 of them
    assert sum(trace.candidate_evals_per_round) == 1 + 21 + 17


def test_preorder_ranking_is_one_stack_of_per_column_fits(monkeypatch):
    ds, initial = _greedy_data(27)
    problems = _counting(monkeypatch)
    got = selection.ctmle_preorder_logistic(ds, initial, V=3, seed=0)
    # the ranking fits every column on the full sample in one call
    assert problems[:ds.d] == [((j,), ds.n) for j in range(ds.d)]

    monkeypatch.setattr(selection, "_fit_logistic_candidates", _per_candidate)
    want = selection.ctmle_preorder_logistic(ds, initial, V=3, seed=0)
    assert got[0].diagnostics["order"] == want[0].diagnostics["order"]
    _same_result(got, want)


def test_ctmle_lasso_fits_only_the_penalty_search_and_the_candidates(monkeypatch):
    # V = 5 folds: the default path's starting penalty is chosen on a 20-point
    # grid in every fold, then each of the 10 path penalties is fitted on the
    # full sample and every fold; no full-sample refit at the chosen penalty
    ds, initial = _greedy_data(4)
    calls = []
    real = learners.fit_logistic_lasso

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(learners, "fit_logistic_lasso", counted)
    monkeypatch.setattr(selection, "fit_logistic_lasso", counted)
    _, trace = selection.ctmle_lasso(ds, initial, V=5, seed=0)
    assert len(trace.candidates) == 10
    assert len(calls) == 5 * 20 + (5 + 1) * 10


def test_ctmle_lasso_reports_capped_penalty_search_fits(monkeypatch):
    # two l1-logistic passes for the fits that choose the path's first
    # penalty only; the candidate fits keep the full cap and converge
    ds, initial = _greedy_data(4)
    _, trace = selection.ctmle_lasso(ds, initial, V=5, seed=0)
    assert trace.flags == ()
    fit_block, cap = selection._TargetingEngine.fit_block, learners._LOGIT_LASSO_CAP

    def uncapped(self, *args):
        with monkeypatch.context() as m:
            m.setattr(learners, "_LOGIT_LASSO_CAP", cap)
            return fit_block(self, *args)

    monkeypatch.setattr(learners, "_LOGIT_LASSO_CAP", 2)
    monkeypatch.setattr(selection._TargetingEngine, "fit_block", uncapped)
    _, trace = selection.ctmle_lasso(ds, initial, V=5, seed=0)
    assert trace.flags == ("iteration_cap",)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_double_lasso_keeps_the_confounders(seed):
    # x1..x3 enter both the propensity and the outcome of sparse_highdim; at
    # n = 2000 both cross-validated lasso fits keep all three
    ds = gen_dataset(builtin_specs()["sparse_highdim"], seed=seed).dataset
    sel = selection.double_lasso_select(ds.covariates, ds.treatment.astype(float), ds.outcome,
                                        make_folds(ds.n, 5, seed))
    assert sel.outcome_selected[:3] == sel.treatment_selected[:3] == (0, 1, 2)
