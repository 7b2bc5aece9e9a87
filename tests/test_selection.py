import dataclasses

import numpy as np
import pytest

import solver_oracle
from ateml import learners, selection
from ateml.core import Dataset, LearnerSpec
from ateml.dgp import builtin_specs, gen_dataset
from ateml.estimators import fit_nuisances


def test_ctmle_candidate_fits_each_fold_propensity_once(monkeypatch):
    ds = gen_dataset(builtin_specs()["sparse_highdim"], seed=3).dataset
    initial = fit_nuisances(ds, None, LearnerSpec("ols"), seed=0)
    eng = selection._TargetingEngine(ds, initial, 5, 0.01, 0)
    want = eng.evaluate(((0, 1, 2), None))

    calls = []
    fit = selection.fit_logistic

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(selection, "fit_logistic", counted)
    assert eng.evaluate(((0, 1, 2), None)) == want
    # one full-sample fit and one per training fold: V + 1 = 6
    assert len(calls) == 6
    assert calls[0] == ds.n and all(c < ds.n for c in calls[1:])


def _greedy_data(seed):
    spec = dataclasses.replace(builtin_specs()["sparse_highdim"], n=200)
    ds = gen_dataset(spec, seed=seed).dataset
    ds = Dataset(ds.covariates[:, :6].copy(), ds.treatment, ds.outcome, ds.outcome_kind)
    return ds, fit_nuisances(ds, None, LearnerSpec("ols"), seed=0)


def _per_candidate(self, current, remaining):
    return [self.evaluate((current + (j,), None)) for j in remaining]


# seed 4 restarts three stages and forces each of them; seed 27 restarts once
# and then finds an improving candidate
@pytest.mark.parametrize("cap", [None, 1000], ids=["one_stack", "capped"])
@pytest.mark.parametrize("seed", [4, 27])
def test_greedy_stages_equal_a_per_candidate_loop(seed, cap, monkeypatch):
    ds, initial = _greedy_data(seed)
    if cap is not None:  # 200 rows: at most 2 candidates per stack
        monkeypatch.setattr(learners, "_STACK", cap)
    res, trace = selection.ctmle_greedy(ds, initial, V=3, seed=0)

    monkeypatch.setattr(selection._TargetingEngine, "evaluate_stage", _per_candidate)
    monkeypatch.setattr(selection, "fit_logistic", solver_oracle.fit_logistic)
    want_res, want_trace = selection.ctmle_greedy(ds, initial, V=3, seed=0)

    assert len(trace.candidate_evals_per_round) > 1
    assert (seed == 4) == bool(trace.flags)
    assert repr(trace) == repr(want_trace)  # losses, epsilons, covariates, evals, flags
    assert (res.estimate, res.se, res.ci95, res.diagnostics) == (
        want_res.estimate, want_res.se, want_res.ci95, want_res.diagnostics)
    assert np.array_equal(res.if_values, want_res.if_values)
