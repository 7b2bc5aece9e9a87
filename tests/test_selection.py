import numpy as np

from ateml import selection
from ateml.core import LearnerSpec
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
