from dataclasses import replace

import pytest

from ateml.dgp import builtin_specs, mc_eval
from ateml.estimators import naive_ate


def _small_spec():
    return replace(builtin_specs()["confounded_linear"], n=60)


def test_mc_eval_counts_data_failures():
    calls = []

    def flaky(draw, s):
        calls.append(s)
        if len(calls) % 2:
            raise ValueError("resample lost an arm")
        return naive_ate(draw.dataset)

    rep = mc_eval(flaky, _small_spec(), R=6, seed=1)
    assert rep.n_failures == 3
    assert len(rep.estimates) == 3


def test_mc_eval_propagates_programming_errors():
    with pytest.raises(TypeError):
        mc_eval(lambda draw, s: naive_ate(draw.dataset, s), _small_spec(), R=4, seed=1)
