from dataclasses import replace

import numpy as np
import pytest

from ateml.dgp import DgpSpec, builtin_specs, gen_dataset, mc_eval
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


def test_propensity_coefficient_on_a_normal_column_rejected():
    spec = builtin_specs()["confounded_linear"]
    gamma = list(spec.ps_coefficients)
    gamma[3] = 0.1  # column 3 is normal
    with pytest.raises(ValueError, match="normal"):
        replace(spec, ps_coefficients=tuple(gamma))


def test_scores_outside_the_positivity_band_rejected():
    spec = builtin_specs()["confounded_linear"]
    with pytest.raises(ValueError, match="escape"):
        replace(spec, ps_coefficients=(3.0, -1.0, 1.0, 0.0, 0.0, 0.0))


def test_binary_true_ate_matches_a_large_draw():
    spec = replace(builtin_specs()["confounded_binary"], n=400_000)
    draw = gen_dataset(spec, seed=11)
    diff = draw.y1 - draw.y0
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean() - draw.true_ate) < 4 * se


def test_binary_outcome_rejects_a_quadratic_on_a_normal_column():
    spec = builtin_specs()["confounded_binary"]
    with pytest.raises(ValueError, match="quadratic term on a normal column"):
        replace(spec, outcome_quadratic=(0.0, 0.0, 0.0, 0.3, 0.0, 0.0))
    # on a Bernoulli column x^2 = x, and a continuous outcome takes either
    replace(spec, outcome_quadratic=(0.3, 0.0, 0.0, 0.0, 0.0, 0.0))
    replace(spec, outcome_kind="continuous", outcome_quadratic=(0.0, 0.0, 0.0, 0.3, 0.0, 0.0))


def test_binary_outcome_rejects_more_than_16_bernoulli_outcome_columns():
    def spec(k, outcome_kind="binary", outcome_quadratic=()):
        return DgpSpec(name="many", n=50, covariate_kinds=("bernoulli",) * 20,
                       bernoulli_p=(0.5,) * 20, ps_intercept=0.0, ps_coefficients=(0.0,) * 20,
                       outcome_intercept=0.0, outcome_coefficients=(0.1,) * k + (0.0,) * (20 - k),
                       treatment_effect=0.5, outcome_kind=outcome_kind,
                       outcome_quadratic=outcome_quadratic)

    spec(16)
    with pytest.raises(ValueError, match="at most 16"):
        spec(17)
    # a quadratic entry that cancels its linear term leaves no outcome term
    spec(17, outcome_quadratic=(-0.1,) + (0.0,) * 19)
    spec(17, outcome_kind="continuous")


def test_outcome_quadratic_adds_its_term():
    plain = replace(builtin_specs()["confounded_linear"], n=200)
    quad = (0.0, 0.2, 0.0, 0.5, 0.0, -0.3)
    got = gen_dataset(replace(plain, outcome_quadratic=quad), seed=4)
    base = gen_dataset(plain, seed=4)
    X = got.dataset.covariates
    assert np.array_equal(X, base.dataset.covariates)
    np.testing.assert_allclose(got.y0, base.y0 + (X * X) @ np.array(quad), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.y1 - got.y0, plain.treatment_effect, rtol=0, atol=1e-12)
