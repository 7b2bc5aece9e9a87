"""Seeded Monte Carlo checks of estimator behaviour on the built-in generators.

These are the statistical side of the golden tests in ``test_cli.py``. A
change that re-randomises a learner (new forest draws, say) moves its
goldens by chance rather than by rounding; such goldens are rewritten only
when the learner's Monte Carlo check below still holds, and each rewrite is
listed old -> new in CHANGES.md. The bounds are fixed from the sampling
distribution of the statistic before the results are seen:

- |bias| < 4 Monte Carlo standard errors;
- coverage of the nominal 95 % interval inside the two-sided 99.9 % normal
  band around 0.95 for R replicates, capped at 1 ([0.857, 1] at R = 60).
"""

from dataclasses import replace

import numpy as np
from scipy.stats import norm

from ateml.core import LearnerSpec
from ateml.dgp import builtin_specs, mc_eval
from ateml.estimators import dml_ate


def coverage_band(R: int, level: float = 0.999) -> tuple[float, float]:
    half = norm.ppf(0.5 + level / 2) * np.sqrt(0.95 * 0.05 / R)
    return 0.95 - half, min(1.0, 0.95 + half)


def assert_within_bands(rep):
    assert abs(rep.bias) < 4 * rep.mc_se, (rep.bias, rep.mc_se)
    lo, hi = coverage_band(rep.R - rep.n_failures)
    assert lo <= rep.coverage <= hi, (rep.coverage, lo, hi)


def test_cross_fitted_forest_dml_bias_and_coverage():
    forest = LearnerSpec("forest", {"n_trees": 50, "seed": 0})
    spec = replace(builtin_specs()["confounded_linear"], n=500)

    def estimate(draw, s):
        return dml_ate(draw.dataset, forest, forest, k=2, s=1, seed=s)[0]

    assert_within_bands(mc_eval(estimate, spec, R=60, seed=20261018, label="dml_forest"))
