"""The binary-outcome truth, streamed in row blocks, against the whole-matrix draw."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from ateml import dgp
from ateml.core import rng_from
from ateml.dgp import DgpSpec, builtin_specs, true_ate


def _whole_matrix_truth(spec):
    """The population truth computed from one (_POP_MC_DRAWS, d) covariate matrix."""
    n = dgp._POP_MC_DRAWS
    rng = rng_from(spec.seed ^ 0x5EED_0DD5)
    X = np.empty((n, spec.d))
    for j, kind in enumerate(spec.covariate_kinds):
        if kind == "bernoulli":
            X[:, j] = (rng.random(n) < spec.bernoulli_p[j]).astype(float)
        else:
            X[:, j] = rng.standard_normal(n)
    g = spec.outcome_intercept + X @ np.asarray(spec.outcome_coefficients, dtype=float)
    if spec.outcome_quadratic:
        g += (X * X) @ np.asarray(spec.outcome_quadratic, dtype=float)
    diff = expit(g + spec.treatment_effect) - expit(g)
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(n))


_BINARY = builtin_specs()["confounded_binary"]
_CASES = {
    "confounded_binary": _BINARY,
    # column 4 enters through its square alone, column 5 is never read
    "quadratic": replace(_BINARY, outcome_quadratic=(0.0, 0.0, 0.3, 0.0, -0.25, 0.0)),
    "every_column_used": replace(_BINARY, outcome_coefficients=(0.9, 0.7, -0.8, 0.4, -0.3, 0.2)),
    # unused normal columns 1 and 4 and unused Bernoulli column 3 come before
    # the last used column 5 (Bernoulli); normal column 6 comes after it
    "mixed_order": DgpSpec(
        name="mixed_order",
        n=100,
        covariate_kinds=("bernoulli", "normal", "normal", "bernoulli", "normal", "bernoulli",
                         "normal"),
        bernoulli_p=(0.3, 0.5, 0.5, 0.6, 0.5, 0.4, 0.5),
        ps_intercept=0.0,
        ps_coefficients=(0.8, 0.0, 0.0, -0.6, 0.0, 0.5, 0.0),
        outcome_intercept=0.2,
        outcome_coefficients=(0.6, 0.0, -0.7, 0.0, 0.0, 0.9, 0.0),
        treatment_effect=-0.5,
        outcome_kind="binary",
        seed=7,
    ),
    "no_outcome_terms": replace(_BINARY, outcome_coefficients=(0.0,) * 6,
                                outcome_quadratic=(0.0,) * 6),
}


@pytest.mark.parametrize("block", [1000, 4096, 7919, 65536])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_streamed_truth_equals_whole_matrix_truth(monkeypatch, case, block):
    monkeypatch.setattr(dgp, "_POP_MC_DRAWS", 50_000)
    monkeypatch.setattr(dgp, "_POP_BLOCK", block)
    spec = _CASES[case]
    assert dgp._binary_true_ate.__wrapped__(spec) == _whole_matrix_truth(spec)


def test_shipped_confounded_binary_truth_is_pinned():
    assert true_ate(builtin_specs()["confounded_binary"]) == (
        0.1658972591156202, 3.296777995244869e-05)


def test_truth_never_holds_the_population_matrix():
    # the whole 1,000,000 x 6 matrix alone is 48 MB; the streamed draw keeps
    # the difference vector, its SD temporary and three bool columns
    tracemalloc.start()
    try:
        dgp._binary_true_ate.__wrapped__(builtin_specs()["confounded_binary"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
