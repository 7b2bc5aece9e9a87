"""The exact binary-outcome truth, against a cell-by-cell adaptive quadrature,
against the mean effect over a whole covariate matrix, and against the
benchmark's own implementation."""

import importlib.util
import itertools
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from ateml import dgp
from ateml.core import rng_from
from ateml.dgp import DgpSpec, builtin_specs, true_ate

ORACLE_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _spec(n_cells: int, n_normal: int) -> DgpSpec:
    """``n_cells`` Bernoulli columns with an outcome term (the first also with
    a quadratic entry), one Bernoulli column that only drives treatment, then
    ``n_normal`` normal columns with outcome terms."""
    d = n_cells + 1 + n_normal
    kinds = ("bernoulli",) * (n_cells + 1) + ("normal",) * n_normal
    return DgpSpec(
        name=f"cells{n_cells}_normal{n_normal}",
        n=100,
        covariate_kinds=kinds,
        bernoulli_p=(0.3, 0.65, 0.45)[:n_cells] + (0.5,) * (1 + n_normal),
        ps_intercept=-0.2,
        ps_coefficients=(0.0,) * n_cells + (0.9,) + (0.0,) * n_normal,
        outcome_intercept=-0.4,
        outcome_coefficients=(0.9, -0.7, 0.5)[:n_cells] + (0.0,) + (0.6, -0.8)[:n_normal],
        treatment_effect=0.7,
        outcome_kind="binary",
        outcome_quadratic=(0.25,) + (0.0,) * (d - 1) if n_cells else (),
    )


def _adaptive_truth(spec: DgpSpec) -> float:
    """Sum over every 0/1 combination of the Bernoulli columns of its
    probability times ``scipy.integrate.quad`` of the effect against the
    normal density of the normal part of the signal."""
    kinds = spec.covariate_kinds
    quad_terms = spec.outcome_quadratic or (0.0,) * spec.d
    bern = [j for j in range(spec.d) if kinds[j] == "bernoulli"]
    sd = np.sqrt(sum(spec.outcome_coefficients[j] ** 2 for j in range(spec.d)
                     if kinds[j] == "normal"))
    total = 0.0
    for cell in itertools.product((0.0, 1.0), repeat=len(bern)):
        prob, g = 1.0, spec.outcome_intercept
        for x, j in zip(cell, bern):
            prob *= spec.bernoulli_p[j] if x else 1.0 - spec.bernoulli_p[j]
            g += spec.outcome_coefficients[j] * x + quad_terms[j] * x * x
        if sd == 0.0:
            total += prob * (expit(g + spec.treatment_effect) - expit(g))
            continue
        value, _ = quad(
            lambda z: norm.pdf(z) * (expit(g + spec.treatment_effect + sd * z) - expit(g + sd * z)),
            -np.inf, np.inf, epsabs=1e-14, epsrel=1e-14, limit=200,
        )
        total += prob * value
    return total


@pytest.mark.parametrize("n_normal", [0, 2])
@pytest.mark.parametrize("n_cells", [0, 1, 3])
def test_truth_equals_cellwise_adaptive_quadrature(n_cells, n_normal):
    spec = _spec(n_cells, n_normal)
    assert len(dgp._cell_coefficients(spec)) == n_cells
    assert abs(true_ate(spec) - _adaptive_truth(spec)) < 1e-10


def _whole_matrix_truth(spec: DgpSpec, n: int) -> tuple[float, float]:
    """Mean effect and its SE over one (n, d) covariate matrix drawn from ``spec``."""
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
    # column 1's quadratic cancels its linear term, column 2's folds into it
    "quadratic": replace(_BINARY, outcome_quadratic=(0.0, -0.7, 0.3, 0.0, 0.0, 0.0)),
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
def test_streamed_truth_equals_whole_matrix_truth(case, block):
    # ``true_ate`` streams its cell sum one quadrature node at a time; the
    # mean effect over a whole ``block``-row covariate matrix, which reads
    # every column as the generator does, must agree within its own SE
    spec = _CASES[case]
    mean, se = _whole_matrix_truth(spec, block)
    assert abs(true_ate(spec) - mean) < 4.0 * se + 1e-12


def test_truth_agrees_with_the_benchmark_oracle(monkeypatch):
    spec = builtin_specs()["confounded_binary"]
    assert abs(true_ate(spec) - _load_oracle(monkeypatch).true_ate(spec)) < 1e-12


def test_shipped_confounded_binary_truth_is_pinned():
    assert true_ate(builtin_specs()["confounded_binary"]) == 0.16589235008913603


def test_continuous_truth_is_the_effect():
    assert true_ate(builtin_specs()["confounded_linear"]) == 1.0


def test_truth_never_holds_the_population_matrix():
    spec = builtin_specs()["confounded_binary"]
    true_ate.__wrapped__(spec)  # module imports happen outside the trace
    tracemalloc.start()
    try:
        true_ate.__wrapped__(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
