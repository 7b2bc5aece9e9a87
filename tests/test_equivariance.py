"""Equivariance of the fold-free estimators, checked as contracts.

Each estimator runs through the command line's one dispatch
(``cli._estimate``) with ``run``'s default learners and seed 3, on a 400-row
draw of ``confounded_linear`` or ``confounded_binary`` (seed 7) and on a
transformed copy of that draw:

- arms relabelled (A -> 1 - A): the estimate negates;
- rows permuted: the estimate stays, for all but ``double_lasso``, whose
  lasso CV folds follow row positions;
- affine outcome (Y -> 3 + 2Y, continuous draw only): the estimate doubles.

The bound was fixed before the first run: |change| <= 1e-12 times
``naive_ate``'s SE on the same draw. ``reg`` and ``match`` report no SE, so
no estimator's own SE can be the yardstick. ``iptw`` is the Horvitz-Thompson
form, which moves with the outcome's origin (ROADMAP item 3), so its affine
case is an expected failure. ``dml`` and the CTMLE variants are left out:
their folds follow row order and arm labels.
"""

from dataclasses import replace

import numpy as np
import pytest

from ateml.cli import RunConfig, _estimate, parse_learner
from ateml.core import Dataset, OutcomeKind
from ateml.dgp import builtin_specs, gen_dataset
from ateml.estimators import naive_ate

FOLD_FREE = ("naive", "reg", "iptw", "match", "aiptw", "tmle", "double_lasso")
DRAWS = {"lin": "confounded_linear", "bin": "confounded_binary"}
BOUND = 1e-12  # times naive_ate's SE on the same draw


def relabel_arms(ds):
    return replace(ds, treatment=1 - ds.treatment)


def permute_rows(ds):
    perm = np.random.default_rng(11).permutation(ds.n)
    return replace(ds, covariates=ds.covariates[perm], treatment=ds.treatment[perm],
                   outcome=ds.outcome[perm])


def affine_outcome(ds):
    lo, hi = ds.outcome_kind.bounds
    return replace(ds, outcome=3.0 + 2.0 * ds.outcome,
                   outcome_kind=OutcomeKind.bounded(3.0 + 2.0 * lo, 3.0 + 2.0 * hi))


# relation -> (transform, the estimate it should give from the original's)
RELATIONS = {
    "arms_relabelled": (relabel_arms, lambda est: -est),
    "rows_permuted": (permute_rows, lambda est: est),
    "affine_outcome": (affine_outcome, lambda est: 2.0 * est),
}

HORVITZ_THOMPSON = pytest.mark.xfail(
    strict=True, reason="iptw's Horvitz-Thompson form depends on the outcome's origin "
                        "(ROADMAP item 3)")
CASES = (
    [("arms_relabelled", stem, est) for stem in DRAWS for est in FOLD_FREE]
    + [("rows_permuted", stem, est) for stem in DRAWS for est in FOLD_FREE
       if est != "double_lasso"]
    + [pytest.param("affine_outcome", "lin", est,
                    marks=HORVITZ_THOMPSON if est == "iptw" else ())
       for est in FOLD_FREE]
)


@pytest.fixture(scope="module")
def draws():
    return {stem: gen_dataset(replace(builtin_specs()[name], n=400), seed=7).dataset
            for stem, name in DRAWS.items()}


def estimate(ds: Dataset, est: str) -> float:
    config = RunConfig(estimator=est, seed=3)
    ps_learner = parse_learner(config, ds.d, "ps")
    outcome_learner = parse_learner(config, ds.d, "outcome", ds.outcome_kind.is_binary)
    return _estimate(config, ds, ps_learner, outcome_learner)[0].estimate


@pytest.mark.parametrize("relation,stem,est", CASES)
def test_fold_free_estimate_follows_the_relation(draws, relation, stem, est):
    ds = draws[stem]
    transform, expected = RELATIONS[relation]
    got = estimate(transform(ds), est)
    assert abs(got - expected(estimate(ds, est))) <= BOUND * naive_ate(ds).se
