"""Synthetic data generators with analytically known treatment effects.

Both potential outcomes are generated explicitly for every unit; the observed
outcome reveals the one matching the drawn treatment. Positivity is a hard
construction-time guarantee: propensity coefficients are only allowed on
bounded (Bernoulli) covariate columns, and any specification whose implied
score can leave [0.05, 0.95] anywhere on the covariate support is rejected.
This keeps a plain logistic propensity model exactly correctly specified,
which the coverage checks rely on.

The true ATE is exact: a sum over Bernoulli cells of 1-D Gauss-Hermite
integrals for a logit outcome (``true_ate``); a binary-outcome spec that such
a sum cannot express is rejected at construction (``DgpSpec``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Dataset, OutcomeKind, child_seeds, expit, rng_from, run_replicates

__all__ = [
    "DgpSpec",
    "DgpDraw",
    "McReport",
    "gen_dataset",
    "mc_eval",
    "builtin_specs",
]

PS_LO, PS_HI = 0.05, 0.95


@dataclass(frozen=True)
class DgpSpec:
    """Generator specification with a computable ground-truth ATE.

    Covariates are independent; ``covariate_kinds`` marks each column
    "normal" or "bernoulli" (success probabilities in ``bernoulli_p``).
    The treatment score is logit-linear in the Bernoulli columns; the outcome
    is linear (continuous) or logit-linear (binary) in all columns, the
    treatment, and optional per-column quadratic terms. The quadratic terms
    do not misspecify a linear outcome model for the effect: on a Bernoulli
    column x^2 = x, and a normal column never enters the treatment score, so
    its square is independent of treatment (arm-wise OLS ``reg`` stays
    unbiased on ``confounded_linear`` with quadratics on x1..x4).

    A binary-outcome spec is rejected (``ValueError``) with a non-zero
    quadratic entry on a normal column, whose square would make the truth's
    integral 2-D, or with more than 16 Bernoulli columns with an outcome term
    (2^16 cells); on a Bernoulli column a quadratic folds into the linear term.
    """

    name: str
    n: int
    covariate_kinds: tuple[str, ...]
    bernoulli_p: tuple[float, ...]
    ps_intercept: float
    ps_coefficients: tuple[float, ...]
    outcome_intercept: float
    outcome_coefficients: tuple[float, ...]
    treatment_effect: float
    noise_scale: float = 1.0
    outcome_kind: str = "continuous"
    outcome_quadratic: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        d = len(self.covariate_kinds)
        if self.n < 2 or d < 1:
            raise ValueError("need n >= 2 and d >= 1")
        for k in self.covariate_kinds:
            if k not in ("normal", "bernoulli"):
                raise ValueError(f"unknown covariate kind {k!r}")
        if len(self.bernoulli_p) != d or len(self.ps_coefficients) != d:
            raise ValueError("per-column fields must have length d")
        if len(self.outcome_coefficients) != d:
            raise ValueError("outcome_coefficients must have length d")
        if self.outcome_quadratic and len(self.outcome_quadratic) != d:
            raise ValueError("outcome_quadratic must be empty or length d")
        if self.outcome_kind not in ("continuous", "binary"):
            raise ValueError(f"unknown outcome kind {self.outcome_kind!r}")
        if self.outcome_kind == "binary":
            quad = self.outcome_quadratic or (0.0,) * d
            if any(q for k, q in zip(self.covariate_kinds, quad) if k == "normal"):
                raise ValueError("a binary outcome takes no quadratic term on a normal column")
            if len(_cell_coefficients(self)) > 16:
                raise ValueError("a binary outcome takes at most 16 bernoulli outcome columns")
        for k, p, g in zip(self.covariate_kinds, self.bernoulli_p, self.ps_coefficients):
            if k == "bernoulli" and not 0.0 < p < 1.0:
                raise ValueError("bernoulli probabilities must lie in (0, 1)")
            if k == "normal" and g != 0.0:
                raise ValueError(
                    "propensity coefficients on unbounded (normal) columns break "
                    "the positivity guarantee; put them on bernoulli columns"
                )
        lo = self.ps_intercept + sum(min(0.0, g) for g in self.ps_coefficients)
        hi = self.ps_intercept + sum(max(0.0, g) for g in self.ps_coefficients)
        if expit(lo) < PS_LO or expit(hi) > PS_HI:
            raise ValueError(
                f"implied treatment probabilities [{expit(lo):.3f}, {expit(hi):.3f}] "
                f"escape [{PS_LO}, {PS_HI}]; rescale the coefficients"
            )

    @property
    def d(self) -> int:
        return len(self.covariate_kinds)


@dataclass(frozen=True)
class DgpDraw:
    """One generated dataset plus the ground truth behind it."""

    dataset: Dataset
    true_ate: float
    y0: np.ndarray
    y1: np.ndarray


def _cell_coefficients(spec: DgpSpec) -> dict[int, float]:
    """Outcome coefficient of each Bernoulli column with an outcome term, by
    column index; a quadratic entry folds in, since x^2 = x."""
    quad = spec.outcome_quadratic or (0.0,) * spec.d
    terms = zip(spec.covariate_kinds, spec.outcome_coefficients, quad)
    return {j: b + q for j, (k, b, q) in enumerate(terms) if k == "bernoulli" and b + q != 0.0}


@lru_cache(maxsize=64)
def true_ate(spec: DgpSpec) -> float:
    """Population ATE of ``spec``, exact up to quadrature error; cached.

    A continuous outcome carries the constant effect. For a logit outcome,
    E[expit(g + tau) - expit(g)] is summed over the 2^k cells of the k
    Bernoulli columns with an outcome term, each weighted by its probability.
    Within a cell g is a constant plus s*z, with z standard normal and s the
    root sum of squares of the normal columns' coefficients; 80-point
    Gauss-Hermite quadrature integrates over z, one node at a time.
    """
    if spec.outcome_kind == "continuous":
        return float(spec.treatment_effect)
    from numpy.polynomial.hermite_e import hermegauss

    g, prob = np.array([spec.outcome_intercept]), np.ones(1)
    for j, c in _cell_coefficients(spec).items():
        p = spec.bernoulli_p[j]
        g, prob = np.concatenate([g, g + c]), np.concatenate([prob * (1.0 - p), prob * p])
    normal = [b for k, b in zip(spec.covariate_kinds, spec.outcome_coefficients) if k == "normal"]
    sd = float(np.sqrt(np.dot(normal, normal)))
    z, w = hermegauss(80)
    total = 0.0
    for zi, wi in zip(z, w / np.sqrt(2.0 * np.pi)):
        gz = g + sd * zi
        total += float(wi * (prob @ (expit(gz + spec.treatment_effect) - expit(gz))))
    return total


def gen_dataset(spec: DgpSpec, seed: int | None = None) -> DgpDraw:
    """Generate potential outcomes, draw treatment, reveal Y = Y0(1-A) + Y1*A."""
    rng = rng_from(spec.seed if seed is None else seed)
    X = np.empty((spec.n, spec.d))
    for j, (kind, p) in enumerate(zip(spec.covariate_kinds, spec.bernoulli_p)):
        X[:, j] = rng.random(spec.n) < p if kind == "bernoulli" else rng.standard_normal(spec.n)
    gamma = np.asarray(spec.ps_coefficients, dtype=float)
    ps = expit(spec.ps_intercept + X @ gamma)
    A = (rng.random(spec.n) < ps).astype(int)
    g = spec.outcome_intercept + X @ np.asarray(spec.outcome_coefficients, dtype=float)
    if spec.outcome_quadratic:
        g += (X * X) @ np.asarray(spec.outcome_quadratic, dtype=float)
    if spec.outcome_kind == "continuous":
        noise = spec.noise_scale * rng.standard_normal(spec.n)
        y0 = g + noise
        y1 = g + spec.treatment_effect + noise
        y = np.where(A == 1, y1, y0)
        kind = OutcomeKind.bounded(float(y.min()), float(y.max()))
    else:
        u = rng.random(spec.n)
        y0 = (u < expit(g)).astype(float)
        y1 = (u < expit(g + spec.treatment_effect)).astype(float)
        y = np.where(A == 1, y1, y0)
        kind = OutcomeKind.binary()
    return DgpDraw(Dataset(X, A, y, kind), true_ate(spec), y0, y1)


@dataclass(frozen=True)
class McReport:
    """Monte Carlo summary of one estimator over R replications.

    ``coverage`` is None when no replicate gave an interval, or when every
    interval had zero width.
    """

    estimator: str
    spec_name: str
    R: int
    n_failures: int
    true_value: float
    bias: float
    mc_se: float
    rmse: float
    coverage: float | None
    mean_ci_width: float | None
    estimates: tuple[float, ...]

    def to_csv_row(self) -> str:
        cov = "" if self.coverage is None else repr(self.coverage)
        width = "" if self.mean_ci_width is None else repr(self.mean_ci_width)
        return (
            f"{self.estimator},{self.spec_name},{self.R},{self.n_failures},"
            f"{self.true_value!r},{self.bias!r},{self.mc_se!r},{self.rmse!r},{cov},{width}"
        )

    CSV_HEADER = "estimator,spec,R,failures,true_ate,bias,mc_se,rmse,coverage,mean_ci_width"


def mc_eval(
    estimator: Callable[[DgpDraw, int], "object"],
    spec: DgpSpec,
    R: int,
    seed: int = 0,
    *,
    label: str = "estimator",
) -> McReport:
    """Apply the estimator to R independent draws and summarise.

    The closure receives (draw, replicate seed) and returns an AteResult-like
    object with ``estimate`` and optional ``ci95``. Replications failing
    with a data error, a ValueError or RuntimeError, are excluded from the
    aggregates and counted; any other exception propagates.
    """
    if R < 2:
        raise ValueError("need R >= 2 replications")
    draws = ((gen_dataset(spec, s), s) for s in child_seeds(seed, R))
    done, failures = run_replicates(estimator, draws, "non-finite estimate")
    if not done:
        raise RuntimeError(f"all {R} replications failed; first: {failures[0]}")
    truth = true_ate(spec)
    arr = np.asarray([est for est, _ in done])
    bias = float(arr.mean() - truth)
    mc_se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else float("nan")
    rmse = float(np.sqrt(np.mean((arr - truth) ** 2)))
    have_ci = [res.ci95 for _, res in done if getattr(res, "ci95", None) is not None]
    coverage = mean_width = None
    if have_ci:
        hits = [1.0 if lo <= truth <= hi else 0.0 for lo, hi in have_ci]
        widths = [hi - lo for lo, hi in have_ci]
        mean_width = float(np.mean(widths))
        if max(widths) > 0.0:
            coverage = float(np.mean(hits))
    return McReport(
        label, spec.name, R, len(failures), truth, bias, mc_se, rmse,
        coverage, mean_width, tuple(float(e) for e in arr),
    )


def builtin_specs() -> dict[str, DgpSpec]:
    """Named generator catalogue used by the simulation tooling and tests.

    Coefficients are fixed constants. Bernoulli columns carry all treatment
    assignment signal; normal columns only ever drive the outcome.
    """
    six_kinds = ("bernoulli", "bernoulli", "bernoulli", "normal", "normal", "normal")
    six_p = (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    catalogue = {
        "randomized_linear": DgpSpec(
            name="randomized_linear",
            n=2000,
            covariate_kinds=six_kinds,
            bernoulli_p=six_p,
            ps_intercept=0.0,
            ps_coefficients=(0.0,) * 6,
            outcome_intercept=0.5,
            outcome_coefficients=(1.0, 1.0, -1.0, 0.5, 0.0, 0.0),
            treatment_effect=1.0,
            noise_scale=1.0,
            outcome_kind="continuous",
        ),
        "confounded_linear": DgpSpec(
            name="confounded_linear",
            n=2000,
            covariate_kinds=six_kinds,
            bernoulli_p=six_p,
            ps_intercept=-0.5,
            ps_coefficients=(1.2, -1.0, 1.0, 0.0, 0.0, 0.0),
            outcome_intercept=0.5,
            outcome_coefficients=(1.0, 1.0, -1.0, 0.5, 0.0, 0.0),
            treatment_effect=1.0,
            noise_scale=1.0,
            outcome_kind="continuous",
        ),
        "confounded_binary": DgpSpec(
            name="confounded_binary",
            n=2000,
            covariate_kinds=six_kinds,
            bernoulli_p=six_p,
            ps_intercept=-0.4,
            ps_coefficients=(1.0, -0.8, 0.8, 0.0, 0.0, 0.0),
            outcome_intercept=-0.3,
            outcome_coefficients=(0.9, 0.7, -0.8, 0.4, 0.0, 0.0),
            treatment_effect=0.8,
            noise_scale=1.0,
            outcome_kind="binary",
        ),
        "sparse_highdim": DgpSpec(
            name="sparse_highdim",
            n=2000,
            covariate_kinds=("bernoulli",) * 3 + ("normal",) * 24 + ("bernoulli",) * 23,
            bernoulli_p=(0.5,) * 50,
            ps_intercept=-0.5,
            ps_coefficients=(1.0, -0.8, 0.9) + (0.0,) * 47,
            outcome_intercept=0.0,
            outcome_coefficients=(1.2, 1.0, -1.0) + (0.0,) * 47,
            treatment_effect=1.0,
            noise_scale=1.0,
            outcome_kind="continuous",
        ),
    }
    return catalogue
