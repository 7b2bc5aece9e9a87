"""Synthetic data generators with analytically known treatment effects.

Both potential outcomes are generated explicitly for every unit; the observed
outcome reveals the one matching the drawn treatment. Positivity is a hard
construction-time guarantee: propensity coefficients are only allowed on
bounded (Bernoulli) covariate columns, and any specification whose implied
score can leave [0.05, 0.95] anywhere on the covariate support is rejected.
This keeps a plain logistic propensity model exactly correctly specified,
which the coverage checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Dataset, OutcomeKind, child_seeds, rng_from

__all__ = [
    "DgpSpec",
    "DgpDraw",
    "McReport",
    "gen_dataset",
    "mc_eval",
    "builtin_specs",
    "naive_bias",
]

PS_LO, PS_HI = 0.05, 0.95
_POP_MC_DRAWS = 1_000_000


@dataclass(frozen=True)
class DgpSpec:
    """Generator specification with a computable ground-truth ATE.

    Covariates are independent; ``covariate_kinds`` marks each column
    "normal" or "bernoulli" (success probabilities in ``bernoulli_p``).
    The treatment score is logit-linear in the Bernoulli columns; the outcome
    is linear (continuous) or logit-linear (binary) in all columns, the
    treatment, and optional per-column quadratic terms, the misspecification
    hook for analysts who fit linear models.
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

    def quadratic(self) -> np.ndarray:
        if self.outcome_quadratic:
            return np.asarray(self.outcome_quadratic, dtype=float)
        return np.zeros(self.d)


@dataclass(frozen=True)
class DgpDraw:
    """One generated dataset plus the ground truth behind it."""

    dataset: Dataset
    true_ate: float
    true_ate_se: float
    true_ps: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _draw_covariates(spec: DgpSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    X = np.empty((n, spec.d))
    for j, kind in enumerate(spec.covariate_kinds):
        if kind == "bernoulli":
            X[:, j] = (rng.random(n) < spec.bernoulli_p[j]).astype(float)
        else:
            X[:, j] = rng.standard_normal(n)
    return X


def _outcome_signal(spec: DgpSpec, X: np.ndarray) -> np.ndarray:
    beta = np.asarray(spec.outcome_coefficients, dtype=float)
    return spec.outcome_intercept + X @ beta + (X * X) @ spec.quadratic()


@lru_cache(maxsize=64)
def _binary_true_ate(spec: DgpSpec) -> tuple[float, float]:
    """Population Monte Carlo oracle for the logit-outcome effect."""
    rng = rng_from(spec.seed ^ 0x5EED_0DD5)
    X = _draw_covariates(spec, rng, _POP_MC_DRAWS)
    g = _outcome_signal(spec, X)
    diff = expit(g + spec.treatment_effect) - expit(g)
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(_POP_MC_DRAWS))


def true_ate(spec: DgpSpec) -> tuple[float, float]:
    """(true ATE, simulation SE); the SE is zero for the closed-form case."""
    if spec.outcome_kind == "continuous":
        return float(spec.treatment_effect), 0.0
    return _binary_true_ate(spec)


def gen_dataset(spec: DgpSpec, seed: int | None = None) -> DgpDraw:
    """Generate potential outcomes, draw treatment, reveal Y = Y0(1-A) + Y1*A."""
    rng = rng_from(spec.seed if seed is None else seed)
    X = _draw_covariates(spec, rng, spec.n)
    gamma = np.asarray(spec.ps_coefficients, dtype=float)
    ps = expit(spec.ps_intercept + X @ gamma)
    A = (rng.random(spec.n) < ps).astype(int)
    g = _outcome_signal(spec, X)
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
    ate, ate_se = true_ate(spec)
    dataset = Dataset(X, A, y, kind)
    return DgpDraw(dataset, ate, ate_se, ps, y0, y1)


def naive_bias(spec: DgpSpec) -> float:
    """Exact omitted-everything bias of the raw mean contrast (linear case).

    The treatment score only involves Bernoulli columns, so the needed
    conditional means come from enumerating that finite support; columns
    independent of the score contribute nothing.
    """
    if spec.outcome_kind != "continuous":
        raise ValueError("closed-form bias is defined for the linear outcome")
    gamma = np.asarray(spec.ps_coefficients, dtype=float)
    active = [j for j in range(spec.d) if gamma[j] != 0.0]
    beta = np.asarray(spec.outcome_coefficients, dtype=float) + spec.quadratic()
    # quadratic adds to the linear coefficient on {0,1} columns since x^2 = x
    if not active:
        return 0.0
    e_p = 0.0
    e_xp = np.zeros(len(active))
    e_x = np.array([spec.bernoulli_p[j] for j in active])
    for config in product((0.0, 1.0), repeat=len(active)):
        prob = 1.0
        eta = spec.ps_intercept
        for x, j in zip(config, active):
            pj = spec.bernoulli_p[j]
            prob *= pj if x == 1.0 else (1.0 - pj)
            eta += gamma[j] * x
        p = float(expit(eta))
        e_p += prob * p
        e_xp += prob * p * np.asarray(config)
    bias = 0.0
    for k, j in enumerate(active):
        gap = e_xp[k] / e_p - (e_x[k] - e_xp[k]) / (1.0 - e_p)
        bias += beta[j] * gap
    return float(bias)


@dataclass(frozen=True)
class McReport:
    """Monte Carlo summary of one estimator over R replications.

    ``rmse**2 == bias**2 + variance`` holds exactly on the same sample when
    the variance uses the population divisor, which is what is stored here.
    """

    estimator: str
    spec_name: str
    R: int
    n_failures: int
    true_value: float
    bias: float
    mc_se: float
    rmse: float
    variance: float
    coverage: float | None
    mean_ci_width: float | None
    estimates: tuple[float, ...]
    flags: tuple[str, ...] = ()
    failure_messages: tuple[str, ...] = ()

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
    seeds = child_seeds(seed, R)
    estimates, cis = [], []
    failures: list[str] = []
    for s in seeds:
        draw = gen_dataset(spec, s)
        try:
            res = estimator(draw, s)
            est = float(res.estimate)
            if not np.isfinite(est):
                raise ValueError("non-finite estimate")
            estimates.append(est)
            cis.append(getattr(res, "ci95", None))
        except (ValueError, RuntimeError) as exc:
            failures.append(str(exc))
    if not estimates:
        raise RuntimeError(f"all {R} replications failed; first: {failures[0]}")
    truth, _ = true_ate(spec)
    arr = np.asarray(estimates)
    bias = float(arr.mean() - truth)
    mc_se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else float("nan")
    variance = float(arr.var(ddof=0))
    rmse = float(np.sqrt(np.mean((arr - truth) ** 2)))
    have_ci = [ci for ci in cis if ci is not None]
    flags: list[str] = []
    coverage = mean_width = None
    if have_ci:
        hits = [1.0 if lo <= truth <= hi else 0.0 for lo, hi in have_ci]
        widths = [hi - lo for lo, hi in have_ci]
        mean_width = float(np.mean(widths))
        if max(widths) == 0.0:
            flags.append("degenerate_ci")
        else:
            coverage = float(np.mean(hits))
    return McReport(
        label, spec.name, R, len(failures), truth, bias, mc_se, rmse, variance,
        coverage, mean_width, tuple(float(e) for e in arr),
        tuple(flags), tuple(failures[:5]),
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
