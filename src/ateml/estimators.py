"""ATE point estimators and inference.

Naive difference in means, outcome regression, inverse-probability weighting,
propensity matching, the augmented weighting estimator, the targeted
one-step-fluctuation estimator, and the cross-fitted split-and-aggregate
estimator. Variance comes from influence functions where the estimator has a
tractable one and from the nonparametric bootstrap otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.special import expit, logit

from .core import (
    Dataset,
    FoldAssignment,
    Learner,
    LearnerSpec,
    Z95,
    child_seeds,
    make_stratified_folds,
    rng_from,
)
from .balance import MatchResult, _as_ps, estimate_ps

__all__ = [
    "NuisanceFits",
    "AteResult",
    "DmlConfig",
    "SingleArmFoldError",
    "fit_nuisances",
    "naive_ate",
    "reg_ate",
    "iptw_ate",
    "match_ate",
    "aiptw_ate",
    "tmle_ate",
    "dml_ate",
    "if_se",
    "bootstrap_ci",
]

# Bound applied to outcome-regression values before logit-scale fluctuation.
Q_BOUND = 1e-6
# tmle_ate's contract on the mean score of its fluctuation.
SCORE_TOL = 1e-6


@dataclass(frozen=True)
class NuisanceFits:
    """Per-unit nuisance predictions: propensity p(X) and outcomes mu(a, X).

    ``provenance`` is "full_sample" or "cross_fitted"; cross-fitted fits carry
    the fold map proving unit i's predictions came from models that never saw
    i's fold.
    """

    ps: np.ndarray | None
    mu1: np.ndarray | None
    mu0: np.ndarray | None
    provenance: str = "full_sample"
    fold_of: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.provenance not in ("full_sample", "cross_fitted"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "cross_fitted" and self.fold_of is None:
            raise ValueError("cross_fitted provenance requires the fold map")


@dataclass(frozen=True)
class AteResult:
    """Point estimate with its uncertainty and per-unit influence values."""

    estimate: float
    se: float | None
    ci95: tuple[float, float] | None
    if_values: np.ndarray | None
    method: str
    diagnostics: dict = field(default_factory=dict)


def _z_interval(est: float, se: float) -> tuple[float, float]:
    return (est - Z95 * se, est + Z95 * se)


def if_se(if_values: np.ndarray) -> float:
    """Influence-function standard error: sqrt(var(phi) / N), var with N-1."""
    phi = np.asarray(if_values, dtype=float)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("need at least two influence values")
    return float(np.sqrt(np.var(phi, ddof=1) / phi.size))


def _if_result(est: float, phi: np.ndarray, method: str, diagnostics: dict) -> AteResult:
    se = if_se(phi)
    return AteResult(float(est), se, _z_interval(est, se), phi, method, diagnostics)


# ---------------------------------------------------------------------------
# nuisance fitting
# ---------------------------------------------------------------------------


class SingleArmFoldError(ValueError):
    """A cross-fitting training block holds units of one treatment arm only."""


def fit_nuisances(
    dataset: Dataset,
    ps_spec: Learner | None = None,
    outcome_spec: Learner | None = None,
    *,
    fold_of: FoldAssignment | None = None,
    trim: float = 0.01,
    seed: int = 0,
    ps_cols=None,
    outcome_cols=None,
) -> NuisanceFits:
    """Fit the requested nuisance models, full-sample or cross-fitted.

    Both are ``Learner`` objects fitted as ``learner.fit(X, y, target_kind,
    seed)``: the propensity model on (X, A) as a probability, the outcome
    model once per treatment arm. ``ps_cols`` and ``outcome_cols`` restrict
    each model to a covariate subset, which is also the hook used to
    misspecify a nuisance by design in simulations. A cross-fitting training
    block with a single treatment arm raises ``SingleArmFoldError``.
    """
    X, A, y = dataset.covariates, dataset.treatment, dataset.outcome
    n = dataset.n
    kind = "probability" if dataset.outcome_kind.is_binary else "regression"
    lo, hi = dataset.outcome_kind.bounds
    Xp = X if ps_cols is None else X[:, list(ps_cols)]
    Xo = X if outcome_cols is None else X[:, list(outcome_cols)]
    meta: dict = {"trim": trim}

    def outcome_pair(X_tr, A_tr, y_tr, X_pred):
        """Clipped (mu1, mu0) predictions for X_pred from fits on the training block."""
        m1 = outcome_spec.fit(X_tr[A_tr == 1], y_tr[A_tr == 1], kind, seed)
        m0 = outcome_spec.fit(X_tr[A_tr == 0], y_tr[A_tr == 0], kind, seed)
        return np.clip(m1.predict(X_pred), lo, hi), np.clip(m0.predict(X_pred), lo, hi)

    if fold_of is None:
        ps = None
        if ps_spec is not None:
            sub = dataset if ps_cols is None else dataset.select_covariates(ps_cols)
            fit = estimate_ps(ps_spec, sub, trim, seed=seed)
            ps = fit.ps
            meta["ps"] = fit.meta
            meta["clipped_fraction"] = fit.clipped_fraction
            if fit.flags:
                meta["ps_flags"] = list(fit.flags)
        mu1 = mu0 = None
        if outcome_spec is not None:
            mu1, mu0 = outcome_pair(Xo, A, y, Xo)
        return NuisanceFits(ps, mu1, mu0, "full_sample", None, meta)

    folds = fold_of
    ps = np.empty(n) if ps_spec is not None else None
    mu1 = np.empty(n) if outcome_spec is not None else None
    mu0 = np.empty(n) if outcome_spec is not None else None
    for v in range(1, folds.V + 1):
        tr = folds.train_mask(v)
        te = folds.test_mask(v)
        if A[tr].min() == A[tr].max():
            raise SingleArmFoldError(f"training block for fold {v} has a single treatment arm")
        if ps is not None:
            pm = ps_spec.fit(Xp[tr], A[tr].astype(float), "probability", seed)
            ps[te] = np.clip(pm.predict(Xp[te]), trim, 1.0 - trim)
        if mu1 is not None:
            mu1[te], mu0[te] = outcome_pair(Xo[tr], A[tr], y[tr], Xo[te])
    return NuisanceFits(ps, mu1, mu0, "cross_fitted", folds.fold_of.copy(), meta)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def naive_ate(dataset: Dataset) -> AteResult:
    """Difference in outcome means with the unpooled two-sample variance."""
    y, A = dataset.outcome, dataset.treatment
    yt, yc = y[A == 1], y[A == 0]
    est = float(yt.mean() - yc.mean())
    var_t = float(np.var(yt, ddof=1)) if yt.size > 1 else 0.0
    var_c = float(np.var(yc, ddof=1)) if yc.size > 1 else 0.0
    se = float(np.sqrt(var_t / yt.size + var_c / yc.size))
    return AteResult(est, se, _z_interval(est, se), None, "naive",
                     {"n_treated": int(yt.size), "n_control": int(yc.size)})


def reg_ate(dataset: Dataset, nuisance: NuisanceFits) -> AteResult:
    """Outcome-regression (standardisation) estimator: mean(mu1 - mu0).

    No influence-function shortcut is offered; use the bootstrap for its
    standard error, refitting the outcome model inside every resample.
    """
    if nuisance.mu1 is None or nuisance.mu0 is None:
        raise ValueError("reg_ate needs outcome predictions mu1 and mu0")
    est = float(np.mean(nuisance.mu1 - nuisance.mu0))
    return AteResult(est, None, None, None, "reg", {"provenance": nuisance.provenance})


def iptw_ate(dataset: Dataset, ps) -> AteResult:
    """Horvitz-Thompson weighted mean difference.

    The influence-function variance treats the propensity score as known,
    which leans conservative when the score was in fact estimated.
    """
    p = _as_ps(ps)
    y, A = dataset.outcome, dataset.treatment.astype(float)
    contrib = A * y / p - (1.0 - A) * y / (1.0 - p)
    est = float(contrib.mean())
    phi = contrib - est
    return _if_result(est, phi, "iptw", {"ps_known_se": True})


def match_ate(dataset: Dataset, matches: MatchResult) -> AteResult:
    """Impute each unit's missing potential outcome from its match.

    Standard errors require the bootstrap, re-matching inside every resample.
    """
    y, A = dataset.outcome, dataset.treatment
    if matches.match_index.shape[0] != dataset.n:
        raise ValueError("match result does not cover the dataset")
    y_match = y[matches.match_index]
    y1 = np.where(A == 1, y, y_match)
    y0 = np.where(A == 0, y, y_match)
    est = float(np.mean(y1 - y0))
    return AteResult(est, None, None, None, "match", {})


def aiptw_ate(dataset: Dataset, nuisance: NuisanceFits) -> AteResult:
    """Augmented weighting estimator.

    Arm-specific form: psi(a) averages I(A=a) Y / p_a - (I(A=a) - p_a)/p_a
    * mu(a, X), with p_1 = p and p_0 = 1 - p; the reported estimate is
    psi(1) - psi(0) and equals the mean of the uncentred influence values.
    """
    if nuisance.ps is None or nuisance.mu1 is None or nuisance.mu0 is None:
        raise ValueError("aiptw_ate needs ps, mu1 and mu0")
    y, A = dataset.outcome, dataset.treatment.astype(float)
    p, mu1, mu0 = nuisance.ps, nuisance.mu1, nuisance.mu0
    arm1 = A * (y - mu1) / p + mu1
    arm0 = (1.0 - A) * (y - mu0) / (1.0 - p) + mu0
    uncentred = arm1 - arm0
    est = float(uncentred.mean())
    phi = uncentred - est
    return _if_result(est, phi, "aiptw", {"provenance": nuisance.provenance})


def _solve_fluctuation(h: np.ndarray, y01: np.ndarray, logit_mu: np.ndarray,
                       tol: float = 1e-10, max_iter: int = 100):
    """One-dimensional logistic fluctuation along the direction h.

    Maximises the Bernoulli likelihood of y01 under expit(logit_mu + eps * h)
    by Newton steps with halving; returns (eps, mean score, iterations). The
    mean score mean(h * (y - m)) vanishes at the optimum.
    """
    eps = 0.0

    def mean_score(e):
        m = expit(logit_mu + e * h)
        return float(np.mean(h * (y01 - m))), m

    score, m = mean_score(eps)
    it = 0
    while abs(score) > tol and it < max_iter:
        info = float(np.mean(h * h * m * (1.0 - m)))
        if info <= 0:
            break
        step = score / info
        # halve until the absolute score shrinks; the 1-d likelihood is
        # concave so this always terminates
        for _ in range(60):
            new_score, new_m = mean_score(eps + step)
            if abs(new_score) <= abs(score):
                break
            step /= 2.0
        eps += step
        score, m = new_score, new_m
        it += 1
        if abs(eps) > 50.0:
            raise RuntimeError(
                f"targeting fluctuation diverged (eps={eps:.2f}, score={score:.3g})"
            )
    return eps, score, it


def _scaled(dataset: Dataset, mu1: np.ndarray, mu0: np.ndarray):
    """(span, Y, mu1, mu0) with the outcome bounds mapped affinely to [0, 1]
    and the fits kept Q_BOUND inside it, as the logit fluctuation needs."""
    lo, hi = dataset.outcome_kind.bounds
    span = hi - lo
    return (span, (dataset.outcome - lo) / span,
            np.clip((mu1 - lo) / span, Q_BOUND, 1.0 - Q_BOUND),
            np.clip((mu0 - lo) / span, Q_BOUND, 1.0 - Q_BOUND))


class _Targeted:
    """Scaled outcome fits fluctuated on the logit scale along the clever
    covariate h = A/p - (1-A)/(1-p), eps solved on these rows unless given
    (then ``score`` is None). mu*(A, X), mu*(1, X), mu*(0, X), the contrast
    mean(mu*1 - mu*0) and its influence values h (Y - mu*A) + (mu*1 - mu*0)
    - contrast are computed on first use, on the scale of ``ys``."""

    def __init__(self, A, ys, mu1s, mu0s, p, eps=None):
        self.ys, self.mu1s, self.mu0s = ys, mu1s, mu0s
        self.h1, self.h0 = 1.0 / p, -1.0 / (1.0 - p)
        self.h = np.where(A == 1.0, self.h1, self.h0)
        self.logit_muA = logit(np.where(A == 1.0, mu1s, mu0s))
        self.score, self.iterations = None, 0
        if eps is None:
            eps, self.score, self.iterations = _solve_fluctuation(self.h, ys, self.logit_muA)
        self.eps = float(eps)

    @cached_property
    def muA(self) -> np.ndarray:
        return expit(self.logit_muA + self.eps * self.h)

    @cached_property
    def mu1(self) -> np.ndarray:
        return expit(logit(self.mu1s) + self.eps * self.h1)

    @cached_property
    def mu0(self) -> np.ndarray:
        return expit(logit(self.mu0s) + self.eps * self.h0)

    @cached_property
    def estimate(self) -> float:
        return float(np.mean(self.mu1 - self.mu0))

    @cached_property
    def phi(self) -> np.ndarray:
        return self.h * (self.ys - self.muA) + (self.mu1 - self.mu0) - self.estimate


def tmle_ate(dataset: Dataset, nuisance: NuisanceFits) -> AteResult:
    """One-step targeted update of the outcome regression.

    Bounded-continuous outcomes are affinely mapped to [0, 1], fluctuated on
    the logit scale along the clever covariate h = A/p - (1-A)/(1-p), and the
    contrast is mapped back. The fluctuation solves its score equation to
    |mean h (Y - mu*)| below 1e-6 or raises RuntimeError.
    """
    if nuisance.mu1 is None or nuisance.mu0 is None:
        raise ValueError("tmle_ate needs initial outcome predictions")
    if nuisance.ps is None:
        raise ValueError("tmle_ate needs a propensity score")
    span, ys, mu1s, mu0s = _scaled(dataset, nuisance.mu1, nuisance.mu0)
    t = _Targeted(dataset.treatment.astype(float), ys, mu1s, mu0s, nuisance.ps)
    if not abs(t.score) < SCORE_TOL:
        raise RuntimeError(
            f"targeting fluctuation left the score at {t.score:.3g} after "
            f"{t.iterations} Newton steps (tolerance {SCORE_TOL:g})"
        )
    diagnostics = {
        "epsilon": t.eps,
        "score_residual": float(t.score),
        "newton_iterations": int(t.iterations),
        "provenance": nuisance.provenance,
    }
    return _if_result(span * t.estimate, span * t.phi, "tmle", diagnostics)


@dataclass(frozen=True)
class DmlConfig:
    """Cross-fitting configuration: K folds, S split repetitions, aggregation,
    and the two nuisance ``Learner`` objects."""

    k: int = 2
    s: int = 11
    aggregate: str = "median"
    ps_spec: Learner = field(default_factory=lambda: LearnerSpec("logistic"))
    outcome_spec: Learner = field(default_factory=lambda: LearnerSpec("ols"))
    trim: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need K >= 2 folds")
        if self.s < 1:
            raise ValueError("need S >= 1 repetitions")
        if self.aggregate not in ("mean", "median"):
            raise ValueError("aggregate must be 'mean' or 'median'")


def dml_ate(dataset: Dataset, config: DmlConfig) -> AteResult:
    """Cross-fitted augmented estimator, aggregated over S random splits.

    Each repetition stratifies folds by treatment arm, fits nuisances on the
    training side, applies the augmented form to the held-out predictions,
    and records an influence-function variance. Repetitions are combined by
    the configured aggregate; the variance adds the split spread
    (se_s^2 + (psi_s - psi)^2) before aggregation. A fold draw is redrawn,
    up to ten times, only when a training block loses a treatment arm.
    """
    rep_seeds = child_seeds(config.seed, config.s)
    estimates, ses, phis = [], [], []
    for s_i, rep_seed in enumerate(rep_seeds):
        for att in child_seeds(rep_seed, 10):
            folds = make_stratified_folds(dataset.treatment, config.k, att)
            try:
                nuis = fit_nuisances(
                    dataset, config.ps_spec, config.outcome_spec,
                    fold_of=folds, trim=config.trim, seed=att,
                )
                break
            except SingleArmFoldError as exc:
                last_err = exc
        else:
            raise ValueError(
                f"could not form usable folds in repetition {s_i + 1}: {last_err}"
            )
        res = aiptw_ate(dataset, nuis)
        estimates.append(res.estimate)
        ses.append(res.se)
        phis.append(res.if_values)

    agg = np.median if config.aggregate == "median" else np.mean
    est = float(agg(estimates))
    var = float(agg([se_s**2 + (psi_s - est) ** 2 for se_s, psi_s in zip(ses, estimates)]))
    se = float(np.sqrt(var))
    if_values = phis[0] if config.s == 1 else None
    diagnostics = {
        "provenance": "cross_fitted",
        "k": config.k,
        "s": config.s,
        "aggregate": config.aggregate,
        "split_estimates": [float(e) for e in estimates],
    }
    return AteResult(est, se, _z_interval(est, se), if_values, "dml", diagnostics)


def bootstrap_ci(
    estimator: Callable[[Dataset, int], "float | AteResult"],
    dataset: Dataset,
    B: int = 999,
    seed: int = 0,
) -> tuple[float, tuple[float, float]]:
    """Nonparametric bootstrap: resample units, rerun the whole pipeline.

    The closure receives (resampled dataset, replicate seed) and must redo
    everything data-dependent, nuisance fits included. Returns the standard
    deviation of the replicate estimates and the percentile interval.
    Replicates may fail with a data error, a ValueError or RuntimeError
    (e.g. a resample loses a treatment arm); more than 10% failures aborts.
    Any other exception propagates.
    """
    if B < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    n = dataset.n
    seeds = child_seeds(seed, B)
    estimates = []
    failures: list[str] = []
    for rep_seed in seeds:
        idx = rng_from(rep_seed).integers(0, n, size=n)
        try:
            ds_b = dataset.take(idx)
            out = estimator(ds_b, rep_seed)
            est = out.estimate if isinstance(out, AteResult) else float(out)
            if not np.isfinite(est):
                raise ValueError("non-finite replicate estimate")
            estimates.append(est)
        except (ValueError, RuntimeError) as exc:
            failures.append(str(exc))
    if len(failures) > 0.1 * B:
        sample = "; ".join(sorted(set(failures))[:3])
        raise RuntimeError(f"{len(failures)}/{B} bootstrap replicates failed: {sample}")
    if failures:
        warnings.warn(f"{len(failures)}/{B} bootstrap replicates failed and were dropped")
    arr = np.asarray(estimates)
    se = float(np.std(arr, ddof=1))
    ci = (float(np.percentile(arr, 2.5)), float(np.percentile(arr, 97.5)))
    return se, ci
