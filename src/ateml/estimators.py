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

from .core import (
    Dataset,
    FoldAssignment,
    Learner,
    LearnerSpec,
    Z95,
    child_seeds,
    expit,
    logit,
    make_stratified_folds,
    rng_from,
    run_replicates,
)
from .balance import _check_trim

__all__ = [
    "NuisanceFits",
    "AteResult",
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
    """One nuisance fit, full-sample or cross-fitted: per-unit predictions
    and what their models reported.

    ``raw_ps`` are the propensity model's scores (None when no propensity
    was fitted), ``ps_flags`` and ``ps_meta`` its flags and meta, and
    ``trim``, which must lie in (0, 0.5) when there are scores, their clip:
    ``ps`` is ``raw_ps`` clipped into [trim, 1 - trim]. ``mu1`` and ``mu0``
    are the outcomes mu(a, X), whose models' flags are ``outcome_flags``.
    ``provenance`` is "cross_fitted" when unit i's predictions came from
    models that never saw i's fold, and "full_sample" when every model saw
    every unit. ``flags`` leads with ``positivity_warning`` when more than
    10% of the scores were clipped, then lists ``ps_flags`` and
    ``outcome_flags``, each once.
    """

    raw_ps: np.ndarray | None
    mu1: np.ndarray | None
    mu0: np.ndarray | None
    trim: float = 0.01
    provenance: str = "full_sample"
    ps_flags: tuple[str, ...] = ()
    outcome_flags: tuple[str, ...] = ()
    ps_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.raw_ps is not None:
            _check_trim(self.trim)

    @cached_property
    def ps(self) -> np.ndarray | None:
        return None if self.raw_ps is None else np.clip(self.raw_ps, self.trim, 1.0 - self.trim)

    @cached_property
    def clipped_fraction(self) -> float:
        """The share of ``raw_ps`` outside [trim, 1 - trim]; 0.0 without scores."""
        if self.raw_ps is None:
            return 0.0
        return float(np.mean((self.raw_ps < self.trim) | (self.raw_ps > 1.0 - self.trim)))

    @property
    def flags(self) -> tuple[str, ...]:
        positivity = ("positivity_warning",) if self.clipped_fraction > 0.1 else ()
        return tuple(dict.fromkeys(positivity + self.ps_flags + self.outcome_flags))


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


def fit_nuisances(
    dataset: Dataset,
    ps_spec: Learner | None = None,
    outcome_spec: Learner | None = None,
    *,
    folds: FoldAssignment | None = None,
    trim: float = 0.01,
    seed: int = 0,
) -> NuisanceFits:
    """Fit the requested nuisance models, full-sample or cross-fitted: the
    one routine that fits a propensity for an estimator.

    Both are ``Learner`` objects fitted as ``learner.fit(X, y, target_kind,
    seed)``: the propensity model on (X, A) as a probability, the outcome
    model once per treatment arm. The full sample is one block that predicts
    itself; cross-fitting has the blocks of ``folds``. Before any fit,
    ValueError is raised for a bad ``trim`` when a propensity is requested,
    for ``folds`` of another length, or for a single-arm training block. The
    one record holds the pooled raw scores, ``trim``, the union of the block
    propensity models' flags in first-seen order as ``ps_flags``, and the
    model's meta as ``ps_meta`` ({} when cross-fitted). ``outcome_flags`` is
    the union, in the same order, of the flags of every outcome model: block
    by block, treated arm first.
    """
    X, A, y = dataset.covariates, dataset.treatment.astype(float), dataset.outcome
    kind = "probability" if dataset.outcome_kind.is_binary else "regression"
    lo, hi = dataset.outcome_kind.bounds

    def fit_predict(learner, X_fit, y_fit, target, X_pred):
        # keeps no model: tree models hold many nodes the next fit need not carry
        model = learner.fit(X_fit, y_fit, target, seed)
        return model.predict(X_pred), model.flags, model.meta

    if ps_spec is not None:
        _check_trim(trim)
    if folds is None:
        blocks = [(slice(None), slice(None))]  # views: X's own layout and bits
    else:
        folds.check_rows(dataset.n)
        blocks = folds.blocks
        for v, (tr, _) in enumerate(blocks, start=1):
            if A[tr].min() == A[tr].max():
                raise ValueError(f"training block for fold {v} has a single treatment arm")
    raw = np.empty(dataset.n) if ps_spec is not None else None
    mu1 = np.empty(dataset.n) if outcome_spec is not None else None
    mu0 = np.empty(dataset.n) if outcome_spec is not None else None
    flags, outcome_flags, meta = {}, {}, {}  # flags: ordered sets
    for tr, te in blocks:
        X_tr, A_tr, y_tr, X_te = X[tr], A[tr], y[tr], X[te]
        if raw is not None:
            raw[te], ps_flags, meta = fit_predict(ps_spec, X_tr, A_tr, "probability", X_te)
            flags.update(dict.fromkeys(ps_flags))
        if mu1 is not None:
            for mu, arm in ((mu1, A_tr == 1), (mu0, A_tr == 0)):
                pred, mu_flags, _ = fit_predict(outcome_spec, X_tr[arm], y_tr[arm], kind, X_te)
                mu[te] = np.clip(pred, lo, hi)
                outcome_flags.update(dict.fromkeys(mu_flags))
    return NuisanceFits(raw, mu1, mu0, float(trim),
                        "full_sample" if folds is None else "cross_fitted", tuple(flags),
                        tuple(outcome_flags), dict(meta) if folds is None else {})


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


def iptw_ate(dataset: Dataset, ps: np.ndarray) -> AteResult:
    """Horvitz-Thompson weighted mean difference under the scores ``ps``.

    The influence-function variance treats the propensity score as known,
    which leans conservative when the score was in fact estimated.
    """
    p = np.asarray(ps, dtype=float)
    y, A = dataset.outcome, dataset.treatment.astype(float)
    contrib = A * y / p - (1.0 - A) * y / (1.0 - p)
    est = float(contrib.mean())
    phi = contrib - est
    return _if_result(est, phi, "iptw", {"ps_known_se": True})


def match_ate(dataset: Dataset, match_index: np.ndarray) -> AteResult:
    """Impute each unit's missing potential outcome from its match, unit
    ``match_index[i]`` for unit i, as ``ps_match`` returns them.

    Standard errors require the bootstrap, re-matching inside every resample.
    """
    y, A = dataset.outcome, dataset.treatment
    if match_index.shape[0] != dataset.n:
        raise ValueError("match index does not cover the dataset")
    y_match = y[match_index]
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


def dml_ate(
    dataset: Dataset,
    ps_spec: Learner = LearnerSpec("logistic"),
    outcome_spec: Learner = LearnerSpec("ols"),
    *,
    k: int = 2,
    s: int = 11,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, NuisanceFits]:
    """Cross-fitted augmented estimator, aggregated over ``s`` random splits.

    Each repetition draws ``k`` folds once, stratified by treatment arm, fits
    the two nuisance ``Learner`` objects on the training side, applies the
    augmented form to the held-out predictions, and records an
    influence-function variance. Repetitions are combined by their median;
    the variance adds the split spread (se_s^2 + (psi_s - psi)^2) before the
    median is taken. Stratified folds deal each arm round-robin, so every
    training block keeps both arms unless an arm has a single unit, and then
    the first draw raises ValueError: no redraw could help. ``k >= 2``,
    ``s >= 1`` and, by ``fit_nuisances``, ``trim`` in (0, 0.5) are checked
    before any fit.
    Returns the result and the ``NuisanceFits`` of the first repetition,
    which the diagnostics name as ``nuisance_repetition``.
    """
    if k < 2:
        raise ValueError("need K >= 2 folds")
    if s < 1:
        raise ValueError("need S >= 1 repetitions")
    results = []
    for s_i, rep_seed in enumerate(child_seeds(seed, s)):
        fold_seed = child_seeds(rep_seed, 1)[0]
        folds = make_stratified_folds(dataset.treatment, k, fold_seed)
        nuis = fit_nuisances(dataset, ps_spec, outcome_spec, folds=folds, trim=trim,
                             seed=fold_seed)
        results.append(aiptw_ate(dataset, nuis))
        if s_i == 0:
            first_nuis = nuis

    estimates = [r.estimate for r in results]
    est = float(np.median(estimates))
    var = float(np.median([r.se**2 + (r.estimate - est) ** 2 for r in results]))
    se = float(np.sqrt(var))
    if_values = results[0].if_values if s == 1 else None
    diagnostics = {
        "provenance": "cross_fitted",
        "k": k,
        "s": s,
        "aggregate": "median",
        "split_estimates": [float(e) for e in estimates],
        "nuisance_repetition": 1,
    }
    return AteResult(est, se, _z_interval(est, se), if_values, "dml", diagnostics), first_nuis


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
    resamples = ((rng_from(s).integers(0, n, size=n), s) for s in child_seeds(seed, B))
    done, failures = run_replicates(lambda idx, s: estimator(dataset.take(idx), s), resamples,
                                    "non-finite replicate estimate")
    if len(failures) > 0.1 * B:
        sample = "; ".join(sorted(set(failures))[:3])
        raise RuntimeError(f"{len(failures)}/{B} bootstrap replicates failed: {sample}")
    if failures:
        warnings.warn(f"{len(failures)}/{B} bootstrap replicates failed and were dropped")
    arr = np.asarray([est for est, _ in done])
    se = float(np.std(arr, ddof=1))
    ci = (float(np.percentile(arr, 2.5)), float(np.percentile(arr, 97.5)))
    return se, ci
