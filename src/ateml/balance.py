"""Propensity scores, inverse-probability weights, and balance diagnostics.

Standardised mean differences use unweighted per-arm variances in the
denominator regardless of any weighting, so the same yardstick applies to
raw, weighted and matched data and the numbers stay comparable across
adjustment methods.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .core import Dataset, Learner
from .learners import BoostModel, fit_boost

__all__ = [
    "PsFit",
    "WeightVector",
    "MatchResult",
    "BalanceReport",
    "BoostedBalanceResult",
    "BalanceBoostedPS",
    "estimate_ps",
    "iptw_weights",
    "smd",
    "asam",
    "boosted_balance_ps",
    "ps_match",
    "balance_table",
]

SMD_FLAG_THRESHOLD = 0.1


@dataclass(frozen=True)
class PsFit:
    """Estimated propensity scores clipped into [trim, 1 - trim]."""

    ps: np.ndarray
    raw_ps: np.ndarray
    trim: float
    clipped_fraction: float
    flags: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ps = np.asarray(self.ps, dtype=float)
        if ps.min() < self.trim or ps.max() > 1.0 - self.trim:
            raise ValueError("propensity scores escape the trim bounds")
        object.__setattr__(self, "ps", ps)


def _as_ps(ps) -> np.ndarray:
    return np.asarray(ps.ps if isinstance(ps, PsFit) else ps, dtype=float)


@dataclass(frozen=True)
class WeightVector:
    """Positive per-unit weights, optionally mean-one within each arm."""

    w: np.ndarray
    normalization: str = "none"

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class MatchResult:
    """1:1 nearest-neighbour matching on the propensity score, with
    replacement, for the ATE.

    ``match_index[i]`` is the opposite-arm unit imputing i's missing potential
    outcome; ``match_counts[j]`` counts how often j was used as a match. For
    balance purposes each unit weighs 1 + its match count.
    """

    match_index: np.ndarray
    match_counts: np.ndarray
    treatment: np.ndarray

    @property
    def balance_weights(self) -> np.ndarray:
        return 1.0 + self.match_counts.astype(float)


def estimate_ps(
    learner: Learner,
    dataset: Dataset,
    trim: float = 0.01,
    *,
    seed: int = 0,
) -> PsFit:
    """Fit P(A=1 | X) on the full sample and clip into [trim, 1 - trim].

    Any ``Learner`` serves, fitted as ``learner.fit(X, A, "probability",
    seed)``; its model's ``meta`` (and ``flags``, as ``learner_flags``)
    becomes the fit's ``meta``. A clipped fraction above 10% raises a
    positivity flag: the model is pushing mass against the bounds, so
    weighting estimators downstream deserve suspicion.
    """
    if not (0.0 < trim < 0.5):
        raise ValueError("trim must be in (0, 0.5)")
    X, A = dataset.covariates, dataset.treatment.astype(float)
    model = learner.fit(X, A, "probability", seed)
    raw = model.predict(X)
    meta = dict(model.meta)
    if model.flags:
        meta["learner_flags"] = list(model.flags)
    ps = np.clip(raw, trim, 1.0 - trim)
    clipped = float(np.mean((raw < trim) | (raw > 1.0 - trim)))
    flags = ("positivity_warning",) if clipped > 0.1 else ()
    return PsFit(ps, raw, float(trim), clipped, flags, meta)


def iptw_weights(ps, A: np.ndarray, normalization: str = "none") -> WeightVector:
    """w_i = A_i / ps_i + (1 - A_i) / (1 - ps_i), optionally mean-one per arm."""
    p = _as_ps(ps)
    A = np.asarray(A, dtype=float)
    w = A / p + (1.0 - A) / (1.0 - p)
    if normalization == "mean_one_per_arm":
        for arm in (0.0, 1.0):
            mask = A == arm
            w[mask] = w[mask] / w[mask].mean()
    elif normalization != "none":
        raise ValueError(f"unknown normalization {normalization!r}")
    return WeightVector(w, normalization)


def smd(x: np.ndarray, A: np.ndarray, w: WeightVector | np.ndarray | None = None):
    """Standardised mean difference, treated minus control.

    Means may be weighted; the pooled denominator always uses the unweighted
    per-arm sample variances so adjustments are compared on one scale.
    Returns None (an explicit degenerate marker) when both arms are constant
    but their means differ; 0.0 when they are constant and equal.
    """
    x = np.asarray(x, dtype=float)
    A = np.asarray(A)
    t, c = A == 1, A == 0
    if not (t.any() and c.any()):
        raise ValueError("both treatment arms must be non-empty")
    if w is None:
        wt = np.ones_like(x)
    else:
        wt = np.asarray(w.w if isinstance(w, WeightVector) else w, dtype=float)
    mean_t = float(np.sum(wt[t] * x[t]) / np.sum(wt[t]))
    mean_c = float(np.sum(wt[c] * x[c]) / np.sum(wt[c]))
    var_t = float(np.var(x[t], ddof=1)) if t.sum() > 1 else 0.0
    var_c = float(np.var(x[c], ddof=1)) if c.sum() > 1 else 0.0
    s_pool = float(np.sqrt((var_t + var_c) / 2.0))
    if s_pool == 0.0:
        return 0.0 if mean_t == mean_c else None
    return (mean_t - mean_c) / s_pool


def asam(X: np.ndarray, A: np.ndarray, w=None) -> float:
    """Average absolute standardised mean difference over covariate columns.

    Degenerate columns (constant arms, unequal means) are excluded from the
    average and reported through a warning.
    """
    X = np.asarray(X, dtype=float)
    vals, degenerate = [], []
    for j in range(X.shape[1]):
        s = smd(X[:, j], A, w)
        if s is None:
            degenerate.append(j)
        else:
            vals.append(abs(s))
    if degenerate:
        warnings.warn(f"degenerate covariate columns excluded from ASAM: {degenerate}")
    if not vals:
        raise ValueError("every covariate column is degenerate")
    return float(np.mean(vals))


@dataclass(frozen=True)
class BoostedBalanceResult:
    """Balance-stopped boosted propensity score and its evaluation trace."""

    ps_fit: PsFit
    chosen_iteration: int
    trace: tuple[tuple[int, float], ...]  # (iteration, weighted ASAM)


@dataclass(frozen=True)
class BalanceBoostedPS:
    """Boosted treatment log-odds stopped where IPTW balance is best; a
    ``Learner`` for the propensity role.

    ``fit(X, A)`` boosts ``max_trees`` Bernoulli stages, records the ASAM of
    the covariates under IPTW weights (scores clipped at ``trim``) at stage
    0, every ``stride`` stages and the last, and returns the model truncated
    at the ASAM-minimising stage, ties toward fewer trees. Its ``meta``
    holds that stage and the (stage, ASAM) trace.
    """

    max_trees: int = 5000
    max_depth: int = 2
    shrinkage: float = 0.005
    trim: float = 0.01
    stride: int = 10
    min_leaf: int = 10

    def fit(self, X: np.ndarray, y: np.ndarray, target_kind: str = "probability",
            seed: int = 0) -> BoostModel:
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        trace = []

        def record(t, F):
            if t % self.stride == 0 or t == self.max_trees:
                p = np.clip(expit(F), self.trim, 1.0 - self.trim)
                trace.append((t, asam(X, y, iptw_weights(p, y))))

        model = fit_boost(X, y, self.max_trees, self.max_depth, self.shrinkage, "bernoulli",
                          min_leaf=self.min_leaf, callback=record)
        best = trace[int(np.argmin([a for _, a in trace]))][0]
        meta = {"learner": "boosted_balance", "chosen_iteration": best,
                "asam_trace": tuple(trace)}
        return replace(model, trees=model.trees[:best], meta=meta)


def boosted_balance_ps(
    dataset: Dataset,
    max_trees: int = 5000,
    max_depth: int = 2,
    shrinkage: float = 0.005,
    trim: float = 0.01,
    *,
    stride: int = 10,
    min_leaf: int = 10,
) -> BoostedBalanceResult:
    """Boost the treatment log-odds, stopping where IPTW balance is best:
    ``estimate_ps`` with a ``BalanceBoostedPS`` of these settings, returned
    with the chosen iteration and the (iteration, ASAM) trace."""
    learner = BalanceBoostedPS(max_trees, max_depth, shrinkage, trim, stride, min_leaf)
    fit = estimate_ps(learner, dataset, trim)
    return BoostedBalanceResult(fit, fit.meta["chosen_iteration"], fit.meta["asam_trace"])


def ps_match(ps, A: np.ndarray) -> MatchResult:
    """Nearest opposite-arm unit by |ps difference|; ties take the lowest
    index; matching is with replacement and uses no caliper."""
    p = _as_ps(ps)
    A = np.asarray(A)
    n = p.shape[0]
    t_idx = np.flatnonzero(A == 1)
    c_idx = np.flatnonzero(A == 0)
    if t_idx.size == 0 or c_idx.size == 0:
        raise ValueError("both treatment arms must be non-empty")
    match = np.empty(n, dtype=np.int64)
    # argmin over |p_i - p_pool| returns the first (lowest-index) minimiser
    d_tc = np.abs(p[t_idx][:, None] - p[c_idx][None, :])
    match[t_idx] = c_idx[np.argmin(d_tc, axis=1)]
    d_ct = np.abs(p[c_idx][:, None] - p[t_idx][None, :])
    match[c_idx] = t_idx[np.argmin(d_ct, axis=1)]
    counts = np.bincount(match, minlength=n)
    return MatchResult(match, counts, np.asarray(A, dtype=np.int64))


@dataclass(frozen=True)
class BalanceReport:
    """Per-covariate SMDs for the raw data and each adjustment.

    ``smds`` maps an adjustment label to one value per covariate (None marks
    a degenerate column); ``asam`` and ``n_flagged`` summarise each column of
    the table, flagging |SMD| > 0.1.
    """

    covariates: tuple[str, ...]
    labels: tuple[str, ...]
    smds: dict
    asam: dict
    n_flagged: dict

    def to_csv(self) -> str:
        header = ["covariate"] + [f"smd_{lab}" for lab in self.labels]
        lines = [",".join(header)]
        for i, name in enumerate(self.covariates):
            row = [name]
            for lab in self.labels:
                v = self.smds[lab][i]
                row.append("" if v is None else repr(v))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def balance_table(dataset: Dataset, adjustments) -> BalanceReport:
    """SMD table: unweighted column plus one column per adjustment.

    ``adjustments`` is a list of (label, WeightVector | MatchResult) pairs;
    matched data contributes through its frequency weights.
    """
    X, A = dataset.covariates, dataset.treatment
    labels = ["unweighted"]
    weight_cols: list[np.ndarray | None] = [None]
    for label, adj in adjustments:
        if label == "unweighted":
            raise ValueError("'unweighted' is reserved for the raw column")
        if isinstance(adj, MatchResult):
            weight_cols.append(adj.balance_weights)
        elif isinstance(adj, WeightVector):
            weight_cols.append(adj.w)
        else:
            raise ValueError(f"adjustment {label!r} must be WeightVector or MatchResult")
        labels.append(label)
    smds: dict = {}
    asam_by: dict = {}
    flagged: dict = {}
    for lab, wcol in zip(labels, weight_cols):
        col_vals = [smd(X[:, j], A, wcol) for j in range(dataset.d)]
        smds[lab] = col_vals
        finite = [abs(v) for v in col_vals if v is not None]
        asam_by[lab] = float(np.mean(finite)) if finite else float("nan")
        flagged[lab] = int(sum(1 for v in col_vals if v is not None and abs(v) > SMD_FLAG_THRESHOLD))
    return BalanceReport(dataset.names, tuple(labels), smds, asam_by, flagged)
