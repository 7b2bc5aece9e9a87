"""Propensity scores, inverse-probability weights, and balance diagnostics.

Standardised mean differences use unweighted per-arm variances in the
denominator regardless of any weighting, so the same yardstick applies to
raw, weighted and matched data and the numbers stay comparable across
adjustment methods.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, expit
from .learners import BoostModel, _base_logit, fit_boost

__all__ = [
    "BalanceReport",
    "BalanceBoostedPS",
    "iptw_weights",
    "match_weights",
    "smd",
    "asam",
    "ps_match",
    "balance_table",
]

SMD_FLAG_THRESHOLD = 0.1
# BalanceBoostedPS's ASAM schedule (every 10 stages), stage-tree depth and rows per leaf
_ASAM_EVERY, _BOOST_DEPTH, _BOOST_MIN_LEAF = 10, 2, 10


def _check_trim(trim: float) -> None:
    if not (0.0 < trim < 0.5):
        raise ValueError("trim must be in (0, 0.5)")


def iptw_weights(ps: np.ndarray, A: np.ndarray) -> np.ndarray:
    """w_i = A_i / ps_i + (1 - A_i) / (1 - ps_i) for the scores ``ps``."""
    p, A = np.asarray(ps, dtype=float), np.asarray(A, dtype=float)
    return A / p + (1.0 - A) / (1.0 - p)


def match_weights(match_index: np.ndarray) -> np.ndarray:
    """Frequency weights of matched data: w_j = 1 + the number of units
    whose match is j, for the index array of ``ps_match``."""
    return 1.0 + np.bincount(match_index, minlength=match_index.shape[0])


def _smds(X: np.ndarray, A: np.ndarray, w: np.ndarray | None = None):
    """(SMD of each column of ``X``, treated minus control; degenerate mask).

    Means are weighted by ``w`` (default all ones), which must be finite and
    strictly positive; the pooled denominator always uses the unweighted
    per-arm sample variances. A column whose arms are both constant has SMD
    0.0 when their values are equal, and is degenerate (SMD nan) when they
    differ. Constancy is tested exactly, since rounding can leave a constant arm a
    tiny non-zero variance.
    """
    X, A = np.asarray(X, dtype=float), np.asarray(A)
    t, c = A == 1, A == 0
    if not (t.any() and c.any()):
        raise ValueError("both treatment arms must be non-empty")
    wt = np.ones(X.shape[0]) if w is None else np.asarray(w, dtype=float)
    if not (np.isfinite(wt).all() and (wt > 0).all()):
        raise ValueError("weights must be finite and strictly positive")
    wt_t, wt_c = wt[t], wt[c]
    sum_t, sum_c = np.sum(wt_t), np.sum(wt_c)
    out, degenerate = np.empty(X.shape[1]), np.zeros(X.shape[1], dtype=bool)
    for j in range(X.shape[1]):
        xt, xc = X[t, j], X[c, j]
        if xt.min() == xt.max() and xc.min() == xc.max():
            degenerate[j] = xt[0] != xc[0]
            out[j] = np.nan if degenerate[j] else 0.0
            continue
        mean_t = float(np.sum(wt_t * xt) / sum_t)
        mean_c = float(np.sum(wt_c * xc) / sum_c)
        var_t = float(np.var(xt, ddof=1)) if xt.size > 1 else 0.0
        var_c = float(np.var(xc, ddof=1)) if xc.size > 1 else 0.0
        out[j] = (mean_t - mean_c) / float(np.sqrt((var_t + var_c) / 2.0))
    return out, degenerate


def smd(x: np.ndarray, A: np.ndarray, w: np.ndarray | None = None) -> float | None:
    """Standardised mean difference of one covariate ``x``, treated minus
    control, under the finite, strictly positive weights ``w`` (default
    none), as ``_smds`` computes it; None marks a degenerate column."""
    s, degenerate = _smds(np.asarray(x, dtype=float)[:, None], A, w)
    return None if degenerate[0] else float(s[0])


def asam(X: np.ndarray, A: np.ndarray, w: np.ndarray | None = None) -> float:
    """Average absolute standardised mean difference over the columns of
    ``X`` under the finite, strictly positive weights ``w`` (default none).

    Degenerate columns (constant arms, unequal values) are excluded from the
    average and reported through a warning; ValueError when every column is
    degenerate.
    """
    s, degenerate = _smds(X, A, w)
    if degenerate.any():
        warnings.warn("degenerate covariate columns excluded from ASAM: "
                      f"{np.flatnonzero(degenerate).tolist()}")
    if degenerate.all():
        raise ValueError("every covariate column is degenerate")
    return float(np.mean(np.abs(s[~degenerate])))


@dataclass(frozen=True)
class BalanceBoostedPS:
    """Boosted treatment log-odds stopped where IPTW balance is best; a
    ``Learner`` for the propensity role.

    ``fit(X, A)`` boosts ``max_trees`` Bernoulli stages of step
    ``shrinkage``, records the ASAM of the covariates under IPTW weights
    (scores clipped at ``trim``, which must lie in (0, 0.5)) at stage 0,
    every 10 stages and the last, and returns the model truncated at the
    ASAM-minimising stage, ties toward fewer trees. Stage trees have depth 2
    and keep at least 10 rows in each leaf; the defaults are the command
    line's ``twang``, 500 stages of 0.05. Its ``meta`` holds the chosen
    stage and the (stage, ASAM) trace. When every covariate has constant
    arms no weighting changes an SMD, so ``fit`` boosts nothing: it returns
    the stage-0 model with an empty trace and the flag ``balance_undefined``.
    """

    max_trees: int = 500
    shrinkage: float = 0.05
    trim: float = 0.01

    def __post_init__(self) -> None:
        _check_trim(self.trim)

    def fit(self, X: np.ndarray, y: np.ndarray, target_kind: str = "probability",
            seed: int = 0) -> BoostModel:
        X = np.asarray(X, dtype=float)
        if _smds(X, y)[1].all():
            return BoostModel(_base_logit(y), (), float(self.shrinkage), "bernoulli",
                              ("balance_undefined",), {"chosen_iteration": 0, "asam_trace": ()})
        trace = []

        def record(t, F):
            if t % _ASAM_EVERY == 0 or t == self.max_trees:
                p = np.clip(expit(F), self.trim, 1.0 - self.trim)
                trace.append((t, asam(X, y, iptw_weights(p, y))))

        model = fit_boost(X, y, self.max_trees, _BOOST_DEPTH, self.shrinkage, "bernoulli",
                          min_leaf=_BOOST_MIN_LEAF, callback=record)
        best = trace[int(np.argmin([a for _, a in trace]))][0]
        meta = {"chosen_iteration": best, "asam_trace": tuple(trace)}
        return replace(model, trees=model.trees[:best], meta=meta)


def _nearest(query: np.ndarray, pool: np.ndarray, pool_idx: np.ndarray) -> np.ndarray:
    """For each query value, the index in ``pool_idx`` of the pool value at the
    smallest |query - value|, the lowest index among ties.

    O((n + m) log m): the nearest values below and above a query are found by
    binary search in the sorted pool. The distance rounded to a float can tie
    over several distinct values only in a contiguous run of sorted values;
    a query whose run extends past its two neighbours falls back to a scan.
    """
    order = np.argsort(pool, kind="stable")  # equal values keep ascending index
    vals, idx = pool[order], pool_idx[order]
    m = vals.size
    hi = np.searchsorted(vals, query, side="left")  # first value >= query
    lo = np.maximum(hi - 1, 0)
    lo = np.searchsorted(vals, vals[lo], side="left")  # first of the run below
    hi_c = np.minimum(hi, m - 1)
    d_lo = np.where(hi > 0, np.abs(query - vals[lo]), np.inf)
    d_hi = np.where(hi < m, np.abs(query - vals[hi_c]), np.inf)
    best = np.minimum(d_lo, d_hi)
    out = np.where(d_lo < d_hi, idx[lo], np.where(d_hi < d_lo, idx[hi_c],
                                                   np.minimum(idx[lo], idx[hi_c])))
    end = np.searchsorted(vals, vals[hi_c], side="right")  # past the run above
    wider = ((hi > 0) & (lo > 0) & (np.abs(query - vals[np.maximum(lo - 1, 0)]) == best)) | (
        (hi < m) & (end < m) & (np.abs(query - vals[np.minimum(end, m - 1)]) == best))
    for i in np.flatnonzero(wider):
        out[i] = pool_idx[np.argmin(np.abs(query[i] - pool))]
    return out


def ps_match(ps: np.ndarray, A: np.ndarray) -> np.ndarray:
    """1:1 nearest-neighbour matching on the scores ``ps`` for the ATE: the
    int64 array whose entry i is the opposite-arm unit at the smallest
    |difference| of scores, which imputes i's missing potential outcome.
    Ties take the lowest index; matching is with replacement and uses no
    caliper."""
    p, A = np.asarray(ps, dtype=float), np.asarray(A)
    t_idx, c_idx = np.flatnonzero(A == 1), np.flatnonzero(A == 0)
    if t_idx.size == 0 or c_idx.size == 0:
        raise ValueError("both treatment arms must be non-empty")
    match = np.empty(p.shape[0], dtype=np.int64)
    match[t_idx] = _nearest(p[t_idx], p[c_idx], c_idx)
    match[c_idx] = _nearest(p[c_idx], p[t_idx], t_idx)
    return match


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

    ``adjustments`` is a list of (label, weights) pairs, each weight array
    finite and strictly positive; matched data contributes through its
    frequency weights, ``match_weights``. When every covariate is
    degenerate the ASAMs are nan.
    """
    X, A = dataset.covariates, dataset.treatment
    columns = [("unweighted", None), *adjustments]
    if any(label == "unweighted" for label, _ in adjustments):
        raise ValueError("'unweighted' is reserved for the raw column")
    smds, asam_by, flagged = {}, {}, {}
    for label, w in columns:
        s, degenerate = _smds(X, A, w)
        finite = np.abs(s[~degenerate])
        smds[label] = [None if deg else float(v) for v, deg in zip(s, degenerate)]
        asam_by[label] = float(np.mean(finite)) if finite.size else float("nan")
        flagged[label] = int(np.count_nonzero(finite > SMD_FLAG_THRESHOLD))
    return BalanceReport(dataset.names, tuple(label for label, _ in columns), smds, asam_by, flagged)
