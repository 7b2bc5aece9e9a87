"""V-fold stacking: convex combinations of candidate learners.

The level-one matrix holds out-of-fold predictions, the meta-learner solves a
simplex-constrained problem on it, and the refit candidates on the full data
carry the weights forward. A separate nested-cross-validation report compares
the honest out-of-sample risk of each candidate, the discrete selector, and
the convex combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .core import (
    FitError,
    FittedModel,
    FoldAssignment,
    LearnerSpec,
    LOSSES,
    child_seeds,
    make_folds,
    make_stratified_folds,
)
from .learners import fit_learner

__all__ = [
    "SLLibrary",
    "SLModel",
    "SLRiskReport",
    "level_one",
    "meta_weights",
    "fit_super_learner",
    "discrete_sl",
    "sl_risk_report",
    "demo_library",
]


@dataclass(frozen=True)
class SLLibrary:
    """Ordered candidate list with unique display names; a ``Learner``.

    ``fit`` runs ``fit_super_learner`` with the library's own ``V`` folds,
    drawn from the seed it is given, and returns the ``SLModel``, whose
    ``meta`` carries the candidate weights.
    """

    candidates: tuple[LearnerSpec, ...]
    names: tuple[str, ...]
    V: int = 10

    def __post_init__(self) -> None:
        if len(self.candidates) < 1:
            raise ValueError("library must contain at least one candidate")
        if len(self.names) != len(self.candidates):
            raise ValueError("need one name per candidate")
        if len(set(self.names)) != len(self.names):
            raise ValueError("candidate names must be unique")

    def __len__(self) -> int:
        return len(self.candidates)

    def fit(self, X: np.ndarray, y: np.ndarray, target_kind: str = "regression",
            seed: int = 0) -> "SLModel":
        return fit_super_learner(self, X, y, V=self.V, seed=seed, target_kind=target_kind)


@dataclass(frozen=True)
class SLRiskReport:
    """Per-candidate risks plus the discrete and convex combination risks.

    ``kind`` records what the numbers mean: ``level_one`` risks come from the
    stacking fit itself (where the convex risk can never exceed the best
    candidate), ``outer_cv`` risks come from an extra honest CV layer (where
    it can).
    """

    names: tuple[str, ...]
    candidate_risks: tuple[float, ...]
    discrete_risk: float
    convex_risk: float
    kind: str = "level_one"

    def to_csv(self) -> str:
        lines = ["name,cv_risk"]
        for name, r in zip(self.names, self.candidate_risks):
            lines.append(f"{name},{r!r}")
        lines.append(f"discrete_sl,{self.discrete_risk!r}")
        lines.append(f"convex_sl,{self.convex_risk!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SLModel:
    """Fitted stack: simplex weights over candidates refit on the full data."""

    library: SLLibrary
    weights: np.ndarray
    models: tuple[FittedModel, ...]
    folds: FoldAssignment
    candidate_risks: tuple[float, ...]
    meta_risk: float
    target_kind: str
    flags: tuple[str, ...] = ()

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for w, m in zip(self.weights, self.models):
            if w != 0.0:
                out += w * m.predict(X)
        if self.target_kind == "probability":
            out = np.clip(out, 0.0, 1.0)
        return out

    def risk_report(self) -> SLRiskReport:
        return SLRiskReport(
            self.library.names,
            self.candidate_risks,
            min(self.candidate_risks),
            self.meta_risk,
            kind="level_one",
        )

    def weight_table(self) -> dict[str, float]:
        return {n: float(w) for n, w in zip(self.library.names, self.weights)}

    @property
    def meta(self) -> dict:
        return {"sl_weights": self.weight_table()}


def level_one(
    library: SLLibrary,
    features: np.ndarray,
    target: np.ndarray,
    folds: FoldAssignment,
    target_kind: str = "regression",
) -> np.ndarray:
    """Out-of-fold prediction matrix Z: row i, column k is candidate k's
    prediction for row i from the fit that excluded i's fold."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if X.shape[0] != folds.n:
        raise ValueError("fold assignment does not match the data")
    Z = np.empty((X.shape[0], len(library)))
    for k, spec in enumerate(library.candidates):
        for v in range(1, folds.V + 1):
            tr = folds.train_mask(v)
            te = folds.test_mask(v)
            try:
                model = fit_learner(spec, X[tr], y[tr], target_kind=target_kind)
            except (ValueError, RuntimeError) as exc:
                raise FitError(
                    f"candidate {library.names[k]!r} failed to fit in fold {v}: {exc}"
                ) from exc
            Z[te, k] = model.predict(X[te])
    return Z


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.max(np.flatnonzero(u - css / np.arange(1, v.size + 1) > 0)) + 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _pgd_simplex(Z, y, loss, w0, max_iter=20000, gap_tol=1e-9):
    """Projected gradient descent on the simplex with a duality-gap stop.

    The Frank-Wolfe gap max_j <grad, w - e_j> upper-bounds the suboptimality
    of a convex objective over the simplex, so the returned point is within
    gap_tol of the optimum. Steps use deterministic backtracking.
    """
    n, m = Z.shape
    if m == 1:
        return np.array([1.0])

    if loss == "mse":
        def value(w):
            r = Z @ w - y
            return float(r @ r) / n

        def grad(w):
            return 2.0 * (Z.T @ (Z @ w - y)) / n
        step = 1.0 / max(2.0 * np.linalg.norm(Z, 2) ** 2 / n, 1e-12)
    else:  # logloss, smoothed at 1e-6 so gradient and value stay consistent
        eps = 1e-6

        def value(w):
            p = np.clip(Z @ w, eps, 1 - eps)
            return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        def grad(w):
            p = np.clip(Z @ w, eps, 1 - eps)
            return Z.T @ ((p - y) / (p * (1.0 - p))) / n
        step = 1.0

    w = w0.copy()
    f = value(w)
    for _ in range(max_iter):
        g = grad(w)
        gap = float(g @ w - g.min())
        if gap < gap_tol:
            break
        while True:
            w_new = _project_simplex(w - step * g)
            d = w_new - w
            f_new = value(w_new)
            if f_new <= f + float(g @ d) + float(d @ d) / (2.0 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                return w
        w, f = w_new, f_new
        step *= 1.25
    return w


def meta_weights(Z: np.ndarray, target: np.ndarray, loss: str = "mse"):
    """Simplex weights minimising the chosen loss of Z @ w against the target.

    MSE starts from non-negative least squares (normalised to the simplex) and
    is polished by projected gradient until a duality-gap certificate shows
    the weights are within 1e-9 of optimal; log-loss runs projected gradient
    from the uniform point. Returns (weights, flags).
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(target, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.shape[0] or Z.shape[1] < 1:
        raise ValueError("level-one matrix and target are inconsistent")
    m = Z.shape[1]
    flags: tuple[str, ...] = ()
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    if m == 1:
        return np.array([1.0]), flags
    if loss == "mse":
        w, _ = nnls(Z, y)
        s = w.sum()
        if s <= 0:
            w = np.full(m, 1.0 / m)
            flags = ("nnls_zero_uniform_fallback",)
        else:
            w = w / s
    else:
        w = np.full(m, 1.0 / m)
    w = _pgd_simplex(Z, y, loss, w)
    w = np.maximum(w, 0.0)
    w = w / w.sum()
    # hard guard for the convexity guarantee: never report weights that lose
    # to a single candidate under the actual loss
    loss_fn = LOSSES[loss]
    best_val = loss_fn(Z @ w, y)
    for k in range(m):
        val = loss_fn(Z[:, k], y)
        if val < best_val - 1e-12:
            w = np.zeros(m)
            w[k] = 1.0
            best_val = val
    return w, flags


def fit_super_learner(
    library: SLLibrary,
    features: np.ndarray,
    target: np.ndarray,
    V: int = 10,
    seed: int = 0,
    loss: str = "mse",
    target_kind: str = "regression",
) -> SLModel:
    """Level-one fit, meta-weights, full-data refits, all in one pass.

    Probability targets get treatment-arm style stratified folds so no
    training fold can lose a class.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if target_kind == "probability":
        folds = make_stratified_folds(y, V, seed)
    else:
        folds = make_folds(X.shape[0], V, seed)
    Z = level_one(library, X, y, folds, target_kind=target_kind)
    w, flags = meta_weights(Z, y, loss=loss)
    loss_fn = LOSSES[loss]
    cand_risks = tuple(loss_fn(Z[:, k], y) for k in range(len(library)))
    meta_risk = loss_fn(Z @ w, y)
    models = tuple(
        fit_learner(spec, X, y, target_kind=target_kind) for spec in library.candidates
    )
    return SLModel(library, w, models, folds, cand_risks, meta_risk, target_kind, flags)


def discrete_sl(report: SLRiskReport) -> int:
    """Index (0-based) of the candidate with the smallest risk; ties go low."""
    risks = np.asarray(report.candidate_risks, dtype=float)
    if risks.size < 1:
        raise ValueError("empty risk report")
    return int(np.argmin(risks))


def sl_risk_report(
    library: SLLibrary,
    features: np.ndarray,
    target: np.ndarray,
    V_outer: int = 5,
    V_inner: int = 5,
    seed: int = 0,
    loss: str = "mse",
    target_kind: str = "regression",
) -> SLRiskReport:
    """Honest comparison: every risk comes from data the fit never saw.

    Each outer training set runs its own full super-learner fit (with inner
    folds) so the convex and discrete rows face exactly the same holdout as
    the raw candidates.
    """
    if V_outer < 2 or V_inner < 2:
        raise ValueError("need V_outer >= 2 and V_inner >= 2")
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if target_kind == "probability":
        outer = make_stratified_folds(y, V_outer, seed)
    else:
        outer = make_folds(X.shape[0], V_outer, seed)
    seeds = child_seeds(seed, outer.V)
    loss_fn = LOSSES[loss]
    m = len(library)
    cand_losses = np.zeros((outer.V, m))
    disc_losses = np.zeros(outer.V)
    convex_losses = np.zeros(outer.V)
    for v in range(1, outer.V + 1):
        tr = outer.train_mask(v)
        te = outer.test_mask(v)
        sl = fit_super_learner(
            library, X[tr], y[tr], V=V_inner, seed=seeds[v - 1],
            loss=loss, target_kind=target_kind,
        )
        for k in range(m):
            cand_losses[v - 1, k] = loss_fn(sl.models[k].predict(X[te]), y[te])
        best = discrete_sl(sl.risk_report())
        disc_losses[v - 1] = cand_losses[v - 1, best]
        convex_losses[v - 1] = loss_fn(sl.predict(X[te]), y[te])
    return SLRiskReport(
        library.names,
        tuple(float(r) for r in cand_losses.mean(axis=0)),
        float(disc_losses.mean()),
        float(convex_losses.mean()),
        kind="outer_cv",
    )


def demo_library(d: int) -> SLLibrary:
    """Moderately data-adaptive demonstration library for probability targets.

    Two logistic fits (with and without pairwise interactions), four forests
    crossing tree count with subset size, eight boosting configurations
    crossing tree count, shrinkage and depth, plus one depth-3 boosting entry
    standing in for smoother additive-model candidates.
    """
    specs: list[tuple[str, LearnerSpec]] = [
        ("logistic", LearnerSpec("logistic")),
        ("logistic_interactions", LearnerSpec("logistic", {"interactions": True})),
    ]
    for n_trees in (500, 2000):
        for mtry in (5, 8):
            specs.append((
                f"forest_{n_trees}t_{mtry}v",
                LearnerSpec("forest", {"n_trees": n_trees, "mtry": min(mtry, d), "seed": 0}),
            ))
    for n_trees in (100, 1000):
        for nu in (0.001, 0.1):
            for depth in (1, 4):
                specs.append((
                    f"boost_{n_trees}t_nu{nu}_d{depth}",
                    LearnerSpec("boost", {"n_trees": n_trees, "nu": nu, "max_depth": depth}),
                ))
    specs.append(("boost_smooth_d3", LearnerSpec("boost", {"n_trees": 300, "nu": 0.05, "max_depth": 3})))
    names, cands = zip(*specs)
    return SLLibrary(tuple(cands), tuple(names))
