"""V-fold stacking: convex combinations of candidate learners.

The level-one matrix holds out-of-fold predictions, the meta-learner finds
the simplex weights of least squared error on it, and the candidates with a
non-zero weight are refit on the full data to carry the weights forward.
The fitted ensemble keeps each candidate's level-one CV risk and that of the
combination.

``scipy.optimize`` (for ``nnls``) is imported on the first ``meta_weights``
call, not with this module. Nothing else in ateml uses it, and importing it
made up about a third of the start-up time of every ``ateml`` process
(0.3 of 0.9 s for ``import ateml.cli``), which a run that fits no Super
Learner never needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FitError,
    FittedModel,
    FoldAssignment,
    LearnerSpec,
    loss_mse,
    make_folds,
    make_stratified_folds,
)
from .learners import fit_learner

__all__ = [
    "SLLibrary",
    "SLModel",
    "level_one",
    "meta_weights",
    "fit_super_learner",
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
        return fit_super_learner(self, X, y, seed=seed, target_kind=target_kind)


@dataclass(frozen=True)
class SLModel:
    """Fitted stack: simplex weights over the candidates, each candidate with
    a non-zero weight refit on the full data.

    ``models[k]`` is candidate k's full-data refit, or None when its weight
    is 0. ``candidate_risks`` and ``meta_risk`` are the level-one CV mean
    squared errors of each candidate and of the combination. ``flags`` lists
    the meta-weight flags, then those of the refits, each once in first-seen
    order.
    """

    library: SLLibrary
    weights: np.ndarray
    models: tuple[FittedModel | None, ...]
    candidate_risks: tuple[float, ...]
    meta_risk: float
    target_kind: str
    weight_flags: tuple[str, ...] = ()

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for w, m in zip(self.weights, self.models):
            if m is not None:
                out += w * m.predict(X)
        if self.target_kind == "probability":
            out = np.clip(out, 0.0, 1.0)
        return out

    @property
    def flags(self) -> tuple[str, ...]:
        refit_flags = (f for m in self.models if m is not None for f in m.flags)
        return tuple(dict.fromkeys((*self.weight_flags, *refit_flags)))

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
    folds.check_rows(X.shape[0])
    Z = np.empty((X.shape[0], len(library)))
    for k, spec in enumerate(library.candidates):
        for v, (tr, te) in enumerate(folds.blocks, start=1):
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


def _pgd_simplex(Z, y, w0, max_iter=20000, gap_tol=1e-9):
    """Projected gradient descent for the mean squared error on the simplex,
    with a duality-gap stop.

    The Frank-Wolfe gap max_j <grad, w - e_j> upper-bounds the suboptimality
    of a convex objective over the simplex, so the returned point is within
    gap_tol of the optimum. Steps use deterministic backtracking.
    """
    n = Z.shape[0]

    def value(w):
        r = Z @ w - y
        return float(r @ r) / n

    def grad(w):
        return 2.0 * (Z.T @ (Z @ w - y)) / n
    step = 1.0 / max(2.0 * np.linalg.norm(Z, 2) ** 2 / n, 1e-12)

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


def meta_weights(Z: np.ndarray, target: np.ndarray):
    """Simplex weights minimising the mean squared error of Z @ w against the
    target.

    Starts from non-negative least squares (normalised to the simplex) and is
    polished by projected gradient until a duality-gap certificate shows the
    weights are within 1e-9 of optimal. Returns (weights, flags).
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(target, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.shape[0] or Z.shape[1] < 1:
        raise ValueError("level-one matrix and target are inconsistent")
    m = Z.shape[1]
    flags: tuple[str, ...] = ()
    if m == 1:
        return np.array([1.0]), flags
    # imported here: at module top it cost every process 0.3 s and 22 MB (2-core host)
    from scipy.optimize import nnls

    w, _ = nnls(Z, y)
    s = w.sum()
    if s <= 0:
        w = np.full(m, 1.0 / m)
        flags = ("nnls_zero_uniform_fallback",)
    else:
        w = w / s
    w = _pgd_simplex(Z, y, w)
    w = np.maximum(w, 0.0)
    w = w / w.sum()
    # hard guard for the convexity guarantee: never report weights that lose
    # to a single candidate in mean squared error
    best_val = loss_mse(Z @ w, y)
    for k in range(m):
        val = loss_mse(Z[:, k], y)
        if val < best_val - 1e-12:
            w = np.zeros(m)
            w[k] = 1.0
            best_val = val
    return w, flags


def fit_super_learner(
    library: SLLibrary,
    features: np.ndarray,
    target: np.ndarray,
    seed: int = 0,
    target_kind: str = "regression",
) -> SLModel:
    """Level-one fit on the library's ``V`` folds, meta-weights, and
    full-data refits, in library order, of the candidates with a non-zero
    weight.

    Probability targets get treatment-arm style stratified folds so no
    training fold can lose a class.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if target_kind == "probability":
        folds = make_stratified_folds(y, library.V, seed)
    else:
        folds = make_folds(X.shape[0], library.V, seed)
    Z = level_one(library, X, y, folds, target_kind=target_kind)
    w, flags = meta_weights(Z, y)
    cand_risks = tuple(loss_mse(Z[:, k], y) for k in range(len(library)))
    models = tuple(
        fit_learner(spec, X, y, target_kind=target_kind) if w_k != 0.0 else None
        for spec, w_k in zip(library.candidates, w)
    )
    return SLModel(library, w, models, cand_risks, loss_mse(Z @ w, y), target_kind, flags)


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
