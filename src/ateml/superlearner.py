"""V-fold stacking: convex combinations of candidate learners.

The level-one matrix holds out-of-fold predictions, the meta-learner finds
the simplex weights of least squared error on it with an exact active-set
method (numpy only), and the candidates with a non-zero weight are refit on
the full data to carry the weights forward. The fitted ensemble keeps each
candidate's level-one CV risk and that of the combination.
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
    the flags of the refits, each once in first-seen order.
    """

    library: SLLibrary
    weights: np.ndarray
    models: tuple[FittedModel | None, ...]
    candidate_risks: tuple[float, ...]
    meta_risk: float
    target_kind: str

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
        return tuple(dict.fromkeys(f for m in self.models if m is not None for f in m.flags))

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


def meta_weights(Z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Simplex weights minimising the mean squared error of Z @ w against the
    target.

    Lawson and Hanson's active-set method with the sum-to-one constraint:
    start at the best single candidate, add the candidate of most negative
    gradient, solve the equality-constrained least-squares problem on the
    chosen set and, where a weight would fall to 0 or below, stop at that
    bound and drop the candidate. The subproblem is solved on Z itself, not
    on Z'Z, whose squared condition number left near-collinear candidates
    uncertified: w = e_a + sum_j u_j (e_j - e_a) for the set's first
    candidate a, u the minimum-norm least-squares solution, and a weight
    within 1e-12 of 0 there counts as 0. It ends when the Frank-Wolfe gap
    max_j <grad, w - e_j>, which bounds the distance to the optimum, is
    below 1e-9 (times the target's mean square where that exceeds 1), and
    raises FitError if 3m additions do not get there. Ties go to the lower
    index, a column equal to an earlier one weighs 0, and every candidate
    outside the final set weighs exactly 0.0.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(target, dtype=float)
    if Z.ndim != 2 or y.shape != Z.shape[:1] or Z.shape[1] < 1:
        raise ValueError("level-one matrix and target are inconsistent")
    if not (np.isfinite(Z).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in the level-one matrix or target")
    n, m = Z.shape
    tol = 1e-9 * max(1.0, float(y @ y) / n)
    barred = np.array([any(np.array_equal(Z[:, j], Z[:, k]) for j in range(k)) for k in range(m)])
    w = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    active[np.where(barred, np.inf, ((Z - y[:, None]) ** 2).mean(axis=0)).argmin()] = True
    w[active] = 1.0
    for _ in range(3 * m):
        g = Z.T @ (Z @ w - y)  # the gradient times n/2
        if 2.0 * float(g @ w - g.min()) / n < tol:
            return w / w.sum()
        active[np.where(active | barred, np.inf, g).argmin()] = True
        while True:
            idx = np.flatnonzero(active)
            Za = Z[:, idx]
            u = np.linalg.lstsq(Za[:, 1:] - Za[:, :1], y - Za[:, 0], rcond=None)[0]
            z = np.concatenate(([1.0 - u.sum()], u))
            z[np.abs(z) <= 1e-12] = 0.0  # round-off of a weight that is 0 at this optimum
            if (z > 0).all():
                w[idx] = z
                break
            # step from w towards z until the first weight reaches 0
            cur = w[idx]
            out = np.flatnonzero(z <= 0)
            ratios = np.divide(cur[out], cur[out] - z[out], out=np.zeros(out.size),
                               where=cur[out] > 0)
            cur += ratios.min() * (z - cur)
            cur[out[ratios.argmin()]] = 0.0
            dropped = cur <= 0
            active[idx[dropped]] = False
            w[idx] = np.where(dropped, 0.0, cur)
    raise FitError(f"meta-weights not certified optimal after {3 * m} additions")


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
    w = meta_weights(Z, y)
    cand_risks = tuple(loss_mse(Z[:, k], y) for k in range(len(library)))
    models = tuple(
        fit_learner(spec, X, y, target_kind=target_kind) if w_k != 0.0 else None
        for spec, w_k in zip(library.candidates, w)
    )
    return SLModel(library, w, models, cand_risks, loss_mse(Z @ w, y), target_kind)


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
