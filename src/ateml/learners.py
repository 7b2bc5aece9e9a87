"""From-scratch supervised learners used as nuisance-model candidates.

Linear and logistic regression, l1-penalised (lasso) variants of both,
regression trees, bagged forests, and stagewise gradient boosting. Binary
targets are handled as {0,1} regression by the tree ensembles, which makes
their leaf values probabilities.

Conventions shared by the penalised fits: columns are standardised internally
to mean zero and unit population standard deviation, the intercept is never
penalised, the squared-error part of the objective carries a 1/(2n) factor,
and coefficients are reported on the original scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .core import FittedModel, LearnerSpec, child_seeds, make_folds, rng_from

__all__ = [
    "LinearModel",
    "LassoFit",
    "TreeNode",
    "ForestModel",
    "BoostModel",
    "fit_ols",
    "fit_logistic",
    "fit_lasso",
    "lasso_lambda_max",
    "lasso_cv",
    "fit_logistic_lasso",
    "logistic_lasso_cv",
    "fit_tree",
    "tree_predict",
    "fit_forest",
    "fit_boost",
    "fit_learner",
]

KKT_TOL = 1e-7  # inner tolerance; the documented contract is 1e-6


def _check_matrix(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("need an (n, d) matrix and a length-n target")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in features or target")
    return X, y


# ---------------------------------------------------------------------------
# linear and logistic regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor; probability predictions go through the logit link."""

    intercept: float
    coef: np.ndarray
    flags: tuple[str, ...] = ()

    def linear(self, X: np.ndarray) -> np.ndarray:
        return self.intercept + np.asarray(X, dtype=float) @ self.coef

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.linear(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return expit(self.linear(X))


def fit_ols(features: np.ndarray, target: np.ndarray) -> LinearModel:
    """Least squares with unpenalised intercept.

    Solved on centred data through the SVD, so rank-deficient designs get the
    minimum-norm coefficient vector and predictions stay well defined.
    """
    X, y = _check_matrix(features, target)
    xm = X.mean(axis=0)
    ym = float(y.mean())
    coef, *_ = np.linalg.lstsq(X - xm, y - ym, rcond=None)
    return LinearModel(ym - float(xm @ coef), coef)


def fit_logistic(
    features: np.ndarray,
    target: np.ndarray,
    ridge: float = 0.0,
) -> LinearModel:
    """Penalised Bernoulli MLE via iteratively reweighted least squares.

    ``ridge`` adds an l2 penalty on the slopes (never the intercept).
    Complete separation with ridge=0 is detected by a diverging coefficient
    norm and triggers an automatic refit with ridge=1e-6, flagged on the
    returned model.
    """
    X, y = _check_matrix(features, target)
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("logistic target must be binary 0/1")
    if y.min() == y.max():
        raise ValueError("logistic target must contain both classes")

    n, d = X.shape
    M = np.column_stack([np.ones(n), X])
    pen = np.full(d + 1, float(ridge))
    pen[0] = 0.0
    beta = np.zeros(d + 1)
    beta[0] = float(logit(np.clip(y.mean(), 1e-12, 1 - 1e-12)))

    def penalised_loglik(b: np.ndarray) -> float:
        eta = M @ b
        # log(1 + e^eta) - y*eta, computed stably
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll - 0.5 * float(pen @ (b * b))

    ll = penalised_loglik(beta)
    for _ in range(100):
        p = expit(M @ beta)
        score = M.T @ (y - p) - pen * beta
        if np.max(np.abs(score)) < 1e-8:
            break
        w = np.maximum(p * (1.0 - p), 1e-10)
        H = M.T @ (M * w[:, None]) + np.diag(pen)
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, score, rcond=None)
        # step halving keeps IRLS monotone on awkward designs
        for _ in range(30):
            cand = beta + step
            ll_new = penalised_loglik(cand)
            if ll_new >= ll - 1e-12:
                break
            step = step / 2.0
        beta = beta + step
        ll = penalised_loglik(beta)
        if ridge == 0.0 and float(np.linalg.norm(beta[1:])) > 1e3:
            refit = fit_logistic(X, y, ridge=1e-6)
            return LinearModel(refit.intercept, refit.coef, refit.flags + ("separation_ridge",))
    return LinearModel(float(beta[0]), beta[1:])


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoFit:
    """Solution of (1/2n)||y - b0 - Xb||^2 + lam*||b||_1, original scale."""

    intercept: float
    coef: np.ndarray
    lam: float
    active_set: tuple[int, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.intercept + np.asarray(X, dtype=float) @ self.coef


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale to unit population sd; constant columns map to zero."""
    mu = X.mean(axis=0)
    sd = np.sqrt(np.mean((X - mu) ** 2, axis=0))
    ok = sd > 0
    Xs = np.zeros_like(X)
    Xs[:, ok] = (X[:, ok] - mu[ok]) / sd[ok]
    return Xs, mu, sd, ok


def _soft(z: np.ndarray | float, t: float):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def lasso_lambda_max(features: np.ndarray, target: np.ndarray) -> float:
    """Smallest penalty at which every coefficient is zero."""
    X, y = _check_matrix(features, target)
    Xs, _, _, ok = _standardize(X)
    if not ok.any():
        return 0.0
    n = X.shape[0]
    return float(np.max(np.abs(Xs[:, ok].T @ (y - y.mean())) / n))


def _cd_lasso(G: np.ndarray, c: np.ndarray, lam: float, ok: np.ndarray,
              beta: np.ndarray, max_pass: int = 2000) -> np.ndarray:
    """Coordinate descent on the standardized Gram system; warm-startable.

    G = Xs'Xs/n (unit diagonal on live columns), c = Xs'(y - ybar)/n.
    Iterates until the KKT residual drops below KKT_TOL.
    """
    idx = np.flatnonzero(ok)
    q = G @ beta
    for _ in range(max_pass):
        for j in idx:
            rho = c[j] - q[j] + G[j, j] * beta[j]
            b_new = _soft(rho, lam) / G[j, j]
            delta = b_new - beta[j]
            if delta != 0.0:
                beta[j] = b_new
                q += G[:, j] * delta
        g = c - q
        inactive = ok & (beta == 0.0)
        active = ok & (beta != 0.0)
        viol = 0.0
        if inactive.any():
            viol = max(viol, float(np.max(np.abs(g[inactive])) - lam))
        if active.any():
            viol = max(viol, float(np.max(np.abs(g[active] - lam * np.sign(beta[active])))))
        if viol < KKT_TOL:
            break
    return beta


def fit_lasso(features: np.ndarray, target: np.ndarray, lam: float) -> LassoFit:
    """Lasso with internal standardisation and unpenalised intercept.

    lam=0 falls back to the (minimum-norm) least-squares solution; at or above
    ``lasso_lambda_max`` every coefficient is exactly zero.
    """
    X, y = _check_matrix(features, target)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    Xs, mu, sd, ok = _standardize(X)
    ybar = float(y.mean())
    if lam == 0.0:
        bs, *_ = np.linalg.lstsq(Xs, y - ybar, rcond=None)
    else:
        n = X.shape[0]
        G = Xs.T @ Xs / n
        c = Xs.T @ (y - ybar) / n
        bs = _cd_lasso(G, c, lam, ok, np.zeros(X.shape[1]))
    coef = np.zeros(X.shape[1])
    coef[ok] = bs[ok] / sd[ok]
    intercept = ybar - float(mu @ coef)
    active = tuple(int(j) for j in np.flatnonzero(coef != 0.0))
    return LassoFit(intercept, coef, lam, active)


def _lasso_path(X: np.ndarray, y: np.ndarray, lams: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Warm-started solutions along a descending penalty grid (original scale)."""
    Xs, mu, sd, ok = _standardize(X)
    ybar = float(y.mean())
    n = X.shape[0]
    G = Xs.T @ Xs / n
    c = Xs.T @ (y - ybar) / n
    beta = np.zeros(X.shape[1])
    out = []
    for lam in lams:
        if lam == 0.0:
            beta, *_ = np.linalg.lstsq(Xs, y - ybar, rcond=None)
        else:
            beta = _cd_lasso(G, c, float(lam), ok, beta)
        coef = np.zeros(X.shape[1])
        coef[ok] = beta[ok] / sd[ok]
        out.append((ybar - float(mu @ coef), coef.copy()))
    return out


def default_lambda_grid(features: np.ndarray, target: np.ndarray, n_lambda: int = 100) -> np.ndarray:
    lmax = lasso_lambda_max(features, target)
    if lmax <= 0:
        return np.array([0.0])
    return np.geomspace(lmax, lmax * 1e-4, n_lambda)


def lasso_cv(
    features: np.ndarray,
    target: np.ndarray,
    lambda_grid: np.ndarray | None = None,
    folds=None,
    *,
    v_folds: int = 5,
    seed: int = 0,
) -> tuple[float, LassoFit]:
    """Pick the penalty by V-fold cross-validated MSE and refit on all rows.

    The grid must be descending; exact risk ties resolve toward the larger
    penalty (more regularisation).
    """
    X, y = _check_matrix(features, target)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(X, y)
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size < 1:
        raise ValueError("lambda grid must be non-empty")
    if lams.size > 1 and not (np.diff(lams) <= 0).all():
        raise ValueError("lambda grid must be descending")
    if folds is None:
        folds = make_folds(X.shape[0], v_folds, seed)
    sq_err = np.zeros((folds.V, lams.size))
    for v in range(1, folds.V + 1):
        tr = folds.train_mask(v)
        te = folds.test_mask(v)
        path = _lasso_path(X[tr], y[tr], lams)
        for k, (b0, coef) in enumerate(path):
            pred = b0 + X[te] @ coef
            sq_err[v - 1, k] = float(np.mean((pred - y[te]) ** 2))
    risks = sq_err.mean(axis=0)
    best = int(np.argmin(risks))  # first minimum = largest penalty on ties
    lam = float(lams[best])
    return lam, fit_lasso(X, y, lam)


# ---------------------------------------------------------------------------
# l1-penalised logistic regression (for propensity model paths)
# ---------------------------------------------------------------------------


def fit_logistic_lasso(
    features: np.ndarray,
    target: np.ndarray,
    lam: float,
    *,
    max_outer: int = 50,
    warm: tuple[float, np.ndarray] | None = None,
) -> LinearModel:
    """l1-penalised logistic regression via proximal coordinate descent.

    Outer loop forms the usual quadratic (working-response) approximation;
    the inner loop soft-thresholds one standardized coordinate at a time.
    Objective: (1/n) * Bernoulli deviance/2 ... + lam*||b||_1, intercept free.
    """
    X, y = _check_matrix(features, target)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("target must be binary 0/1")
    n = X.shape[0]
    Xs, mu, sd, ok = _standardize(X)
    idx = np.flatnonzero(ok)
    if warm is not None:
        b0, beta = float(warm[0]), warm[1].copy()
    else:
        b0 = float(logit(np.clip(y.mean(), 1e-12, 1 - 1e-12)))
        beta = np.zeros(X.shape[1])
    for _ in range(max_outer):
        b0_old, beta_old = b0, beta.copy()
        p = np.clip(expit(b0 + Xs @ beta), 1e-8, 1 - 1e-8)
        w = p * (1.0 - p)
        z = (b0 + Xs @ beta) + (y - p) / w
        denom = (Xs * Xs * w[:, None]).sum(axis=0) / n
        r = z - b0 - Xs @ beta
        w_sum = float(w.sum())
        for _ in range(200):
            max_step = 0.0
            b0_new = b0 + float(w @ r) / w_sum
            r -= b0_new - b0
            max_step = abs(b0_new - b0)
            b0 = b0_new
            for j in idx:
                rho = float((w * Xs[:, j]) @ r) / n + denom[j] * beta[j]
                b_new = _soft(rho, lam) / denom[j]
                delta = b_new - beta[j]
                if delta != 0.0:
                    r -= Xs[:, j] * delta
                    beta[j] = b_new
                    max_step = max(max_step, abs(delta))
            if max_step < 1e-10:
                break
        if abs(b0 - b0_old) + float(np.max(np.abs(beta - beta_old), initial=0.0)) < 1e-8:
            break
    coef = np.zeros(X.shape[1])
    coef[ok] = beta[ok] / sd[ok]
    return LinearModel(b0 - float(mu @ coef), coef)


def logistic_lasso_cv(
    features: np.ndarray,
    target: np.ndarray,
    lambda_grid: np.ndarray | None = None,
    folds=None,
    *,
    n_lambda: int = 30,
    v_folds: int = 5,
    seed: int = 0,
) -> tuple[float, LinearModel]:
    """Cross-validated penalty selection (held-out log-loss) for the l1 logit."""
    from .core import loss_logloss

    X, y = _check_matrix(features, target)
    if lambda_grid is None:
        lmax = lasso_lambda_max(X, y)
        lambda_grid = np.geomspace(lmax, lmax * 1e-3, n_lambda) if lmax > 0 else np.array([0.0])
    lams = np.asarray(lambda_grid, dtype=float)
    if folds is None:
        folds = make_folds(X.shape[0], v_folds, seed)
    losses = np.zeros((folds.V, lams.size))
    for v in range(1, folds.V + 1):
        tr = folds.train_mask(v)
        te = folds.test_mask(v)
        for k, lam in enumerate(lams):
            model = fit_logistic_lasso(X[tr], y[tr], float(lam))
            losses[v - 1, k] = loss_logloss(model.predict_proba(X[te]), y[te])
    risks = losses.mean(axis=0)
    best = int(np.argmin(risks))
    lam = float(lams[best])
    return lam, fit_logistic_lasso(X, y, lam)


# ---------------------------------------------------------------------------
# trees, forests, boosting
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """Binary regression-tree node; leaves carry the training-mean value."""

    value: float = 0.0
    n_samples: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X, y, idx, feats, min_leaf):
    """Exhaustive search over features and midpoints of sorted distinct values.

    Ties in impurity break toward the lowest feature index, then the lowest
    threshold, which keeps tree construction deterministic.
    """
    n = idx.size
    best = None  # (sse_total, feature, threshold)
    for j in feats:
        x = X[idx, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[idx][order]
        if xs[0] == xs[-1]:
            continue
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        k = np.arange(1, n)  # left-child sizes
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        sse_l = c2[:-1] - c1[:-1] ** 2 / k
        sse_r = (c2[-1] - c2[:-1]) - (c1[-1] - c1[:-1]) ** 2 / (n - k)
        total = np.where(valid, sse_l + sse_r, np.inf)
        i = int(np.argmin(total))
        if best is None or total[i] < best[0]:
            best = (float(total[i]), j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow_tree(X, y, max_depth, min_leaf, rng=None, mtry=None):
    """Iterative greedy growth; returns (root, [(leaf, row_indices), ...])."""
    n, d = X.shape
    root = TreeNode()
    leaves: list[tuple[TreeNode, np.ndarray]] = []
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        sub_y = y[idx]
        node.value = float(sub_y.mean())
        node.n_samples = int(idx.size)
        at_depth = max_depth is not None and depth >= max_depth
        if at_depth or idx.size < 2 * min_leaf or sub_y.min() == sub_y.max():
            leaves.append((node, idx))
            continue
        if mtry is not None and mtry < d:
            feats = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            feats = np.arange(d)
        sse_parent = float(np.sum((sub_y - node.value) ** 2))
        best = _best_split(X, y, idx, feats, min_leaf)
        if best is None or best[0] >= sse_parent - 1e-12:
            leaves.append((node, idx))
            continue
        _, node.feature, node.threshold = best
        go_left = X[idx, node.feature] <= node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.left, idx[go_left], depth + 1))
        stack.append((node.right, idx[~go_left], depth + 1))
    return root, leaves


def fit_tree(
    features: np.ndarray,
    target: np.ndarray,
    max_depth: int = 6,
    min_leaf: int = 1,
) -> TreeNode:
    """Greedy binary regression tree minimising child-weighted squared error."""
    X, y = _check_matrix(features, target)
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    root, _ = _grow_tree(X, y, max_depth, min_leaf)
    return root


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


@dataclass(frozen=True)
class ForestModel:
    """Bagged trees; the prediction is the unweighted mean over trees."""

    trees: tuple[TreeNode, ...]
    mtry: int
    tree_seeds: tuple[int, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        acc = np.zeros(X.shape[0])
        for t in self.trees:
            acc += tree_predict(t, X)
        return acc / len(self.trees)


def fit_forest(
    features: np.ndarray,
    target: np.ndarray,
    n_trees: int = 100,
    mtry: int | None = None,
    min_leaf: int = 5,
    seed: int = 0,
    *,
    max_depth: int | None = None,
    bootstrap: bool = True,
) -> ForestModel:
    """Random forest: bootstrap rows per tree, fresh feature subset per split.

    ``bootstrap=False`` is a test hook that makes a single tree with mtry=d
    coincide with ``fit_tree``.
    """
    X, y = _check_matrix(features, target)
    n, d = X.shape
    if mtry is None:
        mtry = max(1, int(round(np.sqrt(d))))
    if not 1 <= mtry <= d:
        raise ValueError(f"mtry must be in 1..{d}")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    seeds = child_seeds(seed, n_trees)
    trees = []
    for s in seeds:
        rng = rng_from(s)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        root, _ = _grow_tree(X[rows], y[rows], max_depth, min_leaf, rng=rng, mtry=mtry)
        trees.append(root)
    return ForestModel(tuple(trees), int(mtry), tuple(seeds))


@dataclass(frozen=True)
class BoostModel:
    """Stagewise additive trees: raw score = f0 + nu * sum of tree outputs."""

    f0: float
    trees: tuple[TreeNode, ...]
    nu: float
    loss: str  # "squared" | "bernoulli"
    flags: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        acc = np.full(X.shape[0], self.f0)
        for t in self.trees:
            acc += self.nu * tree_predict(t, X)
        return acc

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = self.predict_raw(X)
        return expit(raw) if self.loss == "bernoulli" else raw


def _boost_stage(X, g, h, max_depth, min_leaf):
    """One boosting stage: tree grown on the gradient, Newton leaf values.

    h=None means squared loss, where the gradient-mean leaves are already the
    exact minimisers.
    """
    root, leaves = _grow_tree(X, g, max_depth, min_leaf)
    if h is not None:
        for leaf, idx in leaves:
            leaf.value = float(g[idx].sum() / max(h[idx].sum(), 1e-6))
    return root


def fit_boost(
    features: np.ndarray,
    target: np.ndarray,
    n_trees: int = 100,
    max_depth: int = 3,
    shrinkage: float = 0.1,
    loss: str = "squared",
    *,
    min_leaf: int = 1,
    callback=None,
) -> BoostModel:
    """Gradient boosting with shrinkage.

    Squared loss fits each stage to the current residuals. Bernoulli loss
    works on the log-odds scale: f0 = logit(mean(target)), stages fit the
    negative gradient (y - p) with one Newton leaf update per stage.
    ``callback(t, F)``, if given, sees the training-row raw scores after
    t = 0, 1, ..., n_trees stages; F is overwritten by later stages.
    """
    X, y = _check_matrix(features, target)
    if not 0 < shrinkage <= 1:
        raise ValueError("shrinkage must be in (0, 1]")
    if n_trees < 1 or max_depth < 1:
        raise ValueError("n_trees and max_depth must be >= 1")
    if loss not in ("squared", "bernoulli"):
        raise ValueError(f"unknown boosting loss {loss!r}")
    if loss == "bernoulli" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("bernoulli boosting needs a binary 0/1 target")

    bernoulli = loss == "bernoulli"
    f0 = float(logit(np.clip(y.mean(), 1e-12, 1 - 1e-12))) if bernoulli else float(y.mean())
    F = np.full(X.shape[0], f0)
    trees = []
    if callback is not None:
        callback(0, F)
    for t in range(1, n_trees + 1):
        if bernoulli:
            p = expit(F)
            stage = _boost_stage(X, y - p, p * (1.0 - p), max_depth, min_leaf)
        else:
            stage = _boost_stage(X, y - F, None, max_depth, min_leaf)
        F += shrinkage * tree_predict(stage, X)
        trees.append(stage)
        if callback is not None:
            callback(t, F)
    return BoostModel(f0, tuple(trees), float(shrinkage), loss)


# ---------------------------------------------------------------------------
# spec dispatcher
# ---------------------------------------------------------------------------


def _pairwise_products(X: np.ndarray) -> np.ndarray:
    """All i<j column products, in (i, j) order. Empty for d < 2."""
    n, d = X.shape
    cols = [X[:, i] * X[:, j] for i in range(d) for j in range(i + 1, d)]
    if not cols:
        return np.empty((n, 0))
    return np.column_stack(cols)


_ALLOWED_PARAMS = {
    "ols": {"interactions"},
    "logistic": {"ridge", "interactions"},
    "lasso": {"lam", "n_lambda", "v", "seed"},
    "tree": {"max_depth", "min_leaf"},
    "forest": {"n_trees", "mtry", "min_leaf", "max_depth", "seed"},
    "boost": {"n_trees", "max_depth", "nu", "min_leaf"},
}


def fit_learner(
    spec: LearnerSpec,
    features: np.ndarray,
    target: np.ndarray,
    target_kind: str = "regression",
) -> FittedModel:
    """Fit a LearnerSpec and wrap it in the uniform FittedModel interface.

    ``target_kind="probability"`` requests predictions in [0, 1]: logistic
    uses its link, boosting switches to the bernoulli loss, and the remaining
    families fit {0,1} regression whose predictions are clipped.
    """
    X, y = _check_matrix(features, target)
    if target_kind not in ("regression", "probability"):
        raise ValueError(f"unknown target_kind {target_kind!r}")
    p = dict(spec.params)
    unknown = set(p) - _ALLOWED_PARAMS[spec.family]
    if unknown:
        raise ValueError(f"unknown {spec.family} hyperparameters: {sorted(unknown)}")
    d = X.shape[1]
    flags: tuple[str, ...] = ()
    seed = p.get("seed", 0)

    if spec.family in ("ols", "logistic") and p.get("interactions", False):
        def design(M):
            return np.column_stack([M, _pairwise_products(M)])
    else:
        def design(M):
            return M

    Xd = design(X)

    if spec.family == "ols":
        model = fit_ols(Xd, y)
        predict = lambda M: model.predict(design(M))  # noqa: E731
    elif spec.family == "logistic":
        model = fit_logistic(Xd, y, ridge=p.get("ridge", 0.0))
        flags = model.flags
        predict = lambda M: model.predict_proba(design(M))  # noqa: E731
        target_kind = "probability"
    elif spec.family == "lasso":
        lam = p.get("lam")
        if lam is None:
            _, model = lasso_cv(
                X, y,
                lambda_grid=default_lambda_grid(X, y, p.get("n_lambda", 100)),
                v_folds=p.get("v", 5), seed=seed,
            )
        else:
            model = fit_lasso(X, y, lam)
        predict = model.predict
    elif spec.family == "tree":
        root = fit_tree(X, y, p.get("max_depth", 6), p.get("min_leaf", 5))
        predict = lambda M: tree_predict(root, M)  # noqa: E731
    elif spec.family == "forest":
        model = fit_forest(
            X, y,
            n_trees=p.get("n_trees", 100),
            mtry=min(p["mtry"], d) if "mtry" in p and p["mtry"] is not None else None,
            min_leaf=p.get("min_leaf", 5),
            seed=seed,
            max_depth=p.get("max_depth"),
        )
        predict = model.predict
    else:  # boost
        model = fit_boost(
            X, y,
            n_trees=p.get("n_trees", 100),
            max_depth=p.get("max_depth", 3),
            shrinkage=p.get("nu", 0.1),
            loss="bernoulli" if target_kind == "probability" else "squared",
            min_leaf=p.get("min_leaf", 1),
        )
        predict = model.predict

    return FittedModel(predict, target_kind, flags, {"learner": spec.describe()})
