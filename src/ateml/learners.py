"""From-scratch supervised learners used as nuisance-model candidates.

Linear and logistic regression, l1-penalised (lasso) variants of both,
regression trees, bagged forests, and stagewise gradient boosting. Binary
targets are handled as {0,1} regression by the tree ensembles, which makes
their leaf values probabilities.

Conventions shared by the penalised fits: columns are standardised internally
to mean zero and unit population standard deviation, the intercept is never
penalised, the squared-error part of the objective carries a 1/(2n) factor,
and coefficients are reported on the original scale.

The logistic and lasso solvers are exact too: ``fit_logistic`` and a stack
of logistic fits (``_irls`` through ``_fit_logistic_candidates``) return bit
for bit the coefficients and flags of the plain per-problem IRLS, and the
coordinate-descent lassos those of a numpy-scalar loop (both kept as the
reference in the tests). Collaborative targeting fits every logistic
propensity candidate as a stack: all the candidates of a greedy stage, the
one-column fits that rank the covariates of the pre-ordered variant, and
each nested candidate of a pre-ordered sequence (a stack of one). The rules
that keep them so, checked by ``tests/test_numeric_stack.py``:

- Python float arithmetic equals numpy float64 scalar arithmetic, so the
  coordinate loops run on Python floats; ``_soft`` reproduces numpy's signed
  zeros.
- A stacked ``np.matmul`` (also in matrix-vector form), stacked
  ``np.linalg.solve`` and ``np.sum(axis=1)`` over a C-contiguous (K, n)
  block give each slice what the 2-D call gives it, provided every slice
  has the memory layout the per-problem design would have.
- ``expit`` and ``logit`` (``ateml.core``) are numpy's elementwise ufuncs
  (``exp``, ``log``, ``log1p``), which give each row of a C-contiguous
  (K, n) block, and a 0-d input, what they give that row or value alone.
  The references in the tests call the same two functions.
- Whatever changes what is summed, or in which order, breaks exactness and
  is not used: ``einsum``, BLAS ``daxpy`` (fused multiply-add), covariance
  updates, active-set cycling, and warm starts for fits that start from
  zero (``_lasso_path`` has always warm-started along its grid).

Trees, forests and boosting stages grow on one exact greedy engine
(``_Grower``). A fit sorts each column once, stably; every node keeps its
samples in that order through stable partitions. Each level takes one of two
steps, chosen from its count of open nodes and their sizes: a few large
nodes (a boosting stage, the top of a tree) are tested, scored, split and
partitioned one at a time on plain slices of their segments; many nodes (a
forest level) go through block kernels that handle many nodes per numpy
call. The engine's contract is exactness: bit for bit the splits,
thresholds, leaf values and predictions of a grower that argsorts each
node's columns and grows one tree at a time, level by level (kept as the
reference in the tests). Three rules keep it in either step:

- Prefix sums run along each node's own slice, or its own padded row of a
  block, so they restart at the node and add in that node's order.
- Leaf values and the parent's squared error are pairwise (numpy) sums over
  the node's samples in sample order: a 1-D slice, or a row of one
  C-contiguous block of equal-length nodes, which numpy reduces exactly as
  it reduces that row alone. The split test uses the parent SSE from prefix
  sums only where its rounding error cannot change the decision.
- Every tree grows level by level. A forest tree with ``mtry`` < d draws
  the features of all its open nodes of a level from its own generator in
  one call, one row per node in level order (parents in order, left child
  first); a tree with no open node makes no call, a node that stays a leaf
  on depth, size or a constant target gets no row, and one that then finds
  no split still uses its row. The draws therefore do not depend on which
  trees grow together. Both steps visit a level's nodes in this order, and
  both call a node pure when no sample's target differs from its first's.

Fitted trees are flat arrays (``_Nodes``) seen through ``TreeNode`` views;
prediction walks every tree of a model at once. Beyond the presort ((d + 1)
ids per sample, and the (n, d) argsort that makes them) and a few entries
per open node (d per node for forest feature draws), no scratch array holds
more than max(``_BLOCK``, n) entries, n the largest node's sample count; a
forest grows at most ``_FOREST_SAMPLES`` samples per group of trees.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (FittedModel, FoldAssignment, LearnerSpec, child_seeds, expit, logit,
                   loss_logloss, make_folds, rng_from)

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
    "fit_tree",
    "tree_predict",
    "fit_forest",
    "fit_boost",
    "fit_learner",
]

KKT_TOL = 1e-7  # inner tolerance; the documented contract is 1e-6
# Iteration caps of the logistic IRLS and of the l1-logistic outer passes; a
# fit that reaches its cap unconverged is flagged ``iteration_cap``.
_IRLS_CAP = 100
_LOGIT_LASSO_CAP = 50
# Largest number of design entries in one stack of logistic fits; the scratch
# memory of the stacked IRLS is a few times this.
_STACK = 1 << 19
if sys.platform == "linux":
    # glibc's malloc thresholds follow the largest block freed so far; fixed at
    # import, a stacked IRLS iteration's arrays (_STACK float64s each) stay in the heap
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-1, 4 * 8 * _STACK)  # M_TRIM_THRESHOLD: four such arrays alive at once
    _mallopt(-3, 2 * 8 * _STACK)  # M_MMAP_THRESHOLD: twice one such array


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


def _check_binary(y: np.ndarray) -> None:
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("logistic target must be binary 0/1")
    if y.min() == y.max():
        raise ValueError("logistic target must contain both classes")


def _base_logit(y: np.ndarray) -> float:
    """The log-odds of mean(y), clipped into [1e-12, 1 - 1e-12]: where
    Bernoulli fits start."""
    return float(logit(np.clip(np.mean(y), 1e-12, 1 - 1e-12)))


def fit_logistic(
    features: np.ndarray,
    target: np.ndarray,
    ridge: float = 0.0,
) -> LinearModel:
    """Penalised Bernoulli MLE via iteratively reweighted least squares.

    ``ridge`` adds an l2 penalty on the slopes (never the intercept). With
    ridge=0, a fit whose slope norm passes 1e3 is refitted with ridge=1e-6
    and flagged ``separation_ridge``. That is the only separation test: a
    separated design whose score falls below 1e-8 first converges unflagged,
    with large but finite slopes. A fit still above that score after
    ``_IRLS_CAP`` Newton steps keeps its last iterate and is flagged
    ``iteration_cap``.
    """
    X, y = _check_matrix(features, target)
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    _check_binary(y)
    M = np.column_stack([np.ones(X.shape[0]), X])
    beta, flags = _irls(M[None], y, float(ridge))
    return _logistic_model(beta[0], flags[0])


def _fit_logistic_candidates(features: np.ndarray, target: np.ndarray, base, extra) -> list[LinearModel]:
    """``fit_logistic(features[:, base + (j,)], target)`` for each j in
    ``extra``, bit for bit, fitted as stacks of at most ``_STACK`` design
    entries."""
    X, y = _check_matrix(features, target)
    _check_binary(y)
    n, p = X.shape[0], len(base) + 2
    # BLAS results depend on the memory layout of the design fit_logistic
    # builds: C order from one column, Fortran order from a column subset
    c_order = np.column_stack([np.ones(n), X[:, list(base) + [extra[0]]]]).flags.c_contiguous
    size = max(1, _STACK // (n * p))
    models = []
    for i in range(0, len(extra), size):
        cols = list(extra[i:i + size])
        MT = np.empty((len(cols), p, n))
        MT[:, 0] = 1.0
        MT[:, 1:-1] = X[:, list(base)].T
        MT[:, -1] = X[:, cols].T
        M = MT.transpose(0, 2, 1)
        beta, flags = _irls(np.ascontiguousarray(M) if c_order else M, y, 0.0)
        models += [_logistic_model(b, f) for b, f in zip(beta, flags)]
    return models


def _logistic_model(beta: np.ndarray, flags: tuple[str, ...]) -> LinearModel:
    return LinearModel(float(beta[0]), beta[1:], flags)


def _penalised_loglik(M, y, pen, beta):
    """Linear predictors and penalised log-likelihoods of a stack of problems."""
    eta = np.matmul(M, beta[:, :, None])[:, :, 0]
    # log(1 + e^eta) - y*eta, computed stably
    ll = np.sum(y * eta - np.logaddexp(0.0, eta), axis=1)
    return eta, ll - 0.5 * np.matmul((beta * beta)[:, None, :], pen[:, None])[:, 0, 0]


def _irls(M: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, list]:
    """IRLS for each design of a (K, n, p) stack against one 0/1 target.

    Every problem follows its own sequence: convergence test, step halvings,
    the least-squares step when its Hessian is singular, separation and the
    iteration cap. Finished problems leave the stack. Returns the (K, p)
    coefficients (intercept first) and each problem's flags: a problem that
    separates at ridge 0 is refitted with ridge 1e-6 and gets the refit's
    flags and ``separation_ridge``; one still running at the cap gets
    ``iteration_cap``.
    """
    K, n, p = M.shape
    pen = np.full(p, ridge)
    pen[0] = 0.0
    pen_diag = np.diag(pen)
    out = np.empty((K, p))
    flags = [()] * K
    live = np.arange(K)
    beta = np.zeros((K, p))
    beta[:, 0] = _base_logit(y)
    eta, ll = _penalised_loglik(M, y, pen, beta)

    def drop(gone):
        nonlocal M, live, beta, eta, ll
        keep = ~gone
        M, live, beta, eta, ll = M[keep], live[keep], beta[keep], eta[keep], ll[keep]

    for _ in range(_IRLS_CAP):
        p_hat = expit(eta)
        MT = M.transpose(0, 2, 1)
        score = np.matmul(MT, (y - p_hat)[:, :, None])[:, :, 0] - pen * beta
        done = np.abs(score).max(axis=1) < 1e-8
        if done.any():
            out[live[done]] = beta[done]
            drop(done)
            if not live.size:
                return out, flags
            p_hat, score, MT = p_hat[~done], score[~done], M.transpose(0, 2, 1)
        w = np.maximum(p_hat * (1.0 - p_hat), 1e-10)
        H = np.matmul(MT, M * w[:, :, None]) + pen_diag
        try:
            step = np.linalg.solve(H, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack([_newton_step(h, s) for h, s in zip(H, score)])
        # an accepted step keeps its eta and log-likelihood
        cand = beta + step
        eta_c, ll_c = _penalised_loglik(M, y, pen, cand)
        # the acceptance slack is four float spacings of |ll| where that is
        # above 1e-12 (large n): else rounding rejects the steps near the optimum
        floor = ll - np.maximum(1e-12, 4.0 * np.spacing(np.abs(ll)))
        ok = ll_c >= floor
        if not ok.all():
            _halve(M, y, pen, beta, step, floor, ok, cand, eta_c, ll_c)
        beta, eta, ll = cand, eta_c, ll_c
        if ridge == 0.0:
            norm = np.sqrt(np.matmul(beta[:, None, 1:], beta[:, 1:, None])[:, 0, 0])
            gone = norm > 1e3
            if gone.any():
                out[live[gone]], refit_flags = _irls(M[gone], y, 1e-6)
                for k, f in zip(live[gone], refit_flags):
                    flags[k] = f + ("separation_ridge",)
                drop(gone)
                if not live.size:
                    return out, flags
    out[live] = beta
    for k in live:
        flags[k] = ("iteration_cap",)
    return out, flags


def _halve(M, y, pen, beta, step, floor, ok, cand, eta_c, ll_c):
    """Step halving, which keeps IRLS monotone on awkward designs: each
    problem whose full step fell below ``floor`` (``ok`` false) tries up to
    29 halved steps; if all fail, it moves by the step halved a 30th time
    without testing it. Writes the results into the rows of ``cand``,
    ``eta_c`` and ``ll_c``."""
    todo = np.flatnonzero(~ok)
    M, beta, step, floor = M[todo], beta[todo], step[todo], floor[todo]
    for _ in range(29):
        step = step / 2.0
        c = beta + step
        e, lc = _penalised_loglik(M, y, pen, c)
        acc = lc >= floor
        cand[todo[acc]], eta_c[todo[acc]], ll_c[todo[acc]] = c[acc], e[acc], lc[acc]
        if acc.all():
            return
        if acc.any():
            keep = ~acc
            todo, M, beta, step, floor = todo[keep], M[keep], beta[keep], step[keep], floor[keep]
    c = beta + step / 2.0
    cand[todo] = c
    eta_c[todo], ll_c[todo] = _penalised_loglik(M, y, pen, c)


def _newton_step(H: np.ndarray, score: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, score)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, score, rcond=None)[0]


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


def _soft(z: float, t: float) -> float:
    """``np.sign(z) * np.maximum(np.abs(z) - t, 0.0)`` on Python floats, signed
    zeros and nan included (``np.sign`` of either zero is +0.0)."""
    m = abs(z) - t
    if m > 0.0:
        return m if z > 0.0 else -m if z < 0.0 else 0.0 * m
    if m <= 0.0:
        return -0.0 if z < 0.0 else 0.0
    return m


def _py_floats(a: np.ndarray, ok: np.ndarray) -> list:
    """``a`` as Python floats, or as numpy scalars when a live entry is zero:
    dividing by it must give numpy's inf or nan, not ZeroDivisionError."""
    return a.tolist() if a[ok].all() else list(a)


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
    idx = np.flatnonzero(ok).tolist()
    GF = np.asfortranarray(G)
    cols = [GF[:, j] for j in idx]
    diag, cl, b = _py_floats(np.diagonal(G), ok), c.tolist(), beta.tolist()
    q = G @ beta
    for _ in range(max_pass):
        for j, g_j in zip(idx, cols):
            rho = cl[j] - q.item(j) + diag[j] * b[j]
            b_new = _soft(rho, lam) / diag[j]
            delta = b_new - b[j]
            if delta != 0.0:
                b[j] = b_new
                q += g_j * delta
        beta[:] = b
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
    intercept, coef = _lasso_path(X, y, [lam])[0]
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


def default_lambda_grid(features: np.ndarray, target: np.ndarray, n_lambda: int = 100,
                        ratio: float = 1e-4) -> np.ndarray:
    """``n_lambda`` penalties falling geometrically from ``lasso_lambda_max``
    to ``ratio`` times it; [0.0] when every penalty would be zero."""
    lmax = lasso_lambda_max(features, target)
    if lmax <= 0:
        return np.array([0.0])
    return np.geomspace(lmax, lmax * ratio, n_lambda)


def _cv_penalty(X, y, lambda_grid, folds, fold_losses) -> float:
    """The grid penalty with the smallest mean held-out loss over the blocks
    of ``folds``, the first on exact ties: the grid must be descending, so
    ties resolve toward the larger penalty (more regularisation).
    ``fold_losses(X_tr, y_tr, X_te, y_te, lams)`` gives one held-out loss per
    penalty."""
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size < 1:
        raise ValueError("lambda grid must be non-empty")
    if lams.size > 1 and not (np.diff(lams) <= 0).all():
        raise ValueError("lambda grid must be descending")
    folds.check_rows(X.shape[0])
    losses = np.array([fold_losses(X[tr], y[tr], X[te], y[te], lams) for tr, te in folds.blocks])
    return float(lams[int(np.argmin(losses.mean(axis=0)))])


def _lasso_fold_losses(X_tr, y_tr, X_te, y_te, lams):
    return [float(np.mean((b0 + X_te @ coef - y_te) ** 2))
            for b0, coef in _lasso_path(X_tr, y_tr, lams)]


def lasso_cv(
    features: np.ndarray,
    target: np.ndarray,
    folds: FoldAssignment,
    lambda_grid: np.ndarray,
) -> LassoFit:
    """Pick the penalty from ``lambda_grid`` by cross-validated MSE over
    ``folds`` and refit on all rows; the refit's ``lam`` is the chosen
    penalty.

    The grid must be descending; exact risk ties resolve toward the larger
    penalty (more regularisation).
    """
    X, y = _check_matrix(features, target)
    return fit_lasso(X, y, _cv_penalty(X, y, lambda_grid, folds, _lasso_fold_losses))


# ---------------------------------------------------------------------------
# l1-penalised logistic regression (for propensity model paths)
# ---------------------------------------------------------------------------


def fit_logistic_lasso(
    features: np.ndarray,
    target: np.ndarray,
    lam: float,
) -> LinearModel:
    """l1-penalised logistic regression via proximal coordinate descent.

    Each of at most ``_LOGIT_LASSO_CAP`` outer passes forms the usual quadratic
    (working-response) approximation; the inner loop soft-thresholds one
    standardized coordinate at a time. The objective is the mean negative
    Bernoulli log-likelihood, (1/n) sum_i [log(1 + exp(eta_i)) - y_i eta_i]
    with eta_i = b0 + z_i @ b, plus ``lam`` * ||b||_1, where z_i is row i on
    columns standardised to mean 0 and population sd 1 (constant columns
    dropped) and the intercept b0 is unpenalised. The returned coefficients
    are mapped back to the original columns. A fit that ends its last pass
    unconverged is flagged ``iteration_cap``.
    """
    X, y = _check_matrix(features, target)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("target must be binary 0/1")
    n = X.shape[0]
    Xs, mu, sd, ok = _standardize(X)
    XsF = np.asfortranarray(Xs)
    idx = np.flatnonzero(ok).tolist()
    cols = [XsF[:, j] for j in idx]
    b0 = _base_logit(y)
    beta = np.zeros(X.shape[1])
    flags: tuple[str, ...] = ()
    for _ in range(_LOGIT_LASSO_CAP):
        b0_old, beta_old = b0, beta
        lin = Xs @ beta
        p = np.clip(expit(b0 + lin), 1e-8, 1 - 1e-8)
        w = p * (1.0 - p)
        z = (b0 + lin) + (y - p) / w
        denom = _py_floats((Xs * Xs * w[:, None]).sum(axis=0) / n, ok)
        r = z - b0 - lin
        w_sum = float(w.sum())
        WX = XsF * w[:, None]  # column j is w * Xs[:, j]
        wcols = [WX[:, j] for j in idx]
        b = beta.tolist()
        for _ in range(200):
            b0_new = b0 + float(w @ r) / w_sum
            r -= b0_new - b0
            max_step = abs(b0_new - b0)
            b0 = b0_new
            for j, x_j, wx_j in zip(idx, cols, wcols):
                rho = float(wx_j @ r) / n + denom[j] * b[j]
                b_new = _soft(rho, lam) / denom[j]
                delta = b_new - b[j]
                if delta != 0.0:
                    r -= x_j * delta
                    b[j] = b_new
                    max_step = max(max_step, abs(delta))
            if max_step < 1e-10:
                break
        beta = np.array(b)
        if abs(b0 - b0_old) + float(np.max(np.abs(beta - beta_old), initial=0.0)) < 1e-8:
            break
    else:
        flags = ("iteration_cap",)
    coef = np.zeros(X.shape[1])
    coef[ok] = beta[ok] / sd[ok]
    return LinearModel(b0 - float(mu @ coef), coef, flags)


def _logistic_lasso_fold_losses(X_tr, y_tr, X_te, y_te, lams, flags=None):
    """Held-out log-loss of the l1 logit at each penalty; the fits' flags go
    into the ordered set ``flags``, if given."""
    fits = [fit_logistic_lasso(X_tr, y_tr, float(lam)) for lam in lams]
    if flags is not None:
        flags.update(dict.fromkeys(f for fit in fits for f in fit.flags))
    return [loss_logloss(fit.predict_proba(X_te), y_te) for fit in fits]


# ---------------------------------------------------------------------------
# trees, forests, boosting
# ---------------------------------------------------------------------------

# Largest number of elements in one padded scoring or partition block (a
# larger node takes one of its own): the scratch-memory bound of a step.
_BLOCK = 1 << 15
# Padding a scoring block may carry beyond its real entries (an entry costs
# about as much as a numpy call's overhead over a few hundred entries).
_PAD = 1 << 12
# Largest number of bootstrap samples a forest grows at once; trees beyond
# it are grown in further groups, which bounds the per-sample buffers.
_FOREST_SAMPLES = 1 << 17
# Open nodes, beyond one per _BLOCK scoring entries, up to which a level is
# grown node by node (see _Grower.grow): the measured crossover, where the
# block step's per-level bookkeeping stops costing more than one numpy call
# per node.
_FEW = 4
_EPS = np.finfo(float).eps


def _reserve(a: np.ndarray, need: int, fill) -> np.ndarray:
    """``a`` itself, or a copy with room for ``need`` entries (new ones = fill)."""
    if need <= a.size:
        return a
    out = np.full(max(need, 2 * a.size, 64), fill, dtype=a.dtype)
    out[:a.size] = a
    return out


class _Nodes:
    """Flat node table shared by the trees of one fit.

    The children of internal node ``i`` are ``left[i]`` and ``left[i] + 1``.
    Leaves have ``left == feature == -1``; ``value`` holds leaf values and is
    nan on internal nodes.
    """

    def __init__(self) -> None:
        self.size = 0
        self.feature = np.empty(0, np.int32)
        self.left = np.empty(0, np.int32)
        self.threshold = np.empty(0)
        self.value = np.empty(0)

    def add(self, k: int) -> int:
        """Append ``k`` leaves; returns the id of the first."""
        first, self.size = self.size, self.size + k
        self.feature = _reserve(self.feature, self.size, -1)
        self.left = _reserve(self.left, self.size, -1)
        self.threshold = _reserve(self.threshold, self.size, 0.0)
        self.value = _reserve(self.value, self.size, np.nan)
        return first

    def trim(self) -> None:
        for name in ("feature", "left", "threshold", "value"):
            setattr(self, name, getattr(self, name)[:self.size].copy())


class TreeNode:
    """View of one node of a fitted tree; a leaf has ``left is None``.

    ``value`` is the leaf's fitted value (nan on internal nodes); an internal
    node sends a row left when ``x[feature] <= threshold``.
    """

    __slots__ = ("_nodes", "_id")

    def __init__(self, nodes: _Nodes, node_id: int) -> None:
        self._nodes = nodes
        self._id = node_id

    @property
    def is_leaf(self) -> bool:
        return bool(self._nodes.left[self._id] < 0)

    @property
    def left(self) -> "TreeNode | None":
        c = int(self._nodes.left[self._id])
        return None if c < 0 else TreeNode(self._nodes, c)

    @property
    def right(self) -> "TreeNode | None":
        c = int(self._nodes.left[self._id])
        return None if c < 0 else TreeNode(self._nodes, c + 1)

    @property
    def feature(self) -> int:
        return int(self._nodes.feature[self._id])

    @property
    def threshold(self) -> float:
        return float(self._nodes.threshold[self._id])

    @property
    def value(self) -> float:
        return float(self._nodes.value[self._id])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs, in order."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _chunks(counts: np.ndarray, width: int = 1):
    """(i, j) runs of consecutive segments with at most _BLOCK entries in
    all (``width`` per sample), and at least one segment each."""
    cum = np.cumsum(counts, dtype=np.int64) * width
    i = 0
    while i < counts.size:
        j = max(i + 1, int(np.searchsorted(cum, _BLOCK + (cum[i - 1] if i else 0), side="right")))
        yield i, j
        i = j


def _presort(X: np.ndarray, src=None, n_trees: int = 1) -> np.ndarray:
    """(d + 1, S) int32 sample ids. Sample s is row ``src[s]`` of X (row s
    without ``src``) and tree t owns samples [t*m, (t+1)*m). Within each
    tree's segment, row j < d sorts the samples stably by feature j and
    row d lists them in order."""
    S = X.shape[0] if src is None else src.size
    m = S // n_trees
    order = np.empty((X.shape[1] + 1, S), np.int32)
    order[-1] = np.arange(S)
    for t in range(n_trees):
        seg = slice(t * m, (t + 1) * m)
        Xt = X if src is None else X[src[seg]]
        order[:-1, seg] = np.argsort(Xt, axis=0, kind="stable").T + t * m
    return order


def _margin(best, sse, scale, count):
    """A split's child SSE less the parent SSE from prefix sums (and 1e-12),
    and the margin within which rounding may decide the sign of that gap;
    elementwise over arrays or for one node's scalars."""
    return best - (sse - 1e-12), 8.0 * (count + 2) * _EPS * scale


class _Grower:
    """Exact greedy growth of a batch of trees over presorted columns.

    Samples are numbered 0..S-1 and sample s sits in row ``src[s]`` of the
    design (``src=None``: row s); tree ``t`` starts with the segment
    ``[t*m, (t+1)*m)`` of every row of ``order``. Each open node owns one
    segment, the same in all rows: row j < d lists its samples sorted by
    (feature j, sample id) and row d in sample order. Splitting a node
    partitions its segment stably in every row, so no node sorts again.

    ``grow`` gives each level the per-node step (``_each``: one node per
    numpy call, on plain slices of its segment, with the decision and the
    node table in scalars) or the block step (``_best``, ``_split``: many
    nodes per call). Both score with ``_score`` and decide with ``_margin``
    and ``_beats_parent``; ``set_leaves`` sums a few leaves one at a time.
    """

    def __init__(self, nodes, XT, y, src, order, n_trees, max_depth, min_leaf):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.nodes, self.XT, self.y, self.src, self.order = nodes, XT, y, src, order
        self.d = XT.shape[0]
        # flat views: entry (j, s) of order is oflat[j*S + s], X[r, j] is xflat[j*n + r]
        self.oflat, self.xflat = order.reshape(-1), XT.reshape(-1)
        self.max_depth = np.iinfo(np.int32).max if max_depth is None else max_depth
        self.min_leaf = min_leaf
        self.is_left = np.zeros(y.size, bool)
        # growth data by node id - base: segment start and length, depth, tree
        self.base = nodes.add(n_trees)
        m = y.size // n_trees
        self.start = np.arange(n_trees, dtype=np.int32) * m
        self.count = np.full(n_trees, m, np.int32)
        self.depth = np.zeros(n_trees, np.int32)
        self.tree = np.arange(n_trees, dtype=np.int32)
        self.leaves: list[np.ndarray] = []

    def grow(self, rngs=None, mtry=None):
        """Grow every tree level by level; returns the root ids.

        Open nodes stay grouped by tree, and within a tree in level order
        (parents in order, left child first). With ``mtry`` < d each tree's
        generator draws the feature subsets of all its open nodes of a level
        in one call: the sorted first ``mtry`` columns of
        ``rng.random((k, d)).argsort(axis=1)``, one row per node. A level
        takes the per-node step when its open nodes number at most ``_FEW``
        plus one per ``_BLOCK`` entries its scoring reads.
        """
        roots = level = np.arange(self.tree.size)
        draws = rngs is not None and mtry < self.d
        f = mtry if draws else self.d
        while level.size:
            each = level.size <= _FEW + f * int(self.count[level].sum()) // _BLOCK
            term = self._terminal(level, each)
            self.leaves.append(level[term])
            ready = level[~term]
            if not ready.size:
                break
            if draws:
                trees, k = np.unique(self.tree[ready], return_counts=True)
                keys = np.concatenate([rngs[t].random((c, self.d))
                                       for t, c in zip(trees.tolist(), k.tolist())])
                feats = np.sort(keys.argsort(axis=1)[:, :mtry], axis=1)
            else:
                feats = np.broadcast_to(np.arange(self.d), (ready.size, self.d))
            if each:
                level = self._each(ready, feats)
            else:
                split, feat, thr = self._best(ready, feats)
                self.leaves.append(ready[~split])
                level = self._split(ready[split], feat[split], thr[split])
        return self.base + roots

    def set_leaves(self, vecs, combine):
        """Give every leaf the value ``combine(sums, counts)``, where ``sums``
        holds each vector's sum over the leaf's samples in sample order.
        Returns the leaves' (starts, counts, values).

        Up to ``_FEW`` leaves are summed one at a time from slices; more are
        grouped by length, and leaves of one length summed as rows of one
        C-contiguous block, which numpy reduces exactly as it reduces each
        leaf's own array.
        """
        leaves = np.concatenate(self.leaves)
        starts, counts = self.start[leaves], self.count[leaves]
        sums = [np.empty(leaves.size) for _ in vecs]
        if leaves.size <= _FEW:
            for u, (a, c) in enumerate(zip(starts.tolist(), counts.tolist())):
                samp = self.order[self.d, a:a + c]
                for out, v in zip(sums, vecs):
                    out[u] = v.take(samp).sum()
        else:
            by_len = np.argsort(counts, kind="stable")
            for same in np.split(by_len, np.flatnonzero(np.diff(counts[by_len])) + 1):
                c = int(counts[same[0]])
                step = max(1, _BLOCK // c)
                for i in range(0, same.size, step):
                    grp = same[i:i + step]
                    samp = self.order[self.d].take(starts[grp][:, None] + np.arange(c))
                    for out, v in zip(sums, vecs):
                        out[grp] = v.take(samp).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = combine(sums, counts)
        self.nodes.value[leaves + self.base] = values
        return starts, counts, values

    # -- per level -----------------------------------------------------------

    def _terminal(self, ids, each):
        """Nodes that stay leaves without a draw: at depth, too small, or with
        a constant target (with ``each``, tested one node at a time)."""
        term = (self.depth[ids] >= self.max_depth) | (self.count[ids] < 2 * self.min_leaf)
        rest = np.flatnonzero(~term)
        if each:
            for u in rest.tolist():
                a, c = int(self.start[ids[u]]), int(self.count[ids[u]])
                vals = self.y.take(self.order[self.d, a:a + c])
                term[u] = not (vals != vals[0]).any()
        elif rest.size:
            term[rest] = self._pure(ids[rest])
        return term

    def _pure(self, ids):
        """Whether each node's target is constant over its samples."""
        out = np.empty(ids.size, bool)
        starts, counts = self.start[ids], self.count[ids]
        for i, j in _chunks(counts):
            c = counts[i:j]
            vals = self.y.take(self.order[self.d].take(_ranges(starts[i:j], c)))
            rel = np.cumsum(c) - c
            differs = np.concatenate(([0], np.cumsum(vals != np.repeat(vals[rel], c))))
            out[i:j] = differs[rel + c] == differs[rel]
        return out

    def _each(self, ready, feats):
        """The per-node step: score, decide, partition and record each ready
        node on its own; returns the children in order, left before right."""
        d, kids = self.d, []
        for u, i in enumerate(ready.tolist()):
            a, c = int(self.start[i]), int(self.count[i])
            best, sse, scale, f, t = (v[0] for v in self._score(
                ready[u:u + 1], feats[u:u + 1], self.count[i:i + 1]))
            gap, margin = _margin(best, sse, scale, c)
            if not (self._beats_parent(i, best) if abs(gap) <= margin and np.isfinite(best)
                    else gap < -margin):
                self.leaves.append(ready[u:u + 1])
                continue
            samp = self.order[d, a:a + c]
            left = self.XT[f].take(samp if self.src is None else self.src.take(samp)) <= t
            self.is_left[samp] = left
            nl = int(np.count_nonzero(left))
            deep = self.depth[i] + 1 < self.max_depth and max(nl, c - nl) >= 2 * self.min_leaf
            self._cut(np.arange(d + 1) if deep else np.array([d]), a, a + nl, a + c)
            first = self._add(2)
            self.start[first], self.start[first + 1] = a, a + nl
            self.count[first], self.count[first + 1] = nl, c - nl
            self.depth[first:first + 2] = self.depth[i] + 1
            self.tree[first:first + 2] = self.tree[i]
            g = i + self.base
            self.nodes.feature[g], self.nodes.threshold[g], self.nodes.left[g] = f, t, first + self.base
            kids += [first, first + 1]
        return np.array(kids, np.int64)

    def _best(self, ready, feats):
        """Best split of each ready node and whether it is taken."""
        counts = self.count[ready]
        k, f = feats.shape
        best, sse, scale = np.empty(k), np.empty(k), np.empty(k)
        feat, thr = np.empty(k, np.int64), np.empty(k)
        # Blocks of nodes padded to the longest one: a block takes the next
        # longest nodes while its padding stays within _PAD entries.
        by_size = np.argsort(-counts, kind="stable")
        sizes = counts[by_size].astype(np.int64)
        real = np.cumsum(sizes)
        i = 0
        while i < k:
            mb = int(sizes[i])
            pad = (np.arange(1, k - i + 1) * mb - (real[i:] - (real[i - 1] if i else 0))) * f
            j = i + int(np.searchsorted(pad, _PAD, side="right"))
            j = min(j, i + max(1, _BLOCK // (f * mb)))
            blk = by_size[i:j]
            best[blk], sse[blk], scale[blk], feat[blk], thr[blk] = self._score(
                ready[blk], feats[blk], counts[blk])
            i = j
        gap, margin = _margin(best, sse, scale, counts)
        split = gap < -margin
        for u in np.flatnonzero((np.abs(gap) <= margin) & np.isfinite(best)):
            split[u] = self._beats_parent(ready[u], best[u])
        return split, feat, thr

    def _beats_parent(self, i, best):
        """Whether child SSE ``best`` beats node i's parent SSE, summed
        pairwise in sample order as a per-node fit would, by over 1e-12."""
        a = self.start[i]
        sub = self.y[self.order[self.d, a:a + self.count[i]]]
        mean = float(sub.mean())
        return not best >= float(np.sum((sub - mean) ** 2)) - 1e-12

    def _score(self, ids, feats, counts):
        """Score every split of a block of nodes.

        Returns the best total child SSE (inf if none is valid), the parent
        SSE from prefix sums with the sum of squares that bounds its error,
        and the feature and threshold of the best split: the midpoint of the
        two values it falls between, or the lower one when the midpoint is not
        below the upper. Ties go to the lowest feature, then the lowest
        threshold.

        A node scored on its own reads slices of its segment, a group of
        features at a time, each group of at most max(_BLOCK, node size)
        entries. One flat argmin is feature-major and its first minimum wins,
        so a later group wins only when strictly lower; the parent SSE comes
        from the first feature's sums either way.
        """
        k, f = feats.shape
        mb = int(counts.max())
        if k > 1:
            # padding repeats a node's last sample, so no split is valid there
            pos = self.start[ids][:, None] + np.minimum(np.arange(mb), counts[:, None] - 1)
            return self._scan(self.oflat.take(feats[:, :, None] * self.y.size + pos[:, None, :]),
                              feats, counts)
        a, step = int(self.start[ids[0]]), max(1, _BLOCK // mb)
        for g in range(0, f, step):
            grp = feats[:, g:g + step]
            new = self._scan(self.order[grp[0], a:a + mb][None], grp, counts)
            if g == 0 or new[0][0] < out[0][0]:
                out = new if g == 0 else new[:1] + out[1:3] + new[3:]
        return out

    def _scan(self, samp, feats, counts):
        """``_score`` of k nodes over their (k, f, mb) sample ids ``samp``,
        row (i, j) listing node i's samples in the order of its feature j."""
        k, f, mb = samp.shape
        rows = samp if self.src is None else self.src.take(samp)
        xs = self.xflat.take(feats[:, :, None] * self.XT.shape[1] + rows)
        ys = self.y.take(samp)
        c1 = ys.cumsum(axis=2)
        c2 = (ys * ys).cumsum(axis=2)
        rows = np.arange(k)
        at = rows[:, None], np.arange(f), (counts - 1)[:, None]
        t1, t2 = c1[at][:, :, None], c2[at][:, :, None]
        c1, c2 = c1[..., :-1], c2[..., :-1]
        j = np.arange(1.0, mb)  # left-child sizes
        n_j = counts[:, None, None] - j
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sse = (c2 - c1 ** 2 / j) + ((t2 - c2) - (t1 - c1) ** 2 / n_j)
            valid = (xs[..., 1:] > xs[..., :-1]) & (j >= self.min_leaf) & (n_j >= self.min_leaf)
            total = np.where(valid, sse, np.inf).reshape(k, -1)
            flat = total.argmin(axis=1)
            slot, p = np.divmod(flat, mb - 1)
            lo, hi = xs[rows, slot, p], xs[rows, slot, p + 1]
            mid = (lo + hi) / 2.0
        # a midpoint that rounds up to (or overflows past) the upper value
        # would send every row left; the lower value splits the same rows
        thr = np.where(mid < hi, mid, lo)
        s1, s2 = t1[:, 0, 0], t2[:, 0, 0]
        return total[rows, flat], s2 - s1 ** 2 / counts, s2, feats[rows, slot], thr

    def _split(self, ids, feat, thr):
        """Split nodes ``ids``; returns their children in order, left before right."""
        starts, counts, d = self.start[ids], self.count[ids], self.d
        n_left = np.empty(ids.size, np.int32)
        for i, j in _chunks(counts):
            c = counts[i:j]
            samp = self.order[d].take(_ranges(starts[i:j], c))
            rows = samp if self.src is None else self.src.take(samp)
            x = self.xflat.take(np.repeat(feat[i:j] * self.XT.shape[1], c) + rows)
            goes_left = x <= np.repeat(thr[i:j], c)
            self.is_left[samp] = goes_left
            n_left[i:j] = np.add.reduceat(goes_left.astype(np.int32), np.cumsum(c) - c)
        # children that can split again need every row; the others only row d
        deep = ((self.depth[ids] + 1 < self.max_depth)
                & (np.maximum(n_left, counts - n_left) >= 2 * self.min_leaf))
        self._partition(np.arange(d + 1) if deep.any() else np.array([d]), starts, counts, n_left)
        first = self._add(2 * ids.size)
        new = first + 2 * ids.size
        self.start[first:new:2], self.start[first + 1:new:2] = starts, starts + n_left
        self.count[first:new:2], self.count[first + 1:new:2] = n_left, counts - n_left
        self.depth[first:new] = np.repeat(self.depth[ids] + 1, 2)
        self.tree[first:new] = np.repeat(self.tree[ids], 2)
        g = ids + self.base
        self.nodes.feature[g], self.nodes.threshold[g] = feat, thr
        self.nodes.left[g] = np.arange(first, new, 2) + self.base
        return np.arange(first, new)

    def _partition(self, cols, starts, counts, n_left):
        """Stable left/right partition of the segments in the given rows."""
        rows = (cols * self.y.size)[:, None]
        for i, j in _chunks(counts, cols.size):
            a, c, nl = starts[i:j], counts[i:j], n_left[i:j]
            if j == i + 1:
                self._cut(cols, int(a[0]), int(a[0] + nl[0]), int(a[0] + c[0]))
            else:
                samp = self.oflat.take(rows + _ranges(a, c))
                left = self.is_left.take(samp).ravel()
                # each segment has the same left count in every row, so the
                # row-major left and right runs land on fixed positions
                self.oflat[rows + _ranges(a, nl)] = samp.compress(left).reshape(cols.size, -1)
                self.oflat[rows + _ranges(a + nl, c - nl)] = samp.compress(~left).reshape(cols.size, -1)

    def _cut(self, cols, lo, mid, hi):
        """Stable partition of the one segment [lo, hi) in the given rows,
        ``mid - lo`` samples to the left, with plain slices, in groups of
        rows of at most max(_BLOCK, hi - lo) entries."""
        step = max(1, _BLOCK // (hi - lo))
        for r in range(0, cols.size, step):
            grp = cols[r:r + step]
            samp = self.order[grp, lo:hi]
            left = self.is_left.take(samp).ravel()
            self.order[grp, lo:mid] = samp.compress(left).reshape(grp.size, -1)
            self.order[grp, mid:hi] = samp.compress(~left).reshape(grp.size, -1)

    def _add(self, k):
        """Append ``k`` nodes to the table and the growth data; returns the
        first one's id less ``base``."""
        first = self.nodes.add(k) - self.base
        for name in ("start", "count", "depth", "tree"):
            setattr(self, name, _reserve(getattr(self, name), first + k, 0))
        return first


def _leaf_ids(nodes: _Nodes, roots, X: np.ndarray) -> np.ndarray:
    """Leaf reached by each row of X from each root: (len(roots), n) ids."""
    n, d = X.shape
    if nodes.size and int(nodes.feature[:nodes.size].max()) >= d:
        raise ValueError(f"X has {d} columns; the trees split on column "
                         f"{int(nodes.feature[:nodes.size].max())}")
    flat = X.ravel()
    node = np.repeat(np.asarray(roots, dtype=np.int64), n)
    live = np.arange(node.size)
    while live.size:
        cur = node[live]
        f = nodes.feature[cur]
        inner = f >= 0
        live, cur, f = live[inner], cur[inner], f[inner]
        go_right = ~(flat[(live % n) * d + f] <= nodes.threshold[cur])
        node[live] = nodes.left[cur] + go_right
    return node.reshape(len(roots), n)


def _add_trees(trees, X, acc, scale=None) -> np.ndarray:
    """acc += [scale *] tree_predict(t, X) for each tree, in tree order."""
    X = np.ascontiguousarray(X, dtype=float)
    step = max(1, _BLOCK // max(X.shape[0], 1))
    i = 0
    while i < len(trees):
        nodes = trees[i]._nodes
        j = i + 1
        while j < len(trees) and j - i < step and trees[j]._nodes is nodes:
            j += 1
        vals = nodes.value[_leaf_ids(nodes, [t._id for t in trees[i:j]], X)]
        if scale is not None:
            vals *= scale
        for v in vals:  # one tree at a time keeps the sums sequential
            acc += v
        i = j
    return acc


def fit_tree(
    features: np.ndarray,
    target: np.ndarray,
    max_depth: int = 6,
    min_leaf: int = 1,
) -> TreeNode:
    """Greedy binary regression tree minimising child-weighted squared error.

    Splits sit at midpoints of sorted distinct values (at the lower value
    where the midpoint rounds up to the upper one); ties in impurity go to
    the lowest feature, then the lowest threshold. A node stays a leaf at
    ``max_depth``, below ``2 * min_leaf`` rows, with a constant target, or
    when no split lowers its squared error by more than 1e-12.
    """
    X, y = _check_matrix(features, target)
    nodes = _Nodes()
    grower = _Grower(nodes, np.ascontiguousarray(X.T), y, None, _presort(X), 1,
                     max_depth, min_leaf)
    root = grower.grow()[0]
    grower.set_leaves([y], lambda s, c: s[0] / c)
    nodes.trim()
    return TreeNode(nodes, int(root))


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    return root._nodes.value[_leaf_ids(root._nodes, [root._id], X)[0]]


@dataclass(frozen=True)
class ForestModel:
    """Bagged trees; the prediction is the unweighted mean over trees."""

    trees: tuple[TreeNode, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        acc = _add_trees(self.trees, X, np.zeros(np.shape(X)[0]))
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
) -> ForestModel:
    """Random forest: bootstrap rows per tree, fresh feature subset per split.

    Tree i draws its bootstrap rows from ``rng_from(child_seeds(seed,
    n_trees)[i])``, then grows level by level, drawing from the same
    generator one sorted ``mtry``-subset per open node of each level (see
    ``_Grower.grow``). Trees are grown together, in groups of at most
    ``_FOREST_SAMPLES`` samples.
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
    XT = np.ascontiguousarray(X.T)
    nodes = _Nodes()
    roots = []
    n_groups = -(-n_trees * n // _FOREST_SAMPLES)
    group = -(-n_trees // n_groups)
    for g0 in range(0, n_trees, group):
        rngs = [rng_from(s) for s in seeds[g0:g0 + group]]
        src = np.concatenate([rng.integers(0, n, size=n) for rng in rngs]).astype(np.int32)
        order = _presort(X, src, len(rngs))
        ys = y[src]
        grower = _Grower(nodes, XT, ys, src, order, len(rngs), max_depth, min_leaf)
        roots.extend(grower.grow(rngs, mtry).tolist())
        grower.set_leaves([ys], lambda s, c: s[0] / c)
        # free this group's buffers before the next group draws its own
        del grower, order, ys, src
    nodes.trim()
    return ForestModel(tuple(TreeNode(nodes, r) for r in roots))


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
        return _add_trees(self.trees, X, np.full(np.shape(X)[0], self.f0), self.nu)

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = self.predict_raw(X)
        return expit(raw) if self.loss == "bernoulli" else raw


def _boost_stage(nodes, XT, order, g, h, max_depth, min_leaf, fitted):
    """One boosting stage: tree grown on the gradient, Newton leaf values.

    h=None means squared loss, where the gradient-mean leaves are already the
    exact minimisers. ``order`` is the presort of the training rows; each
    row's leaf value is written to ``fitted``.
    """
    grower = _Grower(nodes, XT, g, None, order.copy(), 1, max_depth, min_leaf)
    root = grower.grow()[0]
    if h is None:
        starts, counts, values = grower.set_leaves([g], lambda s, c: s[0] / c)
    else:
        starts, counts, values = grower.set_leaves(
            [g, h], lambda s, c: s[0] / np.maximum(s[1], 1e-6))
    fitted[grower.order[grower.d, _ranges(starts, counts)]] = np.repeat(values, counts)
    return TreeNode(nodes, int(root))


def fit_boost(
    features: np.ndarray,
    target: np.ndarray,
    n_trees: int = 100,
    max_depth: int | None = 3,
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
    ``max_depth=None`` grows every stage tree without a depth limit.
    """
    X, y = _check_matrix(features, target)
    if not 0 < shrinkage <= 1:
        raise ValueError("shrinkage must be in (0, 1]")
    if n_trees < 1 or (max_depth is not None and max_depth < 1):
        raise ValueError("n_trees and max_depth must be >= 1")
    if loss not in ("squared", "bernoulli"):
        raise ValueError(f"unknown boosting loss {loss!r}")
    if loss == "bernoulli" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("bernoulli boosting needs a binary 0/1 target")

    bernoulli = loss == "bernoulli"
    f0 = _base_logit(y) if bernoulli else float(y.mean())
    F = np.full(X.shape[0], f0)
    XT, order = np.ascontiguousarray(X.T), _presort(X)
    nodes = _Nodes()
    fitted = np.empty(X.shape[0])
    trees = []
    if callback is not None:
        callback(0, F)
    for t in range(1, n_trees + 1):
        if bernoulli:
            p = expit(F)
            stage = _boost_stage(nodes, XT, order, y - p, p * (1.0 - p), max_depth, min_leaf, fitted)
        else:
            stage = _boost_stage(nodes, XT, order, y - F, None, max_depth, min_leaf, fitted)
        F += shrinkage * fitted
        trees.append(stage)
        if callback is not None:
            callback(t, F)
    nodes.trim()
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
    "logistic": {"interactions"},
    "lasso": {"lam"},
    "tree": {"max_depth", "min_leaf"},
    "forest": {"n_trees", "mtry", "seed"},
    "boost": {"n_trees", "max_depth", "nu"},
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
        model = fit_logistic(Xd, y)
        flags = model.flags
        predict = lambda M: model.predict_proba(design(M))  # noqa: E731
        target_kind = "probability"
    elif spec.family == "lasso":
        lam = p.get("lam")
        if lam is None:
            model = lasso_cv(X, y, make_folds(X.shape[0], 5, 0), default_lambda_grid(X, y))
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
            seed=p.get("seed", 0),
        )
        predict = model.predict
    else:  # boost
        model = fit_boost(
            X, y,
            n_trees=p.get("n_trees", 100),
            max_depth=p.get("max_depth", 3),
            shrinkage=p.get("nu", 0.1),
            loss="bernoulli" if target_kind == "probability" else "squared",
        )
        predict = model.predict

    return FittedModel(predict, target_kind, flags)
