"""The logistic and lasso solvers as they were before the stacked IRLS and
the scalar coordinate descent, kept verbatim as the reference the current
solvers must equal bit for bit (``tests/test_solvers.py``)."""

import numpy as np
from scipy.special import expit, logit

from ateml.learners import LinearModel

KKT_TOL = 1e-7  # inner tolerance; the documented contract is 1e-6


def _check_matrix(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("need an (n, d) matrix and a length-n target")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in features or target")
    return X, y


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
