"""Computations made apart from ateml, against which the benchmark checks its
outputs: the true ATE of each generator, the CSV arm means, a Newton logistic
fit, per-arm least squares, and 1:1 nearest-neighbour matching.

Only numpy is used here; nothing is imported from ateml except the generator
catalogue, whose coefficients define the data-generating process.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

TRIM = 0.01  # the CLI's default propensity clipping


@dataclass(frozen=True)
class Table:
    X: np.ndarray
    A: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]

    @property
    def binary(self) -> bool:
        return bool(np.isin(self.y, (0.0, 1.0)).all())


def read_csv(path: str) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.asarray(rows[1:], dtype=float)
    a, o = header.index("treatment"), header.index("outcome")
    cov = [j for j in range(len(header)) if j not in (a, o)]
    return Table(data[:, cov], data[:, a], data[:, o], tuple(header[j] for j in cov))


def expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def true_ate(spec) -> float:
    """Population ATE of a built-in generator.

    Continuous outcomes carry a constant effect. For a logit outcome,
    E[expit(g + tau) - expit(g)] is computed exactly over the Bernoulli cells
    and by Gauss-Hermite quadrature over the normal part of g, which is one
    normal variable because the normal columns are independent.
    """
    if spec.outcome_kind == "continuous":
        return float(spec.treatment_effect)
    if any(spec.outcome_quadratic):
        raise ValueError("quadrature assumes a linear outcome signal")
    beta = np.asarray(spec.outcome_coefficients, dtype=float)
    kinds = np.asarray(spec.covariate_kinds)
    bern = [j for j in range(spec.d) if kinds[j] == "bernoulli" and beta[j] != 0.0]
    sd = float(np.sqrt(np.sum(beta[kinds == "normal"] ** 2)))
    z, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / np.sqrt(2.0 * np.pi)
    total = 0.0
    for cell in range(2 ** len(bern)):
        bits = [(cell >> k) & 1 for k in range(len(bern))]
        prob, g = 1.0, spec.outcome_intercept
        for bit, j in zip(bits, bern):
            p = spec.bernoulli_p[j]
            prob *= p if bit else 1.0 - p
            g += beta[j] * bit
        gz = g + sd * z
        total += prob * float(w @ (expit(gz + spec.treatment_effect) - expit(gz)))
    return total


def naive(t: Table) -> float:
    return float(t.y[t.A == 1].mean() - t.y[t.A == 0].mean())


def newton_logistic(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unpenalised logistic MLE by plain Newton steps; returns (b0, b...)."""
    M = np.column_stack([np.ones(X.shape[0]), X])
    beta = np.zeros(M.shape[1])
    for _ in range(100):
        p = expit(M @ beta)
        score = M.T @ (y - p)
        if np.max(np.abs(score)) < 1e-11 * X.shape[0]:
            return beta
        beta = beta + np.linalg.solve(M.T @ (M * (p * (1.0 - p))[:, None]), score)
    raise RuntimeError("Newton logistic fit did not converge")


def _arm_fit(X, y, arm_mask, binary):
    """Predictions for every row from a fit on one arm's rows: logistic for a
    binary outcome, least squares otherwise."""
    Xa, ya = X[arm_mask], y[arm_mask]
    if binary:
        beta = newton_logistic(Xa, ya)
        return expit(beta[0] + X @ beta[1:])
    M = np.column_stack([np.ones(Xa.shape[0]), Xa])
    beta, *_ = np.linalg.lstsq(M, ya, rcond=None)
    return beta[0] + X @ beta[1:]


@dataclass(frozen=True)
class Parametric:
    """reg, iptw and aiptw estimates from the benchmark's own fits."""

    ps: np.ndarray
    reg: float
    iptw: float
    aiptw: float


def parametric(t: Table) -> Parametric:
    lo, hi = (0.0, 1.0) if t.binary else (float(t.y.min()), float(t.y.max()))
    beta = newton_logistic(t.X, t.A)
    ps = np.clip(expit(beta[0] + t.X @ beta[1:]), TRIM, 1.0 - TRIM)
    mu1 = np.clip(_arm_fit(t.X, t.y, t.A == 1, t.binary), lo, hi)
    mu0 = np.clip(_arm_fit(t.X, t.y, t.A == 0, t.binary), lo, hi)
    A, y = t.A, t.y
    iptw = float(np.mean(A * y / ps - (1.0 - A) * y / (1.0 - ps)))
    aiptw = float(np.mean(A * (y - mu1) / ps + mu1 - (1.0 - A) * (y - mu0) / (1.0 - ps) - mu0))
    return Parametric(ps, float(np.mean(mu1 - mu0)), iptw, aiptw)


def match_estimate(t: Table, ps: np.ndarray) -> float:
    """1:1 nearest-neighbour matching with replacement on ps; each unit's
    missing potential outcome comes from the closest opposite-arm unit."""
    y_match = np.empty_like(t.y)
    for arm in (0, 1):
        own = np.flatnonzero(t.A == arm)
        pool = np.flatnonzero(t.A != arm)
        order = np.argsort(ps[pool], kind="stable")
        sp = ps[pool][order]
        pos = np.clip(np.searchsorted(sp, ps[own]), 1, sp.size - 1)
        left, right = sp[pos - 1], sp[pos]
        take_right = np.abs(right - ps[own]) < np.abs(ps[own] - left)
        y_match[own] = t.y[pool][order][np.where(take_right, pos, pos - 1)]
    y1 = np.where(t.A == 1, t.y, y_match)
    y0 = np.where(t.A == 0, t.y, y_match)
    return float(np.mean(y1 - y0))
