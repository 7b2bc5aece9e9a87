"""Data model, fold construction, loss functions, and the learner abstraction.

Everything downstream (nuisance fitting, weighting, effect estimation) builds
on the types defined here. All randomness flows from explicit integer seeds
through counter-based Philox streams; nothing in the package touches numpy's
global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "Z95",
    "FitError",
    "rng_from",
    "child_seeds",
    "OutcomeKind",
    "Dataset",
    "FoldAssignment",
    "make_folds",
    "make_stratified_folds",
    "Learner",
    "LearnerSpec",
    "FittedModel",
    "loss_mse",
    "loss_logloss",
    "LOSSES",
    "cv_risk",
]

# Two-sided 95% normal quantile used for every influence-function interval.
Z95 = 1.959964

# Probability floor for log-loss evaluation (distinct from propensity trimming).
LOGLOSS_EPS = 1e-12


class FitError(RuntimeError):
    """A learner failed to fit; the message carries candidate/fold context."""


def rng_from(seed: int) -> np.random.Generator:
    """Counter-based generator for an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def child_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from a parent seed.

    Children are stable across platforms and numpy versions that share the
    SeedSequence hashing scheme, which is all this package supports.
    """
    state = np.random.SeedSequence(int(seed)).generate_state(n, np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class OutcomeKind:
    """Outcome family: ``binary`` or ``bounded`` continuous with finite range."""

    kind: str
    lo: float | None = None
    hi: float | None = None

    @classmethod
    def binary(cls) -> "OutcomeKind":
        return cls("binary")

    @classmethod
    def bounded(cls, lo: float, hi: float) -> "OutcomeKind":
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounded outcome needs finite lo < hi, got ({lo}, {hi})")
        return cls("bounded", lo, hi)

    @property
    def is_binary(self) -> bool:
        return self.kind == "binary"

    @property
    def bounds(self) -> tuple[float, float]:
        if self.is_binary:
            return (0.0, 1.0)
        return (self.lo, self.hi)  # type: ignore[return-value]


@dataclass(frozen=True)
class Dataset:
    """Complete-case observational sample (X, A, Y).

    Invariants enforced at construction: finite entries everywhere, a binary
    treatment with both arms present, and outcomes inside the declared range.
    Rows with missing values must be dropped before construction.
    """

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    outcome_kind: OutcomeKind
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        X = np.asarray(self.covariates, dtype=float)
        if X.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        a = np.asarray(self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        n, d = X.shape
        if n < 2 or d < 1:
            raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if a.shape != (n,) or y.shape != (n,):
            raise ValueError("treatment/outcome length must match covariate rows")
        if not np.isfinite(X).all():
            raise ValueError("covariates contain non-finite entries")
        if not np.isfinite(y).all():
            raise ValueError("outcome contains non-finite entries")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("treatment entries must be 0 or 1")
        a = a.astype(np.int64)
        if a.min() == a.max():
            raise ValueError("treatment must contain both arms")
        if self.outcome_kind.is_binary:
            if not np.isin(y, (0.0, 1.0)).all():
                raise ValueError("binary outcome entries must be 0 or 1")
        else:
            lo, hi = self.outcome_kind.bounds
            if y.min() < lo or y.max() > hi:
                raise ValueError(f"outcome outside declared bounds [{lo}, {hi}]")
        names = tuple(self.names) if self.names else tuple(f"x{j + 1}" for j in range(d))
        if len(names) != d:
            raise ValueError("need one name per covariate column")
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "treatment", a)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset/resample. May raise if the subset loses a treatment arm."""
        idx = np.asarray(idx)
        return Dataset(
            self.covariates[idx],
            self.treatment[idx],
            self.outcome[idx],
            self.outcome_kind,
            self.names,
        )

    def select_covariates(self, cols) -> "Dataset":
        """Dataset restricted to the given covariate column indices."""
        cols = list(cols)
        if not cols:
            raise ValueError("need at least one covariate column")
        return Dataset(
            self.covariates[:, cols],
            self.treatment,
            self.outcome,
            self.outcome_kind,
            tuple(self.names[j] for j in cols),
        )


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of rows into folds labelled 1..V."""

    fold_of: np.ndarray
    V: int
    seed: int

    def __post_init__(self) -> None:
        f = np.asarray(self.fold_of, dtype=np.int64)
        if f.ndim != 1:
            raise ValueError("fold_of must be a vector")
        counts = np.bincount(f, minlength=self.V + 1)[1:]
        if len(counts) != self.V or (counts == 0).any():
            raise ValueError("every fold label 1..V must appear")
        if counts.max() - counts.min() > 1:
            raise ValueError("fold sizes must differ by at most one")
        object.__setattr__(self, "fold_of", f)

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]

    def test_mask(self, v: int) -> np.ndarray:
        return self.fold_of == v

    def train_mask(self, v: int) -> np.ndarray:
        return self.fold_of != v


def make_folds(n: int, V: int, seed: int) -> FoldAssignment:
    """Uniform random partition: permute rows, then cut contiguous blocks.

    Fold sizes differ by at most one and the assignment is a pure function of
    (n, V, seed).
    """
    n, V = int(n), int(V)
    if V < 2 or V > n:
        raise ValueError(f"need 2 <= V <= n, got V={V}, n={n}")
    perm = rng_from(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, V)
    start = 0
    for v in range(1, V + 1):
        size = base + (1 if v <= extra else 0)
        fold_of[perm[start : start + size]] = v
        start += size
    return FoldAssignment(fold_of, V, int(seed))


def make_stratified_folds(strata: np.ndarray, V: int, seed: int) -> FoldAssignment:
    """Folds balanced within each stratum (e.g. treatment arm).

    Rows of each stratum are permuted and dealt round-robin so that every fold
    receives an even share of each stratum; overall sizes still differ by at
    most one.
    """
    strata = np.asarray(strata)
    n, V = strata.shape[0], int(V)
    if V < 2 or V > n:
        raise ValueError(f"need 2 <= V <= n, got V={V}, n={n}")
    rng = rng_from(seed)
    order_parts = []
    for s in np.unique(strata):
        idx = np.flatnonzero(strata == s)
        order_parts.append(rng.permutation(idx))
    order = np.concatenate(order_parts)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = (np.arange(n) % V) + 1
    return FoldAssignment(fold_of, V, int(seed))


class Learner(Protocol):
    """What the nuisance fitters accept: ``fit(X, y, target_kind, seed)``
    returns a model with ``predict(X)``, ``flags`` and a ``meta`` dict.
    Implemented by ``LearnerSpec``, ``superlearner.SLLibrary`` and
    ``balance.BalanceBoostedPS``."""

    def fit(self, X: np.ndarray, y: np.ndarray, target_kind: str, seed: int): ...


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative single-learner configuration; a ``Learner``.

    ``family`` is one of ols | logistic | lasso | tree | forest | boost;
    ``params`` holds the family-specific hyperparameters (validated at fit
    time against the data dimensions). ``fit`` ignores its ``seed``
    argument: a seeded family draws from its own ``seed`` param, so a spec
    reproduces the same model wherever it is fitted.
    """

    family: str
    params: dict = field(default_factory=dict)

    FAMILIES = ("ols", "logistic", "lasso", "tree", "forest", "boost")

    def __post_init__(self) -> None:
        if self.family not in self.FAMILIES:
            raise ValueError(f"unknown learner family {self.family!r}")

    def describe(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    def fit(self, X: np.ndarray, y: np.ndarray, target_kind: str = "regression",
            seed: int = 0) -> "FittedModel":
        from . import learners  # deferred to avoid a module cycle

        return learners.fit_learner(self, X, y, target_kind=target_kind)


@dataclass(frozen=True)
class FittedModel:
    """Trained predictor: a row of covariates maps to a real prediction.

    ``target_kind`` is ``regression`` or ``probability``; probability
    predictors are clipped into [0, 1] at prediction time.
    """

    predict_fn: Callable[[np.ndarray], np.ndarray]
    target_kind: str
    flags: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.asarray(self.predict_fn(X), dtype=float)
        if self.target_kind == "probability":
            out = np.clip(out, 0.0, 1.0)
        return out


def loss_mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared prediction error."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError("loss_mse needs two equal-length vectors")
    return float(np.mean((pred - truth) ** 2))


def loss_logloss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Negative mean Bernoulli log-likelihood; predictions floored at 1e-12."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError("loss_logloss needs two equal-length vectors")
    p = np.clip(pred, LOGLOSS_EPS, 1.0 - LOGLOSS_EPS)
    return float(-np.mean(truth * np.log(p) + (1.0 - truth) * np.log(1.0 - p)))


LOSSES: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "mse": loss_mse,
    "logloss": loss_logloss,
}


def cv_risk(
    spec: LearnerSpec,
    features: np.ndarray,
    target: np.ndarray,
    folds: FoldAssignment,
    loss: str = "mse",
) -> float:
    """Cross-validated risk: average held-out loss over the folds.

    The model is refit on the complement of each fold; fold losses are reduced
    in fold-index order so the result does not depend on evaluation order.
    """
    from . import learners  # deferred to avoid a module cycle

    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if X.shape[0] != folds.n or y.shape[0] != folds.n:
        raise ValueError("fold assignment does not match the data")
    loss_fn = LOSSES[loss]
    kind = "probability" if loss == "logloss" else "regression"
    fold_losses = []
    for v in range(1, folds.V + 1):
        tr = folds.train_mask(v)
        te = folds.test_mask(v)
        try:
            model = learners.fit_learner(spec, X[tr], y[tr], target_kind=kind)
        except (ValueError, RuntimeError) as exc:  # data failures get fold context
            raise FitError(f"{spec.describe()} failed to fit in fold {v}: {exc}") from exc
        fold_losses.append(loss_fn(model.predict(X[te]), y[te]))
    return float(np.mean(fold_losses))
