"""Data model, fold construction, loss functions, and the learner abstraction.

Everything downstream (nuisance fitting, weighting, effect estimation) builds
on the types defined here. All randomness flows from explicit integer seeds
through counter-based Philox streams; nothing in the package touches numpy's
global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Protocol

import numpy as np

__all__ = [
    "Z95",
    "FitError",
    "rng_from",
    "child_seeds",
    "run_replicates",
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
    "expit",
    "logit",
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


def expit(x):
    """Logistic function 1 / (1 + e^-x); 0 and 1 at -inf and +inf, silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def logit(p):
    """Log-odds log(p / (1 - p)), in scipy's piecewise form: on [0.3, 0.65]
    it is log1p(s) - log1p(-s) with s = 2(p - 1/2), since the plain quotient
    loses up to tens of thousands of ulp near 1/2. -inf at 0, +inf at 1 and
    nan outside [0, 1], without warnings."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * (p - 0.5)
        return np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                        np.log1p(s) - np.log1p(-s))[()]


def child_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from a parent seed.

    Children are stable across platforms and numpy versions that share the
    SeedSequence hashing scheme, which is all this package supports.
    """
    state = np.random.SeedSequence(int(seed)).generate_state(n, np.uint64)
    return [int(s) for s in state]


def run_replicates(estimator: Callable, cases: Iterable[tuple], nonfinite: str):
    """``estimator(*case)`` for each of ``cases`` in order: the replicate loop
    of the bootstrap and the Monte Carlo. Cases may be made lazily; an error
    in making one propagates. A replicate fails when it raises ValueError or
    RuntimeError, or when its estimate (the output's ``estimate``, or the
    output itself) is not finite, with the message ``nonfinite``; any other
    exception propagates. Returns the (estimate, output) pairs of the
    replicates that succeeded and the failure messages.
    """
    done, failures = [], []
    for case in cases:
        try:
            out = estimator(*case)
            est = float(getattr(out, "estimate", out))
            if not np.isfinite(est):
                raise ValueError(nonfinite)
            done.append((est, out))
        except (ValueError, RuntimeError) as exc:
            failures.append(str(exc))
    return done, failures


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
    """Partition of rows into folds labelled 1..V. Every cross-validation
    loop checks its data with ``check_rows`` and iterates ``blocks``."""

    fold_of: np.ndarray
    V: int

    def __post_init__(self) -> None:
        f = np.asarray(self.fold_of, dtype=np.int64)
        if f.ndim != 1:
            raise ValueError("fold_of must be a vector")
        if ((f < 1) | (f > self.V)).any():
            raise ValueError(f"fold labels must lie in 1..{self.V}")
        counts = np.bincount(f, minlength=self.V + 1)[1:]
        if (counts == 0).any():
            raise ValueError("every fold label 1..V must appear")
        if counts.max() - counts.min() > 1:
            raise ValueError("fold sizes must differ by at most one")
        object.__setattr__(self, "fold_of", f)

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """One (train, test) pair of row masks per fold, folds 1..V in order:
        test selects the fold's rows, train every other row."""
        return tuple((self.fold_of != v, self.fold_of == v) for v in range(1, self.V + 1))

    def check_rows(self, n: int) -> None:
        """Raise ValueError unless the assignment covers exactly ``n`` rows."""
        if n != self.fold_of.shape[0]:
            raise ValueError("fold assignment does not match the data")


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
    return FoldAssignment(fold_of, V)


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
    return FoldAssignment(fold_of, V)


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
