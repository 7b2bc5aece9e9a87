"""Data-adaptive confounder selection.

Two families live here. Post-double-selection is the selection alone: one
l1-penalised regression for the outcome and one for the treatment, whose
active sets form the adjustment set; the command line's ``double_lasso``
runs its estimator on that union. The collaborative targeting family builds
a sequence of propensity models (greedy, pre-ordered, or along an l1 penalty
path), fluctuates the initial outcome fit with each, and picks the candidate
whose targeted fit cross-validates best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .balance import _check_trim
from .core import Dataset, FoldAssignment, make_stratified_folds
from .estimators import AteResult, NuisanceFits, Q_BOUND, _if_result, _scaled, _Targeted
from .learners import (
    _cv_penalty,
    _fit_logistic_candidates,
    _logistic_lasso_fold_losses,
    fit_logistic_lasso,
    lasso_cv,
    default_lambda_grid,
)

__all__ = [
    "SelectionResult",
    "CtmleTrace",
    "double_lasso_select",
    "ctmle_greedy",
    "ctmle_preorder_logistic",
    "ctmle_preorder_correlation",
    "ctmle_lasso",
]


@dataclass(frozen=True)
class SelectionResult:
    """Column-index sets chosen for the outcome and treatment models.

    The adjustment set is always the union of both selections.
    """

    outcome_selected: tuple[int, ...]
    treatment_selected: tuple[int, ...]

    @property
    def union_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.outcome_selected) | set(self.treatment_selected)))


def double_lasso_select(
    X: np.ndarray,
    A: np.ndarray,
    Y: np.ndarray,
    folds: FoldAssignment,
) -> SelectionResult:
    """Union of the l1-active sets from a Y-on-X and an A-on-X regression.

    Both penalties are chosen by ``lasso_cv`` on the same ``folds``, each
    from its own 100-point default grid; the treatment step is a linear fit
    (the partially-linear convention).
    """
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    fit_y = lasso_cv(X, Y, folds, default_lambda_grid(X, Y))
    fit_a = lasso_cv(X, A, folds, default_lambda_grid(X, A))
    return SelectionResult(*(tuple(np.flatnonzero(fit.coef).tolist()) for fit in (fit_y, fit_a)))


# ---------------------------------------------------------------------------
# collaborative targeting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CtmleCandidate:
    """One propensity model in the candidate sequence and its targeted fit:
    the losses, epsilon and, outside comparisons and the repr, the
    full-sample ``_Targeted`` the estimate is read from."""

    covariates: tuple[int, ...] | None  # None for penalty-path candidates
    lam: float | None
    cv_loss: float
    emp_loss: float
    epsilon: float
    fit: _Targeted = field(compare=False, repr=False)


@dataclass(frozen=True)
class CtmleTrace:
    """Ordered candidate sequence; the cross-validated choice
    ``chosen_index`` is the first candidate with the smallest cv loss.
    ``flags`` lists the sequence's own flags, then its propensity fits', then
    its initial outcome fit's, each once."""

    candidates: tuple[CtmleCandidate, ...]
    candidate_evals_per_round: tuple[int, ...] = ()
    flags: tuple[str, ...] = ()

    @property
    def chosen_index(self) -> int:
        return int(np.argmin([c.cv_loss for c in self.candidates]))


_ALL = slice(None)  # the full sample as a block of rows: views, as in fit_nuisances


class _TargetingEngine:
    """Shared mechanics: one fit step and one score step.

    ``fit`` fits the propensity models of a candidate set once per block: the
    full sample, then each fold's training rows. ``score`` fluctuates the
    working initial fit ``q`` with them. The initial fit enters as fixed
    per-unit arrays (matching the convention of treating it as an external
    input), and the propensity fits depend only on the covariates and the
    rows, so a caller that replaces ``q`` rescores the same fitted models.
    ``flags`` collects the flags of every propensity fit made (``ctmle_lasso``
    adds its penalty search's), each once in first-seen order, as
    ``fit_nuisances`` does.
    """

    def __init__(self, dataset: Dataset, initial: NuisanceFits, V: int, trim: float, seed: int):
        if initial.mu1 is None or initial.mu0 is None:
            raise ValueError("collaborative targeting needs initial outcome predictions")
        _check_trim(trim)
        self.dataset = dataset
        self.X = dataset.covariates
        self.A = dataset.treatment.astype(float)
        self.span, self.ys, mu1s, mu0s = _scaled(dataset, initial.mu1, initial.mu0)
        self.q = (mu1s, mu0s)
        self.outcome_flags = initial.outcome_flags
        self.trim = float(trim)
        self.folds = make_stratified_folds(dataset.treatment, V, seed)
        self.flags: dict = {}  # an ordered set
        self.n_scorings = 0

    # -- fit step --------------------------------------------------------------

    def fit(self, base=(), extra=None, lam=None):
        """The clipped propensity functions of a candidate set on each block,
        the full sample first: one list per block, one function per
        candidate. The set is ``base + (j,)`` for each j in ``extra``, the l1
        logit at ``lam``, or, given neither, the intercept alone."""
        blocks = [_ALL] + [tr for tr, _ in self.folds.blocks]
        return [self.fit_block(rows, base, extra, lam) for rows in blocks]

    def fit_block(self, rows, base, extra, lam):
        """``fit`` on one block of training rows."""
        X, A = self.X[rows], self.A[rows]
        if lam is not None:
            fits, cols = [fit_logistic_lasso(X, A, lam)], [_ALL]
        elif extra is None:
            mean = A.mean()
            return [self._clipped(lambda M: np.full(M.shape[0], mean))]
        else:
            fits, cols = _fit_logistic_candidates(X, A, base, extra), [list(base) + [j] for j in extra]
        for fit in fits:
            self.flags.update(dict.fromkeys(fit.flags))
        return [self._clipped(fit.predict_proba, c) for fit, c in zip(fits, cols)]

    def _clipped(self, predict, cols=_ALL):
        return lambda M: np.clip(predict(M[:, cols]), self.trim, 1.0 - self.trim)

    # -- score step ------------------------------------------------------------

    def _update(self, p, rows, eps=None):
        """Targeted update of the working initial fit on ``rows`` given
        propensity p on those rows; solves the fluctuation there unless
        ``eps`` is given."""
        mu1s, mu0s = self.q
        return _Targeted(self.A[rows], self.ys[rows], mu1s[rows], mu0s[rows], p, eps)

    def _loss(self, targeted, rows):
        return float(np.mean((self.ys[rows] - targeted.muA) ** 2))

    def score(self, fits):
        """(cv loss, full-sample loss, epsilon, full-sample targeted fit) of
        each candidate of ``fits`` (the output of ``fit``) under the working
        initial fit; one scoring per candidate for the instrumented count."""
        full_models, *fold_models = fits
        fulls = [self._update(model(self.X), _ALL) for model in full_models]
        self.n_scorings += len(fulls)
        cv_losses = [[] for _ in fulls]
        for models, (tr, te) in zip(fold_models, self.folds.blocks):
            X_tr, X_te = self.X[tr], self.X[te]
            for losses, model in zip(cv_losses, models):
                eps_v = self._update(model(X_tr), tr).eps
                losses.append(self._loss(self._update(model(X_te), te, eps_v), te))
        return [(float(np.mean(cv)), self._loss(full, _ALL), full.eps, full)
                for cv, full in zip(cv_losses, fulls)]

    def q_loss(self):
        """Squared-error loss of the current initial fit, before targeting."""
        mu1s, mu0s = self.q
        muAs = np.where(self.A == 1.0, mu1s, mu0s)
        return float(np.mean((self.ys - muAs) ** 2))

    # -- the cross-validated choice --------------------------------------------

    def report(self, candidates, method: str, diag: dict, evals,
               flags=()) -> tuple[AteResult, CtmleTrace]:
        """The targeted estimate of the first candidate with the smallest cv
        loss, and the trace of the sequence.

        ``diag`` gains the chosen covariates (or penalty), cv loss and
        epsilon.
        """
        flags = dict.fromkeys([*flags, *self.flags, *self.outcome_flags])
        trace = CtmleTrace(tuple(candidates), tuple(evals), tuple(flags))
        c = candidates[trace.chosen_index]
        if c.lam is None:
            diag["chosen_covariates"] = [self.dataset.names[j] for j in c.covariates]
        else:
            diag["chosen_lambda"] = c.lam
        diag["cv_loss"] = c.cv_loss
        diag["epsilon"] = c.epsilon
        res = _if_result(self.span * c.fit.estimate, self.span * c.fit.phi, method, diag)
        return res, trace


def ctmle_greedy(
    dataset: Dataset,
    initial: NuisanceFits,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Forward stepwise construction of nested propensity models.

    Stage k augments the current covariate set with the single covariate whose
    targeted fit cross-validates best. If even the best stage candidate fails
    to improve the full-sample fit of the current initial estimator, that
    estimator is replaced by the last accepted targeted fit and the stage's
    fitted models are rescored once; the covariates accepted so far are
    retained throughout. The sequence starts at the intercept-only model and
    ends with all covariates; the reported estimate is the cross-validation
    argmin over the sequence.
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    candidates = [CtmleCandidate((), None, *eng.score(eng.fit())[0])]
    flags: list[str] = []
    evals_per_round: list[int] = []

    current: tuple[int, ...] = ()
    remaining = list(range(dataset.d))
    while remaining:
        fits = eng.fit(current, remaining)
        for restarted in (False, True):
            stage = eng.score(fits)
            k = min(range(len(stage)), key=lambda i: stage[i][0])  # first cv-loss argmin
            improved = stage[k][1] < eng.q_loss()
            if improved or restarted:
                if not improved:
                    flags.append(f"forced_accept_stage_{len(current) + 1}")
                break
            # replace the initial estimator with the last accepted targeted
            # fit, close the round, and rescore the stage once
            last = candidates[-1].fit
            eng.q = tuple(np.clip(m, Q_BOUND, 1.0 - Q_BOUND) for m in (last.mu1, last.mu0))
            # the first round also holds the intercept-only scoring
            evals_per_round.append(eng.n_scorings - sum(evals_per_round))
        current = current + (remaining.pop(k),)
        candidates.append(CtmleCandidate(current, None, *stage[k]))
    evals_per_round.append(eng.n_scorings - sum(evals_per_round))
    return eng.report(candidates, "ctmle_greedy", {}, evals_per_round, flags)


def _ctmle_from_order(eng: _TargetingEngine, order, method: str) -> tuple[AteResult, CtmleTrace]:
    """Grow nested propensity models in a fixed covariate order.

    Candidates are added while the full-sample loss of the targeted fit keeps
    strictly decreasing; the first non-improving extension stops the
    sequence.
    """
    candidates = [CtmleCandidate((), None, *eng.score(eng.fit())[0])]
    current: tuple[int, ...] = ()
    for j in order:
        c = CtmleCandidate(current + (int(j),), None, *eng.score(eng.fit(current, (int(j),)))[0])
        if not c.emp_loss < candidates[-1].emp_loss:
            break
        candidates.append(c)
        current = c.covariates
    diag = {"order": [eng.dataset.names[int(j)] for j in order]}
    return eng.report(candidates, method, diag, (eng.n_scorings,))


def ctmle_preorder_logistic(
    dataset: Dataset,
    initial: NuisanceFits,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Scalable variant: rank covariates by their one-variable targeting loss.

    Each covariate gets a univariable logistic propensity fit on the full
    sample (all of them fitted as one stack); the initial outcome fit is
    fluctuated along the resulting clever covariate and the full-sample loss
    of that targeted fit scores the covariate. Covariates are then added in
    ascending-loss order (ties keep column order).
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    models = eng.fit_block(_ALL, (), range(dataset.d), None)
    losses = [eng._loss(eng._update(model(eng.X), _ALL), _ALL) for model in models]
    return _ctmle_from_order(eng, np.argsort(losses, kind="stable"), "ctmle_logistic")


def ctmle_preorder_correlation(
    dataset: Dataset,
    initial: NuisanceFits,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Scalable variant: rank covariates by |correlation| with the residual
    between the outcome and the initial fit; constants rank last (corr 0)."""
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    A = dataset.treatment
    muA = np.where(A == 1, initial.mu1, initial.mu0)
    resid = dataset.outcome - muA
    X = dataset.covariates
    corr = np.zeros(dataset.d)
    r_sd = float(np.std(resid))
    for j in range(dataset.d):
        x_sd = float(np.std(X[:, j]))
        if x_sd != 0.0 and r_sd != 0.0:
            corr[j] = float(np.mean((X[:, j] - X[:, j].mean()) * (resid - resid.mean())) / (x_sd * r_sd))
    return _ctmle_from_order(eng, np.argsort(-np.abs(corr), kind="stable"), "ctmle_correlation")


def ctmle_lasso(
    dataset: Dataset,
    initial: NuisanceFits,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Candidate propensity models along a decreasing l1 penalty path.

    The path starts at the penalty lam1, from a 20-point grid, whose l1
    logit for the treatment has the smallest held-out log-loss over the
    engine's folds (floored at 1e-8), and shrinks geometrically: ten points
    lam1 * 0.75^k. Each penalty yields one targeted fit; cross-validated
    loss picks the winner.
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    grid = default_lambda_grid(eng.X, eng.A, 20, ratio=1e-3)
    losses = partial(_logistic_lasso_fold_losses, flags=eng.flags)
    lam1 = max(_cv_penalty(eng.X, eng.A, grid, eng.folds, losses), 1e-8)
    lams = [float(lam) for lam in lam1 * (0.75 ** np.arange(10))]
    candidates = [CtmleCandidate(None, lam, *eng.score(eng.fit(lam=lam))[0]) for lam in lams]
    return eng.report(candidates, "ctmle_lasso", {"lambda_path": lams}, (eng.n_scorings,))
