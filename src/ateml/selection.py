"""Data-adaptive confounder selection.

Two families live here. Post-double-selection runs one l1-penalised
regression for the outcome and one for the treatment and adjusts for the
union of their active sets. The collaborative targeting family builds a
sequence of propensity models (greedy, pre-ordered, or along an l1 penalty
path), fluctuates the initial outcome fit with each, and picks the candidate
whose targeted fit cross-validates best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import _check_trim
from .core import Dataset, LearnerSpec, make_folds, make_stratified_folds
from .estimators import (
    AteResult,
    NuisanceFits,
    Q_BOUND,
    _if_result,
    _scaled,
    _Targeted,
    aiptw_ate,
    fit_nuisances,
    iptw_ate,
    naive_ate,
    reg_ate,
)
from .learners import (
    _fit_logistic_candidates,
    fit_logistic,
    fit_logistic_lasso,
    lasso_cv,
    logistic_lasso_cv,
    default_lambda_grid,
)

__all__ = [
    "SelectionResult",
    "CtmleTrace",
    "double_lasso_select",
    "post_double_ate",
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
    folds=None,
    *,
    n_lambda: int = 100,
    v_folds: int = 5,
    seed: int = 0,
) -> SelectionResult:
    """Union of the l1-active sets from a Y-on-X and an A-on-X regression.

    Both penalties are chosen by cross-validation; the treatment step is a
    linear fit (the partially-linear convention).
    """
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if folds is None:
        folds = make_folds(X.shape[0], v_folds, seed)
    _, fit_y = lasso_cv(X, Y, default_lambda_grid(X, Y, n_lambda), folds)
    _, fit_a = lasso_cv(X, A, default_lambda_grid(X, A, n_lambda), folds)
    return SelectionResult(fit_y.active_set, fit_a.active_set)


def post_double_ate(
    dataset: Dataset,
    selection: SelectionResult,
    method: str = "aiptw",
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> AteResult:
    """Parametric estimate adjusted for the selected union set.

    Logistic propensity model; logistic or linear outcome model per the
    outcome kind, fit separately by arm. An empty union set degrades to the
    naive contrast, flagged in the diagnostics. Bootstrap callers should
    rerun the selection inside each resample.
    """
    if method not in ("reg", "iptw", "aiptw"):
        raise ValueError(f"unknown method {method!r}")
    cols = list(selection.union_set)
    name = f"post_double_{method}"
    if not cols:
        res = naive_ate(dataset)
        diag = dict(res.diagnostics)
        diag.update({"warning": "empty_selection_naive_comparison", "selected": []})
        return AteResult(res.estimate, res.se, res.ci95, res.if_values, name, diag)
    outcome_spec = LearnerSpec("logistic") if dataset.outcome_kind.is_binary else LearnerSpec("ols")
    nuis = fit_nuisances(dataset.select_covariates(cols), LearnerSpec("logistic"), outcome_spec,
                         trim=trim, seed=seed)
    if method == "reg":
        res = reg_ate(dataset, nuis)
    elif method == "iptw":
        res = iptw_ate(dataset, nuis.ps)
    else:
        res = aiptw_ate(dataset, nuis)
    diag = dict(res.diagnostics)
    diag["selected"] = [dataset.names[j] for j in cols]
    return AteResult(res.estimate, res.se, res.ci95, res.if_values, name, diag)


# ---------------------------------------------------------------------------
# collaborative targeting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CtmleCandidate:
    """One propensity model in the candidate sequence and its targeted fit."""

    covariates: tuple[int, ...] | None  # None for penalty-path candidates
    lam: float | None
    cv_loss: float
    emp_loss: float
    epsilon: float


@dataclass(frozen=True)
class CtmleTrace:
    """Ordered candidate sequence; the cross-validated choice
    ``chosen_index`` is the first candidate with the smallest cv loss."""

    candidates: tuple[CtmleCandidate, ...]
    candidate_evals_per_round: tuple[int, ...] = ()
    flags: tuple[str, ...] = ()

    @property
    def chosen_index(self) -> int:
        return int(np.argmin([c.cv_loss for c in self.candidates]))


class _TargetingEngine:
    """Shared mechanics: scaled outcome, propensity refits, fluctuations.

    The initial outcome fit enters as fixed per-unit arrays (matching the
    convention of treating it as an external input); cross-validation refits
    only the propensity model and the fluctuation in each fold.
    """

    def __init__(self, dataset: Dataset, initial: NuisanceFits, V: int, trim: float, seed: int):
        if initial.mu1 is None or initial.mu0 is None:
            raise ValueError("collaborative targeting needs initial outcome predictions")
        if V < 2:
            raise ValueError("need V >= 2")
        _check_trim(trim)
        self.dataset = dataset
        self.X = dataset.covariates
        self.A = dataset.treatment.astype(float)
        self.span, self.ys, mu1s, mu0s = _scaled(dataset, initial.mu1, initial.mu0)
        self.q = (mu1s, mu0s)
        self.trim = float(trim)
        self.folds = make_stratified_folds(dataset.treatment, V, seed)
        self.n_ps_model_evals = 0

    # -- propensity refits ---------------------------------------------------

    def _ps_model(self, model_desc, train_mask):
        """Propensity model fitted on the training rows, as a function from a
        covariate matrix to clipped scores."""
        cols, lam = model_desc
        A_tr = self.A[train_mask]
        if lam is not None:
            raw = fit_logistic_lasso(self.X[train_mask], A_tr, lam).predict_proba
        elif len(cols) == 0:
            mean = A_tr.mean()
            raw = lambda M: np.full(M.shape[0], mean)  # noqa: E731
        else:
            return self._clipped(fit_logistic(self.X[train_mask][:, list(cols)], A_tr), cols)
        return lambda M: np.clip(raw(M), self.trim, 1.0 - self.trim)

    def _clipped(self, fit, cols):
        sub = list(cols)
        return lambda M: np.clip(fit.predict_proba(M[:, sub]), self.trim, 1.0 - self.trim)

    def _stage_models(self, current, remaining, train_mask):
        """The propensity models of ``current + (j,)`` for each j in
        ``remaining``, fitted on the training rows as stacks."""
        fits = _fit_logistic_candidates(self.X[train_mask], self.A[train_mask], current, remaining)
        return [self._clipped(fit, current + (j,)) for fit, j in zip(fits, remaining)]

    # -- targeted evaluation ---------------------------------------------------

    def _update(self, p, rows, eps=None, q=None):
        """Targeted update on ``rows`` given propensity p (all rows); solves
        the fluctuation there unless ``eps`` is given. ``q`` pins the
        initial-fit arrays (default: the working ones)."""
        mu1s, mu0s = self.q if q is None else q
        return _Targeted(self.A[rows], self.ys[rows], mu1s[rows], mu0s[rows], p[rows], eps)

    def _loss(self, targeted, rows):
        return float(np.mean((self.ys[rows] - targeted.muA) ** 2))

    def evaluate(self, model_desc):
        """Full-sample fluctuation plus the cross-validated loss of the
        targeted fit; one candidate evaluation for the instrumented count."""
        return self._evaluate(lambda rows: [self._ps_model(model_desc, rows)])[0]

    def evaluate_stage(self, current, remaining):
        """``evaluate((current + (j,), None))`` for each j in ``remaining``,
        with all the stage's propensity models on the same rows fitted at
        once."""
        return self._evaluate(lambda rows: self._stage_models(current, remaining, rows))

    def _evaluate(self, models):
        """(cv loss, full-sample loss, epsilon) of each candidate; ``models``
        maps training rows to the candidates' fitted propensity models."""
        n = self.dataset.n
        all_rows = np.ones(n, dtype=bool)
        fulls = [self._update(model(self.X), all_rows) for model in models(all_rows)]
        self.n_ps_model_evals += len(fulls)
        cv_losses = [[] for _ in fulls]
        for v in range(1, self.folds.V + 1):
            tr = self.folds.train_mask(v)
            te = self.folds.test_mask(v)
            X_tr, X_te = self.X[tr], self.X[te]
            for losses, model in zip(cv_losses, models(tr)):
                p = np.empty(n)
                p[tr] = model(X_tr)
                p[te] = model(X_te)
                eps_v = self._update(p, tr).eps
                losses.append(self._loss(self._update(p, te, eps_v), te))
        return [(float(np.mean(cv)), self._loss(full, all_rows), full.eps)
                for cv, full in zip(cv_losses, fulls)]

    def q_loss(self):
        """Squared-error loss of the current initial fit, before targeting."""
        mu1s, mu0s = self.q
        muAs = np.where(self.A == 1.0, mu1s, mu0s)
        return float(np.mean((self.ys - muAs) ** 2))

    def targeted(self, c: CtmleCandidate, q=None):
        """Full-sample targeted fit of a candidate at its fluctuation.

        ``q`` pins the initial-fit arrays the fluctuation applies to; the
        greedy variant replaces the working q mid-run, so results must be
        rebuilt against the snapshot the candidate was evaluated under.
        """
        all_rows = np.ones(self.dataset.n, dtype=bool)
        p = self._ps_model((c.covariates, c.lam), all_rows)(self.X)
        return self._update(p, all_rows, c.epsilon, q)

    # -- the cross-validated choice --------------------------------------------

    def report(self, candidates, method: str, diag: dict, evals, flags=(),
               qs=None) -> tuple[AteResult, CtmleTrace]:
        """The targeted estimate of the first candidate with the smallest cv
        loss, and the trace of the sequence.

        ``diag`` gains the chosen covariates (or penalty), cv loss and
        epsilon. ``qs`` holds the initial-fit arrays each candidate was
        evaluated under, when they differ from the working ones.
        """
        trace = CtmleTrace(tuple(candidates), tuple(evals), tuple(flags))
        chosen = trace.chosen_index
        c = candidates[chosen]
        if c.lam is None:
            diag["chosen_covariates"] = [self.dataset.names[j] for j in c.covariates]
        else:
            diag["chosen_lambda"] = c.lam
        diag["cv_loss"] = c.cv_loss
        diag["epsilon"] = c.epsilon
        t = self.targeted(c, None if qs is None else qs[chosen])
        res = _if_result(self.span * t.estimate, self.span * t.phi, method, diag)
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
    estimator is replaced by the last accepted targeted fit and the stage is
    retried once; the covariates accepted so far are retained throughout. The
    sequence starts at the intercept-only model and ends with all covariates;
    the reported estimate is the cross-validation argmin over the sequence.
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    candidates = [CtmleCandidate((), None, *eng.evaluate(((), None)))]
    qs = [eng.q]  # the initial-fit arrays each candidate was evaluated under
    flags: list[str] = []
    evals_per_round: list[int] = []

    current: tuple[int, ...] = ()
    remaining = list(range(dataset.d))
    round_evals = 1  # the intercept-only evaluation opens the first round
    while remaining:
        for restarted in (False, True):
            stage = eng.evaluate_stage(current, remaining)
            round_evals += len(stage)
            k = min(range(len(stage)), key=lambda i: stage[i][0])  # first cv-loss argmin
            improved = stage[k][1] < eng.q_loss()
            if improved or restarted:
                if not improved:
                    flags.append(f"forced_accept_stage_{len(current) + 1}")
                break
            # replace the initial estimator with the last accepted targeted
            # fit, close the round, and rerun the stage once
            last = eng.targeted(candidates[-1], qs[-1])
            eng.q = tuple(np.clip(m, Q_BOUND, 1.0 - Q_BOUND) for m in (last.mu1, last.mu0))
            evals_per_round.append(round_evals)
            round_evals = 0
        current = current + (remaining.pop(k),)
        candidates.append(CtmleCandidate(current, None, *stage[k]))
        qs.append(eng.q)
    evals_per_round.append(round_evals)
    return eng.report(candidates, "ctmle_greedy", {}, evals_per_round, flags, qs)


def _ctmle_from_order(eng: _TargetingEngine, order, method: str) -> tuple[AteResult, CtmleTrace]:
    """Grow nested propensity models in a fixed covariate order.

    Candidates are added while the full-sample loss of the targeted fit keeps
    strictly decreasing; the first non-improving extension stops the
    sequence.
    """
    candidates = [CtmleCandidate((), None, *eng.evaluate(((), None)))]
    current: tuple[int, ...] = ()
    for j in order:
        current = current + (int(j),)
        c = CtmleCandidate(current, None, *eng.evaluate((current, None)))
        if not c.emp_loss < candidates[-1].emp_loss:
            break
        candidates.append(c)
    diag = {"order": [eng.dataset.names[int(j)] for j in order]}
    return eng.report(candidates, method, diag, (eng.n_ps_model_evals,))


def ctmle_preorder_logistic(
    dataset: Dataset,
    initial: NuisanceFits,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Scalable variant: rank covariates by their one-variable targeting loss.

    Each covariate gets a univariable logistic propensity fit; the initial
    outcome fit is fluctuated along the resulting clever covariate and the
    full-sample loss of that targeted fit scores the covariate. Covariates
    are then added in ascending-loss order (ties keep column order).
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    all_rows = np.ones(dataset.n, dtype=bool)
    losses = np.empty(dataset.d)
    for j in range(dataset.d):
        p = eng._ps_model(((j,), None), all_rows)(eng.X)
        losses[j] = eng._loss(eng._update(p, all_rows), all_rows)
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
    lambda_path=None,
    V: int = 5,
    *,
    trim: float = 0.01,
    seed: int = 0,
) -> tuple[AteResult, CtmleTrace]:
    """Candidate propensity models along a decreasing l1 penalty path.

    The path starts at the cross-validation-selected penalty of an l1 logit
    for the treatment and shrinks geometrically (ratio 0.75, ten points) by
    default. Each penalty yields one targeted fit; cross-validated loss picks
    the winner.
    """
    eng = _TargetingEngine(dataset, initial, V, trim, seed)
    if lambda_path is None:
        lam1, _ = logistic_lasso_cv(
            dataset.covariates, dataset.treatment.astype(float),
            folds=eng.folds, n_lambda=20,
        )
        lam1 = max(lam1, 1e-8)
        lambda_path = lam1 * (0.75 ** np.arange(10))
    path = np.asarray(lambda_path, dtype=float)
    if path.size < 1:
        raise ValueError("lambda path must be non-empty")
    if path.size > 1 and not (np.diff(path) < 0).all():
        raise ValueError("lambda path must be strictly decreasing")
    lams = [float(lam) for lam in path]
    candidates = [CtmleCandidate(None, lam, *eng.evaluate((None, lam))) for lam in lams]
    return eng.report(candidates, "ctmle_lasso", {"lambda_path": lams},
                      (eng.n_ps_model_evals,))
