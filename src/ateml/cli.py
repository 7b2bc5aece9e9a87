"""Command-line front end: CSV in, estimates and diagnostic tables out.

Subcommands: ``run`` (one estimator on one CSV, JSON report out), ``balance``
(SMD table across weighting/matching adjustments, the flags of its propensity
fits on stderr), ``simulate`` (Monte Carlo over the built-in generators), and
``export-dgp`` (write a generated dataset as CSV). ``run`` and ``simulate`` share one estimator dispatch and accept the
same estimators: naive, reg, iptw, match, aiptw, tmle, dml, double_lasso,
ctmle_greedy, ctmle_logistic, ctmle_correlation and ctmle_lasso.
``double_lasso`` selects covariates by post-double-selection and runs its
``pd_method`` (reg, iptw or aiptw) with the configured learners on the union.
Configuration can come from a flat key = value file; any flag given on the
command line wins over the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, fields, replace
from operator import itemgetter

import numpy as np

from .core import Dataset, Learner, LearnerSpec, OutcomeKind, make_folds
from .balance import BalanceBoostedPS, balance_table, iptw_weights, match_weights, ps_match
from .dgp import DgpSpec, McReport, builtin_specs, gen_dataset, mc_eval
from .estimators import (
    AteResult,
    aiptw_ate,
    bootstrap_ci,
    dml_ate,
    fit_nuisances,
    iptw_ate,
    match_ate,
    naive_ate,
    reg_ate,
    tmle_ate,
)
from .selection import (
    CtmleTrace,
    ctmle_greedy,
    ctmle_lasso,
    ctmle_preorder_correlation,
    ctmle_preorder_logistic,
    double_lasso_select,
)
from .superlearner import SLLibrary, demo_library

SCHEMA_VERSION = 1

ESTIMATORS = (
    "naive", "reg", "iptw", "match", "aiptw", "tmle", "dml", "double_lasso",
    "ctmle_greedy", "ctmle_logistic", "ctmle_correlation", "ctmle_lasso",
)
# The estimators that double_lasso can run on its selected covariates.
PD_METHODS = ("reg", "iptw", "aiptw")


@dataclass(frozen=True)
class RunConfig:
    """Everything one `run` needs; parses from the flat text format."""

    data: str = ""
    treatment: str = "treatment"
    outcome: str = "outcome"
    covariates: tuple[str, ...] | None = None  # None = all other columns
    estimator: str = "naive"
    ps_learner: str = "logistic"
    outcome_learner: str = "auto"
    v_folds: int = 10
    seed: int = 0
    bootstrap: int = 0
    trim: float = 0.01
    dml_k: int = 2
    dml_s: int = 11
    pd_method: str = "aiptw"
    out: str = "report.json"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        kwargs: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            kwargs[key] = val
        return cls().with_overrides(**kwargs)

    def with_overrides(self, **kwargs) -> "RunConfig":
        """Each value converted by the type of the key's default; None leaves
        a key as it is."""
        typed: dict = {}
        known = {f.name: f for f in fields(self)}
        for key, val in kwargs.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if val is None:
                continue
            if key == "covariates":
                if isinstance(val, str):
                    val = tuple(s.strip() for s in val.split(",") if s.strip()) or None
                else:
                    val = tuple(val)
                typed[key] = val
            else:
                typed[key] = type(known[key].default)(val)
        return replace(self, **typed)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, (str, bool)):  # bool before int: True is an int
        return obj
    if isinstance(obj, (np.floating, float)):  # JSON has no NaN or infinity
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return str(obj)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _check_named_once(what: str, names) -> None:
    repeated = sorted(name for name, k in Counter(names).items() if k > 1)
    if repeated:
        raise ValueError(f"{repeated} named more than once in the {what}")


def _covariate_names(path: str, header: list[str], config: RunConfig) -> list[str]:
    """The covariate columns ``config`` selects from ``header``, after the
    column checks of ``ingest_csv``."""
    roles = (config.treatment, config.outcome)
    if config.treatment == config.outcome:
        raise ValueError(f"treatment and outcome are the same column {config.treatment!r}")
    _check_named_once(f"header of {path}", header)
    for col in roles:
        if col not in header:
            raise ValueError(f"{path}: missing column {col!r}")
    if config.covariates is None:
        cov_names = [h for h in header if h not in roles]
    else:
        for col in config.covariates:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        _check_named_once("covariates", config.covariates)
        in_two_roles = sorted(set(roles) & set(config.covariates))
        if in_two_roles:
            raise ValueError(f"covariates include the treatment or outcome column {in_two_roles}")
        cov_names = list(config.covariates)
    if not cov_names:
        raise ValueError(f"{path}: no covariate columns selected")
    return cov_names


def ingest_csv(path: str, config: RunConfig) -> tuple[Dataset, dict]:
    """Parse the selected columns in one pass over the rows; drop (and
    count) rows with a bad, missing or non-finite selected cell, a selected
    cell with a digit separator (``1_0``), or more or fewer cells than the
    header.

    Refuses to continue if more than half of the rows are dropped, if the
    treatment column is not strictly {0,1}, if a requested column is
    missing, if the header or the covariates name a column twice, if the
    treatment and the outcome are one column, or if the covariates include
    either of them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        cov_names = _covariate_names(path, header, config)
        pick = itemgetter(*(header.index(c) for c in cov_names + [config.treatment, config.outcome]))
        # the selected cells of each row that parses, covariates then A and y,
        # one float64 each; any other row adds nothing
        cells = array("d")
        n_rows = 0
        width = len(header)
        for n_rows, row in enumerate(reader, start=1):
            if len(row) == width:
                picked = pick(row)
                try:
                    # float() reads 1_0 as 10; the tuple is whole before a cell is added
                    if "_" not in "".join(picked):
                        cells.extend(tuple(map(float, picked)))
                except ValueError:
                    pass
    table = np.frombuffer(cells).reshape(-1, len(cov_names) + 2)
    table = table[np.isfinite(table).all(axis=1)]
    dropped = n_rows - table.shape[0]
    if not table.shape[0]:
        raise ValueError(f"{path}: no complete rows after dropping {dropped}")
    if dropped > 0.5 * n_rows:
        raise ValueError(f"{path}: {dropped}/{n_rows} rows incomplete; refusing to continue")
    # C-contiguous copies, the layout the fits' BLAS results depend on
    X, A, y = (np.ascontiguousarray(part) for part in (table[:, :-2], table[:, -2], table[:, -1]))
    if not np.isin(A, (0.0, 1.0)).all():
        bad = sorted(set(A[~np.isin(A, (0.0, 1.0))]))[:3]
        raise ValueError(f"{path}: treatment column must be strictly 0/1, saw {bad}")
    if np.isin(y, (0.0, 1.0)).all():
        kind = OutcomeKind.binary()
    else:
        kind = OutcomeKind.bounded(float(y.min()), float(y.max()))
    ds = Dataset(X, A.astype(int), y, kind, tuple(cov_names))
    info = {"n": ds.n, "d": ds.d, "rows_dropped": dropped, "outcome_kind": kind.kind}
    return ds, info


# ---------------------------------------------------------------------------
# learner registry
# ---------------------------------------------------------------------------


# Learners that need a 0/1 target, and learners for the propensity role only.
_BINARY_TARGET_ONLY = ("logistic", "logistic_interactions")
_PS_ONLY = ("twang",)


def _regression_form(library: SLLibrary) -> SLLibrary:
    """``library`` for a continuous target: each logistic candidate becomes
    ``ols`` with the same params, and "logistic" in its name becomes "ols"."""
    return replace(
        library,
        candidates=tuple(replace(c, family="ols") if c.family == "logistic" else c
                         for c in library.candidates),
        names=tuple(name.replace("logistic", "ols") for name in library.names),
    )


def parse_learner(config: RunConfig, d: int, role: str, outcome_binary: bool = False) -> Learner:
    """Map the learner id configured for ``role`` ("ps" or "outcome") to a
    ``Learner``; libraries take ``v_folds`` folds, twang takes ``trim``. An
    outcome learner that cannot model the outcome is rejected before any fit;
    for a continuous outcome ``sl`` and ``sl_small`` take their regression
    form (``ols`` in place of every logistic candidate).
    """
    name = (config.ps_learner if role == "ps" else config.outcome_learner).strip()
    if name == "auto":  # the treatment is always binary
        return LearnerSpec("logistic") if role == "ps" or outcome_binary else LearnerSpec("ols")
    if role == "outcome" and (name in _PS_ONLY
                              or (name in _BINARY_TARGET_ONLY and not outcome_binary)):
        raise ValueError(f"{name!r} cannot be the outcome learner for this outcome")
    table = {
        "logistic": LearnerSpec("logistic"),
        "logistic_interactions": LearnerSpec("logistic", {"interactions": True}),
        "ols": LearnerSpec("ols"),
        "lasso": LearnerSpec("lasso"),
        "tree": LearnerSpec("tree"),
        "forest": LearnerSpec("forest", {"n_trees": 200, "seed": 0}),
        "boost": LearnerSpec("boost", {"n_trees": 200, "nu": 0.05, "max_depth": 2}),
        "sl": replace(demo_library(d), V=config.v_folds),
        "sl_small": SLLibrary(
            (LearnerSpec("logistic"),
             LearnerSpec("tree", {"max_depth": 3, "min_leaf": 10}),
             LearnerSpec("boost", {"n_trees": 100, "nu": 0.1, "max_depth": 2})),
            ("logistic", "tree", "boost"),
            V=config.v_folds,
        ),
        "twang": BalanceBoostedPS(max_trees=500, max_depth=2, shrinkage=0.05, trim=config.trim),
    }
    if name not in table:
        raise ValueError(f"unknown learner {name!r}")
    if role == "outcome" and not outcome_binary and name in ("sl", "sl_small"):
        return _regression_form(table[name])
    return table[name]


def _check_pd_method(config: RunConfig) -> None:
    if config.pd_method not in PD_METHODS:
        raise ValueError(f"unknown pd_method {config.pd_method!r}; choose from {PD_METHODS}")


def _estimate(config: RunConfig, ds: Dataset, ps_learner: Learner,
              outcome_learner: Learner) -> tuple[AteResult, object]:
    """Run the configured estimator on ``ds``: the one estimator dispatch,
    shared by ``run``, its bootstrap replicates and ``simulate``.

    Returns (result, fit), where ``fit`` is what a report describes: the
    ``NuisanceFits`` from ``fit_nuisances`` (reg, iptw, aiptw, tmle, and for
    dml that of its first repetition), the pair of that ``NuisanceFits``
    and the match index of ``ps_match`` (match), the ``CtmleTrace``
    (ctmle_*), or None. ``double_lasso`` returns its ``pd_method``'s pair on
    the selected covariates, renamed ``post_double_<pd_method>`` with the
    selected names in its diagnostics; an empty selection gives the naive
    contrast, flagged there.
    """
    est, trim, seed = config.estimator, config.trim, config.seed
    if est == "naive":
        return naive_ate(ds), None
    if est == "reg":
        nuis = fit_nuisances(ds, None, outcome_learner, trim=trim, seed=seed)
        return reg_ate(ds, nuis), nuis
    if est in ("iptw", "match", "aiptw", "tmle", "dml"):
        if est == "dml":
            return dml_ate(ds, ps_learner, outcome_learner, k=config.dml_k, s=config.dml_s,
                           trim=trim, seed=seed)
        outcome = outcome_learner if est in ("aiptw", "tmle") else None
        nuis = fit_nuisances(ds, ps_learner, outcome, trim=trim, seed=seed)
        if est == "iptw":
            return iptw_ate(ds, nuis.ps), nuis
        if est == "match":
            matches = ps_match(nuis.ps, ds.treatment)
            return match_ate(ds, matches), (nuis, matches)
        return (aiptw_ate if est == "aiptw" else tmle_ate)(ds, nuis), nuis
    if est == "double_lasso":
        _check_pd_method(config)
        cols = double_lasso_select(ds.covariates, ds.treatment.astype(float), ds.outcome,
                                   make_folds(ds.n, min(config.v_folds, 5), seed)).union_set
        if cols:
            res, fit = _estimate(replace(config, estimator=config.pd_method),
                                 ds.select_covariates(cols), ps_learner, outcome_learner)
            diag = {**res.diagnostics, "selected": [ds.names[j] for j in cols]}
        else:
            res, fit = naive_ate(ds), None
            diag = {**res.diagnostics, "warning": "empty_selection_naive_comparison", "selected": []}
        return replace(res, method=f"post_double_{config.pd_method}", diagnostics=diag), fit
    fn = {
        "ctmle_greedy": ctmle_greedy,
        "ctmle_logistic": ctmle_preorder_logistic,
        "ctmle_correlation": ctmle_preorder_correlation,
        "ctmle_lasso": ctmle_lasso,
    }.get(est)
    if fn is None:
        raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATORS}")
    initial = fit_nuisances(ds, None, outcome_learner, trim=trim, seed=seed)
    return fn(ds, initial, V=max(2, min(config.v_folds, 5)), trim=trim, seed=seed)


def _report_extras(ds: Dataset, fit) -> dict:
    """The balance summary, SL weights, CTMLE path and warnings that a report
    gives for the ``fit`` returned by ``_estimate``."""
    extras: dict = {"balance": None, "sl_weights": None, "ctmle_trace": None, "warnings": []}
    if isinstance(fit, CtmleTrace):
        chosen = fit.chosen_index
        extras["ctmle_trace"] = [
            {"candidate": k,
             "covariates_or_lambda": (c.lam if c.lam is not None
                                      else "+".join(ds.names[j] for j in c.covariates) or "intercept"),
             "cv_loss": c.cv_loss,
             "chosen": k == chosen}
            for k, c in enumerate(fit.candidates)
        ]
        extras["warnings"] = list(fit.flags)
    elif fit is not None:
        nuis, matches = fit if isinstance(fit, tuple) else (fit, None)
        if nuis.ps is not None:
            label, weights = (("iptw", iptw_weights(nuis.ps, ds.treatment)) if matches is None
                              else ("match", match_weights(matches)))
            table = balance_table(ds, [(label, weights)])
            extras["balance"] = {
                "asam_unweighted": table.asam["unweighted"],
                f"asam_{label}": table.asam[label],
                "flagged_unweighted": table.n_flagged["unweighted"],
                f"flagged_{label}": table.n_flagged[label],
            }
            if "sl_weights" in nuis.ps_meta:
                extras["sl_weights"] = {"ps": nuis.ps_meta["sl_weights"]}
        extras["warnings"] = list(nuis.flags)
    return extras


def run(config: RunConfig) -> dict:
    """Execute ingestion, nuisance fitting, estimation, and reporting.

    Returns the report dict; the caller writes it and decides the exit code.
    Identical config and seed produce identical reports apart from timings.
    An estimate without an analytic standard error (``reg``, ``match``, and
    ``double_lasso`` with ``pd_method`` reg) takes it from
    ``config.bootstrap`` replicates when that is set; each replicate reruns
    the whole estimator, covariate selection included.
    """
    t0 = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds, ingest_info = ingest_csv(config.data, config)
        t1 = time.time()
        out_learner = parse_learner(config, ds.d, "outcome", ds.outcome_kind.is_binary)
        ps_learner = parse_learner(config, ds.d, "ps")
        res, fit = _estimate(config, ds, ps_learner, out_learner)
        if config.bootstrap and res.se is None:
            se, ci = bootstrap_ci(
                lambda d2, s2: _estimate(replace(config, seed=s2), d2, ps_learner, out_learner)[0],
                ds, B=config.bootstrap, seed=config.seed)
            res = replace(res, se=se, ci95=ci,
                          diagnostics={**res.diagnostics, "se_method": "bootstrap"})
        extras = _report_extras(ds, fit)
        t2 = time.time()
    # each distinct warning once, in first-seen order: "always" repeats one per call
    warns = list(dict.fromkeys(extras["warnings"] + [str(w.message) for w in caught]))
    report = {
        "schema": SCHEMA_VERSION,
        "config": _jsonable({f.name: getattr(config, f.name) for f in fields(config)}),
        "ingest": _jsonable(ingest_info),
        "result": {
            "estimate": res.estimate,
            "se": res.se,
            "ci_lo": None if res.ci95 is None else res.ci95[0],
            "ci_hi": None if res.ci95 is None else res.ci95[1],
            "method": res.method,
            "diagnostics": _jsonable(res.diagnostics),
        },
        "balance": _jsonable(extras["balance"]),
        "sl_weights": _jsonable(extras["sl_weights"]),
        "ctmle_trace": _jsonable(extras["ctmle_trace"]),
        "warnings": warns,
        "timings": {
            "ingest_s": t1 - t0,
            "estimate_s": t2 - t1,
            "total_s": time.time() - t0,
        },
    }
    return report


def summary_line(report: dict) -> str:
    r = report["result"]
    se = "nan" if r["se"] is None else f"{r['se']:.6g}"
    if r["ci_lo"] is None:
        ci = "[nan,nan]"
    else:
        ci = f"[{r['ci_lo']:.6g},{r['ci_hi']:.6g}]"
    return f"ATE={r['estimate']:.6g} SE={se} CI95={ci} method={r['method']}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

BALANCE_ADJUSTMENTS = ("iptw_logistic", "iptw_boosted", "iptw_sl", "match_logistic", "match_boosted")


def balance_cmd(config: RunConfig, adjustments: list[str],
                boost_trees: int = 500) -> tuple[str, tuple[str, ...]]:
    """Balance table CSV for the requested adjustments (may be empty), and
    the flags of the propensity fits, each once in first-seen order.

    The propensity models are the ``logistic``, ``twang`` ("boosted", with
    ``boost_trees`` trees at most) and ``sl`` learners of ``run``.
    """
    ds, _ = ingest_csv(config.data, config)
    fits: dict = {}
    pairs = []
    for adj in adjustments:
        if adj not in BALANCE_ADJUSTMENTS:
            raise ValueError(f"unknown adjustment {adj!r}; choose from {BALANCE_ADJUSTMENTS}")
        method, _, name = adj.partition("_")
        if name not in fits:
            learner = parse_learner(
                replace(config, ps_learner="twang" if name == "boosted" else name), ds.d, "ps")
            if name == "boosted":
                learner = replace(learner, max_trees=boost_trees)
            fits[name] = fit_nuisances(ds, learner, trim=config.trim, seed=config.seed)
        ps = fits[name].ps
        pairs.append((adj, iptw_weights(ps, ds.treatment) if method == "iptw"
                      else match_weights(ps_match(ps, ds.treatment))))
    flags = tuple(dict.fromkeys(f for nuis in fits.values() for f in nuis.flags))
    return balance_table(ds, pairs).to_csv(), flags


def _builtin_spec(name: str) -> DgpSpec:
    catalogue = builtin_specs()
    if name not in catalogue:
        raise ValueError(f"unknown spec {name!r}; available: {', '.join(sorted(catalogue))}")
    return catalogue[name]


def simulate_cmd(spec_name: str, estimator_ids: list[str], R: int, seed: int,
                 config: RunConfig) -> str:
    """Monte Carlo CSV: one row per estimator on the named generator.

    Each replicate runs ``run``'s estimator with the configured learners
    and the replicate's seed on one draw of the generator.
    """
    spec = _builtin_spec(spec_name)
    # Reject bad ids, a bad pd_method and learners up front: inside mc_eval a
    # ValueError only counts as a failed replicate. Every draw of a spec has
    # the same d and outcome kind, so the learners parse once.
    for est_id in estimator_ids:
        if est_id not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est_id!r}; choose from {ESTIMATORS}")
    if "double_lasso" in estimator_ids:
        _check_pd_method(config)
    d = len(spec.covariate_kinds)
    out_learner = parse_learner(config, d, "outcome", spec.outcome_kind == "binary")
    ps_learner = parse_learner(config, d, "ps")
    lines = [McReport.CSV_HEADER]
    for est_id in estimator_ids:
        est_config = replace(config, estimator=est_id)
        rep = mc_eval(
            lambda draw, s: _estimate(replace(est_config, seed=s), draw.dataset,
                                      ps_learner, out_learner)[0],
            spec, R, seed, label=est_id)
        lines.append(rep.to_csv_row())
    return "\n".join(lines) + "\n"


def export_dgp(spec_name: str, n: int | None, seed: int, out: str) -> str:
    """Write one generated dataset to CSV; returns the true-ATE summary line."""
    spec = _builtin_spec(spec_name)
    if n is not None:
        spec = replace(spec, n=n)
    draw = gen_dataset(spec, seed)
    ds = draw.dataset
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.names) + ["treatment", "outcome"])
        for i in range(ds.n):
            writer.writerow(
                [repr(float(v)) for v in ds.covariates[i]]
                + [int(ds.treatment[i]), repr(float(ds.outcome[i]))]
            )
    return f"wrote {ds.n} rows to {out}; true_ate={draw.true_ate!r}"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# The help and choices of the RunConfig flags; a flag's name is its key with
# dashes, and a key with an int or float default takes that type.
_FLAG_EXTRAS = {
    "config": {"help": "flat key = value config file"},
    "covariates": {"help": "comma-separated covariate columns (default: all others)"},
    "estimator": {"choices": ESTIMATORS},
    "pd_method": {"choices": PD_METHODS},
}
# The RunConfig flags each command reads; any other flag is an argparse error.
_COMMAND_FLAGS = {
    "run": ("config",) + tuple(f.name for f in fields(RunConfig)),
    "balance": ("config", "data", "treatment", "outcome", "covariates", "v_folds", "seed",
                "trim", "out"),
    "simulate": ("config", "seed", "trim", "dml_k", "dml_s", "out"),
}


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for name in _COMMAND_FLAGS[command]:
        kwargs = dict(_FLAG_EXTRAS.get(name, {}))
        if type(defaults.get(name)) in (int, float):
            kwargs["type"] = type(defaults[name])
        p.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = RunConfig.parse(fh.read())
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    return config.with_overrides(**overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ateml",
                                     description="Average treatment effect estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="estimate an ATE from a CSV file")
    _add_config_flags(p_run, "run")

    p_bal = sub.add_parser("balance", help="covariate balance table across adjustments")
    _add_config_flags(p_bal, "balance")
    p_bal.add_argument("--adjust", default="",
                       help=f"comma-separated adjustments from {BALANCE_ADJUSTMENTS}")
    p_bal.add_argument("--boost-trees", type=int, default=500)

    p_sim = sub.add_parser("simulate", help="Monte Carlo over a built-in generator")
    _add_config_flags(p_sim, "simulate")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--estimators", default="naive",
                       help=f"comma-separated estimators of run: {', '.join(ESTIMATORS)}")
    p_sim.add_argument("-R", "--replications", type=int, default=100)

    p_exp = sub.add_parser("export-dgp", help="write a generated dataset as CSV")
    p_exp.add_argument("--spec", required=True)
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default="dgp.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "export-dgp":
            print(export_dgp(args.spec, args.n, args.seed, args.out))
            return 0
        config = _config_from_args(args)
        if args.command != "simulate" and not config.data:
            raise ValueError(f"{args.command} needs --data (or a config file with a data key)")
        if args.command == "run":
            report = run(config)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            message = summary_line(report)
        elif args.command == "balance":
            adjustments = [a for a in args.adjust.split(",") if a.strip()]
            text, flags = balance_cmd(config, adjustments, boost_trees=args.boost_trees)
            if flags:
                print(json.dumps({"warnings": list(flags)}), file=sys.stderr)
            message = f"wrote balance table to {config.out}"
        else:
            estimators = [e for e in args.estimators.split(",") if e.strip()]
            text = simulate_cmd(args.spec, estimators, args.replications, config.seed, config)
            message = f"wrote Monte Carlo table to {config.out}"
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(message)
        return 0
    except Exception as exc:  # noqa: BLE001 - surface a machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
