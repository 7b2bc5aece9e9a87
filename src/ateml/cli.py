"""Command-line front end: CSV in, estimates and diagnostic tables out.

Subcommands: ``run`` (one estimator on one CSV, JSON report out), ``balance``
(SMD table across weighting/matching adjustments), ``simulate`` (Monte Carlo
over the built-in generators), and ``export-dgp`` (write a generated dataset
as CSV). Configuration can come from a flat key = value file; any flag given
on the command line wins over the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import Dataset, Learner, LearnerSpec, OutcomeKind
from .balance import BalanceBoostedPS, balance_table, estimate_ps, iptw_weights, ps_match
from .dgp import McReport, builtin_specs, gen_dataset, mc_eval
from .estimators import (
    AteResult,
    DmlConfig,
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
    ctmle_greedy,
    ctmle_lasso,
    ctmle_preorder_correlation,
    ctmle_preorder_logistic,
    double_lasso_select,
    post_double_ate,
)
from .superlearner import SLLibrary, demo_library

SCHEMA_VERSION = 1

ESTIMATORS = (
    "naive", "reg", "iptw", "match", "aiptw", "tmle", "dml", "double_lasso",
    "ctmle_greedy", "ctmle_logistic", "ctmle_correlation", "ctmle_lasso",
)


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
    dml_aggregate: str = "median"
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
                elif val is not None:
                    val = tuple(val)
                typed[key] = val
            elif key in ("v_folds", "seed", "bootstrap", "dml_k", "dml_s"):
                typed[key] = int(val)
            elif key == "trim":
                typed[key] = float(val)
            else:
                typed[key] = str(val)
        return replace(self, **typed)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def ingest_csv(path: str, config: RunConfig) -> tuple[Dataset, dict]:
    """Parse the selected columns; drop (and count) incomplete rows.

    Refuses to continue if more than half of the rows are dropped, if the
    treatment column is not strictly {0,1}, or if a requested column is
    missing.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    for col in (config.treatment, config.outcome):
        if col not in header:
            raise ValueError(f"{path}: missing column {col!r}")
    if config.covariates is None:
        cov_names = [h for h in header if h not in (config.treatment, config.outcome)]
    else:
        for col in config.covariates:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        cov_names = list(config.covariates)
    if not cov_names:
        raise ValueError(f"{path}: no covariate columns selected")
    sel = [header.index(c) for c in cov_names]
    a_ix, y_ix = header.index(config.treatment), header.index(config.outcome)

    def cell(row, ix):
        try:
            v = float(row[ix])
        except (ValueError, IndexError):
            return None
        return v if math.isfinite(v) else None

    X_rows, a_vals, y_vals = [], [], []
    dropped = 0
    for row in rows:
        vals = [cell(row, ix) for ix in sel]
        a = cell(row, a_ix)
        y = cell(row, y_ix)
        if any(v is None for v in vals) or a is None or y is None:
            dropped += 1
            continue
        X_rows.append(vals)
        a_vals.append(a)
        y_vals.append(y)
    if not X_rows:
        raise ValueError(f"{path}: no complete rows after dropping {dropped}")
    if dropped > 0.5 * len(rows):
        raise ValueError(f"{path}: {dropped}/{len(rows)} rows incomplete; refusing to continue")
    A = np.asarray(a_vals)
    if not np.isin(A, (0.0, 1.0)).all():
        bad = sorted(set(A[~np.isin(A, (0.0, 1.0))]))[:3]
        raise ValueError(f"{path}: treatment column must be strictly 0/1, saw {bad}")
    y = np.asarray(y_vals)
    if np.isin(y, (0.0, 1.0)).all():
        kind = OutcomeKind.binary()
    else:
        kind = OutcomeKind.bounded(float(y.min()), float(y.max()))
    ds = Dataset(np.asarray(X_rows), A.astype(int), y, kind, tuple(cov_names))
    info = {"n": ds.n, "d": ds.d, "rows_dropped": dropped, "outcome_kind": kind.kind}
    return ds, info


# ---------------------------------------------------------------------------
# learner registry
# ---------------------------------------------------------------------------


# Learners that need a 0/1 target, and learners for the propensity role only.
_BINARY_TARGET_ONLY = ("logistic", "logistic_interactions", "sl", "sl_small")
_PS_ONLY = ("twang",)


def parse_learner(config: RunConfig, d: int, role: str, outcome_binary: bool = False) -> Learner:
    """Map the learner id configured for ``role`` ("ps" or "outcome") to a
    ``Learner``; libraries take ``v_folds`` folds, twang takes ``trim``. An
    outcome learner that cannot model the outcome is rejected before any fit.
    """
    name = (config.ps_learner if role == "ps" else config.outcome_learner).strip()
    if name == "auto":
        return LearnerSpec("logistic") if outcome_binary else LearnerSpec("ols")
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
    return table[name]


def _balance_summary(ds: Dataset, label: str, adjustment) -> dict:
    report = balance_table(ds, [(label, adjustment)])
    return {
        "asam_unweighted": report.asam["unweighted"],
        f"asam_{label}": report.asam[label],
        "flagged_unweighted": report.n_flagged["unweighted"],
        f"flagged_{label}": report.n_flagged[label],
    }


def _execute(config: RunConfig, ds: Dataset) -> tuple[AteResult, dict]:
    """Run the configured estimator; returns (result, report extras)."""
    extras: dict = {"balance": None, "sl_weights": None, "ctmle_trace": None}
    warns: list[str] = []
    est = config.estimator
    out_spec = parse_learner(config, ds.d, "outcome", ds.outcome_kind.is_binary)
    ps_spec = parse_learner(config, ds.d, "ps")

    if est == "naive":
        res = naive_ate(ds)
    elif est == "reg":
        nuis = fit_nuisances(ds, None, out_spec, trim=config.trim, seed=config.seed)
        res = reg_ate(ds, nuis)
        if config.bootstrap:
            def rerun(d2, s2):
                nz = fit_nuisances(d2, None, out_spec, trim=config.trim, seed=s2)
                return reg_ate(d2, nz).estimate
            se, ci = bootstrap_ci(rerun, ds, B=config.bootstrap, seed=config.seed)
            res = AteResult(res.estimate, se, ci, None, res.method,
                            {**res.diagnostics, "se_method": "bootstrap"})
    elif est == "iptw":
        ps_fit = estimate_ps(ps_spec, ds, config.trim, seed=config.seed)
        warns.extend(ps_fit.flags)
        res = iptw_ate(ds, ps_fit)
        extras["balance"] = _balance_summary(ds, "iptw", iptw_weights(ps_fit, ds.treatment))
        if "sl_weights" in ps_fit.meta:
            extras["sl_weights"] = {"ps": ps_fit.meta["sl_weights"]}
    elif est == "match":
        ps_fit = estimate_ps(ps_spec, ds, config.trim, seed=config.seed)
        warns.extend(ps_fit.flags)
        matches = ps_match(ps_fit, ds.treatment)
        res = match_ate(ds, matches)
        extras["balance"] = _balance_summary(ds, "match", matches)
        if config.bootstrap:
            def rerun(d2, s2):
                pf = estimate_ps(ps_spec, d2, config.trim, seed=s2)
                return match_ate(d2, ps_match(pf, d2.treatment)).estimate
            se, ci = bootstrap_ci(rerun, ds, B=config.bootstrap, seed=config.seed)
            res = AteResult(res.estimate, se, ci, None, res.method,
                            {**res.diagnostics, "se_method": "bootstrap"})
    elif est in ("aiptw", "tmle"):
        nuis = fit_nuisances(ds, ps_spec, out_spec, trim=config.trim, seed=config.seed)
        res = aiptw_ate(ds, nuis) if est == "aiptw" else tmle_ate(ds, nuis)
        extras["balance"] = _balance_summary(ds, "iptw", iptw_weights(nuis.ps, ds.treatment))
        if "sl_weights" in nuis.meta["ps"]:
            extras["sl_weights"] = {"ps": nuis.meta["ps"]["sl_weights"]}
        if "ps_flags" in nuis.meta:
            warns.extend(nuis.meta["ps_flags"])
    elif est == "dml":
        cfg = DmlConfig(k=config.dml_k, s=config.dml_s, aggregate=config.dml_aggregate,
                        ps_spec=ps_spec, outcome_spec=out_spec,
                        trim=config.trim, seed=config.seed)
        res = dml_ate(ds, cfg)
    elif est == "double_lasso":
        sel = double_lasso_select(ds.covariates, ds.treatment.astype(float), ds.outcome,
                                  v_folds=min(config.v_folds, 5), seed=config.seed)
        res = post_double_ate(ds, sel, config.pd_method, trim=config.trim, seed=config.seed)
    elif est.startswith("ctmle"):
        initial = fit_nuisances(ds, None, out_spec, trim=config.trim, seed=config.seed)
        fn = {
            "ctmle_greedy": ctmle_greedy,
            "ctmle_logistic": ctmle_preorder_logistic,
            "ctmle_correlation": ctmle_preorder_correlation,
            "ctmle_lasso": ctmle_lasso,
        }[est]
        v = max(2, min(config.v_folds, 5))
        res, trace = fn(ds, initial, V=v, trim=config.trim, seed=config.seed)
        extras["ctmle_trace"] = [
            {"candidate": k,
             "covariates_or_lambda": (c.lam if c.lam is not None
                                      else "+".join(str(j) for j in c.covariates) or "intercept"),
             "cv_loss": c.cv_loss,
             "chosen": k == trace.chosen_index}
            for k, c in enumerate(trace.candidates)
        ]
        warns.extend(trace.flags)
    else:
        raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATORS}")
    extras["warnings"] = warns
    return res, extras


def run(config: RunConfig) -> dict:
    """Execute ingestion, nuisance fitting, estimation, and reporting.

    Returns the report dict; the caller writes it and decides the exit code.
    Identical config and seed produce identical reports apart from timings.
    """
    t0 = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds, ingest_info = ingest_csv(config.data, config)
        t1 = time.time()
        res, extras = _execute(config, ds)
        t2 = time.time()
    warns = list(extras.pop("warnings", []))
    warns.extend(str(w.message) for w in caught)
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


def balance_cmd(config: RunConfig, adjustments: list[str], boost_trees: int = 500) -> str:
    """Balance table CSV for the requested adjustments (may be empty)."""
    ds, _ = ingest_csv(config.data, config)
    learners = {
        "logistic": LearnerSpec("logistic"),
        "boosted": BalanceBoostedPS(max_trees=boost_trees, max_depth=2, shrinkage=0.05,
                                    trim=config.trim),
        "sl": replace(demo_library(ds.d), V=config.v_folds),
    }
    fits: dict = {}
    pairs = []
    for adj in adjustments:
        if adj not in BALANCE_ADJUSTMENTS:
            raise ValueError(f"unknown adjustment {adj!r}; choose from {BALANCE_ADJUSTMENTS}")
        method, _, name = adj.partition("_")
        if name not in fits:
            fits[name] = estimate_ps(learners[name], ds, config.trim, seed=config.seed)
        adjust = iptw_weights if method == "iptw" else ps_match
        pairs.append((adj, adjust(fits[name], ds.treatment)))
    report = balance_table(ds, pairs)
    return report.to_csv()


def _sim_estimator(est_id: str, config: RunConfig):
    """Closure factory for the simulation driver; parametric nuisances."""

    def nuisances(ds, seed, need_ps=True, need_mu=True):
        binary = ds.outcome_kind.is_binary
        return fit_nuisances(
            ds,
            LearnerSpec("logistic") if need_ps else None,
            (LearnerSpec("logistic") if binary else LearnerSpec("ols")) if need_mu else None,
            trim=config.trim, seed=seed,
        )

    if est_id == "naive":
        return lambda draw, s: naive_ate(draw.dataset)
    if est_id == "reg":
        return lambda draw, s: reg_ate(draw.dataset, nuisances(draw.dataset, s, need_ps=False))
    if est_id == "iptw":
        return lambda draw, s: iptw_ate(
            draw.dataset, nuisances(draw.dataset, s, need_mu=False).ps)
    if est_id == "aiptw":
        return lambda draw, s: aiptw_ate(draw.dataset, nuisances(draw.dataset, s))
    if est_id == "tmle":
        return lambda draw, s: tmle_ate(draw.dataset, nuisances(draw.dataset, s))
    if est_id == "dml":
        def run_dml(draw, s):
            binary = draw.dataset.outcome_kind.is_binary
            cfg = DmlConfig(
                k=config.dml_k, s=config.dml_s, aggregate=config.dml_aggregate,
                ps_spec=LearnerSpec("logistic"),
                outcome_spec=LearnerSpec("logistic") if binary else LearnerSpec("ols"),
                trim=config.trim, seed=s,
            )
            return dml_ate(draw.dataset, cfg)
        return run_dml
    raise ValueError(f"unknown simulate estimator {est_id!r}")


def simulate_cmd(spec_name: str, estimator_ids: list[str], R: int, seed: int,
                 config: RunConfig) -> str:
    """Monte Carlo CSV: one row per estimator on the named generator."""
    catalogue = builtin_specs()
    if spec_name not in catalogue:
        raise ValueError(
            f"unknown spec {spec_name!r}; available: {', '.join(sorted(catalogue))}"
        )
    spec = catalogue[spec_name]
    lines = [McReport.CSV_HEADER]
    for est_id in estimator_ids:
        rep = mc_eval(_sim_estimator(est_id, config), spec, R, seed, label=est_id)
        lines.append(rep.to_csv_row())
    return "\n".join(lines) + "\n"


def export_dgp(spec_name: str, n: int | None, seed: int, out: str) -> str:
    """Write one generated dataset to CSV; returns the true-ATE summary line."""
    catalogue = builtin_specs()
    if spec_name not in catalogue:
        raise ValueError(
            f"unknown spec {spec_name!r}; available: {', '.join(sorted(catalogue))}"
        )
    spec = catalogue[spec_name]
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


_FLAGS = {
    "config": (("--config",), {"help": "flat key = value config file"}),
    "data": (("--data",), {}),
    "treatment": (("--treatment",), {}),
    "outcome": (("--outcome",), {}),
    "covariates": (("--covariates",),
                   {"help": "comma-separated covariate columns (default: all others)"}),
    "estimator": (("--estimator",), {"choices": ESTIMATORS}),
    "ps_learner": (("--ps-learner",), {}),
    "outcome_learner": (("--outcome-learner",), {}),
    "v_folds": (("--v-folds",), {"type": int}),
    "seed": (("--seed",), {"type": int}),
    "bootstrap": (("--bootstrap",), {"type": int}),
    "trim": (("--trim",), {"type": float}),
    "dml_k": (("--dml-k",), {"type": int}),
    "dml_s": (("--dml-s",), {"type": int}),
    "pd_method": (("--pd-method",), {"choices": ("reg", "iptw", "aiptw")}),
    "out": (("--out",), {}),
}
# The RunConfig flags each command reads; any other flag is an argparse error.
_COMMAND_FLAGS = {
    "run": tuple(_FLAGS),
    "balance": ("config", "data", "treatment", "outcome", "covariates", "v_folds", "seed",
                "trim", "out"),
    "simulate": ("config", "seed", "trim", "dml_k", "dml_s", "out"),
}


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_FLAGS[command]:
        flags, kwargs = _FLAGS[name]
        p.add_argument(*flags, dest=name, **kwargs)


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
                       help="comma-separated subset of naive,reg,iptw,aiptw,tmle,dml")
    p_sim.add_argument("-R", "--replications", type=int, default=100)

    p_exp = sub.add_parser("export-dgp", help="write a generated dataset as CSV")
    p_exp.add_argument("--spec", required=True)
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default="dgp.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args)
            if not config.data:
                raise ValueError("run needs --data (or a config file with a data key)")
            report = run(config)
            with open(config.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(summary_line(report))
            return 0
        if args.command == "balance":
            config = _config_from_args(args)
            if not config.data:
                raise ValueError("balance needs --data (or a config file with a data key)")
            adjustments = [a for a in args.adjust.split(",") if a.strip()]
            text = balance_cmd(config, adjustments, boost_trees=args.boost_trees)
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote balance table to {config.out}")
            return 0
        if args.command == "simulate":
            config = _config_from_args(args)
            estimators = [e for e in args.estimators.split(",") if e.strip()]
            text = simulate_cmd(args.spec, estimators, args.replications, config.seed, config)
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote Monte Carlo table to {config.out}")
            return 0
        if args.command == "export-dgp":
            print(export_dgp(args.spec, args.n, args.seed, args.out))
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - surface a machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
