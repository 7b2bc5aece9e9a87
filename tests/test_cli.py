"""Command-line tests on small exported datasets.

The golden values were produced by the command line before the learner
protocol replaced the per-type dispatch; they pin the numbers every run
must keep. ``ctmle_lasso`` could not run from the command line then, so its
values come from the library call the command line now makes. The four
forest goldens were rewritten when forest trees moved to one feature draw
per tree per level; ``test_monte_carlo.py`` checks those forests
statistically. ``lin aiptw --outcome-learner sl_small`` was added when the
Super Learners gained their regression form. The balance blocks of the
six dml cases were written when dml began to report the propensity record
of its first repetition; ``test_estimators.py`` recomputes that record by
hand. ``CTMLE_GOLDEN`` pins the diagnostics and the candidate path of every
CTMLE case as well. The balance blocks of the three plain ``double_lasso``
cases were written when ``double_lasso`` began to run its ``pd_method``
through the estimator dispatch, from a logistic propensity fitted by the
library on the selected covariates and weighed against all of them;
``POST_DOUBLE_GOLDEN`` pins the method and diagnostics of every
``double_lasso`` case. The seven ``sl_small`` cases (estimate, SE, balance
and weights) were rewritten when the meta-weights moved to an exact
active-set solver. A rewrite of that kind is held to a bound fixed before
it: per case, the estimate and the SE each move by at most 1e-6 times the
SE, and the set of zero weights and the warnings stay the same (they moved
by at most 1.5e-8 and 5.1e-9 times the SE).

The floats of these goldens, of ``CTMLE_GOLDEN`` and of the balance and
simulate tables that moved were rewritten when ``expit`` and ``logit`` moved
from scipy to numpy (``ateml.core``), whose ``exp`` and ``log`` round
differently on about 2 % of inputs. The bound, fixed before the rewrite: the estimate and
the SE each move by at most 1e-12 times the SE in a case without a
Bernoulli boosting stage, and by at most 1e-3 times the SE in one whose
learner grows such stages (``boost`` on a 0/1 target, ``twang``, the boost
candidate of ``sl_small``), since a stage's gradient y - expit(F) moves by
rounding and can flip a near-tied split. Warnings and flags, zero weights,
CTMLE candidate sets and choices, selected covariates and simulate coverage
stay equal. ``lin dml --ps-learner boost --dml-s 1`` moved its estimate by
1.1e-4 and ``bin tmle --outcome-learner boost`` its SE by 1.5e-4 times the
SE; the other 61 cases moved by at most 2.8e-15 times the SE.
"""

import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ateml
from ateml.cli import ESTIMATORS, RunConfig, ingest_csv, main, parse_learner, run
from ateml.core import LearnerSpec, rng_from

EXPORTS = {
    "lin": ("confounded_linear", 300, 7),
    "bin": ("confounded_binary", 300, 7),
    "sparse": ("sparse_highdim", 300, 7),
}

SPARSE_GREEDY = ",".join(f"x{j}" for j in range(1, 9))
DML1 = ("--dml-s", "1")

# (stem, estimator, extra flags); the case name is the three joined.
CASES = (
    [(stem, est, ()) for stem in ("lin", "bin") for est in ESTIMATORS]
    + [("sparse", est, ()) for est in ("double_lasso", "ctmle_logistic",
                                       "ctmle_correlation", "ctmle_lasso")]
    + [("lin", "double_lasso", ("--pd-method", pd)) for pd in ("reg", "iptw")]
    + [("sparse", "ctmle_greedy", ("--covariates", SPARSE_GREEDY)),
       ("lin", "reg", ("--bootstrap", "100")),
       ("lin", "match", ("--bootstrap", "100"))]
    + [("lin", est, ("--ps-learner", "twang")) for est in ("iptw", "match", "aiptw", "tmle")]
    + [("lin", est, ("--ps-learner", "sl_small")) for est in ("iptw", "aiptw", "tmle")]
    + [("lin", "iptw", ("--ps-learner", "sl_small", "--v-folds", "5")),
       ("lin", "dml", ("--ps-learner", "sl_small") + DML1)]
    + [("lin", est, ("--ps-learner", "boost")) for est in ("iptw", "aiptw")]
    + [("lin", "dml", ("--ps-learner", "boost") + DML1),
       ("lin", "aiptw", ("--ps-learner", "forest")),
       ("lin", "dml", ("--ps-learner", "forest") + DML1)]
    + [("lin", est, ("--outcome-learner", "boost"))
       for est in ("reg", "aiptw", "tmle", "ctmle_correlation")]
    + [("lin", "dml", ("--outcome-learner", "boost") + DML1),
       ("lin", "reg", ("--outcome-learner", "forest")),
       ("lin", "aiptw", ("--ps-learner", "forest", "--outcome-learner", "forest"))]
    + [("lin", "iptw", ("--ps-learner", name)) for name in ("lasso", "tree", "logistic_interactions")]
    + [("lin", "reg", ("--outcome-learner", name)) for name in ("lasso", "tree")]
    + [("bin", "aiptw", ("--outcome-learner", "sl_small")),
       ("lin", "aiptw", ("--outcome-learner", "sl_small")),
       ("bin", "tmle", ("--outcome-learner", "boost")),
       ("bin", "iptw", ("--ps-learner", "twang"))]
)


def case_name(stem, est, flags):
    return " ".join((stem, est) + tuple(flags))


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("exports")
    paths = {}
    for stem, (spec, n, seed) in EXPORTS.items():
        path = root / f"{stem}.csv"
        assert main(["export-dgp", "--spec", spec, "--n", str(n), "--seed", str(seed),
                     "--out", str(path)]) == 0
        paths[stem] = str(path)
    return paths


def cli_report(path, out, est, flags):
    code = main(["run", "--data", path, "--estimator", est, "--out", str(out), *flags])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("stem,est,flags", CASES, ids=[case_name(*c) for c in CASES])
def test_golden_report(data, tmp_path, stem, est, flags):
    report = cli_report(data[stem], tmp_path / "r.json", est, flags)
    want = GOLDEN[case_name(stem, est, flags)]
    got = report["result"]
    assert got["estimate"] == want["estimate"]
    assert got["se"] == want["se"]
    for block in ("balance", "sl_weights", "warnings"):
        assert report[block] == want[block], block
    if est == "double_lasso":
        assert (got["method"], got["diagnostics"]) == POST_DOUBLE_GOLDEN[case_name(stem, est, flags)]
    ctmle = CTMLE_GOLDEN.get(case_name(stem, est, flags))
    if ctmle is not None:
        assert got["diagnostics"] == ctmle["diagnostics"]
        assert report["ctmle_trace"] == [dict(zip(TRACE_KEYS, row)) for row in ctmle["trace"]]


@pytest.mark.parametrize("stem,est,flags", [
    ("lin", "dml", ("--ps-learner", "forest") + DML1),
    ("lin", "aiptw", ("--ps-learner", "sl_small", "--outcome-learner", "boost")),
    ("lin", "match", ("--ps-learner", "twang")),
    ("lin", "match", ("--bootstrap", "100")),
    ("sparse", "ctmle_greedy", ("--covariates", SPARSE_GREEDY)),
    ("lin", "ctmle_lasso", ()),
])
def test_two_runs_equal_apart_from_timings(data, tmp_path, stem, est, flags):
    first = cli_report(data[stem], tmp_path / "a.json", est, flags)
    second = cli_report(data[stem], tmp_path / "b.json", est, flags)
    first.pop("timings")
    second.pop("timings")
    assert first["config"].pop("out") != second["config"].pop("out")
    assert first == second


BALANCE_CSV = """\
covariate,smd_unweighted,smd_iptw_logistic,smd_match_boosted,smd_iptw_boosted,smd_match_logistic
x1,0.4926025298649842,0.004694612291851833,-0.10956381162243835,0.20042356422662685,-0.047934167584816736
x2,-0.2139466415037112,-0.0008335312713773389,0.03341375459664038,-0.13223858286594548,-0.07351026011260864
x3,0.4430658112484686,0.013731051478258363,-0.18601874183187567,0.19319685018476457,-0.03444791515405117
x4,0.15739897709408932,0.04286855603355223,-0.04025843577078849,0.042602239303439704,0.14917776167974903
x5,0.04035864970143255,-0.0054158668026181795,0.05824208724612697,0.01926949380237726,-0.031862922152287115
x6,0.08114862622417114,-0.04469284479151187,0.02408618780268182,0.025575520506429437,-0.02699438091074266
"""


def test_golden_balance_table(data, tmp_path):
    out = tmp_path / "balance.csv"
    assert main(["balance", "--data", data["lin"], "--boost-trees", "100", "--out", str(out),
                 "--adjust", "iptw_logistic,match_boosted,iptw_boosted,match_logistic"]) == 0
    assert out.read_text(encoding="utf-8") == BALANCE_CSV


# Written by the command line before `simulate` shared `run`'s estimator
# dispatch; every simulated number must stay as it was. The confounded_binary
# true_ate, bias and rmse were rewritten when the binary truth became exact
# (the truth moved by -4.9e-6); estimates, mc_se and intervals did not move.
# The last digits moved again with numpy's expit and logit (see the module
# docstring); the truths and every coverage did not.
SIMULATE_CSV = {
    "confounded_linear": """\
estimator,spec,R,failures,true_ate,bias,mc_se,rmse,coverage,mean_ci_width
naive,confounded_linear,4,0,1.0,-0.18795562538409294,0.019214947426482814,0.19087943767554688,0.0,0.2480215665908329
reg,confounded_linear,4,0,1.0,-0.019247012645581374,0.026874299939411327,0.05036994627235075,,
iptw,confounded_linear,4,0,1.0,-0.03433727772091033,0.025154850161059693,0.05547385060692127,1.0,0.4006874657373173
aiptw,confounded_linear,4,0,1.0,-0.019457570999649842,0.024891793876158145,0.04730117626788837,1.0,0.19523668723880389
tmle,confounded_linear,4,0,1.0,-0.019522799296384452,0.024907704659185383,0.047353151389686085,1.0,0.19521016934048196
dml,confounded_linear,4,0,1.0,-0.016259721657911008,0.02687891863486277,0.049313358730991505,1.0,0.20010451953914118
""",
    "confounded_binary": """\
estimator,spec,R,failures,true_ate,bias,mc_se,rmse,coverage,mean_ci_width
naive,confounded_binary,4,0,0.16589235008913603,-0.025006893847291045,0.008799020827571993,0.029285031030576354,1.0,0.08503260476813113
reg,confounded_binary,4,0,0.16589235008913603,-0.014083711102823665,0.008938273887517483,0.02092914567517341,,
iptw,confounded_binary,4,0,0.16589235008913603,-0.012610535733355799,0.008749981842516408,0.019715784494037863,1.0,0.14588768577370514
aiptw,confounded_binary,4,0,0.16589235008913603,-0.013810361541541444,0.009198345462984833,0.02108446735578889,1.0,0.08505203879240951
tmle,confounded_binary,4,0,0.16589235008913603,-0.013804027839851601,0.009199784037835758,0.02108220253274905,1.0,0.08505035576617083
dml,confounded_binary,4,0,0.16589235008913603,-0.014220099875935227,0.009605550975263964,0.021886321506748376,1.0,0.08785174983957938
""",
}


@pytest.mark.parametrize("spec", sorted(SIMULATE_CSV))
def test_golden_simulate_table(tmp_path, spec):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--spec", spec, "--estimators", "naive,reg,iptw,aiptw,tmle,dml",
                 "-R", "4", "--seed", "5", "--dml-s", "3", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == SIMULATE_CSV[spec]


# The CLI's learner table, with sl_small standing in for the 15-candidate sl.
TABLE = ("logistic", "logistic_interactions", "ols", "lasso", "tree", "forest",
         "boost", "sl_small", "twang")
# Rejected in the outcome role of a continuous outcome: twang models
# treatment only, the rest need a 0/1 target.
OUTCOME_REJECTED = {"twang", "logistic", "logistic_interactions"}


@pytest.mark.slow
@pytest.mark.parametrize("role", ["ps_learner", "outcome_learner"])
@pytest.mark.parametrize("est", ESTIMATORS)
def test_every_estimator_learner_combination(data, role, est):
    for name in TABLE:
        config = RunConfig(data=data["lin"], estimator=est, dml_s=1, **{role: name})
        if role == "outcome_learner" and name in OUTCOME_REJECTED:
            with pytest.raises(ValueError, match="outcome learner"):
                run(config)
            continue
        report = run(config)
        assert np.isfinite(report["result"]["estimate"]), (est, role, name)


def test_rejected_outcome_learner_fails_before_fitting(data, monkeypatch):
    import ateml.cli as cli_mod

    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance model was fitted")

    monkeypatch.setattr(cli_mod, "fit_nuisances", no_fit)
    with pytest.raises(ValueError, match="outcome learner"):
        run(RunConfig(data=data["lin"], estimator="aiptw", outcome_learner="twang"))


def test_sl_for_a_continuous_outcome_swaps_logistic_for_ols():
    for name, swapped in (("sl", ("ols", "ols_interactions")), ("sl_small", ("ols",))):
        config = RunConfig(outcome_learner=name, ps_learner=name)
        ps_lib = parse_learner(config, 6, "ps")
        assert parse_learner(config, 6, "outcome", True) == ps_lib
        lib = parse_learner(config, 6, "outcome", False)
        k = len(swapped)
        assert lib.names == swapped + ps_lib.names[k:]
        assert lib.candidates[k:] == ps_lib.candidates[k:] and lib.V == ps_lib.V
        assert lib.candidates[:k] == (LearnerSpec("ols"), LearnerSpec("ols", {"interactions": True}))[:k]


def test_auto_propensity_learner_is_logistic(data, tmp_path):
    # the treatment is binary whatever the outcome, so auto never means OLS
    # in the propensity role
    auto = cli_report(data["lin"], tmp_path / "a.json", "iptw", ("--ps-learner", "auto"))
    logistic = cli_report(data["lin"], tmp_path / "b.json", "iptw", ("--ps-learner", "logistic"))
    for report in (auto, logistic):
        report.pop("timings")
        report["config"].pop("out")
    assert auto["config"].pop("ps_learner") == "auto"
    assert logistic["config"].pop("ps_learner") == "logistic"
    assert auto == logistic


def x1_is_treatment(src, tmp_path):
    """A copy of the CSV at ``src`` whose x1 column equals the treatment."""
    rows = [line.split(",") for line in open(src, encoding="utf-8").read().splitlines()]
    x1, a = rows[0].index("x1"), rows[0].index("treatment")
    for row in rows[1:]:
        row[x1] = row[a]
    path = tmp_path / "x1_is_treatment.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return str(path)


def test_run_reports_each_distinct_warning_once(data, tmp_path):
    # x1 equal to the treatment is degenerate within each arm, which every
    # ASAM stage of twang warns about
    path = x1_is_treatment(data["lin"], tmp_path)
    report = cli_report(path, tmp_path / "r.json", "iptw", ("--ps-learner", "twang"))
    assert report["warnings"] == ["positivity_warning",
                                  "degenerate covariate columns excluded from ASAM: [0]"]


def outcome_separated_by_x1(tmp_path):
    """A CSV whose binary outcome is separated by x1 within each arm, while
    the treatment is not: each arm's outcome fit is flagged, the propensity
    fit is not."""
    x1 = np.tile(np.repeat([-1e-3, 1e-3], 20), 2)
    x2 = rng_from(0).permutation(np.linspace(-1.0, 1.0, 80))
    A = np.repeat([1, 0], 40)
    lines = ["x1,x2,treatment,outcome"] + [f"{a!r},{b!r},{t},{int(a > 0)}"
                                           for a, b, t in zip(x1.tolist(), x2.tolist(), A)]
    path = tmp_path / "separated.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("est", ["reg", "aiptw", "tmle", "dml", "ctmle_logistic",
                                 "ctmle_correlation", "ctmle_lasso"])
def test_outcome_model_flags_reach_the_report(tmp_path, est):
    report = cli_report(outcome_separated_by_x1(tmp_path), tmp_path / "r.json", est, ())
    assert report["warnings"] == ["separation_ridge"]


def test_one_balance_table_and_no_learner_parse_per_replicate(data, tmp_path, monkeypatch):
    import ateml.cli as cli_mod

    calls = {"balance_table": 0, "parse_learner": 0}

    def counted(name):
        fn = getattr(cli_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli_mod, name, wrapper)

    counted("balance_table")
    counted("parse_learner")
    cli_report(data["lin"], tmp_path / "r.json", "match", ("--bootstrap", "100"))
    assert calls == {"balance_table": 1, "parse_learner": 2}
    calls.update(balance_table=0, parse_learner=0)
    assert main(["simulate", "--spec", "confounded_linear", "--estimators", "naive,match,iptw",
                 "-R", "5", "--out", str(tmp_path / "sim.csv")]) == 0
    assert calls == {"balance_table": 0, "parse_learner": 2}


def test_simulate_runs_every_run_estimator(tmp_path, capsys):
    import ateml.cli as cli_mod

    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    help_words = re.findall(r"\w+", capsys.readouterr().out)
    doc_words = re.findall(r"\w+", cli_mod.__doc__)
    for est in ESTIMATORS:
        assert est in doc_words and est in help_words
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--spec", "confounded_linear", "--estimators", "match",
                 "-R", "3", "--seed", "2", "--out", str(out)]) == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["estimator"], fields["R"], fields["failures"]) == ("match", "3", "0")
    assert fields["coverage"] == fields["mean_ci_width"] == ""
    assert main(["simulate", "--spec", "confounded_linear", "--estimators", "no_such",
                 "-R", "3", "--out", str(out)]) == 1


# ---------------------------------------------------------------------------
# configuration files: any flag given on the command line wins over the file
# ---------------------------------------------------------------------------


def test_config_file_skips_comments_and_blank_lines(data, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n\n  data = {data['lin']}\n   # indented comment\n"
                   f"estimator = iptw\nseed=3\nout = {tmp_path / 'r.json'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert (report["config"]["estimator"], report["config"]["seed"]) == ("iptw", 3)
    assert report["result"]["estimate"] == GOLDEN["lin iptw"]["estimate"]


@pytest.mark.parametrize("line,message", [
    ("estimator iptw", "config line 2 is not 'key = value'"),
    ("no_such_key = 1", "unknown config key 'no_such_key'"),
    ("estimator = ctmle_x", "unknown estimator 'ctmle_x'"),
])
def test_config_file_rejects_bad_lines(data, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data['lin']}\n{line}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and message in record["message"]
    assert not (tmp_path / "r.json").exists()


def test_command_line_flag_wins_over_config_file(data, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data['lin']}\nestimator = naive\nseed = 3\n"
                   f"out = {tmp_path / 'file.json'}\n")
    out = tmp_path / "flag.json"
    assert main(["run", "--config", str(cfg), "--estimator", "aiptw", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"]["estimator"] == "aiptw" and report["config"]["seed"] == 3
    assert report["result"]["estimate"] == GOLDEN["lin aiptw"]["estimate"]
    assert not (tmp_path / "file.json").exists()


def test_simulate_applies_learners_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("ps_learner = no_such_learner\n")
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--spec", "confounded_linear",
                 "--estimators", "iptw", "-R", "3", "--out", str(out)]) == 1
    assert "unknown learner 'no_such_learner'" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_match_reports_the_super_learner_weights(data, tmp_path):
    # the weights of the propensity model it matches on, as iptw reports
    # them; the estimate, balance and warnings are those of the command line
    # before match reported any weights
    report = cli_report(data["lin"], tmp_path / "r.json", "match", ("--ps-learner", "sl_small"))
    assert report["sl_weights"] == GOLDEN["lin iptw --ps-learner sl_small"]["sl_weights"]
    assert report["result"]["estimate"] == 0.7489319532427604
    assert report["balance"] == {"asam_match": 0.08040142544692891,
                                 "asam_unweighted": 0.23808687260614284,
                                 "flagged_match": 2, "flagged_unweighted": 4}
    assert report["warnings"] == []


def test_dml_with_twang_ps(data):
    report = run(RunConfig(data=data["lin"], estimator="dml", ps_learner="twang", dml_s=1))
    diag = report["result"]["diagnostics"]
    assert diag["provenance"] == "cross_fitted"
    assert report["result"]["estimate"] == diag["split_estimates"][0]


def test_report_writes_json_booleans(data, tmp_path):
    # the dict-level goldens cannot tell True from 1; the written text can
    out = tmp_path / "r.json"
    assert main(["run", "--data", data["lin"], "--estimator", "ctmle_logistic",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count('"chosen": true') == 1
    assert '"chosen": 0' not in text and '"chosen": 1' not in text


NULL_BALANCE = {"asam_unweighted": None, "asam_iptw": None, "flagged_unweighted": 0,
                "flagged_iptw": 0}


@pytest.mark.parametrize("est,flags,warning,balance", [
    *(pytest.param(est, (), "separation_ridge", NULL_BALANCE, id=est)
      for est in ("iptw", "aiptw", "tmle", "dml")),
    pytest.param("iptw", ("--ps-learner", "twang"), "balance_undefined", NULL_BALANCE,
                 id="iptw-twang"),
    *(pytest.param(est, (), "separation_ridge", None, id=est)
      for est in ("ctmle_greedy", "ctmle_logistic", "ctmle_correlation")),
])
def test_learner_flags_reach_the_warnings(tmp_path, est, flags, warning, balance):
    # x1 = +-1e-3 separates the arms: the logistic propensity fit, cross-fitted
    # or not, and every CTMLE candidate on x1 is refitted with a ridge and says
    # so. Both arms are constant, so every SMD is degenerate whatever the
    # weights: twang keeps its stage-0 model and says so, and each ASAM is
    # written as null. CTMLE reports no balance.
    path = tmp_path / "separated.csv"
    rows = [f"{x},{int(x > 0)},{k}" for k, x in enumerate([-1e-3] * 20 + [1e-3] * 20)]
    path.write_text("\n".join(["x1,treatment,outcome"] + rows) + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["run", "--data", str(path), "--estimator", est, *flags, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert report["warnings"] == [warning]
    assert report["balance"] == balance
    assert "NaN" not in text


def test_balance_reports_the_flags_of_its_propensity_fits(data, tmp_path, capsys):
    # on the separated file above, the logistic fit is refitted with a ridge
    # and twang keeps its stage-0 model: each flag once, in adjustment order,
    # as one JSON line on stderr; a file that raises no flag prints nothing
    path = tmp_path / "separated.csv"
    rows = [f"{x},{int(x > 0)},{k}" for k, x in enumerate([-1e-3] * 20 + [1e-3] * 20)]
    path.write_text("\n".join(["x1,treatment,outcome"] + rows) + "\n", encoding="utf-8")
    out = tmp_path / "b.csv"
    assert main(["balance", "--data", str(path), "--boost-trees", "20", "--out", str(out),
                 "--adjust", "iptw_logistic,match_boosted,match_logistic,iptw_boosted"]) == 0
    assert json.loads(capsys.readouterr().err) == {
        "warnings": ["separation_ridge", "balance_undefined"]}
    assert main(["balance", "--data", data["lin"], "--adjust", "iptw_logistic",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("est,cap", [
    *(pytest.param(est, "_IRLS_CAP", id=est)
      for est in ("iptw", "dml", "ctmle_logistic", "ctmle_correlation", "ctmle_greedy")),
    pytest.param("ctmle_lasso", "_LOGIT_LASSO_CAP", id="ctmle_lasso"),
])
def test_iteration_cap_reaches_the_warnings(data, tmp_path, monkeypatch, est, cap):
    # two IRLS steps, or two l1-logistic passes, leave the propensity fits
    # unconverged; CTMLE lists its own forced acceptances first
    monkeypatch.setattr(ateml.learners, cap, 2)
    flags = {"dml": DML1, "ctmle_greedy": ("--covariates", "x1,x2,x3")}.get(est, ())
    report = cli_report(data["lin"], tmp_path / "r.json", est, flags)
    forced = [w for w in report["warnings"] if w.startswith("forced_accept_stage_")]
    assert report["warnings"] == forced + ["iteration_cap"]


def record_fits(monkeypatch):
    """Record each call of the command line's ``double_lasso_select`` and
    ``fit_nuisances``; a fit is recorded as which of its two learners were
    given, (propensity, outcome)."""
    import ateml.cli as cli_mod

    calls = []
    select, fit = cli_mod.double_lasso_select, cli_mod.fit_nuisances

    def recorded_select(*args, **kwargs):
        calls.append("select")
        return select(*args, **kwargs)

    def recorded_fit(ds, ps_spec=None, outcome_spec=None, **kwargs):
        calls.append((ps_spec is not None, outcome_spec is not None))
        return fit(ds, ps_spec, outcome_spec, **kwargs)

    monkeypatch.setattr(cli_mod, "double_lasso_select", recorded_select)
    monkeypatch.setattr(cli_mod, "fit_nuisances", recorded_fit)
    return calls


@pytest.mark.parametrize("pd_method,fitted", [("reg", (False, True)), ("iptw", (True, False)),
                                              ("aiptw", (True, True))])
def test_double_lasso_fits_only_what_its_pd_method_uses(data, monkeypatch, pd_method, fitted):
    calls = record_fits(monkeypatch)
    run(RunConfig(data=data["lin"], estimator="double_lasso", pd_method=pd_method))
    assert calls == ["select", fitted]


def test_double_lasso_reg_takes_a_bootstrap_standard_error(data, monkeypatch):
    # post-double reg has no analytic SE; each replicate reruns the selection
    calls = record_fits(monkeypatch)
    report = run(RunConfig(data=data["lin"], estimator="double_lasso", pd_method="reg",
                           bootstrap=100))
    got = report["result"]
    assert got["estimate"] == GOLDEN["lin double_lasso --pd-method reg"]["estimate"]
    assert (got["se"], got["ci_lo"], got["ci_hi"]) == (
        0.13168537915696268, 0.7154554950195413, 1.179490042362116)
    assert got["diagnostics"]["se_method"] == "bootstrap"
    assert calls == ["select", (False, True)] * 101


@pytest.mark.parametrize("pd_method", ["dml", "double_lasso"])
def test_a_bad_pd_method_is_rejected_before_any_fit(data, tmp_path, capsys, monkeypatch,
                                                    pd_method):
    calls = record_fits(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"estimator = double_lasso\npd_method = {pd_method}\n")
    out = tmp_path / "out"
    for command, flags in (("run", ("--data", data["lin"])),
                           ("simulate", ("--spec", "confounded_linear", "--estimators",
                                         "double_lasso", "-R", "2"))):
        assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert f"unknown pd_method {pd_method!r}" in record["message"]
        assert calls == [] and not out.exists()


def test_double_lasso_reports_the_warnings_of_its_propensity(data, tmp_path):
    # x1 equal to the treatment is selected, and its propensity clips more
    # than a tenth of the units, as it does for aiptw on all covariates
    path = x1_is_treatment(data["lin"], tmp_path)
    for est in ("aiptw", "double_lasso"):
        report = cli_report(path, tmp_path / "r.json", est, ())
        assert report["warnings"] == ["positivity_warning"], est
    assert "x1" in report["result"]["diagnostics"]["selected"]


def test_double_lasso_with_an_empty_selection_reports_the_naive_contrast(data, monkeypatch):
    import ateml.cli as cli_mod
    from ateml.selection import SelectionResult

    monkeypatch.setattr(cli_mod, "double_lasso_select", lambda *args: SelectionResult((), ()))
    naive = run(RunConfig(data=data["lin"]))["result"]
    report = run(RunConfig(data=data["lin"], estimator="double_lasso", pd_method="iptw"))
    got = report["result"]
    assert (got["estimate"], got["se"]) == (naive["estimate"], naive["se"])
    assert got["method"] == "post_double_iptw"
    assert got["diagnostics"] == {**naive["diagnostics"], "selected": [],
                                  "warning": "empty_selection_naive_comparison"}
    assert report["balance"] is None and report["warnings"] == []


@pytest.mark.parametrize("flags", [("--ps-learner", "forest"), ("--outcome-learner", "tree")])
def test_double_lasso_runs_the_configured_learners(data, tmp_path, flags):
    report = cli_report(data["lin"], tmp_path / "r.json", "double_lasso", flags)
    assert report["result"]["estimate"] != GOLDEN["lin double_lasso"]["estimate"]
    assert report["result"]["diagnostics"]["selected"] == LIN_SELECTED


@pytest.mark.parametrize("est", ["iptw", "match", "aiptw", "tmle", "dml", "double_lasso",
                                 "ctmle_greedy", "ctmle_logistic", "ctmle_correlation",
                                 "ctmle_lasso"])
def test_every_estimator_that_trims_rejects_a_trim_outside_its_range(data, est):
    for trim in (0.7, 0.0):
        with pytest.raises(ValueError, match=re.escape("trim must be in (0, 0.5)")):
            run(RunConfig(data=data["lin"], estimator=est, trim=trim))


def test_ingest_drops_and_counts_rows_with_a_bad_cell(tmp_path):
    good = [f"{t},{0.5 * k},{k},{-k}" for k, t in enumerate([0, 1] * 8)]
    bad = ["1,nan,1,2", "0,1.0,inf,2", "1,1.0,3,-inf", "0,1.0,,2", "1,1.0,3,abc",
           ",1.0,3,2", "1,NaN,1,2", "0,1.0,Infinity,2", "1,1.0,3",
           # more cells than the header; a digit separator, which float() accepts
           "1,3,4,5,6", "1,3,4,5,", "0,1_0,3,2", "1,1.0,3,2_5"]
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(["treatment,outcome,x1,x2"] + good[:5] + bad + good[5:]) + "\n")
    ds, info = ingest_csv(str(path), RunConfig(data=str(path)))
    assert info["rows_dropped"] == len(bad)
    assert ds.n == len(good)
    assert ds.covariates.tolist() == [[k, -k] for k in range(16)]
    assert ds.outcome.tolist() == [0.5 * k for k in range(16)]
    # only the selected cells are read: x2 = -inf, abc or 2_5 drops no row
    ds, info = ingest_csv(str(path), RunConfig(data=str(path), covariates=("x1",)))
    assert (ds.n, info["rows_dropped"]) == (len(good) + 3, len(bad) - 3)


def test_ingest_keeps_one_float_per_selected_cell(tmp_path):
    # the rows are parsed in one pass into one float64 table: 50,000 rows of
    # 8 columns are 3.2 MB of it, where one Python string per cell took 49.5
    path = tmp_path / "big.csv"
    assert main(["export-dgp", "--spec", "confounded_linear", "--n", "50000", "--seed", "3",
                 "--out", str(path)]) == 0
    tracemalloc.start()
    try:
        ds, info = ingest_csv(str(path), RunConfig(data=str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
    assert (ds.n, ds.d, info["rows_dropped"]) == (50000, 6, 0)
    for a in (ds.covariates, ds.treatment, ds.outcome):
        assert a.flags.c_contiguous


def test_ingest_rejects_a_header_that_names_a_column_twice(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("treatment,outcome,x1,x1\n" + "".join(f"{k % 2},{k},{k},{-k}\n" for k in range(6)))
    with pytest.raises(ValueError, match=re.escape("['x1'] named more than once in the header")):
        ingest_csv(str(path), RunConfig(data=str(path)))


@pytest.mark.parametrize("flags,message", [
    (("--covariates", "x1,x2,treatment"), "covariates include the treatment or outcome column"),
    (("--covariates", "x1,outcome"), "covariates include the treatment or outcome column"),
    (("--covariates", "x1,x2,x1"), "['x1'] named more than once in the covariates"),
    (("--treatment", "outcome", "--outcome", "outcome"),
     "treatment and outcome are the same column 'outcome'"),
], ids=["covariate_is_treatment", "covariate_is_outcome", "covariate_twice", "treatment_is_outcome"])
def test_run_rejects_columns_in_two_roles(data, tmp_path, capsys, flags, message):
    out = tmp_path / "r.json"
    code = main(["run", "--data", data["lin"], "--estimator", "aiptw", "--out", str(out), *flags])
    assert code == 1
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "ValueError" and message in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("simulate", ("--spec", "confounded_linear", "--ps-learner", "no_such_learner")),
    ("simulate", ("--spec", "confounded_linear", "--bootstrap", "10")),
    ("simulate", ("--spec", "confounded_linear", "--data", "x.csv")),
    ("balance", ("--data", "x.csv", "--outcome-learner", "boost")),
    ("balance", ("--data", "x.csv", "--dml-k", "3")),
])
def test_commands_reject_flags_they_do_not_read(tmp_path, command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GOLDEN = {'lin naive': {'estimate': 1.0164181161936257,
               'se': 0.1678946823235498,
               'balance': None,
               'sl_weights': None,
               'warnings': []},
 'lin reg': {'estimate': 0.9672815345323706,
             'se': None,
             'balance': None,
             'sl_weights': None,
             'warnings': []},
 'lin iptw': {'estimate': 0.9518027206038913,
              'se': 0.2653928017741435,
              'balance': {'asam_iptw': 0.018706077111528302,
                          'asam_unweighted': 0.23808687260614284,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 4},
              'sl_weights': None,
              'warnings': []},
 'lin match': {'estimate': 0.9716547587540603,
               'se': None,
               'balance': {'asam_match': 0.06065456793237589,
                           'asam_unweighted': 0.23808687260614284,
                           'flagged_match': 1,
                           'flagged_unweighted': 4},
               'sl_weights': None,
               'warnings': []},
 'lin aiptw': {'estimate': 0.9432451931101158,
               'se': 0.1283131398276581,
               'balance': {'asam_iptw': 0.018706077111528302,
                           'asam_unweighted': 0.23808687260614284,
                           'flagged_iptw': 0,
                           'flagged_unweighted': 4},
               'sl_weights': None,
               'warnings': []},
 'lin tmle': {'estimate': 0.9425805592767292,
              'se': 0.1282676941144259,
              'balance': {'asam_iptw': 0.018706077111528302,
                          'asam_unweighted': 0.23808687260614284,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 4},
              'sl_weights': None,
              'warnings': []},
 'lin dml': {'estimate': 0.920014487863433,
             'se': 0.15710527138368585,
             'balance': {'asam_iptw': 0.07503993130076095,
                         'asam_unweighted': 0.23808687260614284,
                         'flagged_iptw': 2,
                         'flagged_unweighted': 4},
             'sl_weights': None,
             'warnings': []},
 'lin double_lasso': {'estimate': 0.9432451931101158,
                      'se': 0.1283131398276581,
                      'balance': {'asam_iptw': 0.01870607711152829,
                                  'asam_unweighted': 0.23808687260614284,
                                  'flagged_iptw': 0,
                                  'flagged_unweighted': 4},
                      'sl_weights': None,
                      'warnings': []},
 'lin ctmle_greedy': {'estimate': 0.9672300980450854,
                      'se': 0.11365252242558586,
                      'balance': None,
                      'sl_weights': None,
                      'warnings': ['forced_accept_stage_3', 'forced_accept_stage_4']},
 'lin ctmle_logistic': {'estimate': 0.9672300980450854,
                        'se': 0.11365252242558586,
                        'balance': None,
                        'sl_weights': None,
                        'warnings': []},
 'lin ctmle_correlation': {'estimate': 0.9672815345323705,
                           'se': 0.11350720467486962,
                           'balance': None,
                           'sl_weights': None,
                           'warnings': []},
 'lin ctmle_lasso': {'estimate': 0.9438132187020648,
                     'se': 0.12711563240511123,
                     'balance': None,
                     'sl_weights': None,
                     'warnings': []},
 'bin naive': {'estimate': 0.20261437908496727,
               'se': 0.05619880151170097,
               'balance': None,
               'sl_weights': None,
               'warnings': []},
 'bin reg': {'estimate': 0.18695779791509098,
             'se': None,
             'balance': None,
             'sl_weights': None,
             'warnings': []},
 'bin iptw': {'estimate': 0.1760433232974312,
              'se': 0.10116120397324031,
              'balance': {'asam_iptw': 0.020164052047278933,
                          'asam_unweighted': 0.22767444403166684,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 5},
              'sl_weights': None,
              'warnings': []},
 'bin match': {'estimate': 0.2,
               'se': None,
               'balance': {'asam_match': 0.07094503314500562,
                           'asam_unweighted': 0.22767444403166684,
                           'flagged_match': 1,
                           'flagged_unweighted': 5},
               'sl_weights': None,
               'warnings': []},
 'bin aiptw': {'estimate': 0.18285822853878456,
               'se': 0.054086619619599985,
               'balance': {'asam_iptw': 0.020164052047278933,
                           'asam_unweighted': 0.22767444403166684,
                           'flagged_iptw': 0,
                           'flagged_unweighted': 5},
               'sl_weights': None,
               'warnings': []},
 'bin tmle': {'estimate': 0.18277577332755954,
              'se': 0.05407667985342566,
              'balance': {'asam_iptw': 0.020164052047278933,
                          'asam_unweighted': 0.22767444403166684,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 5},
              'sl_weights': None,
              'warnings': []},
 'bin dml': {'estimate': 0.1895639446324033,
             'se': 0.07059325969552577,
             'balance': {'asam_iptw': 0.10937208239297869,
                         'asam_unweighted': 0.22767444403166684,
                         'flagged_iptw': 3,
                         'flagged_unweighted': 5},
             'sl_weights': None,
             'warnings': []},
 'bin double_lasso': {'estimate': 0.18285822853878458,
                      'se': 0.054086619619599985,
                      'balance': {'asam_iptw': 0.020164052047278794,
                                  'asam_unweighted': 0.22767444403166684,
                                  'flagged_iptw': 0,
                                  'flagged_unweighted': 5},
                      'sl_weights': None,
                      'warnings': []},
 'bin ctmle_greedy': {'estimate': 0.1818322739281439,
                      'se': 0.05148179756863079,
                      'balance': None,
                      'sl_weights': None,
                      'warnings': []},
 'bin ctmle_logistic': {'estimate': 0.18658048012625197,
                        'se': 0.051654441093053775,
                        'balance': None,
                        'sl_weights': None,
                        'warnings': []},
 'bin ctmle_correlation': {'estimate': 0.18695779791509098,
                           'se': 0.05144454955347385,
                           'balance': None,
                           'sl_weights': None,
                           'warnings': []},
 'bin ctmle_lasso': {'estimate': 0.18303424196173423,
                     'se': 0.053754416975801786,
                     'balance': None,
                     'sl_weights': None,
                     'warnings': []},
 'sparse double_lasso': {'estimate': 1.0150130902829573,
                         'se': 0.12277992093481016,
                         'balance': {'asam_iptw': 0.07894739063106683,
                                     'asam_unweighted': 0.09979705707518301,
                                     'flagged_iptw': 15,
                                     'flagged_unweighted': 22},
                         'sl_weights': None,
                         'warnings': []},
 'sparse ctmle_logistic': {'estimate': 1.1323448816649553,
                           'se': 0.10904414812915558,
                           'balance': None,
                           'sl_weights': None,
                           'warnings': []},
 'sparse ctmle_correlation': {'estimate': 1.1323448816649553,
                              'se': 0.10904414812915558,
                              'balance': None,
                              'sl_weights': None,
                              'warnings': []},
 'sparse ctmle_lasso': {'estimate': 1.1327432228274008,
                        'se': 0.10826751427333922,
                        'balance': None,
                        'sl_weights': None,
                        'warnings': []},
 'sparse ctmle_greedy --covariates x1,x2,x3,x4,x5,x6,x7,x8': {'estimate': 1.0416565720098057,
                                                              'se': 0.11736437326740576,
                                                              'balance': None,
                                                              'sl_weights': None,
                                                              'warnings': []},
 'lin reg --bootstrap 100': {'estimate': 0.9672815345323706,
                             'se': 0.13146209705470543,
                             'balance': None,
                             'sl_weights': None,
                             'warnings': []},
 'lin match --bootstrap 100': {'estimate': 0.9716547587540603,
                               'se': 0.21897028542266198,
                               'balance': {'asam_match': 0.06065456793237589,
                                           'asam_unweighted': 0.23808687260614284,
                                           'flagged_match': 1,
                                           'flagged_unweighted': 4},
                               'sl_weights': None,
                               'warnings': []},
 'lin iptw --ps-learner twang': {'estimate': 0.8098293235437116,
                                 'se': 0.20902190282626085,
                                 'balance': {'asam_iptw': 0.09625767890378889,
                                             'asam_unweighted': 0.23808687260614284,
                                             'flagged_iptw': 2,
                                             'flagged_unweighted': 4},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin match --ps-learner twang': {'estimate': 0.9391963279013358,
                                  'se': None,
                                  'balance': {'asam_match': 0.1400928298854531,
                                              'asam_unweighted': 0.23808687260614284,
                                              'flagged_match': 4,
                                              'flagged_unweighted': 4},
                                  'sl_weights': None,
                                  'warnings': []},
 'lin aiptw --ps-learner twang': {'estimate': 0.9442026211372891,
                                  'se': 0.10303686320043103,
                                  'balance': {'asam_iptw': 0.09625767890378889,
                                              'asam_unweighted': 0.23808687260614284,
                                              'flagged_iptw': 2,
                                              'flagged_unweighted': 4},
                                  'sl_weights': None,
                                  'warnings': []},
 'lin tmle --ps-learner twang': {'estimate': 0.9312354412152731,
                                 'se': 0.10296685679536882,
                                 'balance': {'asam_iptw': 0.09625767890378889,
                                             'asam_unweighted': 0.23808687260614284,
                                             'flagged_iptw': 2,
                                             'flagged_unweighted': 4},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin iptw --ps-learner sl_small': {'estimate': 0.9135225129715153,
                                    'se': 0.25566242662143923,
                                    'balance': {'asam_iptw': 0.0582098582461199,
                                                'asam_unweighted': 0.23808687260614284,
                                                'flagged_iptw': 2,
                                                'flagged_unweighted': 4},
                                    'sl_weights': {'ps': {'boost': 0.0,
                                                          'logistic': 0.4828393660212922,
                                                          'tree': 0.5171606339787078}},
                                    'warnings': []},
 'lin aiptw --ps-learner sl_small': {'estimate': 0.9696516623253632,
                                     'se': 0.12435162862499859,
                                     'balance': {'asam_iptw': 0.0582098582461199,
                                                 'asam_unweighted': 0.23808687260614284,
                                                 'flagged_iptw': 2,
                                                 'flagged_unweighted': 4},
                                     'sl_weights': {'ps': {'boost': 0.0,
                                                           'logistic': 0.4828393660212922,
                                                           'tree': 0.5171606339787078}},
                                     'warnings': []},
 'lin tmle --ps-learner sl_small': {'estimate': 0.9700018682718673,
                                    'se': 0.12433349597044914,
                                    'balance': {'asam_iptw': 0.0582098582461199,
                                                'asam_unweighted': 0.23808687260614284,
                                                'flagged_iptw': 2,
                                                'flagged_unweighted': 4},
                                    'sl_weights': {'ps': {'boost': 0.0,
                                                          'logistic': 0.4828393660212922,
                                                          'tree': 0.5171606339787078}},
                                    'warnings': []},
 'lin iptw --ps-learner sl_small --v-folds 5': {'estimate': 0.9002279380529994,
                                                'se': 0.24493566795307203,
                                                'balance': {'asam_iptw': 0.056084549797018886,
                                                            'asam_unweighted': 0.23808687260614284,
                                                            'flagged_iptw': 1,
                                                            'flagged_unweighted': 4},
                                                'sl_weights': {'ps': {'boost': 0.06300208307460717,
                                                                      'logistic': 0.5506624026160319,
                                                                      'tree': 0.38633551430936086}},
                                                'warnings': []},
 'lin dml --ps-learner sl_small --dml-s 1': {'estimate': 0.9429247486488594,
                                             'se': 0.17698087838128856,
                                             'balance': {'asam_iptw': 0.03816208923057408,
                                                         'asam_unweighted': 0.23808687260614284,
                                                         'flagged_iptw': 0,
                                                         'flagged_unweighted': 4},
                                             'sl_weights': None,
                                             'warnings': []},
 'lin iptw --ps-learner boost': {'estimate': 0.7859977188469375,
                                 'se': 0.2003348607542293,
                                 'balance': {'asam_iptw': 0.11319137136530578,
                                             'asam_unweighted': 0.23808687260614284,
                                             'flagged_iptw': 3,
                                             'flagged_unweighted': 4},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin aiptw --ps-learner boost': {'estimate': 0.9250139358094877,
                                  'se': 0.09946093928218343,
                                  'balance': {'asam_iptw': 0.11319137136530578,
                                              'asam_unweighted': 0.23808687260614284,
                                              'flagged_iptw': 3,
                                              'flagged_unweighted': 4},
                                  'sl_weights': None,
                                  'warnings': []},
 'lin dml --ps-learner boost --dml-s 1': {'estimate': 1.229706007787693,
                                          'se': 0.2954846117754757,
                                          'balance': {'asam_iptw': 0.09647201508984117,
                                                      'asam_unweighted': 0.23808687260614284,
                                                      'flagged_iptw': 3,
                                                      'flagged_unweighted': 4},
                                          'sl_weights': None,
                                          'warnings': []},
 'lin aiptw --ps-learner forest': {'estimate': 0.9497969453558573,
                                   'se': 0.09165201938283413,
                                   'balance': {'asam_iptw': 0.14825058104094313,
                                               'asam_unweighted': 0.23808687260614284,
                                               'flagged_iptw': 4,
                                               'flagged_unweighted': 4},
                                   'sl_weights': None,
                                   'warnings': []},
 'lin dml --ps-learner forest --dml-s 1': {'estimate': 0.8959013635440768,
                                           'se': 0.14517985198122582,
                                           'balance': {'asam_iptw': 0.10280099556507444,
                                                       'asam_unweighted': 0.23808687260614284,
                                                       'flagged_iptw': 2,
                                                       'flagged_unweighted': 4},
                                           'sl_weights': None,
                                           'warnings': []},
 'lin reg --outcome-learner boost': {'estimate': 0.9421614883747295,
                                     'se': None,
                                     'balance': None,
                                     'sl_weights': None,
                                     'warnings': []},
 'lin aiptw --outcome-learner boost': {'estimate': 0.9404747317091808,
                                       'se': 0.10531800514695269,
                                       'balance': {'asam_iptw': 0.018706077111528302,
                                                   'asam_unweighted': 0.23808687260614284,
                                                   'flagged_iptw': 0,
                                                   'flagged_unweighted': 4},
                                       'sl_weights': None,
                                       'warnings': []},
 'lin tmle --outcome-learner boost': {'estimate': 0.9404219581210187,
                                      'se': 0.10531972266738629,
                                      'balance': {'asam_iptw': 0.018706077111528302,
                                                  'asam_unweighted': 0.23808687260614284,
                                                  'flagged_iptw': 0,
                                                  'flagged_unweighted': 4},
                                      'sl_weights': None,
                                      'warnings': []},
 'lin ctmle_correlation --outcome-learner boost': {'estimate': 0.9421614883747295,
                                                   'se': 0.09912272423547272,
                                                   'balance': None,
                                                   'sl_weights': None,
                                                   'warnings': []},
 'lin dml --outcome-learner boost --dml-s 1': {'estimate': 0.8891122525063865,
                                               'se': 0.2136557251840416,
                                               'balance': {'asam_iptw': 0.07503993130076095,
                                                           'asam_unweighted': 0.23808687260614284,
                                                           'flagged_iptw': 2,
                                                           'flagged_unweighted': 4},
                                               'sl_weights': None,
                                               'warnings': []},
 'lin reg --outcome-learner forest': {'estimate': 0.9439983634909896,
                                      'se': None,
                                      'balance': None,
                                      'sl_weights': None,
                                      'warnings': []},
 'lin aiptw --ps-learner forest --outcome-learner forest': {'estimate': 0.9251032986934554,
                                                            'se': 0.09062720967956825,
                                                            'balance': {'asam_iptw': 0.14825058104094313,
                                                                        'asam_unweighted': 0.23808687260614284,
                                                                        'flagged_iptw': 4,
                                                                        'flagged_unweighted': 4},
                                                            'sl_weights': None,
                                                            'warnings': []},
 'lin iptw --ps-learner lasso': {'estimate': 0.9618901787637794,
                                 'se': 0.27071789912162886,
                                 'balance': {'asam_iptw': 0.022806316970927904,
                                             'asam_unweighted': 0.23808687260614284,
                                             'flagged_iptw': 0,
                                             'flagged_unweighted': 4},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin iptw --ps-learner tree': {'estimate': 0.7560156528460739,
                                'se': 0.23961842628363167,
                                'balance': {'asam_iptw': 0.1320199072843574,
                                            'asam_unweighted': 0.23808687260614284,
                                            'flagged_iptw': 4,
                                            'flagged_unweighted': 4},
                                'sl_weights': None,
                                'warnings': ['positivity_warning']},
 'lin iptw --ps-learner logistic_interactions': {'estimate': 0.9795330732072549,
                                                 'se': 0.28142290714849755,
                                                 'balance': {'asam_iptw': 0.047339991775843325,
                                                             'asam_unweighted': 0.23808687260614284,
                                                             'flagged_iptw': 1,
                                                             'flagged_unweighted': 4},
                                                 'sl_weights': None,
                                                 'warnings': []},
 'lin reg --outcome-learner lasso': {'estimate': 0.9692131284459081,
                                     'se': None,
                                     'balance': None,
                                     'sl_weights': None,
                                     'warnings': []},
 'lin reg --outcome-learner tree': {'estimate': 0.7111039382451824,
                                    'se': None,
                                    'balance': None,
                                    'sl_weights': None,
                                    'warnings': []},
 'bin aiptw --outcome-learner sl_small': {'estimate': 0.18360712990681383,
                                          'se': 0.05264155996846855,
                                          'balance': {'asam_iptw': 0.020164052047278933,
                                                      'asam_unweighted': 0.22767444403166684,
                                                      'flagged_iptw': 0,
                                                      'flagged_unweighted': 5},
                                          'sl_weights': None,
                                          'warnings': []},
 'lin aiptw --outcome-learner sl_small': {'estimate': 0.937264149679818,
                                          'se': 0.12355113359834223,
                                          'balance': {'asam_iptw': 0.018706077111528302,
                                                      'asam_unweighted': 0.23808687260614284,
                                                      'flagged_iptw': 0,
                                                      'flagged_unweighted': 4},
                                          'sl_weights': None,
                                          'warnings': []},
 'bin tmle --outcome-learner boost': {'estimate': 0.2085202105115947,
                                      'se': 0.04531674214128112,
                                      'balance': {'asam_iptw': 0.020164052047278933,
                                                  'asam_unweighted': 0.22767444403166684,
                                                  'flagged_iptw': 0,
                                                  'flagged_unweighted': 5},
                                      'sl_weights': None,
                                      'warnings': []},
 'bin iptw --ps-learner twang': {'estimate': 0.15684261213991813,
                                 'se': 0.07764391388082434,
                                 'balance': {'asam_iptw': 0.09317346158118311,
                                             'asam_unweighted': 0.22767444403166684,
                                             'flagged_iptw': 2,
                                             'flagged_unweighted': 5},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin double_lasso --pd-method reg': {'estimate': 0.9672815345323704,
                                      'se': None,
                                      'balance': None,
                                      'sl_weights': None,
                                      'warnings': []},
 'lin double_lasso --pd-method iptw': {'estimate': 0.9518027206038913,
                                       'se': 0.2653928017741435,
                                       'balance': {'asam_iptw': 0.01870607711152829,
                                                   'asam_unweighted': 0.23808687260614284,
                                                   'flagged_iptw': 0,
                                                   'flagged_unweighted': 4},
                                       'sl_weights': None,
                                       'warnings': []}}


# Method and diagnostics of every double_lasso case, written by the command
# line while it ran its own copy of the post-selection estimators.
LIN_SELECTED = ['x1', 'x2', 'x3', 'x4', 'x5', 'x6']
POST_DOUBLE_GOLDEN = {
    'lin double_lasso': ('post_double_aiptw',
                         {'provenance': 'full_sample', 'selected': LIN_SELECTED}),
    'bin double_lasso': ('post_double_aiptw',
                         {'provenance': 'full_sample', 'selected': LIN_SELECTED}),
    'sparse double_lasso': ('post_double_aiptw',
                            {'provenance': 'full_sample',
                             'selected': ['x1', 'x2', 'x3', 'x4', 'x5', 'x6', 'x14', 'x28',
                                          'x41', 'x45', 'x46']}),
    'lin double_lasso --pd-method reg': ('post_double_reg',
                                         {'provenance': 'full_sample', 'selected': LIN_SELECTED}),
    'lin double_lasso --pd-method iptw': ('post_double_iptw',
                                          {'ps_known_se': True, 'selected': LIN_SELECTED}),
}


# Diagnostics and path of every CTMLE case, written before each candidate
# became one record; a trace row is (candidate, covariates_or_lambda,
# cv_loss, chosen). The covariate sets were written as column indices and
# rewritten through the map from index j to its column name x{j+1} when the
# trace came to name its covariates, as ``chosen_covariates`` does.
TRACE_KEYS = ("candidate", "covariates_or_lambda", "cv_loss", "chosen")
CTMLE_GOLDEN = {
    'bin ctmle_correlation': {
        'diagnostics': {'chosen_covariates': [],
                        'cv_loss': 0.1925854546894456,
                        'epsilon': 0.0,
                        'order': ['x3', 'x1', 'x5', 'x4', 'x2', 'x6']},
        'trace': [
            (0, 'intercept', 0.1925854546894456, 1),
        ],
    },
    'bin ctmle_greedy': {
        'diagnostics': {'chosen_covariates': ['x4', 'x2', 'x3', 'x5'],
                        'cv_loss': 0.19223736978021194,
                        'epsilon': -0.006433111268378593},
        'trace': [
            (0, 'intercept', 0.1925854546894456, 0),
            (1, 'x4', 0.19244722132697148, 0),
            (2, 'x4+x2', 0.1923374333449776, 0),
            (3, 'x4+x2+x3', 0.19224658605415665, 0),
            (4, 'x4+x2+x3+x5', 0.19223736978021194, 1),
            (5, 'x4+x2+x3+x5+x6', 0.19238563257904923, 0),
            (6, 'x4+x2+x3+x5+x6+x1', 0.19258177439425078, 0),
        ],
    },
    'bin ctmle_lasso': {
        'diagnostics': {'chosen_lambda': 0.0013784706975599585,
                        'cv_loss': 0.19260691327828913,
                        'epsilon': -0.004326092113056815,
                        'lambda_path': [0.018358879364993027, 0.01376915952374477,
                                        0.010326869642808578, 0.007745152232106433,
                                        0.005808864174079825, 0.004356648130559869,
                                        0.0032674860979199014, 0.002450614573439926,
                                        0.0018379609300799445, 0.0013784706975599585]},
        'trace': [
            (0, 0.018358879364993027, 0.1928154245850142, 0),
            (1, 0.01376915952374477, 0.1927917985105891, 0),
            (2, 0.010326869642808578, 0.19274837984753052, 0),
            (3, 0.007745152232106433, 0.1927114008348993, 0),
            (4, 0.005808864174079825, 0.19268142546212616, 0),
            (5, 0.004356648130559869, 0.19265800812019335, 0),
            (6, 0.0032674860979199014, 0.19263978554680442, 0),
            (7, 0.002450614573439926, 0.1926257961325138, 0),
            (8, 0.0018379609300799445, 0.19261507833016694, 0),
            (9, 0.0013784706975599585, 0.19260691327828913, 1),
        ],
    },
    'bin ctmle_logistic': {
        'diagnostics': {'chosen_covariates': ['x4'],
                        'cv_loss': 0.19244722132697148,
                        'epsilon': -0.000490686430557747,
                        'order': ['x4', 'x6', 'x1', 'x2', 'x3', 'x5']},
        'trace': [
            (0, 'intercept', 0.1925854546894456, 0),
            (1, 'x4', 0.19244722132697148, 1),
            (2, 'x4+x6', 0.19251218725341565, 0),
        ],
    },
    'lin ctmle_correlation': {
        'diagnostics': {'chosen_covariates': [],
                        'cv_loss': 0.008245512770991868,
                        'epsilon': 0.0,
                        'order': ['x6', 'x2', 'x3', 'x5', 'x4', 'x1']},
        'trace': [
            (0, 'intercept', 0.008245512770991868, 1),
        ],
    },
    'lin ctmle_correlation --outcome-learner boost': {
        'diagnostics': {'chosen_covariates': [],
                        'cv_loss': 0.003845549828472776,
                        'epsilon': 0.0,
                        'order': ['x2', 'x3', 'x1', 'x4', 'x6', 'x5']},
        'trace': [
            (0, 'intercept', 0.003845549828472776, 1),
        ],
    },
    'lin ctmle_greedy': {
        'diagnostics': {'chosen_covariates': ['x5'],
                        'cv_loss': 0.008244620197057602,
                        'epsilon': -5.038480809439493e-06},
        'trace': [
            (0, 'intercept', 0.008245512770991868, 0),
            (1, 'x5', 0.008244620197057602, 1),
            (2, 'x5+x6', 0.00824499868665662, 0),
            (3, 'x5+x6+x2', 0.008246770274289252, 0),
            (4, 'x5+x6+x2+x3', 0.008251195184716915, 0),
            (5, 'x5+x6+x2+x3+x1', 0.008249158138320804, 0),
            (6, 'x5+x6+x2+x3+x1+x4', 0.008260298753584472, 0),
        ],
    },
    'lin ctmle_lasso': {
        'diagnostics': {'chosen_lambda': 0.0014625072592597793,
                        'cv_loss': 0.008261042087437455,
                        'epsilon': -0.0018616615703873282,
                        'lambda_path': [0.019478103082426236, 0.014608577311819677,
                                        0.010956432983864757, 0.008217324737898568,
                                        0.006162993553423926, 0.004622245165067945,
                                        0.0034666838738009586, 0.002600012905350719,
                                        0.001950009679013039, 0.0014625072592597793]},
        'trace': [
            (0, 0.019478103082426236, 0.00826465057386555, 0),
            (1, 0.014608577311819677, 0.008263945015043834, 0),
            (2, 0.010956432983864757, 0.008263629950060768, 0),
            (3, 0.008217324737898568, 0.008263141909950067, 0),
            (4, 0.006162993553423926, 0.00826271839308465, 0),
            (5, 0.004622245165067945, 0.008262324219433771, 0),
            (6, 0.0034666838738009586, 0.008261906198866784, 0),
            (7, 0.002600012905350719, 0.008261554684366332, 0),
            (8, 0.001950009679013039, 0.008261269014046255, 0),
            (9, 0.0014625072592597793, 0.008261042087437455, 1),
        ],
    },
    'lin ctmle_logistic': {
        'diagnostics': {'chosen_covariates': ['x5'],
                        'cv_loss': 0.008244620197057602,
                        'epsilon': -5.038480809439493e-06,
                        'order': ['x5', 'x1', 'x2', 'x3', 'x6', 'x4']},
        'trace': [
            (0, 'intercept', 0.008245512770991868, 0),
            (1, 'x5', 0.008244620197057602, 1),
            (2, 'x5+x1', 0.00826054875975137, 0),
            (3, 'x5+x1+x2', 0.008256039429872646, 0),
            (4, 'x5+x1+x2+x3', 0.008244921249878256, 0),
            (5, 'x5+x1+x2+x3+x6', 0.008249198638840622, 0),
        ],
    },
    'sparse ctmle_correlation': {
        'diagnostics': {'chosen_covariates': [],
                        'cv_loss': 0.011176952174821281,
                        'epsilon': 0.0,
                        'order': ['x47', 'x43', 'x35', 'x13', 'x10', 'x22', 'x25', 'x7', 'x4', 'x9',
                                  'x39', 'x23', 'x28', 'x17', 'x36', 'x11', 'x20', 'x50', 'x45',
                                  'x34', 'x41', 'x26', 'x15', 'x8', 'x19', 'x29', 'x18', 'x31',
                                  'x1', 'x33', 'x21', 'x48', 'x12', 'x46', 'x38', 'x14', 'x5',
                                  'x40', 'x49', 'x30', 'x6', 'x3', 'x42', 'x32', 'x24', 'x27',
                                  'x44', 'x2', 'x16', 'x37']},
        'trace': [
            (0, 'intercept', 0.011176952174821281, 1),
        ],
    },
    'sparse ctmle_greedy --covariates x1,x2,x3,x4,x5,x6,x7,x8': {
        'diagnostics': {'chosen_covariates': ['x8', 'x5', 'x4'],
                        'cv_loss': 0.017174971129992958,
                        'epsilon': 6.17150863201417e-05},
        'trace': [
            (0, 'intercept', 0.017187340748360393, 0),
            (1, 'x8', 0.017178079563365374, 0),
            (2, 'x8+x5', 0.017175600731615902, 0),
            (3, 'x8+x5+x4', 0.017174971129992958, 1),
            (4, 'x8+x5+x4+x1', 0.01717899626162336, 0),
            (5, 'x8+x5+x4+x1+x6', 0.017185963965130707, 0),
            (6, 'x8+x5+x4+x1+x6+x3', 0.017208543244289394, 0),
            (7, 'x8+x5+x4+x1+x6+x3+x7', 0.017240683469205292, 0),
            (8, 'x8+x5+x4+x1+x6+x3+x7+x2', 0.017292016672719318, 0),
        ],
    },
    'sparse ctmle_lasso': {
        'diagnostics': {'chosen_lambda': 0.053175706238672425,
                        'cv_loss': 0.011180958680934524,
                        'epsilon': 5.8574150093234017e-05,
                        'lambda_path': [0.053175706238672425, 0.03988177967900432,
                                        0.029911334759253238, 0.02243350106943993,
                                        0.016825125802079947, 0.01261884435155996,
                                        0.00946413326366997, 0.007098099947752477,
                                        0.005323574960814358, 0.003992681220610769]},
        'trace': [
            (0, 0.053175706238672425, 0.011180958680934524, 1),
            (1, 0.03988177967900432, 0.011189279641348807, 0),
            (2, 0.029911334759253238, 0.011195944581507394, 0),
            (3, 0.02243350106943993, 0.011211141814966737, 0),
            (4, 0.016825125802079947, 0.011229325014869248, 0),
            (5, 0.01261884435155996, 0.011256731942228655, 0),
            (6, 0.00946413326366997, 0.011294737601156022, 0),
            (7, 0.007098099947752477, 0.01133727222569488, 0),
            (8, 0.005323574960814358, 0.01138241453434603, 0),
            (9, 0.003992681220610769, 0.011428458690494227, 0),
        ],
    },
    'sparse ctmle_logistic': {
        'diagnostics': {'chosen_covariates': [],
                        'cv_loss': 0.011176952174821281,
                        'epsilon': 0.0,
                        'order': ['x8', 'x6', 'x27', 'x15', 'x21', 'x17', 'x22', 'x10', 'x19', 'x1',
                                  'x2', 'x3', 'x28', 'x29', 'x30', 'x31', 'x32', 'x33', 'x34',
                                  'x35', 'x36', 'x37', 'x38', 'x39', 'x40', 'x41', 'x42', 'x43',
                                  'x44', 'x45', 'x46', 'x47', 'x48', 'x49', 'x50', 'x26', 'x14',
                                  'x23', 'x16', 'x24', 'x18', 'x5', 'x7', 'x25', 'x9', 'x12', 'x13',
                                  'x4', 'x11', 'x20']},
        'trace': [
            (0, 'intercept', 0.011176952174821281, 1),
            (1, 'x8', 0.011177065615256677, 0),
            (2, 'x8+x6', 0.01120118129687257, 0),
        ],
    },
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_a_command_keeps_stacked_fit_arrays_in_the_heap(tmp_path):
    """After one command, three live 3 MB arrays (a stacked IRLS iteration's
    worth) are freed and allocated again without page faults. Under glibc's
    moving thresholds their 9 MB outgrew the trim threshold of twice the
    largest block freed, 6 MB, and were faulted in afresh each time. A fresh
    interpreter, since this one's allocator has a history."""
    script = f"""
import resource
import numpy as np
from ateml.cli import main
main(["export-dgp", "--spec", "confounded_linear", "--n", "50", "--out", {str(tmp_path / "d.csv")!r}])
def churn():
    arrays = [np.ones(3 << 17) for _ in range(3)]
    del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(ateml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 100


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_importing_the_package_keeps_stacked_fit_arrays_in_the_heap():
    """The thresholds are set when ``ateml`` is imported, so a program that
    only calls the library keeps the arrays of a stacked IRLS iteration in
    the heap too: the churn above, with no command run."""
    script = """
import resource
import numpy as np
import ateml
def churn():
    arrays = [np.ones(3 << 17) for _ in range(3)]
    del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(ateml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 100
