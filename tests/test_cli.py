"""Command-line tests on small exported datasets.

The golden values were produced by the command line before the learner
protocol replaced the per-type dispatch; they pin the numbers every run
must keep. ``ctmle_lasso`` could not run from the command line then, so its
values come from the library call the command line now makes.
"""

import json

import numpy as np
import pytest

from ateml.cli import ESTIMATORS, RunConfig, ingest_csv, main, run

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
       ("bin", "tmle", ("--outcome-learner", "boost")),
       ("bin", "iptw", ("--ps-learner", "twang"))]
)

CTMLE = ("ctmle_greedy", "ctmle_logistic", "ctmle_correlation", "ctmle_lasso")


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
    if est in CTMLE:
        assert got["estimate"] == pytest.approx(want["estimate"], rel=0, abs=1e-12)
        assert got["se"] == pytest.approx(want["se"], rel=0, abs=1e-12)
    else:
        assert got["estimate"] == want["estimate"]
        assert got["se"] == want["se"]
    for block in ("balance", "sl_weights", "warnings"):
        assert report[block] == want[block], block


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
x2,-0.2139466415037112,-0.0008335312713775615,0.03341375459664038,-0.13223858286594548,-0.07351026011260864
x3,0.4430658112484686,0.013731051478258363,-0.18601874183187567,0.19319685018476435,-0.03444791515405117
x4,0.15739897709408932,0.04286855603355219,-0.04025843577078849,0.042602239303439704,0.14917776167974903
x5,0.04035864970143255,-0.005415866802618186,0.05824208724612697,0.019269493802377247,-0.031862922152287115
x6,0.08114862622417114,-0.044692844791511775,0.02408618780268182,0.02557552050642943,-0.02699438091074266
"""


def test_golden_balance_table(data, tmp_path):
    out = tmp_path / "balance.csv"
    assert main(["balance", "--data", data["lin"], "--boost-trees", "100", "--out", str(out),
                 "--adjust", "iptw_logistic,match_boosted,iptw_boosted,match_logistic"]) == 0
    assert out.read_text(encoding="utf-8") == BALANCE_CSV


# The CLI's learner table, with sl_small standing in for the 15-candidate sl.
TABLE = ("logistic", "logistic_interactions", "ols", "lasso", "tree", "forest",
         "boost", "sl_small", "twang")
# Rejected in the outcome role of a continuous outcome: twang models
# treatment only, the rest need a 0/1 target.
OUTCOME_REJECTED = {"twang", "logistic", "logistic_interactions", "sl_small"}


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


def test_dml_with_twang_ps(data):
    report = run(RunConfig(data=data["lin"], estimator="dml", ps_learner="twang", dml_s=1))
    diag = report["result"]["diagnostics"]
    assert diag["provenance"] == "cross_fitted"
    assert report["result"]["estimate"] == diag["split_estimates"][0]


def test_ingest_drops_and_counts_rows_with_a_bad_cell(tmp_path):
    good = [f"{t},{0.5 * k},{k},{-k}" for k, t in enumerate([0, 1] * 5)]
    bad = ["1,nan,1,2", "0,1.0,inf,2", "1,1.0,3,-inf", "0,1.0,,2", "1,1.0,3,abc",
           ",1.0,3,2", "1,NaN,1,2", "0,1.0,Infinity,2", "1,1.0,3"]
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(["treatment,outcome,x1,x2"] + good[:5] + bad + good[5:]) + "\n")
    ds, info = ingest_csv(str(path), RunConfig(data=str(path)))
    assert info["rows_dropped"] == len(bad)
    assert ds.n == len(good)
    assert ds.covariates.tolist() == [[k, -k] for k in range(10)]
    assert ds.outcome.tolist() == [0.5 * k for k in range(10)]


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
 'lin iptw': {'estimate': 0.9518027206038915,
              'se': 0.26539280177414354,
              'balance': {'asam_iptw': 0.01870607711152832,
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
               'balance': {'asam_iptw': 0.01870607711152832,
                           'asam_unweighted': 0.23808687260614284,
                           'flagged_iptw': 0,
                           'flagged_unweighted': 4},
               'sl_weights': None,
               'warnings': []},
 'lin tmle': {'estimate': 0.9425805592767292,
              'se': 0.1282676941144259,
              'balance': {'asam_iptw': 0.01870607711152832,
                          'asam_unweighted': 0.23808687260614284,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 4},
              'sl_weights': None,
              'warnings': []},
 'lin dml': {'estimate': 0.920014487863433,
             'se': 0.15710527138368585,
             'balance': None,
             'sl_weights': None,
             'warnings': []},
 'lin double_lasso': {'estimate': 0.9432451931101158,
                      'se': 0.1283131398276581,
                      'balance': None,
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
 'bin reg': {'estimate': 0.18695779791509096,
             'se': None,
             'balance': None,
             'sl_weights': None,
             'warnings': []},
 'bin iptw': {'estimate': 0.17604332329743091,
              'se': 0.1011612039732403,
              'balance': {'asam_iptw': 0.020164052047278867,
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
               'balance': {'asam_iptw': 0.020164052047278867,
                           'asam_unweighted': 0.22767444403166684,
                           'flagged_iptw': 0,
                           'flagged_unweighted': 5},
               'sl_weights': None,
               'warnings': []},
 'bin tmle': {'estimate': 0.18277577332755954,
              'se': 0.05407667985342566,
              'balance': {'asam_iptw': 0.020164052047278867,
                          'asam_unweighted': 0.22767444403166684,
                          'flagged_iptw': 0,
                          'flagged_unweighted': 5},
              'sl_weights': None,
              'warnings': []},
 'bin dml': {'estimate': 0.18956394463240334,
             'se': 0.07059325969552577,
             'balance': None,
             'sl_weights': None,
             'warnings': []},
 'bin double_lasso': {'estimate': 0.18285822853878458,
                      'se': 0.054086619619599985,
                      'balance': None,
                      'sl_weights': None,
                      'warnings': []},
 'bin ctmle_greedy': {'estimate': 0.1818322739281439,
                      'se': 0.05148179756863079,
                      'balance': None,
                      'sl_weights': None,
                      'warnings': []},
 'bin ctmle_logistic': {'estimate': 0.186580480126252,
                        'se': 0.051654441093053775,
                        'balance': None,
                        'sl_weights': None,
                        'warnings': []},
 'bin ctmle_correlation': {'estimate': 0.18695779791509096,
                           'se': 0.05144454955347385,
                           'balance': None,
                           'sl_weights': None,
                           'warnings': []},
 'bin ctmle_lasso': {'estimate': 0.18303424196173423,
                     'se': 0.05375441697580179,
                     'balance': None,
                     'sl_weights': None,
                     'warnings': []},
 'sparse double_lasso': {'estimate': 1.0150130902829573,
                         'se': 0.12277992093481016,
                         'balance': None,
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
                        'se': 0.10826751427333921,
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
 'lin tmle --ps-learner twang': {'estimate': 0.931235441215273,
                                 'se': 0.10296685679536882,
                                 'balance': {'asam_iptw': 0.09625767890378889,
                                             'asam_unweighted': 0.23808687260614284,
                                             'flagged_iptw': 2,
                                             'flagged_unweighted': 4},
                                 'sl_weights': None,
                                 'warnings': []},
 'lin iptw --ps-learner sl_small': {'estimate': 0.9135225129587513,
                                    'se': 0.255662426883321,
                                    'balance': {'asam_iptw': 0.0582098586865936,
                                                'asam_unweighted': 0.23808687260614284,
                                                'flagged_iptw': 2,
                                                'flagged_unweighted': 4},
                                    'sl_weights': {'ps': {'boost': 0.0,
                                                          'logistic': 0.48283935799998334,
                                                          'tree': 0.5171606420000167}},
                                    'warnings': []},
 'lin aiptw --ps-learner sl_small': {'estimate': 0.9696516625057058,
                                     'se': 0.12435162872452288,
                                     'balance': {'asam_iptw': 0.0582098586865936,
                                                 'asam_unweighted': 0.23808687260614284,
                                                 'flagged_iptw': 2,
                                                 'flagged_unweighted': 4},
                                     'sl_weights': {'ps': {'boost': 0.0,
                                                           'logistic': 0.48283935799998334,
                                                           'tree': 0.5171606420000167}},
                                     'warnings': []},
 'lin tmle --ps-learner sl_small': {'estimate': 0.9700018684778083,
                                    'se': 0.12433349606847222,
                                    'balance': {'asam_iptw': 0.0582098586865936,
                                                'asam_unweighted': 0.23808687260614284,
                                                'flagged_iptw': 2,
                                                'flagged_unweighted': 4},
                                    'sl_weights': {'ps': {'boost': 0.0,
                                                          'logistic': 0.48283935799998334,
                                                          'tree': 0.5171606420000167}},
                                    'warnings': []},
 'lin iptw --ps-learner sl_small --v-folds 5': {'estimate': 0.9002279342809383,
                                                'se': 0.24493566670286052,
                                                'balance': {'asam_iptw': 0.05608455208710861,
                                                            'asam_unweighted': 0.23808687260614284,
                                                            'flagged_iptw': 1,
                                                            'flagged_unweighted': 4},
                                                'sl_weights': {'ps': {'boost': 0.06300209538385328,
                                                                      'logistic': 0.5506623708252079,
                                                                      'tree': 0.38633553379093893}},
                                                'warnings': []},
 'lin dml --ps-learner sl_small --dml-s 1': {'estimate': 0.9429247489037083,
                                             'se': 0.17698087845103366,
                                             'balance': None,
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
 'lin dml --ps-learner boost --dml-s 1': {'estimate': 1.2296738504887097,
                                          'se': 0.29548523100307156,
                                          'balance': None,
                                          'sl_weights': None,
                                          'warnings': []},
 'lin aiptw --ps-learner forest': {'estimate': 0.9557735996234419,
                                   'se': 0.09218199049632325,
                                   'balance': {'asam_iptw': 0.14737128115109077,
                                               'asam_unweighted': 0.23808687260614284,
                                               'flagged_iptw': 4,
                                               'flagged_unweighted': 4},
                                   'sl_weights': None,
                                   'warnings': []},
 'lin dml --ps-learner forest --dml-s 1': {'estimate': 0.890284984216022,
                                           'se': 0.14385775980613494,
                                           'balance': None,
                                           'sl_weights': None,
                                           'warnings': []},
 'lin reg --outcome-learner boost': {'estimate': 0.9421614883747295,
                                     'se': None,
                                     'balance': None,
                                     'sl_weights': None,
                                     'warnings': []},
 'lin aiptw --outcome-learner boost': {'estimate': 0.9404747317091808,
                                       'se': 0.10531800514695269,
                                       'balance': {'asam_iptw': 0.01870607711152832,
                                                   'asam_unweighted': 0.23808687260614284,
                                                   'flagged_iptw': 0,
                                                   'flagged_unweighted': 4},
                                       'sl_weights': None,
                                       'warnings': []},
 'lin tmle --outcome-learner boost': {'estimate': 0.9404219581210187,
                                      'se': 0.10531972266738629,
                                      'balance': {'asam_iptw': 0.01870607711152832,
                                                  'asam_unweighted': 0.23808687260614284,
                                                  'flagged_iptw': 0,
                                                  'flagged_unweighted': 4},
                                      'sl_weights': None,
                                      'warnings': []},
 'lin ctmle_correlation --outcome-learner boost': {'estimate': 0.9421614883747294,
                                                   'se': 0.0991227242354727,
                                                   'balance': None,
                                                   'sl_weights': None,
                                                   'warnings': []},
 'lin dml --outcome-learner boost --dml-s 1': {'estimate': 0.8891122525063865,
                                               'se': 0.21365572518404155,
                                               'balance': None,
                                               'sl_weights': None,
                                               'warnings': []},
 'lin reg --outcome-learner forest': {'estimate': 0.948973316282675,
                                      'se': None,
                                      'balance': None,
                                      'sl_weights': None,
                                      'warnings': []},
 'lin aiptw --ps-learner forest --outcome-learner forest': {'estimate': 0.9327352469133435,
                                                            'se': 0.09182858390683928,
                                                            'balance': {'asam_iptw': 0.14737128115109077,
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
 'lin iptw --ps-learner logistic_interactions': {'estimate': 0.9795330732072546,
                                                 'se': 0.28142290714849755,
                                                 'balance': {'asam_iptw': 0.04733999177584327,
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
 'bin aiptw --outcome-learner sl_small': {'estimate': 0.1836071297550935,
                                          'se': 0.05264155999071854,
                                          'balance': {'asam_iptw': 0.020164052047278867,
                                                      'asam_unweighted': 0.22767444403166684,
                                                      'flagged_iptw': 0,
                                                      'flagged_unweighted': 5},
                                          'sl_weights': None,
                                          'warnings': []},
 'bin tmle --outcome-learner boost': {'estimate': 0.20852087613944326,
                                      'se': 0.04532354346202802,
                                      'balance': {'asam_iptw': 0.020164052047278867,
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
                                 'warnings': []}}
