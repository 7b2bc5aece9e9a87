"""The argparse surface of ``run``, ``balance`` and ``simulate``: every
option's strings, dest, type, choices, help, default and whether it is
required, written out in full so that a change to how the flags are built
cannot change what a user can type."""

import argparse

import pytest

from ateml.cli import main

ESTIMATOR_CHOICES = ("naive", "reg", "iptw", "match", "aiptw", "tmle", "dml", "double_lasso",
                     "ctmle_greedy", "ctmle_logistic", "ctmle_correlation", "ctmle_lasso")
CONFIG_HELP = "flat key = value config file"
COVARIATES_HELP = "comma-separated covariate columns (default: all others)"

# (option strings, dest, type, choices, help, default, required)
CONFIG = (("--config",), "config", None, None, CONFIG_HELP, None, False)
DATA = (("--data",), "data", None, None, None, None, False)
TREATMENT = (("--treatment",), "treatment", None, None, None, None, False)
OUTCOME = (("--outcome",), "outcome", None, None, None, None, False)
COVARIATES = (("--covariates",), "covariates", None, None, COVARIATES_HELP, None, False)
V_FOLDS = (("--v-folds",), "v_folds", int, None, None, None, False)
SEED = (("--seed",), "seed", int, None, None, None, False)
TRIM = (("--trim",), "trim", float, None, None, None, False)
DML_K = (("--dml-k",), "dml_k", int, None, None, None, False)
DML_S = (("--dml-s",), "dml_s", int, None, None, None, False)
OUT = (("--out",), "out", None, None, None, None, False)

SURFACE = {
    "run": [
        CONFIG, DATA, TREATMENT, OUTCOME, COVARIATES,
        (("--estimator",), "estimator", None, ESTIMATOR_CHOICES, None, None, False),
        (("--ps-learner",), "ps_learner", None, None, None, None, False),
        (("--outcome-learner",), "outcome_learner", None, None, None, None, False),
        V_FOLDS, SEED,
        (("--bootstrap",), "bootstrap", int, None, None, None, False),
        TRIM, DML_K, DML_S,
        (("--pd-method",), "pd_method", None, ("reg", "iptw", "aiptw"), None, None, False),
        OUT,
    ],
    "balance": [
        CONFIG, DATA, TREATMENT, OUTCOME, COVARIATES, V_FOLDS, SEED, TRIM, OUT,
        (("--adjust",), "adjust", None, None,
         "comma-separated adjustments from ('iptw_logistic', 'iptw_boosted', 'iptw_sl', "
         "'match_logistic', 'match_boosted')", "", False),
        (("--boost-trees",), "boost_trees", int, None, None, 500, False),
    ],
    "simulate": [
        CONFIG, SEED, TRIM, DML_K, DML_S, OUT,
        (("--spec",), "spec", None, None, None, None, True),
        (("--estimators",), "estimators", None, None,
         "comma-separated estimators of run: " + ", ".join(ESTIMATOR_CHOICES), "naive", False),
        (("-R", "--replications"), "replications", int, None, None, 100, False),
    ],
}


@pytest.fixture(scope="module")
def subparsers():
    """The subcommand parsers ``main`` builds, caught before it parses."""
    caught = {}

    def catch(self, args=None, namespace=None):
        caught["parser"] = self
        raise SystemExit(0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", catch)
        with pytest.raises(SystemExit):
            main(["run"])
    action = next(a for a in caught["parser"]._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flags_of_each_command(subparsers, command):
    got = [(tuple(a.option_strings), a.dest, a.type,
            None if a.choices is None else tuple(a.choices), a.help, a.default, a.required)
           for a in subparsers[command]._actions if not isinstance(a, argparse._HelpAction)]
    assert got == SURFACE[command]
