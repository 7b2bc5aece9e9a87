"""What a fresh ``ateml`` process imports.

No ``ateml`` command loads any ``scipy`` module, Super Learner runs
included: numpy is the only runtime dependency. The Super Learner's
meta-weights come from a numpy active-set solver, and ``expit`` and
``logit`` from ``ateml.core``; importing ``scipy.special`` alone cost every
process about 0.3 s and 25 MB. Each case runs in a fresh interpreter, since
this test process may have imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ateml
from ateml.cli import main

SRC = str(Path(ateml.__file__).resolve().parents[1])


def loads_scipy(code: str, cwd: Path) -> bool:
    """Run ``code`` in a fresh interpreter; whether any scipy module was imported."""
    script = (f"{code}\nimport sys\n"
              "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


@pytest.fixture(scope="module")
def lin_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "lin.csv"
    assert main(["export-dgp", "--spec", "confounded_linear", "--n", "200", "--seed", "3",
                 "--out", str(path)]) == 0
    return str(path)


def main_call(*argv: str) -> str:
    return f"from ateml.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_leaves_scipy_unloaded(tmp_path):
    assert not loads_scipy("import ateml, ateml.cli", tmp_path)


def test_export_dgp_leaves_scipy_unloaded(tmp_path):
    call = main_call("export-dgp", "--spec", "confounded_binary", "--n", "200", "--out", "bin.csv")
    assert not loads_scipy(call, tmp_path)


def test_parametric_run_leaves_scipy_unloaded(lin_csv, tmp_path):
    call = main_call("run", "--data", lin_csv, "--out", "r.json", "--estimator", "aiptw")
    assert not loads_scipy(call, tmp_path)


def test_super_learner_run_leaves_scipy_unloaded(lin_csv, tmp_path):
    call = main_call("run", "--data", lin_csv, "--out", "r.json", "--estimator", "iptw",
                     "--ps-learner", "sl_small", "--v-folds", "3")
    assert not loads_scipy(call, tmp_path)


def test_super_learner_balance_leaves_scipy_unloaded(tmp_path):
    # the 15-candidate sl library: 80 rows and 2 folds keep it to seconds
    export = main_call("export-dgp", "--spec", "confounded_linear", "--n", "80", "--out", "s.csv")
    balance = main_call("balance", "--data", "s.csv", "--adjust", "iptw_sl", "--v-folds", "2",
                        "--out", "b.csv")
    assert not loads_scipy(f"{export}\n{balance}", tmp_path)


def test_super_learner_simulate_leaves_scipy_unloaded(tmp_path):
    (tmp_path / "sl.cfg").write_text("ps_learner = sl_small\nv_folds = 3\n")
    call = main_call("simulate", "--spec", "confounded_linear", "--estimators", "iptw",
                     "-R", "2", "--config", "sl.cfg", "--out", "sim.csv")
    assert not loads_scipy(call, tmp_path)
