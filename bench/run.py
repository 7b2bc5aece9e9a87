"""ateml benchmark entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ateml is imported from ``src``. Each
run

1. sets up the workload SETUP_REPS times, each time in a fresh interpreter
   that imports ateml and writes the input CSVs with ``ateml export-dgp``
   (``bench/setup_inputs.py``);
2. runs the workload in one worker process (``bench/worker.py``) with the
   BLAS thread count fixed: one untimed warm-up round, then timed rounds;
3. sets up the workload SETUP_REPS times more, so that the set-up samples
   come from both ends of the run; ``setup_s`` is their median wall time;
4. prints one JSON object as the last line of standard output:
   ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
   the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

It exits non-zero without printing a result when the checkout holds no
``src/ateml`` or when a step fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
WORKLOADS = ("linear_models", "tree_models")

SETUP_REPS = 2  # fresh-interpreter set-ups before the worker, and as many after
# One BLAS thread: the spot checks showed no workload slower on one thread
# than on two, and wall and CPU time then measure the same core.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # the whole run must end within 180 s
IMPORT_GROUPS = ("numpy", "scipy", "ateml")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of import time per package group from ``-X importtime``.

    Each module's self time goes to the nearest enclosing module (itself
    included) whose top-level package is in IMPORT_GROUPS, so the groups
    partition the time and numpy imported by ateml counts as numpy.
    ``-X importtime`` prints children before their parent, one level deeper.
    """
    pending: list[tuple[int, int, str, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (level, int(self_us), name.strip(), [])
        while pending and pending[-1][0] > level:
            node[3].append(pending.pop())
        pending.append(node)
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)

    def attribute(node, owner):
        top = node[2].split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += node[1] / 1e6
        for child in node[3]:
            attribute(child, owner)

    for node in pending:
        attribute(node, None)
    return totals


def run_setup(workload: str, seed: int, data_dir: str, trace: bool) -> list[dict]:
    """SETUP_REPS fresh-interpreter set-ups; one dict of timings per rep."""
    cmd = [sys.executable, *(("-X", "importtime") if trace else ()),
           os.path.join(BENCH, "setup_inputs.py"), workload, str(seed), data_dir]
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=30)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        rep = {"setup_s": wall, "inputs_s": json.loads(proc.stdout.splitlines()[-1])["inputs_s"]}
        if trace:
            rep.update(import_breakdown(proc.stderr))
        reps.append(rep)
    return reps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "ateml", "__init__.py")):
        print(f"no ateml sources under {SRC}; run from the root of an ateml checkout",
              file=sys.stderr)
        return 2

    data_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    reps = run_setup(args.workload, args.seed, data_dir, bool(args.trace))

    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--data-dir", data_dir, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # leave room for the set-ups after the worker
    budget = DEADLINE_S - (time.perf_counter() - start) - 2 * sum(r["setup_s"] for r in reps)
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.splitlines()[-1])
    reps += run_setup(args.workload, args.seed, data_dir, bool(args.trace))
    for msg in res["failures"]:
        print(f"failed: {msg}", file=sys.stderr)

    def med(key):
        return statistics.median(r[key] for r in reps)

    if args.trace:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in res["layers"].items()}
        for group in IMPORT_GROUPS:
            metrics[f"setup.import_{group}_s"] = {"value": med(group), "unit": "s"}
        metrics["setup.inputs_s"] = {"value": med("inputs_s"), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed}: {res['rounds']} timed rounds "
          f"{[round(w, 3) for w in res['round_walls']]}", file=sys.stderr)
    print(json.dumps({"correct": res["consistent"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
