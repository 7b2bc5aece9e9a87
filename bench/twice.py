"""Runs the benchmark in two sets on one commit and compares the sets.

    python3 bench/twice.py

Each set runs every workload of BENCHMARK.json ten times untraced, each run
with its own seed (set k uses seeds 100*k + 1 .. 100*k + 10). For every
(workload, end-to-end metric) it prints each set's median and spread, the
spread being the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
drift of the second set's median from the first, each next to the metric's
bound in BENCHMARK.json; a spread or drift beyond the bound is marked ``!``.
It also prints each set's share of failed operations, which must be equal.
Raw results go to ``bench/.work/twice.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10
SETS = (1, 2)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The run's result line and its wall time, set-up and warm-up included."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    results: dict = {}
    elapsed_all: list[float] = []
    for k in SETS:
        for w in (w["name"] for w in bench["workloads"]):
            for i in range(1, RUNS + 1):
                res, elapsed = one_run(w, 100 * k + i, bench["run_seconds"])
                results.setdefault(w, {}).setdefault(k, []).append(res)
                elapsed_all.append(elapsed)
                print(f"set {k} {w} seed {100 * k + i} ({elapsed:.1f} s): "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    with open(os.path.join(BENCH, ".work", "twice.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"{'workload':18} {'metric':12} {'bound':>6} " + " ".join(
        f"{'median' + str(k):>10} {'spread' + str(k):>8}" for k in SETS) + f" {'drift':>7}")
    for w, sets in results.items():
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = f"{w:18} {name:12} {bound:6.3f}"
            medians = []
            for k in SETS:
                vals = [r["metrics"][name]["value"] for r in sets[k]]
                s = spread(vals)
                medians.append(statistics.median(vals))
                flag = "!" if s > bound else " "
                ok &= flag == " "
                row += f" {medians[-1]:10.4f} {s:7.3f}{flag}"
            drift = medians[1] / medians[0] - 1.0
            flag = "!" if abs(drift) > bound else " "
            ok &= flag == " "
            print(row + f" {drift:+7.3f}{flag}")
        shares = [sum(r["failed"] for r in sets[k]) / sum(r["attempted"] for r in sets[k])
                  for k in SETS]
        ok &= len(set(shares)) == 1 and all(r["correct"] for k in SETS for r in sets[k])
        print(f"{w:18} failed share per set: {shares}")
    n_runs = 4 + 22 * len(bench["workloads"])
    print(f"mean run {statistics.fmean(elapsed_all):.1f} s, longest {max(elapsed_all):.1f} s; "
          f"{n_runs} runs at the mean take {n_runs * statistics.fmean(elapsed_all):.0f} s")
    print("within bounds" if ok else "OUTSIDE BOUNDS (marked !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
