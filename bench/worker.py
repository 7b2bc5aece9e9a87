"""Runs one workload in one process: an untimed warm-up round, then timed
rounds of the same operations until the time budget is spent.

``python3 bench/worker.py --workload W --data-dir D --seed N --seconds S
--trace 0|1`` with ``src`` on PYTHONPATH and the BLAS thread count already
fixed in the environment. Prints one JSON object as its last line.

With ``--trace 1`` untraced and traced rounds alternate, at least two of
each, so that the counts can be compared between traced rounds; the
per-layer numbers come from the traced rounds and ``trace.overhead_s`` is the
mean traced round minus the mean untraced round. The self times of a traced
round must add up to its wall time as timed outside the recorder.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import spans
import workloads

MAX_REPORTED_FAILURES = 5
MIN_TRACED_ROUNDS = 2
# Self times may fall short of the independently timed traced round by the
# recorder's own cost around each operation's root span; allow 0.1 %.
SUM_TOLERANCE = 1e-3


def run_round(ops, recorder=None):
    """Runs every operation once; returns (wall_s, cpu_s, failure messages).

    Only ``Op.run`` is timed; checks run between operations, off the clock.
    """
    wall = cpu = 0.0
    failures: list[str] = []
    done: dict = {}
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.run() if recorder is None else recorder.call("bench.op", op.run)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
        try:
            op.check(out, done)
        except workloads.CheckFailed as exc:
            failures.append(f"{op.name}: {exc}")
    return wall, cpu, failures


def layer_metrics(recorder: spans.Recorder) -> tuple[dict, float]:
    """Per-layer metrics of one traced round and the sum of all self times."""
    recs = recorder.spans
    st = spans.self_times(recs)
    calls: dict[str, int] = {}
    for s in recs:
        calls[s.name] = calls.get(s.name, 0) + 1
    out = {}
    listed = {"bench.op"}
    for name in spans.LAYER_METRICS:
        if name.endswith(".self_s"):
            fns = spans.GROUPS.get(name[: -len(".self_s")], (name[: -len(".self_s")],))
            listed.update(fns)
            out[name] = sum(st.get(f, 0.0) for f in fns)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name == "estimators.dml_ate.fold_draws":
            out[name] = spans.child_count(recs, "estimators.fit_nuisances", "estimators.dml_ate")
        elif name in spans.COUNTED:
            out[name] = recorder.counts.get(name, 0)
    out["trace.other_s"] = sum(v for f, v in st.items() if f not in listed)
    out["trace.uncovered_s"] = st.get("bench.op", 0.0)
    return out, sum(st.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--data-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ops = workloads.build(args.workload, args.data_dir, args.seed)
    run_round(ops)  # warm-up: caches, lazy imports and bytecode, off the clock

    walls, cpus, traced_walls = [], [], []
    attempted, failures = 0, []
    per_round: list[dict] = []
    problems: list[str] = []  # inconsistencies of the trace itself
    recorder = spans.Recorder()
    t_start = time.perf_counter()
    while True:
        wall, cpu, fails = run_round(ops)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(ops)
        failures += fails
        if args.trace:
            recorder.reset()
            undo = spans.instrument(recorder)
            try:
                wall, _, fails = run_round(ops, recorder)
            finally:
                undo()
            attempted += len(ops)
            failures += fails
            metrics, all_self = layer_metrics(recorder)
            if abs(all_self - wall) > SUM_TOLERANCE * wall:
                problems.append(f"self times add to {all_self!r}, traced round took {wall!r}")
            metrics["trace.round_s"] = wall
            traced_walls.append(wall)
            per_round.append(metrics)
        elapsed = time.perf_counter() - t_start
        if args.trace and len(per_round) < MIN_TRACED_ROUNDS:
            continue
        if elapsed * (1 + 1 / len(walls)) > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "rounds": len(walls),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "round_walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        layers = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced rounds: {values}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.fmean(values)
        layers["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        result["layers"] = layers
    result["consistent"] = not problems
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result
        traceback.print_exc()
        sys.exit(1)
