"""Set-up step of the benchmark: a fresh interpreter imports ateml and writes
the workload's input CSVs with ``ateml export-dgp``.

Run as ``python3 bench/setup_inputs.py <workload> <seed> <out_dir>`` with
``src`` on PYTHONPATH. The wall time of the whole process, interpreter start
included, is one sample of ``setup_s``. The last line of standard output is a
JSON object with ``inputs_s``, the time spent writing the inputs.

This module imports nothing heavy at the top so that ``run.py`` and
``workloads.py`` can read ``INPUTS`` without paying for numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

# workload -> (file stem, built-in spec, n). The export seed of the k-th
# input in INPUT_ORDER is 1000 * seed + k, so every file has its own draw.
INPUTS = {
    "linear_models": (
        ("lin", "confounded_linear", 2000),
        ("bin", "confounded_binary", 2000),
        ("lin10k", "confounded_linear", 10000),
        ("sparse", "sparse_highdim", 2000),
    ),
    "tree_models": (
        ("lin", "confounded_linear", 2000),
        ("bin", "confounded_binary", 2000),
    ),
}
INPUT_ORDER = ("lin", "bin", "lin10k", "sparse")


def export_seed(seed: int, stem: str) -> int:
    return 1000 * seed + INPUT_ORDER.index(stem)


def input_path(out_dir: str, stem: str) -> str:
    return os.path.join(out_dir, f"{stem}.csv")


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    import ateml.cli  # noqa: F401 - the import is part of what set-up measures

    t0 = time.perf_counter()
    for stem, spec, n in INPUTS[workload]:
        args = ["export-dgp", "--spec", spec, "--n", str(n),
                "--seed", str(export_seed(seed, stem)), "--out", input_path(out_dir, stem)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = ateml.cli.main(args)
        if code != 0:
            print(f"export-dgp failed for {stem}", file=sys.stderr)
            return 1
    print(json.dumps({"inputs_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
