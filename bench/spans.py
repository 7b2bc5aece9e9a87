"""Span recorder for the traced benchmark run.

The program carries no instrumentation. ``instrument`` wraps the public
functions of each ateml layer module from the outside and patches every
module namespace that holds a reference to them (``selection`` imports
``fit_logistic`` from ``learners``, ``cli`` imports most of the package, and
the package itself re-exports the public API). Each call records a span:
name, parent, start and end. Self time is derived afterwards from the spans
alone by interval arithmetic, so it does not depend on the recorder's own
bookkeeping.

Counts that the ateml functions do not report are taken from their
arguments and return values: trees and nodes by walking returned models,
matching pairs from the treatment vector, Newton iterations and CTMLE
candidate evaluations from the returned diagnostics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "dgp", "learners", "superlearner", "balance", "estimators", "selection")

# Per-layer metrics of the traced run, in report order. ``<layer>.<fn>.self_s``
# is the self time of that function's spans per round and ``.calls`` their
# number; the other names are counts or trace totals.
LAYER_METRICS = (
    "cli.ingest_csv.self_s",
    "dgp.gen_dataset.self_s",
    "dgp.gen_dataset.calls",
    "learners.fit_logistic.self_s",
    "learners.fit_logistic.calls",
    "learners.fit_ols.self_s",
    "learners.fit_logistic_lasso.self_s",
    "learners.fit_logistic_lasso.calls",
    "learners.lasso_cv.self_s",
    "learners.fit_forest.self_s",
    "learners.fit_boost.self_s",
    "learners.fit_tree.self_s",
    "learners.tree_predict.self_s",
    "learners.tree_predict.calls",
    "learners.trees",
    "learners.tree_nodes",
    "superlearner.level_one.self_s",
    "superlearner.meta_weights.self_s",
    "superlearner.fit_super_learner.self_s",
    "balance.boosted_balance_ps.self_s",
    "balance.ps_match.self_s",
    "balance.ps_match.calls",
    "balance.ps_match.pairs",
    "balance.estimate_ps.self_s",
    "balance.balance_table.self_s",
    "estimators.fit_nuisances.self_s",
    "estimators.fit_nuisances.calls",
    "estimators.bootstrap_ci.self_s",
    "estimators.dml_ate.self_s",
    "estimators.dml_ate.fold_draws",
    "estimators.tmle_ate.newton_iterations",
    "selection.double_lasso_select.self_s",
    "selection.ctmle_greedy.self_s",
    "selection.ctmle_lasso.self_s",
    "selection.ctmle_preorder.self_s",
    "selection.ctmle.candidate_evals",
)
# Metric stems that sum several functions.
GROUPS = {
    "selection.ctmle_preorder": ("selection.ctmle_preorder_logistic",
                                 "selection.ctmle_preorder_correlation"),
}
COUNTED = (
    "learners.trees",
    "learners.tree_nodes",
    "balance.ps_match.pairs",
    "estimators.tmle_ate.newton_iterations",
    "selection.ctmle.candidate_evals",
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list; -1 for a root
    t0: float
    t1: float = 0.0


class Recorder:
    """Keeps spans in memory for one traced round and counts on the side."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        idx = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
        self.spans.append(span)
        self._stack.append(idx)
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.t1 - s.t0) - _union_length(children.get(i, []), s.t0, s.t1)
    return dict(out)


def child_count(spans: list[Span], name: str, parent_name: str) -> int:
    """Number of spans called ``name`` whose direct parent is ``parent_name``."""
    return sum(1 for s in spans if s.name == name and s.parent >= 0
               and spans[s.parent].name == parent_name)


# ---------------------------------------------------------------------------
# ateml-specific counts
# ---------------------------------------------------------------------------


def _nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return n


def _count_trees(counts, roots) -> None:
    for root in roots:
        counts["learners.trees"] += 1
        counts["learners.tree_nodes"] += _nodes(root)


def _ctmle_evals(counts, args, kwargs, out) -> None:
    counts["selection.ctmle.candidate_evals"] += sum(out[1].candidate_evals_per_round)


def _tmle_iterations(counts, args, kwargs, out) -> None:
    counts["estimators.tmle_ate.newton_iterations"] += out.diagnostics["newton_iterations"]


def _ps_match_pairs(counts, args, kwargs, out) -> None:
    A = args[1] if len(args) > 1 else kwargs["A"]
    n_t = int((A == 1).sum())
    counts["balance.ps_match.pairs"] += n_t * (len(A) - n_t)


HOOKS = {
    "learners.fit_tree": lambda c, a, k, out: _count_trees(c, [out]),
    "learners.fit_forest": lambda c, a, k, out: _count_trees(c, out.trees),
    "balance.ps_match": _ps_match_pairs,
    "estimators.tmle_ate": _tmle_iterations,
    "selection.ctmle_greedy": _ctmle_evals,
    "selection.ctmle_preorder_logistic": _ctmle_evals,
    "selection.ctmle_preorder_correlation": _ctmle_evals,
    "selection.ctmle_lasso": _ctmle_evals,
}


def _count_only(fn, hook, counts):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(counts, args, kwargs, out)
        return out

    return counted


def instrument(recorder: Recorder):
    """Wrap every public function of the layer modules; returns an undo.

    ``learners._boost_stage`` grows every boosting tree, those of
    ``boosted_balance_ps`` included, which keeps no model; it is wrapped to
    count trees and nodes but records no span, so that boosting time stays
    in ``fit_boost`` and ``boosted_balance_ps``.
    """
    replacements: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"ateml.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                full = f"{layer}.{name}"
                replacements[id(obj)] = recorder.wrap(full, obj, HOOKS.get(full))
    stage = sys.modules["ateml.learners"]._boost_stage
    replacements[id(stage)] = _count_only(
        stage, lambda c, a, k, out: _count_trees(c, [out]), recorder.counts)

    patched: list[tuple[object, str, object]] = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "ateml" and not mod_name.startswith("ateml."):
            continue
        for attr, val in list(vars(mod).items()):
            new = replacements.get(id(val))
            if new is not None and getattr(new, "__wrapped__", None) is val:
                patched.append((mod, attr, val))
                setattr(mod, attr, new)

    def undo() -> None:
        for mod, attr, val in patched:
            setattr(mod, attr, val)

    return undo
