"""Reference tree grower for the engine tests.

A per-node grower: it argsorts every feature at every node, keeps one Python
object per node, and grows one tree at a time, level by level, taking a
forest tree's feature draws in the order ``ateml.learners`` documents. It
stays here only as the oracle the engine must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ateml.core import child_seeds, expit, logit, rng_from


@dataclass
class TreeNode:
    value: float = 0.0
    n_samples: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X, y, idx, feats, min_leaf):
    """Exhaustive search over features and midpoints of sorted distinct values.

    Ties in impurity break toward the lowest feature index, then the lowest
    threshold.
    """
    n = idx.size
    best = None  # (sse_total, feature, threshold)
    for j in feats:
        x = X[idx, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[idx][order]
        if xs[0] == xs[-1]:
            continue
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        k = np.arange(1, n)  # left-child sizes
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        sse_l = c2[:-1] - c1[:-1] ** 2 / k
        sse_r = (c2[-1] - c2[:-1]) - (c1[-1] - c1[:-1]) ** 2 / (n - k)
        total = np.where(valid, sse_l + sse_r, np.inf)
        i = int(np.argmin(total))
        if best is None or total[i] < best[0]:
            with np.errstate(over="ignore"):
                mid = (xs[i] + xs[i + 1]) / 2.0
            best = (float(total[i]), j, float(mid if mid < xs[i + 1] else xs[i]))
    return best


def grow_tree(X, y, max_depth, min_leaf, rng=None, mtry=None):
    """Greedy growth one level at a time; returns (root, [(leaf, row_indices), ...]).

    With ``mtry`` < d, ``rng`` draws the feature subsets of a level's open
    nodes in one call: the sorted first ``mtry`` columns of
    ``rng.random((k, d)).argsort(axis=1)``, one row per node in level order.
    """
    n, d = X.shape
    root = TreeNode()
    leaves = []
    level = [(root, np.arange(n))]  # parents in order, left child first
    depth = 0
    while level:
        open_ = []
        for node, idx in level:
            sub_y = y[idx]
            node.value = float(sub_y.mean()) if idx.size else float("nan")
            node.n_samples = int(idx.size)
            at_depth = max_depth is not None and depth >= max_depth
            if at_depth or idx.size < 2 * min_leaf or sub_y.min() == sub_y.max():
                leaves.append((node, idx))
            else:
                open_.append((node, idx))
        if not open_:
            break
        if mtry is not None and mtry < d:
            draws = np.sort(rng.random((len(open_), d)).argsort(axis=1)[:, :mtry], axis=1)
        else:
            draws = [np.arange(d)] * len(open_)
        level = []
        for (node, idx), feats in zip(open_, draws):
            sse_parent = float(np.sum((y[idx] - node.value) ** 2))
            best = _best_split(X, y, idx, feats, min_leaf)
            if best is None or best[0] >= sse_parent - 1e-12:
                leaves.append((node, idx))
                continue
            _, node.feature, node.threshold = best
            go_left = X[idx, node.feature] <= node.threshold
            node.left, node.right = TreeNode(), TreeNode()
            level += [(node.left, idx[go_left]), (node.right, idx[~go_left])]
        depth += 1
    return root, leaves


def tree_predict(root, X):
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def fit_tree(X, y, max_depth=6, min_leaf=1):
    return grow_tree(np.asarray(X, float), np.asarray(y, float), max_depth, min_leaf)[0]


def fit_forest(X, y, n_trees=100, mtry=None, min_leaf=5, seed=0, *, max_depth=None,
               bootstrap=True):
    """Returns the list of trees; the prediction is their sequential mean."""
    X, y = np.asarray(X, float), np.asarray(y, float)
    n, d = X.shape
    if mtry is None:
        mtry = max(1, int(round(np.sqrt(d))))
    trees = []
    for s in child_seeds(seed, n_trees):
        rng = rng_from(s)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(grow_tree(X[rows], y[rows], max_depth, min_leaf, rng=rng, mtry=mtry)[0])
    return trees


def forest_predict(trees, X):
    acc = np.zeros(np.shape(X)[0])
    for t in trees:
        acc += tree_predict(t, X)
    return acc / len(trees)


def fit_boost(X, y, n_trees=100, max_depth=3, shrinkage=0.1, loss="squared", *,
              min_leaf=1, callback=None):
    """Returns (f0, trees); ``callback(t, F)`` as in ``ateml.learners.fit_boost``."""
    X, y = np.asarray(X, float), np.asarray(y, float)
    bernoulli = loss == "bernoulli"
    f0 = float(logit(np.clip(y.mean(), 1e-12, 1 - 1e-12))) if bernoulli else float(y.mean())
    F = np.full(X.shape[0], f0)
    trees = []
    if callback is not None:
        callback(0, F)
    for t in range(1, n_trees + 1):
        if bernoulli:
            p = expit(F)
            g, h = y - p, p * (1.0 - p)
        else:
            g, h = y - F, None
        root, leaves = grow_tree(X, g, max_depth, min_leaf)
        if h is not None:
            for leaf, idx in leaves:
                leaf.value = float(g[idx].sum() / max(h[idx].sum(), 1e-6))
        F += shrinkage * tree_predict(root, X)
        trees.append(root)
        if callback is not None:
            callback(t, F)
    return f0, trees


def boost_predict_raw(f0, trees, nu, X):
    acc = np.full(np.shape(X)[0], f0)
    for t in trees:
        acc += nu * tree_predict(t, X)
    return acc
