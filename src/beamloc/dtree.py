"""CART-style regression tree with a 2-D output.

Greedy binary splits minimizing the children's summed squared label error
(equivalent to maximizing the reduction in summed per-output variance),
thresholds at midpoints between consecutive sorted unique feature values,
ties broken by lowest feature index then lowest threshold. Leaves predict the
mean label of their members. Fit and predict are iterative, so tree depth is
never limited by the interpreter stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    """Internal node (feature_index/threshold/left/right) or leaf (value)."""

    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | None = None
    count: int = 0
    n_features: int | None = None  # set on the root at fit time

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


def _partition_sse(x_col: np.ndarray, y: np.ndarray, threshold: float) -> float:
    """Children SSE computed from partition means in original row order.

    This is the canonical value used for final comparisons: identical
    partitions reached through different features produce bitwise-identical
    results here, so the lowest-(feature, threshold) tie-break is exact.
    """
    mask = x_col <= threshold
    total = 0.0
    for side in (mask, ~mask):
        part = y[side]
        if len(part) == 0:
            continue
        # sum / count is what ndarray.mean computes, without its Python wrapper
        total += float(((part - part.sum(axis=0) / len(part)) ** 2).sum())
    return total


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest-children-SSE split of (x, y), or None if no candidate separates it.

    Sorts every feature of the node and runs the scan `fit_tree` uses.
    """
    sorted_rows = np.argsort(x, axis=0, kind="stable").T
    return _presorted_split(x, y, np.arange(len(x)), sorted_rows, min_leaf)


def _presorted_split(
    features: np.ndarray, labels: np.ndarray, rows: np.ndarray, sorted_rows: np.ndarray, min_leaf: int
):
    """Best split of the node holding `rows` (ascending row ids), or None.

    `sorted_rows` is (n_features, n): row j lists the node's rows in stable
    ascending order of feature j. One cumulative-sum scan ranks every
    (feature, boundary) candidate at once; the few within rounding distance
    of the overall minimum are re-evaluated canonically in (feature,
    boundary) order, keeping ties deterministic (lowest feature index, then
    lowest threshold).
    """
    n = len(rows)
    y = labels[rows]
    total_sum = y.sum(axis=0)
    total_sq = float((y * y).sum())
    tie_window = 1e-9 * max(1.0, total_sq)

    xv = features[sorted_rows, np.arange(features.shape[1])[:, None]]
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = xv[:, 1:] != xv[:, :-1]
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    yv = labels[sorted_rows]
    cum_sum = np.cumsum(yv, axis=1)
    cum_sq = np.cumsum((yv * yv).sum(axis=2), axis=1)
    sum_left = cum_sum[:, :-1]
    sq_left = cum_sq[:, :-1]
    sse_left = sq_left - (sum_left * sum_left).sum(axis=2) / n_left
    sum_right = total_sum - sum_left
    sse_right = (total_sq - sq_left) - (sum_right * sum_right).sum(axis=2) / n_right
    scan = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)
    scan[~valid] = np.inf

    best = None
    seen = set()
    for j, k in zip(*np.nonzero(scan <= scan.min() + tie_window)):
        lower = xv[j, k]
        upper = xv[j, k + 1]
        threshold = (lower + upper) / 2.0
        # the midpoint of two near-adjacent floats can round up to the
        # upper value; fall back to the lower one, same partition
        if threshold >= upper:
            threshold = lower
        x_col = features[rows, j]
        # a partition already evaluated has the same canonical value and an
        # earlier (feature, boundary), so it cannot win
        partition = (x_col <= threshold).tobytes()
        if partition in seen:
            continue
        seen.add(partition)
        children = _partition_sse(x_col, y, threshold)
        if best is None or children < best[0]:
            best = (children, int(j), float(threshold))
    return best[1], best[2]


def fit_tree(features: np.ndarray, labels: np.ndarray, config: TreeConfig | None = None) -> TreeNode:
    """Grow the tree greedily until nodes are pure or constraints stop them.

    A node with remaining label error accepts the best split even when the
    immediate error reduction is zero, so distinct feature rows always reach
    zero training error at unlimited depth. Every feature is sorted once at
    the root; a split filters each sorted row list by side, which keeps it
    sorted, so no node sorts again. Raises ValueError on non-finite inputs.
    """
    config = config or TreeConfig()
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    if len(features) == 0:
        raise ValueError("empty training set")
    if len(features) != len(labels):
        raise ValueError("features and labels row counts differ")
    for name, values in (("features", features), ("labels", labels)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contain non-finite values")

    n_features = features.shape[1]
    root = TreeNode(n_features=n_features)
    goes_left = np.empty(len(features), dtype=bool)  # per-row side of the current split
    stack = [(root, np.arange(len(features)), np.argsort(features, axis=0, kind="stable").T, 0)]
    while stack:
        node, idx, sorted_rows, depth = stack.pop()
        y = labels[idx]
        mean = y.sum(axis=0) / len(y)
        node.count = len(idx)
        sse = float(((y - mean) ** 2).sum())
        depth_ok = config.max_depth is None or depth < config.max_depth
        split = None
        if sse > 0.0 and depth_ok and len(idx) >= config.min_samples_split:
            split = _presorted_split(features, labels, idx, sorted_rows, config.min_samples_leaf)
        if split is None:
            node.value = mean
            continue
        node.feature_index, node.threshold = split
        go_left = features[idx, node.feature_index] <= node.threshold
        goes_left[idx] = go_left
        # each feature's list keeps exactly the left rows, in the same order
        left_mask = goes_left[sorted_rows]
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.left, idx[go_left], sorted_rows[left_mask].reshape(n_features, -1), depth + 1))
        stack.append((node.right, idx[~go_left], sorted_rows[~left_mask].reshape(n_features, -1), depth + 1))
    return root


def predict_tree(tree: TreeNode, features: np.ndarray) -> np.ndarray:
    """Route rows left iff feature <= threshold; return leaf means, (n, 2)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if tree.n_features is not None and features.shape[1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} feature columns, got {features.shape[1]}")
    out = np.empty((len(features), len(tree.value) if tree.is_leaf else 2))
    stack = [(tree, np.arange(len(features)))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if node.is_leaf:
            out[rows] = node.value
            continue
        go_left = features[rows, node.feature_index] <= node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


def tree_depth(tree: TreeNode) -> int:
    depth = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if not node.is_leaf:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return depth


def leaf_nodes(tree: TreeNode) -> list[TreeNode]:
    leaves = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend((node.left, node.right))
    return leaves


def tree_to_dict(tree: TreeNode) -> dict:
    """Nested plain-dict form of the tree, built without recursion."""
    rendered: dict[int, dict] = {}
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    for node in reversed(order):
        if node.is_leaf:
            rendered[id(node)] = {"value": [float(v) for v in node.value], "count": node.count}
        else:
            rendered[id(node)] = {
                "feature_index": node.feature_index,
                "threshold": node.threshold,
                "count": node.count,
                "left": rendered[id(node.left)],
                "right": rendered[id(node.right)],
            }
    return rendered[id(tree)]
