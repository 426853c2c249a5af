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

from .bounds import bound, check_fields

# `_best_splits` scans at most this many bytes of candidates per feature
# block, and at least one feature
SCAN_BLOCK_BYTES = 1 << 15


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
    max_depth: int | None = bound(None, ge=0)
    min_samples_leaf: int = bound(1, ge=1)
    min_samples_split: int = bound(2, ge=2)

    def __post_init__(self):
        check_fields(self)


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


def _best_splits(
    features: np.ndarray, labels: np.ndarray, rows: np.ndarray, sorted_rows: np.ndarray, min_leaf: int
):
    """Best split of each of K nodes of n rows: (feature, threshold) arrays of length K.

    `rows` is (K, n), each node's rows in ascending order; `sorted_rows` is
    (K, n_features, n): entry [i, j] lists node i's rows in stable ascending
    order of feature j. A node that no candidate separates gets feature -1.
    One cumulative-sum scan ranks every (node, feature, boundary) candidate;
    it fills its candidate matrix one block of features at a time (at most
    SCAN_BLOCK_BYTES per block), so only one block's sums are alive at once.
    Each reduction runs along an axis of the same length, in the same order,
    as it would for one node alone, whatever the block. The candidates within
    rounding distance of their node's minimum are settled by the canonical
    children SSE in (feature, boundary) order, so ties go to the lowest
    feature index, then the lowest threshold. A partition and its mirror
    (left and right swapped) have bit-equal canonical SSE, so a node whose
    candidates all induce one unordered partition takes its first candidate
    without scoring any.
    """
    k_nodes, n = rows.shape
    xv = features[sorted_rows, np.arange(features.shape[1])[:, None]]
    valid = xv[..., 1:] != xv[..., :-1]
    # the boundary after sorted position k leaves k + 1 rows left, n - k - 1 right
    valid[..., : min_leaf - 1] = False
    valid[..., max(n - min_leaf, 0) :] = False
    splittable = np.logical_or.reduce(valid.reshape(k_nodes, -1), axis=1)
    if not splittable.all():
        feature, threshold = np.full(k_nodes, -1), np.zeros(k_nodes)
        if splittable.any():
            feature[splittable], threshold[splittable] = _best_splits(
                features, labels, rows[splittable], sorted_rows[splittable], min_leaf
            )
        return feature, threshold

    y = labels[rows]
    total_sum = np.add.reduce(y, axis=1)
    total_sq = np.add.reduce((y * y).reshape(k_nodes, -1), axis=1)
    n_left = np.arange(1, n)
    n_right = n - n_left
    n_features = sorted_rows.shape[1]
    scan = np.empty((k_nodes, n_features, n - 1))
    step = max(1, SCAN_BLOCK_BYTES // (k_nodes * n * scan.itemsize))
    for f0 in range(0, n_features, step):
        block = sorted_rows[:, f0 : f0 + step]
        # the two label columns are scanned apart; a sum over a row's two
        # entries is the one addition first + second, written out
        col0, col1 = labels[:, 0][block], labels[:, 1][block]
        sum0 = np.add.accumulate(col0, axis=2)[..., :-1]
        sum1 = np.add.accumulate(col1, axis=2)[..., :-1]
        sq_left = np.add.accumulate(col0 * col0 + col1 * col1, axis=2)[..., :-1]
        sse_left = sq_left - (sum0 * sum0 + sum1 * sum1) / n_left
        right0 = total_sum[:, 0, None, None] - sum0
        right1 = total_sum[:, 1, None, None] - sum1
        sse_right = (total_sq[:, None, None] - sq_left) - (right0 * right0 + right1 * right1) / n_right
        np.add(np.maximum(sse_left, 0.0), np.maximum(sse_right, 0.0), out=scan[:, f0 : f0 + step])
    scan[~valid] = np.inf
    cutoff = np.minimum.reduce(scan.reshape(k_nodes, -1), axis=1) + 1e-9 * np.maximum(1.0, total_sq)

    # candidates in (node, feature, boundary) order; every node has one
    node, j, k = np.nonzero(scan <= cutoff[:, None, None])
    lower = xv[node, j, k]
    upper = xv[node, j, k + 1]
    # the midpoint of two near-adjacent floats can round up to the upper
    # value, and that of two values beyond -9e307 overflows to -inf; outside
    # [lower, upper) fall back to the lower value, same partition
    with np.errstate(over="ignore"):
        middle = (lower + upper) / 2.0
    cand_threshold = np.where((lower <= middle) & (middle < upper), middle, lower)
    size = np.bincount(node, minlength=k_nodes)
    winner = np.add.accumulate(size) - size  # each node's first candidate
    if len(node) > k_nodes:
        # a candidate induces the unordered partition of its node's first
        # candidate iff its left rows are that candidate's left rows or its
        # right rows; count the first candidate's left rows in every prefix
        side = np.empty(len(features), dtype=bool)
        side[rows] = features[rows, j[winner][:, None]] <= cand_threshold[winner][:, None]
        count = np.add.accumulate(side[sorted_rows], axis=2, dtype=np.intp)[node, j, k]
        k_first = k[winner][node]
        same = ((k == k_first) & (count == k_first + 1)) | ((k == n - 2 - k_first) & (count == 0))
        for i in sorted(set(node[~same].tolist())):
            winner[i] = _settle(features, rows[i], y[i], j, cand_threshold, winner[i], winner[i] + size[i])
    return j[winner], cand_threshold[winner]


def _settle(features, rows, y, cand_feature, cand_threshold, start, stop):
    """Index of the lowest canonical children SSE among candidates start:stop,
    scoring one candidate per unordered partition; the earliest wins ties."""
    best = None
    seen = set()
    for c in range(start, stop):
        x_col = features[rows, cand_feature[c]]
        left = x_col <= cand_threshold[c]
        # a partition (or its mirror) already scored has the same canonical
        # value and an earlier (feature, boundary), so it cannot win
        key = (left if left[0] else ~left).tobytes()
        if key in seen:
            continue
        seen.add(key)
        children = _partition_sse(x_col, y, cand_threshold[c])
        if best is None or children < best[0]:
            best = (children, c)
    return best[1]


def fit_tree(features: np.ndarray, labels: np.ndarray, config: TreeConfig | None = None) -> TreeNode:
    """Grow the tree greedily until nodes are pure or constraints stop them.

    A node with remaining label error accepts the best split even when the
    immediate error reduction is zero, so distinct feature rows always reach
    zero training error at unlimited depth. Every feature is sorted once at
    the root; a split filters each sorted row list by side, which keeps it
    sorted, so no node sorts again. The tree grows one level per round, and
    a round scans all its nodes of one row count together. Raises ValueError
    on non-finite inputs, on labels whose squared sums overflow float64, or
    on labels that are not (n, 2).
    """
    config = config or TreeConfig()
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    if len(features) == 0:
        raise ValueError("empty training set")
    if labels.ndim != 2 or labels.shape[1] != 2:
        raise ValueError(f"labels must have shape (n, 2), got {labels.shape}")
    if len(features) != len(labels):
        raise ValueError("features and labels row counts differ")
    for name, values in (("features", features), ("labels", labels)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contain non-finite values")
    # the split scan squares sums of up to every label, each below
    # (4 * n * max|label|)**2, which must stay finite
    largest = float(np.abs(labels).max())
    if 4.0 * len(labels) * largest > np.sqrt(np.finfo(float).max):
        raise ValueError(f"labels too large: max |label| {largest!r} overflows float64 in the squared sums")

    n_features = features.shape[1]
    root = TreeNode(n_features=n_features)
    goes_left = np.empty(len(features), dtype=bool)  # per-row side of the current splits
    # the nodes of one level: (node, ascending rows, per-feature sorted rows)
    level = [(root, np.arange(len(features)), np.argsort(features, axis=0, kind="stable").T)]
    depth = 0
    while level:
        by_size: dict[int, list] = {}
        for entry in level:
            by_size.setdefault(len(entry[1]), []).append(entry)
        depth_ok = config.max_depth is None or depth < config.max_depth
        level = []
        depth += 1
        for n, group in by_size.items():
            nodes, rows, sorted_rows = zip(*group)
            rows, sorted_rows = np.array(rows), np.array(sorted_rows)
            y = labels[rows]
            mean = np.add.reduce(y, axis=1) / n
            sse = np.add.reduce(((y - mean[:, None]) ** 2).reshape(len(group), -1), axis=1)
            split = np.zeros(len(group), dtype=bool)
            grow = sse > 0.0
            if depth_ok and n >= config.min_samples_split and grow.any():
                feature, threshold = _best_splits(
                    features, labels, rows[grow], sorted_rows[grow], config.min_samples_leaf
                )
                found = feature >= 0
                split[grow] = found
                feature, threshold = feature[found], threshold[found]
            for node, value, is_split in zip(nodes, mean, split.tolist()):
                node.count = n
                if not is_split:
                    node.value = value
            if not split.any():
                continue
            rows, sorted_rows = rows[split], sorted_rows[split]
            go_left = features[rows, feature[:, None]] <= threshold[:, None]
            goes_left[rows] = go_left
            # each feature's list keeps exactly the left rows, in the same
            # order. Boolean selection lays the parents' children out in
            # parent order: parent i's child holds rows cut[i]:cut[i + 1] of
            # its side and the matching (n_features, size) block of its lists
            left_mask = goes_left[sorted_rows]
            left_cut = [0, *np.add.accumulate(np.add.reduce(go_left, axis=1)).tolist()]
            right_cut = [i * n - cut for i, cut in enumerate(left_cut)]
            sides = (
                (rows[go_left], sorted_rows[left_mask], left_cut),
                (rows[~go_left], sorted_rows[~left_mask], right_cut),
            )
            parents = [node for node, is_split in zip(nodes, split.tolist()) if is_split]
            for i, (parent, j, t) in enumerate(zip(parents, feature.tolist(), threshold.tolist())):
                parent.feature_index, parent.threshold = j, t
                parent.left, parent.right = TreeNode(), TreeNode()
                for child, (side_rows, side_sorted, cut) in zip((parent.left, parent.right), sides):
                    start, stop = cut[i], cut[i + 1]
                    level.append((child, side_rows[start:stop],
                                  side_sorted[start * n_features : stop * n_features].reshape(n_features, -1)))
    return root


def predict_tree(tree: TreeNode, features: np.ndarray) -> np.ndarray:
    """Route rows left iff feature <= threshold; return leaf means, (n, 2)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if tree.n_features is not None and features.shape[1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} feature columns, got {features.shape[1]}")
    out = np.empty((len(features), 2))
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


def _walk(tree: TreeNode):
    """Every node of the tree with its depth (the root's is 0), without recursion."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if not node.is_leaf:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))


def tree_depth(tree: TreeNode) -> int:
    return max(depth for _, depth in _walk(tree))


def leaf_nodes(tree: TreeNode) -> list[TreeNode]:
    return [node for node, _ in _walk(tree) if node.is_leaf]
