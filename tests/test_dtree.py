"""The regression tree against exhaustive split search and the per-node
argsort reference in oracles.py.

`fit_tree` sorts every feature once at the root, filters the sorted row
lists down the tree and scans all same-size nodes of a level together;
`brute_force_best_split` tries every midpoint of every feature, and
`reference_fit_tree` argsorts every feature again at every node and ranks
candidates per feature. Both fits scan the same cumulative sums in the same
row order and settle candidates by the same canonical children SSE, so the
trees they build must be identical, bit for bit. `fit_tree` skips scoring a
candidate whose partition mirrors an earlier one;
`test_mirrored_partition_has_bit_equal_children_sse` holds the invariant
that makes this exact.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import beamloc
from beamloc.dtree import (
    TreeConfig,
    _partition_sse,
    fit_tree,
    leaf_nodes,
    predict_tree,
    tree_depth,
)
from oracles import _best_split, brute_force_best_split, reference_fit_tree, tree_to_dict

COLUMN_KINDS = ("integer", "duplicate", "mirrored", "normal", "rounded", "adjacent")
LABEL_KINDS = ("normal", "rounded", "few_values", "constant_column")


def _column(kind, rng, n, previous):
    """A feature column of `kind`; "duplicate" and "mirrored" copy or negate one of `previous`."""
    if kind == "integer":
        return rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float)
    if kind == "duplicate" and previous:
        return previous[int(rng.integers(len(previous)))].copy()
    if kind == "mirrored" and previous:
        # every split of the earlier column reappears here with its sides swapped
        return -previous[int(rng.integers(len(previous)))]
    if kind == "rounded":
        return np.round(rng.normal(size=n), 1)
    if kind == "adjacent":
        # neighbouring floats whose midpoint rounds to the upper value
        return np.where(rng.random(n) < 0.5, np.nextafter(1.0, 0.0), 1.0)
    return rng.normal(size=n)


def _labels(kind, rng, n):
    """(n, 2) labels of `kind`."""
    if kind == "rounded":
        return np.round(rng.normal(size=(n, 2)), 1)
    if kind == "few_values":
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    if kind == "constant_column":
        return np.column_stack([np.full(n, 2.5), rng.integers(0, 4, size=n).astype(float)])
    return rng.normal(size=(n, 2))


def test_identical_labels_single_leaf():
    x = np.arange(12, dtype=float).reshape(6, 2)
    y = np.tile([3.0, -1.0], (6, 1))
    tree = fit_tree(x, y)
    assert tree.is_leaf
    assert tree.count == 6
    pred = predict_tree(tree, x)
    assert np.allclose(pred, [3.0, -1.0])


def test_hand_checked_four_samples():
    # one feature; best split must separate {0,1} from {10,11}
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    tree = fit_tree(x, y)
    assert tree.feature_index == 0
    assert tree.threshold == pytest.approx(5.5)
    oracle = brute_force_best_split(x, y)
    assert oracle[0] == tree.feature_index
    assert oracle[1] == pytest.approx(tree.threshold)


def test_root_split_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        x = np.column_stack([_column("normal", rng, n, []) for _ in range(int(rng.integers(1, 4)))])
        y = _labels("normal", rng, n)
        tree = fit_tree(x, y)
        oracle = brute_force_best_split(x, y)
        if oracle is None:
            assert tree.is_leaf
            continue
        assert not tree.is_leaf
        assert tree.feature_index == oracle[0]
        assert tree.threshold == pytest.approx(oracle[1], rel=1e-12)


def test_every_internal_split_matches_bruteforce_oracle():
    # the sorted row lists handed down from the root must give every node,
    # not only the root, the split an exhaustive search finds on its rows
    rng = np.random.default_rng(12)
    internal = 0
    for _ in range(60):
        n = int(rng.integers(2, 41))
        cols = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                cols.append(rng.integers(0, 5, size=n).astype(float))
            else:
                cols.append(rng.uniform(0, 10, size=n))
        x = np.column_stack(cols)
        y = np.round(rng.normal(size=(n, 2)), 2)
        stack = [(fit_tree(x, y), np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                continue
            internal += 1
            oracle = brute_force_best_split(x[rows], y[rows])
            assert (node.feature_index, node.threshold) == oracle[:2]
            go_left = x[rows, node.feature_index] <= node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
    assert internal > 500


def test_distinct_rows_zero_training_error():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 3))
    y = rng.normal(size=(60, 2))
    tree = fit_tree(x, y)
    assert np.allclose(predict_tree(tree, x), y, atol=1e-12)


def test_zero_gain_splits_still_reach_purity():
    # XOR layout: no single split reduces error, yet the tree must keep going
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tree = fit_tree(x, y)
    assert np.allclose(predict_tree(tree, x), y, atol=1e-12)


def test_tie_breaks_prefer_lowest_feature_then_threshold():
    # feature 1 duplicates feature 0: equal gains, feature 0 must win
    x0 = np.array([0.0, 1.0, 2.0, 3.0])
    x = np.column_stack([x0, x0])
    y = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0]])
    tree = fit_tree(x, y)
    assert tree.feature_index == 0


def test_leaf_counts_partition_samples():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(120, 4))
    y = rng.normal(size=(120, 2))
    for config in (TreeConfig(), TreeConfig(max_depth=3), TreeConfig(min_samples_leaf=7)):
        tree = fit_tree(x, y, config)
        leaves = leaf_nodes(tree)
        assert sum(leaf.count for leaf in leaves) == 120
        assert all(leaf.count >= config.min_samples_leaf for leaf in leaves)


def test_every_split_has_nonnegative_variance_reduction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 3))
    y = rng.normal(size=(80, 2))
    tree = fit_tree(x, y, TreeConfig(min_samples_leaf=2))

    def sse(rows):
        part = y[rows]
        return float(((part - part.mean(axis=0)) ** 2).sum())

    stack = [(tree, np.arange(80))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            continue
        go_left = x[rows, node.feature_index] <= node.threshold
        left_rows, right_rows = rows[go_left], rows[~go_left]
        reduction = sse(rows) - sse(left_rows) - sse(right_rows)
        assert reduction >= -1e-9
        stack.append((node.left, left_rows))
        stack.append((node.right, right_rows))


def test_max_depth_zero_is_single_leaf():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=(20, 2))
    tree = fit_tree(x, y, TreeConfig(max_depth=0))
    assert tree.is_leaf
    assert np.allclose(predict_tree(tree, x), y.mean(axis=0))


def test_max_depth_limits_depth():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=(100, 2))
    for depth in (1, 2, 4):
        tree = fit_tree(x, y, TreeConfig(max_depth=depth))
        assert tree_depth(tree) <= depth


def test_deterministic_fit():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 2))
    assert tree_to_dict(fit_tree(x, y)) == tree_to_dict(fit_tree(x, y))


def test_monotone_feature_rescaling_preserves_predictions():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=(60, 3))
    y = rng.normal(size=(60, 2))
    x_test = rng.uniform(-2, 2, size=(25, 3))

    def rescale(m):
        out = m.copy()
        out[:, 0] = np.exp(m[:, 0])
        out[:, 1] = m[:, 1] ** 3
        out[:, 2] = 5.0 * m[:, 2] - 7.0
        return out

    base = predict_tree(fit_tree(x, y), x_test)
    rescaled = predict_tree(fit_tree(rescale(x), y), rescale(x_test))
    assert np.allclose(base, rescaled, atol=1e-9)


def test_predict_single_leaf_everywhere():
    x = np.zeros((5, 2))
    y = np.tile([2.0, 7.0], (5, 1))
    tree = fit_tree(x, y)
    pred = predict_tree(tree, np.random.default_rng(8).normal(size=(9, 2)))
    assert np.allclose(pred, [2.0, 7.0])


def test_fit_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        fit_tree(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        TreeConfig(min_samples_split=1)


@pytest.mark.parametrize(
    "features, labels, name",
    [
        ([[np.nan], [np.nan]], [[0.0, 0.0], [1.0, 1.0]], "features"),
        ([[0.0], [np.inf]], [[0.0, 0.0], [1.0, 1.0]], "features"),
        ([[0.0], [1.0]], [[0.0, np.nan], [1.0, 1.0]], "labels"),
    ],
)
def test_fit_rejects_non_finite_inputs(features, labels, name):
    # a NaN feature would send every row right and split the same node forever
    with pytest.raises(ValueError, match=f"{name} contain non-finite values"):
        fit_tree(features, labels)


def test_fit_rejects_labels_whose_squared_sums_overflow():
    # 1e200 squared is inf: the split scan found no candidate and indexed past
    # its empty candidate list
    with pytest.raises(ValueError, match=r"labels too large: max \|label\| 1e\+200"):
        fit_tree([[0.0], [1.0], [2.0], [3.0]], [[1e200, 0.0], [-1e200, 0.0], [1e200, 1.0], [3e199, 0.0]])


@pytest.mark.parametrize("width", [1, 3])
def test_fit_rejects_labels_that_are_not_two_columns(width):
    # predict_tree returns (n, 2); a tree fit on other widths would predict garbage
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match=rf"\(12, {width}\)"):
        fit_tree(rng.normal(size=(12, 3)), rng.normal(size=(12, width)))


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(9)
    tree = fit_tree(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)))
    with pytest.raises(ValueError, match="columns"):
        predict_tree(tree, np.zeros((2, 4)))


def test_adjacent_float_values_split_cleanly():
    # the midpoint of these two values rounds up to the larger one; the
    # split must still separate the rows instead of sweeping both left
    lower = np.nextafter(1.0, 0.0)
    x = np.array([[lower], [1.0]])
    y = np.array([[0.0, 0.0], [4.0, 4.0]])
    feature, threshold = _best_split(x, y, min_leaf=1)
    assert feature == 0
    assert lower <= threshold < 1.0
    tree = fit_tree(x, y)
    pred = predict_tree(tree, x)
    assert np.array_equal(pred, y)


def test_huge_negative_features_split_without_hanging():
    # the midpoint of -1.7e308 and -1.6e308 overflows to -inf; a -inf
    # threshold sends every row right, and the fit would split the same node
    # forever, so it runs (with the per-node reference) in a child process
    # with a deadline
    code = (
        "from beamloc.dtree import TreeConfig, fit_tree, predict_tree\n"
        "from oracles import reference_fit_tree, tree_to_dict\n"
        "x, y = [[-1.7e308], [-1.6e308], [0.0]], [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]\n"
        "tree = fit_tree(x, y)\n"
        "assert repr(tree_to_dict(tree)) == repr(tree_to_dict(reference_fit_tree(x, y, TreeConfig())))\n"
        "print(repr(tree.left.threshold), predict_tree(tree, x).tolist())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(beamloc.__file__)))
    path = [src, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    # the overflowing boundary falls back to its lower value, same partition
    assert result.stdout.split(" ", 1) == ["-1.7e+308", "[[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]\n"]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(2, 80),
    column_kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
    label_kind=st.sampled_from(LABEL_KINDS),
    min_samples_leaf=st.integers(1, 6),
    min_samples_split=st.integers(2, 12),
    max_depth=st.one_of(st.none(), st.integers(0, 6)),
    seed=st.integers(0, 2**16),
)
@example(rows=40, column_kinds=["integer", "duplicate", "duplicate"], label_kind="few_values",
         min_samples_leaf=1, min_samples_split=2, max_depth=None, seed=0)
@example(rows=80, column_kinds=["rounded", "integer", "adjacent", "normal", "duplicate", "integer"],
         label_kind="rounded", min_samples_leaf=3, min_samples_split=7, max_depth=None, seed=1)
@example(rows=2, column_kinds=["adjacent"], label_kind="normal",
         min_samples_leaf=1, min_samples_split=2, max_depth=None, seed=2)
@example(rows=60, column_kinds=["integer", "mirrored", "rounded", "mirrored", "duplicate"], label_kind="few_values",
         min_samples_leaf=1, min_samples_split=2, max_depth=None, seed=3)
def test_fit_tree_equals_per_node_argsort_reference(
    rows, column_kinds, label_kind, min_samples_leaf, min_samples_split, max_depth, seed
):
    rng = np.random.default_rng(seed)
    columns = []
    for kind in column_kinds:
        columns.append(_column(kind, rng, rows, columns))
    features = np.column_stack(columns)
    labels = _labels(label_kind, rng, rows)
    config = TreeConfig(max_depth=max_depth, min_samples_leaf=min_samples_leaf, min_samples_split=min_samples_split)
    # repr keeps every float bit and the Python type of each field
    assert repr(tree_to_dict(fit_tree(features, labels, config))) == repr(
        tree_to_dict(reference_fit_tree(features, labels, config))
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 60),
    column_kind=st.sampled_from(("integer", "normal")),
    label_scale=st.sampled_from((1e-3, 1e-1, 1.0, 1e2, 1e4)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_mirrored_partition_has_bit_equal_children_sse(rows, column_kind, label_scale, seed, data):
    # the rows x <= t and -x <= -upper (upper the next value above t) are the
    # same two sides with left and right swapped
    rng = np.random.default_rng(seed)
    x = _column(column_kind, rng, rows, [])
    values = np.unique(x)
    assume(len(values) >= 2)
    at = data.draw(st.integers(0, len(values) - 2))
    threshold, upper = values[at], values[at + 1]
    y = rng.normal(size=(rows, 2)) * label_scale
    assert _partition_sse(x, y, threshold).hex() == _partition_sse(-x, y, -upper).hex()
