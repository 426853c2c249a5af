"""The presorted tree fit against the per-node-argsort reference in oracles.py.

`fit_tree` sorts every feature once at the root, filters the sorted row
lists down the tree and scans all same-size nodes of a level together;
`reference_fit_tree` argsorts every feature again at every node and ranks
candidates per feature. Both scan the same cumulative sums in the same row
order and settle candidates by the same canonical children SSE, so the trees
they build must be identical, bit for bit. `fit_tree` skips scoring a
candidate whose partition mirrors an earlier one; the last test holds the
invariant that makes this exact.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamloc.dtree import TreeConfig, _partition_sse, fit_tree
from oracles import reference_fit_tree, tree_to_dict

COLUMN_KINDS = ("integer", "duplicate", "mirrored", "normal", "rounded", "adjacent")
LABEL_KINDS = ("normal", "rounded", "few_values", "constant_column")


def _column(kind, rng, n, previous):
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
    if kind == "rounded":
        return np.round(rng.normal(size=(n, 2)), 1)
    if kind == "few_values":
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    if kind == "constant_column":
        return np.column_stack([np.full(n, 2.5), rng.integers(0, 4, size=n).astype(float)])
    return rng.normal(size=(n, 2))


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
