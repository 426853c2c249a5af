"""Fingerprint tables, feature layouts and datasets against the per-row
references in oracles.py.

`FingerprintTable.from_grid` ranks each row of an RSRP grid once, when the
table is built, and keeps only the ranks a feature layout can read;
`extract_features` builds every feature matrix from those ranks in one
vectorized pass. `reference_extract_features` ranks one sample's RSRP dict
in Python and `reference_ranked_sample` shows the beams a table row keeps.
The property tests feed both paths the same random sparse fingerprints, with
RSRP ties forced within and across cells, and require bit-identical features,
the same kept rows, the same drop counts and the same one-hot error for every
feature layout, on tables built by `from_grid` and by `table_from_samples`.
Hand-written fingerprints pin the tie rules and the layout widths.
`generate_samples` ranks the grid one row block at a time; the block tests
hold its table to the one-block table and bound the memory the blocks take.
`save_dataset` formats each distinct value of a column once, and datasets
saved with one cache share a column's text; its bytes must still equal a
csv writer that calls repr on every value.
"""
import csv
import dataclasses
import io
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import beamloc.fingerprint
from beamloc.fingerprint import (
    CSV_BLOCK_ROWS,
    MAX_NEIGHBOR_CELLS,
    MAX_SERVING_BEAMS,
    Dataset,
    FeatureConfig,
    FingerprintSample,
    FingerprintTable,
    build_dataset,
    extract_features,
    extract_features_layout,
    filter_los,
    generate_samples,
    normalize,
    partition_by_cell,
    rank_rows,
    save_dataset,
)
from beamloc.propagation import PropagationConfig, RsrpGrid, rsrp_grid
from beamloc.scenario import ScenarioConfig, build_scenario, enumerate_locations
from beamloc.seeds import derive_seed
from oracles import (
    FeatureExtractionError,
    load_dataset,
    reference_extract_features,
    reference_ranked_sample,
    select_serving,
    table_from_samples,
)

CELLS = (0, 2, 3, 7)  # not contiguous, so cell ids are not column positions
BEAMS = 5
SITES = (3, 0, 1)  # site_los column order; cell c sits on site c // 2
NOISE_FLOOR = -100.0
# few distinct levels, so equal RSRPs within a cell and across cells are common
TIED_LEVELS = (-60.0, -65.5, -65.5, -72.25, -80.0)

CONFIGS = [
    FeatureConfig(n_serving_beams=s, n_neighbor_cells=n, include_serving_cell_id=cid,
                  id_encoding=encoding, one_hot_cells=8, one_hot_beams=BEAMS)
    for s in (1, 2, 3, 5)
    for n in (0, 1, 2, 3)
    for cid in (True, False)
    for encoding in ("numeric", "one_hot")
] + [
    # one-hot widths narrower than the IDs in use: both paths must raise alike
    FeatureConfig(n_serving_beams=2, n_neighbor_cells=1, id_encoding="one_hot", one_hot_cells=8, one_hot_beams=2),
    FeatureConfig(n_serving_beams=1, n_neighbor_cells=2, id_encoding="one_hot", one_hot_cells=3, one_hot_beams=BEAMS),
]

# a hand-written fingerprint hearing 8 beams of each of 5 cells, every RSRP distinct; cell 0 serves
FULL = {(cell, beam): -60.0 - 8.0 * cell - beam for cell in range(5) for beam in range(8)}

# with 8 dB shadow fading some rows of `_scenario()` are served without LoS
SHADOWED = PropagationConfig(shadow_fading_sigma=8.0)
SINGLE_CELL = dict(site_cols=1, sectors_per_site=1, beams_per_sector=1, with_buildings=False)

# Hypothesis's explain phase took about five minutes per failure on these
# examples; shrinking alone reports a minimal one in about one.
PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)

level = st.one_of(st.sampled_from(TIED_LEVELS), st.floats(-99.0, -50.0, allow_nan=False))


@st.composite
def fingerprint_rows(draw):
    """(grid RSRP rows over CELLS x BEAMS, per-site LoS); inaudible entries sit below the floor."""
    n_rows = draw(st.integers(10, 40))
    rows = []
    for _ in range(n_rows):
        heard = draw(st.lists(st.booleans(), min_size=len(CELLS) * BEAMS, max_size=len(CELLS) * BEAMS))
        values = draw(st.lists(level, min_size=len(CELLS) * BEAMS, max_size=len(CELLS) * BEAMS))
        rows.append([v if h else NOISE_FLOOR - 1.0 for v, h in zip(values, heard)])
    site_los = draw(st.lists(st.booleans(), min_size=n_rows * len(SITES), max_size=n_rows * len(SITES)))
    return np.array(rows), np.array(site_los).reshape(n_rows, len(SITES))


def _scenario(**overrides):
    """configs/tiny.yaml's scenario on two sites and a 4 m lattice, with `overrides` applied."""
    config = dict(site_rows=1, site_cols=2, beams_per_sector=8, elevation_steers_deg=(-6.0,),
                  grid_resolution_m=4.0, seed=derive_seed(7, "scenario"))
    return build_scenario(ScenarioConfig(**{**config, **overrides}))


def _random_rows(seed, n_rows, heard=1.0):
    """Seeded rows of the form `fingerprint_rows` draws: each beam heard with
    probability `heard`, at one of TIED_LEVELS or uniform in [-99, -50); each
    site in LoS with probability 0.6."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, len(CELLS) * BEAMS)
    levels = np.where(rng.random(shape) < 0.5, rng.choice(TIED_LEVELS, size=shape), rng.uniform(-99.0, -50.0, shape))
    rsrp = np.where(rng.random(shape) < heard, levels, NOISE_FLOOR - 1.0)
    return rsrp, rng.random((n_rows, len(SITES))) < 0.6


def _grid(rsrp, site_los=None):
    """(locations, RsrpGrid) over a copy of `rsrp`, columns in (cell, beam)
    order, one location per row at (row, 0); every site in LoS by default."""
    if site_los is None:
        site_los = np.ones((len(rsrp), len(SITES)), dtype=bool)
    keys = np.array([(cell, beam) for cell in CELLS for beam in range(BEAMS)])
    site_col = np.array([SITES.index(cell // 2) for cell in keys[:, 0]])
    locations = np.column_stack([np.arange(len(rsrp), dtype=float), np.zeros(len(rsrp))])
    return locations, RsrpGrid(rsrp=rsrp.copy(), cell_ids=keys[:, 0], beam_ids=keys[:, 1],
                               site_col=site_col, site_los=site_los)


def _table(rsrp, site_los=None):
    return FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)


def _samples(rsrp, site_los=None, ranked=True):
    """The reference's samples of `_table(rsrp, site_los)`'s rows, serving cell by select_serving.

    A ranked sample keeps the beams a table row keeps (`reference_ranked_sample`);
    otherwise the sample holds every audible beam.
    """
    keys = [(cell, beam) for cell in CELLS for beam in range(BEAMS)]
    samples = []
    for i, row in enumerate(rsrp):
        fingerprint = {key: float(v) for key, v in zip(keys, row) if v > NOISE_FLOOR}
        if fingerprint:
            serving = select_serving(fingerprint)
            los = True if site_los is None else bool(site_los[i, SITES.index(serving // 2)])
            sample = FingerprintSample((float(i), 0.0), fingerprint, serving, los)
            samples.append(reference_ranked_sample(sample) if ranked else sample)
    return samples


def _table_of(*fingerprints):
    """The table of hand-written {(cell, beam): RSRP} fingerprints, row i at (i, 0), all in LoS."""
    return table_from_samples(
        FingerprintSample((float(i), 0.0), rsrp, select_serving(rsrp), True) for i, rsrp in enumerate(fingerprints)
    )


def _outcome(table, config):
    """extract_features as comparable values: (feature bytes, shape, kept rows, drop counts),
    or the message of the ValueError it raises."""
    try:
        features, kept, dropped = extract_features(table, config)
    except ValueError as err:
        return str(err)
    return features.tobytes(), features.shape, kept.tolist(), dropped


def _reference_outcome(samples, config):
    """`_outcome` of the samples' table, sample by sample through reference_extract_features."""
    rows, kept, dropped = [], [], {}
    for i, sample in enumerate(samples):
        try:
            rows.append(reference_extract_features(sample, config))
        except FeatureExtractionError as err:
            dropped[err.reason] = dropped.get(err.reason, 0) + 1
            continue
        except ValueError as err:
            return str(err)
        kept.append(i)
    features = np.vstack(rows) if rows else np.zeros((0, len(extract_features_layout(config))))
    return features.tobytes(), features.shape, kept, dropped


def _assert_paths_agree(table, samples, config):
    expected = _reference_outcome(samples, config)
    assert _outcome(table, config) == expected
    if isinstance(expected, str):
        return
    features, _, kept, dropped = expected
    if len(kept) < 10:
        with pytest.raises(ValueError, match="at least 10"):
            build_dataset(table, config, seed=0)
        return
    dataset = build_dataset(table, config, seed=0)
    assert dataset.features.tobytes() == features
    assert dataset.labels.tolist() == [list(samples[i].location) for i in kept]
    assert dataset.provenance["dropped"] == dropped
    assert dataset.layout == extract_features_layout(config)


def test_select_serving_examples():
    assert select_serving({(1, 0): -70.0, (2, 5): -60.0}) == 2
    assert select_serving({(1, 0): -60.0, (2, 0): -60.0}) == 1
    assert select_serving({(3, 7): -60.0, (3, 1): -60.0}) == 3


def test_select_serving_order_independent():
    items = [((1, 0), -61.0), ((4, 2), -59.5), ((2, 9), -59.5), ((2, 3), -59.5)]
    results = set()
    for shift in range(len(items)):
        rotated = items[shift:] + items[:shift]
        results.add(select_serving(dict(rotated)))
    assert results == {2}


def test_select_serving_empty_map():
    with pytest.raises(ValueError):
        select_serving({})


def test_sample_invariants():
    with pytest.raises(ValueError):
        FingerprintSample(location=(0, 0), rsrp={}, serving_cell=0, los_to_serving=True)
    with pytest.raises(ValueError):
        FingerprintSample(location=(0, 0), rsrp={(1, 0): -70.0}, serving_cell=2, los_to_serving=True)


def test_table_from_samples_refuses_a_serving_cell_that_is_not_the_strongest():
    sample = FingerprintSample((1.0, 2.0), {(0, 0): -70.0, (0, 1): -65.0, (4, 3): -50.0}, 0, True)
    with pytest.raises(ValueError, match=r"rows \[1\]: the serving cell does not own the strongest beam"):
        table_from_samples([dataclasses.replace(sample, serving_cell=4), sample])


def test_generate_samples_single_cell():
    scenario = _scenario(**SINGLE_CELL)
    samples = generate_samples(scenario)
    assert len(samples) == len(enumerate_locations(scenario)) > 0
    assert samples.serving_cell.tolist() == [0] * len(samples)
    assert samples.los.all()


def test_generate_samples_count_matches_grid():
    scenario = build_scenario(ScenarioConfig(grid_resolution_m=5.0))
    samples = generate_samples(scenario)
    assert len(samples) == len(enumerate_locations(scenario))


def test_generate_samples_tx_shift_keeps_serving():
    base = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0, tx_power_dbm=30.0))
    boosted = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0, tx_power_dbm=37.0))
    a = generate_samples(base)
    b = generate_samples(boosted)
    assert [s.serving_cell for s in a] == [s.serving_cell for s in b]


def test_filter_los():
    rsrp, _ = _random_rows(0, 6)
    site_los = np.repeat([[True], [False], [True], [True], [False], [False]], len(SITES), axis=1)
    kept = filter_los(_table(rsrp, site_los))
    assert len(kept) == 3
    assert list(kept) == [s for s in _samples(rsrp, site_los) if s.los_to_serving]
    assert len(filter_los(table_from_samples([]))) == 0
    assert list(filter_los(_table(rsrp))) == _samples(rsrp)


def test_feature_lengths():
    table = _table(*_random_rows(1, 1))
    cases = [
        (FeatureConfig(n_serving_beams=4, n_neighbor_cells=0, include_serving_cell_id=True), 9),
        (FeatureConfig(n_serving_beams=3, n_neighbor_cells=2, include_serving_cell_id=True), 13),
        (FeatureConfig(n_serving_beams=3, n_neighbor_cells=0, include_serving_cell_id=False), 6),
    ]
    for config, expected in cases:
        assert extract_features(table, config)[0].shape == (1, expected)
        assert len(extract_features_layout(config)) == expected


def test_feature_length_formula_property():
    table = _table_of(FULL)
    cells, beams = 7, 9  # one-hot widths, above every cell and beam id in the sample
    for ns in (1, 2, 3, 4, 8):
        for nn in (0, 1, 2, 4):
            for with_id in (True, False):
                numeric = FeatureConfig(n_serving_beams=ns, n_neighbor_cells=nn, include_serving_cell_id=with_id)
                one_hot = dataclasses.replace(numeric, id_encoding="one_hot", one_hot_cells=cells,
                                              one_hot_beams=beams)
                for config, length in (
                    (numeric, 2 * ns + int(with_id) + 3 * nn),
                    (one_hot, ns * (beams + 1) + int(with_id) * cells + nn * (cells + beams + 1)),
                ):
                    assert extract_features(table, config)[0].shape == (1, length)
                    assert len(extract_features_layout(config)) == length


def test_serving_beams_sorted_and_tie_broken():
    rsrp = {(0, 4): -70.0, (0, 1): -65.0, (0, 3): -70.0, (0, 2): -80.0, (1, 0): -90.0}
    features, _, _ = extract_features(_table_of(rsrp), FeatureConfig(n_serving_beams=4, include_serving_cell_id=False))
    # -65, then -70 tie by id, then -80
    assert features.tolist() == [[1.0, 3.0, 4.0, 2.0, -65.0, -70.0, -70.0, -80.0]]


def test_neighbor_selection_and_ranking():
    rsrp = {
        (5, 0): -60.0,                     # serving
        (2, 1): -75.0, (2, 6): -71.0,      # neighbor strongest -71 via beam 6
        (7, 3): -68.0, (7, 9): -80.0,      # neighbor strongest -68 via beam 3
        (1, 2): -71.0,                     # ties cell 2's best; lower cell id ranks first
    }
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=3, include_serving_cell_id=True)
    features, _, _ = extract_features(_table_of(rsrp), config)
    assert features.tolist() == [[0.0, -60.0, 5.0, 7.0, 3.0, -68.0, 1.0, 2.0, -71.0, 2.0, 6.0, -71.0]]


def test_neighbor_beam_tie_prefers_lower_beam_id():
    rsrp = {(0, 0): -50.0, (3, 8): -70.0, (3, 2): -70.0}
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=1, include_serving_cell_id=False)
    features, _, _ = extract_features(_table_of(rsrp), config)
    assert features.tolist() == [[0.0, -50.0, 3.0, 2.0, -70.0]]


def test_extract_features_error_reasons():
    table = _table_of(
        FULL,
        {(0, 0): -60.0, (0, 1): -70.0},  # no neighbor cell
        {(0, 0): -60.0},  # one serving beam and no neighbor: counted once, as serving
    )
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=1)
    features, kept, dropped = extract_features(table, config)
    assert features.shape == (1, len(extract_features_layout(config)))
    assert kept.tolist() == [0]
    assert dropped == {"insufficient_neighbors": 1, "insufficient_serving_beams": 1}
    features, kept, dropped = extract_features(table.take([1, 2]), FeatureConfig(n_serving_beams=3))
    assert features.shape == (0, 7)
    assert kept.tolist() == []
    assert dropped == {"insufficient_serving_beams": 2}


def test_rsrp_shift_moves_only_rsrp_features():
    config = FeatureConfig(n_serving_beams=3, n_neighbor_cells=2)
    (a, b), _, _ = extract_features(_table_of(FULL, {k: v + 7.5 for k, v in FULL.items()}), config)
    for name, va, vb in zip(extract_features_layout(config), a, b):
        if "rsrp" in name:
            assert vb - va == pytest.approx(7.5, abs=1e-12)
        else:
            assert va == vb


def test_neighbor_ids_distinct_and_not_serving():
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=3)
    table = _table(*_random_rows(4, 50))
    features, kept, _ = extract_features(table, config)
    assert kept.tolist() == list(range(50))
    columns = [i for i, name in enumerate(extract_features_layout(config)) if name.startswith("neighbor")
               and name.endswith("cell_id")]
    for row, serving in zip(features, table.serving_cell):
        ids = row[columns].tolist()
        assert len(set(ids)) == len(ids)
        assert serving not in ids


def test_one_hot_encoding():
    rsrp = {(0, 0): -50.0, (2, 1): -70.0}
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=1, include_serving_cell_id=True,
                           id_encoding="one_hot", one_hot_cells=3, one_hot_beams=2)
    (values,), _, _ = extract_features(_table_of(rsrp), config)
    # beam one-hot(2) + rsrp + cell one-hot(3) + neighbor cell(3) + beam(2) + rsrp
    assert len(values) == 2 + 1 + 3 + 3 + 2 + 1
    assert values[:2].tolist() == [1.0, 0.0]
    assert values[3:6].tolist() == [1.0, 0.0, 0.0]
    assert values[6:9].tolist() == [0.0, 0.0, 1.0]


def test_one_hot_requires_cardinalities():
    with pytest.raises(ValueError):
        FeatureConfig(id_encoding="one_hot")


def test_build_dataset_split_sizes():
    dataset = build_dataset(_table(*_random_rows(0, 100)), FeatureConfig(), split_fraction=0.9, seed=5)
    assert len(dataset.train_idx) == 90
    assert len(dataset.test_idx) == 10
    combined = np.sort(np.concatenate([dataset.train_idx, dataset.test_idx]))
    assert np.array_equal(combined, np.arange(100))


def test_build_dataset_seeded_split_reproducible():
    table = _table(*_random_rows(0, 40))
    a = build_dataset(table, FeatureConfig(), seed=9)
    b = build_dataset(table, FeatureConfig(), seed=9)
    c = build_dataset(table, FeatureConfig(), seed=10)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_build_dataset_minimum_size():
    with pytest.raises(ValueError, match="at least 10"):
        build_dataset(_table(*_random_rows(0, 9)), FeatureConfig())


def test_build_dataset_counts_dropped():
    table = _table_of(*[FULL] * 12, *[{(0, 0): -60.0}] * 3)  # the last three hear one beam only
    dataset = build_dataset(table, FeatureConfig(n_serving_beams=3), seed=0)
    assert dataset.n_samples == 12
    assert dataset.provenance["dropped"] == {"insufficient_serving_beams": 3}


def test_normalization_train_stats():
    dataset = build_dataset(_table(*_random_rows(0, 80)), FeatureConfig(n_neighbor_cells=2), seed=3)
    train = normalize(dataset, dataset.features[dataset.train_idx])
    nonconstant = dataset.std > 0
    assert np.all(np.abs(train.mean(axis=0)[nonconstant]) < 1e-9)
    assert np.allclose(train.std(axis=0)[nonconstant], 1.0, atol=1e-6)
    # stats come from train rows only
    assert np.allclose(dataset.mean, dataset.features[dataset.train_idx].mean(axis=0))
    assert np.allclose(dataset.std, dataset.features[dataset.train_idx].std(axis=0))


def test_normalize_mean_row_is_zero():
    dataset = build_dataset(_table(*_random_rows(0, 30)), FeatureConfig(), seed=1)
    row = normalize(dataset, dataset.mean.reshape(1, -1))
    assert np.allclose(row, 0.0, atol=1e-12)


def test_normalize_round_trip():
    dataset = build_dataset(_table(*_random_rows(0, 30)), FeatureConfig(), seed=2)
    rows = dataset.features[:7]
    std = np.where(dataset.std == 0.0, 1.0, dataset.std)
    back = normalize(dataset, rows) * std + dataset.mean
    assert np.allclose(back, rows, atol=1e-9)


def test_normalize_constant_column():
    rng = np.random.default_rng(7)
    table = _table_of(*({(0, 0): float(rng.uniform(-80, -60)), (0, 1): float(rng.uniform(-90, -81))}
                        for _ in range(20)))
    # serving_beam_id_1 is always 0 -> constant column
    dataset = build_dataset(table, FeatureConfig(n_serving_beams=2, include_serving_cell_id=True), seed=0)
    col = dataset.layout.index("serving_beam_id_1")
    assert dataset.std[col] == 0.0
    normalized = normalize(dataset, dataset.features)
    assert np.all(normalized[:, col] == 0.0)  # (x - mean) / 1 with x = mean


def test_normalize_column_mismatch():
    dataset = build_dataset(_table(*_random_rows(0, 20)), FeatureConfig(), seed=0)
    with pytest.raises(ValueError, match="columns"):
        normalize(dataset, np.zeros((2, len(dataset.mean) + 1)))


def test_partition_by_cell_single_cell():
    samples = generate_samples(_scenario(**SINGLE_CELL))
    parts = partition_by_cell(samples, FeatureConfig(n_serving_beams=1), min_size=10)
    assert list(parts.keys()) == [0]
    assert parts[0].n_samples == len(samples)


def test_partition_by_cell_sizes_and_layout():
    table = _table(*_random_rows(8, 200))
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=1, include_serving_cell_id=True)
    parts = partition_by_cell(table, config, min_size=5, seed=4)
    sizes = {cell: ds.n_samples for cell, ds in parts.items()}
    by_cell = Counter(table.serving_cell.tolist())
    skipped = sum(v for cell, v in by_cell.items() if cell not in sizes)
    assert sum(sizes.values()) == len(table) - skipped
    for ds in parts.values():
        assert "serving_cell_id" not in ds.layout


def test_partition_by_cell_min_size_skips():
    table = _table(*_random_rows(9, 60))
    by_cell = Counter(table.serving_cell.tolist())
    threshold = max(by_cell.values())  # only the largest group survives
    parts = partition_by_cell(table, FeatureConfig(), min_size=threshold)
    assert len(parts) == sum(1 for v in by_cell.values() if v >= threshold)


def test_partition_by_cell_names_the_cell_that_cannot_build_its_dataset():
    # cell 4 passes min_size with 12 rows, but only 8 hear the two serving
    # beams the layout needs; cell 1 builds its dataset
    table = _table_of(*[{(1, 0): -60.0, (1, 1): -61.0}] * 12, *[{(4, 0): -60.0, (4, 1): -61.0}] * 8,
                      *[{(4, 0): -60.0}] * 4)
    with pytest.raises(ValueError, match=r"^cell 4: need at least 10 usable samples, got 8$"):
        partition_by_cell(table, FeatureConfig(n_serving_beams=2), min_size=10)
    assert list(partition_by_cell(table, FeatureConfig(n_serving_beams=1), min_size=10)) == [1, 4]


def test_save_load_round_trip(tmp_path):
    dataset = build_dataset(_table(*_random_rows(0, 50)), FeatureConfig(n_neighbor_cells=2), seed=11)
    path = tmp_path / "fingerprints.csv"
    save_dataset(dataset, str(path))
    loaded = load_dataset(str(path))
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert np.array_equal(loaded.train_idx, dataset.train_idx)
    assert np.array_equal(loaded.test_idx, dataset.test_idx)
    assert np.array_equal(loaded.mean, dataset.mean)
    assert np.array_equal(loaded.std, dataset.std)
    assert loaded.layout == dataset.layout
    assert loaded.provenance["feature_config"] == dataset.provenance["feature_config"]


AWKWARD = (-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 3.0, -105.0, 1e16, 2.0**53 + 2.0, 123.456)


def _per_value_csv(dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(dataset.layout) + ["label_x", "label_y"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [repr(float(label[0])), repr(float(label[1]))])
    return buf.getvalue()


def test_save_dataset_writes_repr_bytes_and_reloads_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    features = rng.choice(np.array(AWKWARD), size=(40, 5))
    labels = rng.choice(np.array(AWKWARD), size=(40, 2))
    labels[0] = (0.1 + 0.2, -0.0)
    dataset = Dataset(
        features=features,
        labels=labels,
        layout=tuple(f"f{i}" for i in range(5)),
        train_idx=np.arange(36),
        test_idx=np.arange(36, 40),
        mean=features[:36].mean(axis=0),
        std=np.ones(5),
    )

    path = tmp_path / "awkward.csv"
    save_dataset(dataset, str(path))
    assert path.read_bytes() == _per_value_csv(dataset).encode()
    text = path.read_text()
    assert "-0.0" in text and "5e-324" in text and "1e+300" in text and "0.30000000000000004" in text

    loaded = load_dataset(str(path))
    assert loaded.features.tobytes() == features.tobytes()
    assert loaded.labels.tobytes() == labels.tobytes()

    # two datasets saved with one dict: f0 and the labels are byte-equal in
    # both, f1 differs only in 0.0 against -0.0 and must not reuse the text
    other_features = rng.choice(np.array(AWKWARD), size=(40, 5))
    other_features[:, 0] = features[:, 0]
    other_features[:, 1] = np.where(features[:, 1] == 0.0, 0.0, features[:, 1])
    assert np.array_equal(other_features[:, 1], features[:, 1])
    assert other_features[:, 1].tobytes() != features[:, 1].tobytes()
    other = dataclasses.replace(dataset, features=other_features, mean=other_features[:36].mean(axis=0))
    shared = {}
    for name, saved in (("first", dataset), ("second", other)):
        save_dataset(saved, str(tmp_path / f"{name}.csv"), column_text=shared)
        assert (tmp_path / f"{name}.csv").read_bytes() == _per_value_csv(saved).encode()
    assert len(shared) == 7 + 7 - 3

    # two layouts of one table keep different rows: the wide one drops rows
    # without two neighbor cells, so equal column names hold different columns;
    # both are written in several row blocks
    table = _table(*_random_rows(5, 3 * CSV_BLOCK_ROWS, heard=0.15))
    narrow = build_dataset(table, FeatureConfig(n_serving_beams=1, n_neighbor_cells=0), seed=3)
    wide = build_dataset(table, FeatureConfig(n_serving_beams=1, n_neighbor_cells=2), seed=3)
    assert wide.provenance["dropped"]["insufficient_neighbors"] > 0
    assert len(wide.features) < len(narrow.features)
    shared = {}
    for name, saved in (("narrow", narrow), ("wide", wide)):
        save_dataset(saved, str(tmp_path / f"{name}-shared.csv"), column_text=shared)
        save_dataset(saved, str(tmp_path / f"{name}-alone.csv"))
        assert (tmp_path / f"{name}-shared.csv").read_bytes() == (tmp_path / f"{name}-alone.csv").read_bytes()
        assert (tmp_path / f"{name}-alone.csv").read_bytes() == _per_value_csv(saved).encode()


@settings(max_examples=30, deadline=None, phases=PHASES, suppress_health_check=[HealthCheck.too_slow])
@given(data=fingerprint_rows())
def test_table_and_per_row_paths_agree(data):
    rsrp, site_los = data
    generated = _table(rsrp, site_los)
    samples = _samples(rsrp, site_los)

    assert len(generated) == len(samples)
    assert generated.serving_cell.tolist() == [s.serving_cell for s in samples]
    assert generated.los.tolist() == [s.los_to_serving for s in samples]
    assert list(generated) == samples
    stacked = table_from_samples(samples)
    assert stacked.serving_cell.tolist() == [s.serving_cell for s in samples]
    for config in CONFIGS:
        _assert_paths_agree(generated, samples, config)
        _assert_paths_agree(stacked, samples, config)


@settings(max_examples=20, deadline=None, phases=PHASES, suppress_health_check=[HealthCheck.too_slow])
@given(data=fingerprint_rows())
def test_ranks_alone_give_the_features_of_the_full_fingerprints(data):
    # the reference reads each sample's whole fingerprint, the table only its ranks
    rsrp, site_los = data
    generated = _table(rsrp, site_los)
    full = _samples(rsrp, site_los, ranked=False)
    assert list(generated) == [reference_ranked_sample(s) for s in full]
    for config in CONFIGS:
        _assert_paths_agree(generated, full, config)
        _assert_paths_agree(table_from_samples(full), full, config)


@settings(max_examples=15, deadline=None, phases=PHASES)
@given(data=fingerprint_rows())
def test_partition_by_cell_matches_per_row_groups(data):
    rsrp, site_los = data
    table = _table(rsrp, site_los)
    samples = _samples(rsrp, site_los)
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=0)  # no row is dropped
    parts = partition_by_cell(table, config, min_size=10)
    groups = {cell: [s for s in samples if s.serving_cell == cell] for cell in {s.serving_cell for s in samples}}
    assert sorted(parts) == sorted(cell for cell, members in groups.items() if len(members) >= 10)
    per_cell = dataclasses.replace(config, include_serving_cell_id=False)
    for cell, dataset in parts.items():
        features, _, kept, _ = _reference_outcome(groups[cell], per_cell)
        assert dataset.features.tobytes() == features
        assert dataset.labels.tolist() == [list(groups[cell][i].location) for i in kept]


def test_table_rejects_columns_out_of_order():
    rsrp = np.array([[-60.0, -70.0]])
    assert rank_rows(rsrp, np.array([0, 1]), np.array([0, 0]), -np.inf)["serving_cell"].tolist() == [0]
    with pytest.raises(ValueError, match="increasing"):
        rank_rows(rsrp, np.array([1, 0]), np.array([0, 0]), -np.inf)


def test_generated_table_is_a_sequence_of_samples():
    table = generate_samples(_scenario(), SHADOWED)
    assert len(table) == len(table.locations) > 0
    assert 0 < table.los.sum() < len(table)
    rows = list(table)
    assert [s.serving_cell for s in rows] == [select_serving(s.rsrp) for s in rows]
    assert table[-1] == rows[-1]
    assert list(table[1:3]) == rows[1:3]
    with pytest.raises(IndexError):
        table[len(table)]
    restored = pickle.loads(pickle.dumps(table))
    assert list(restored) == rows
    los = filter_los(table)
    assert list(los) == [s for s in rows if s.los_to_serving]
    assert list(table) == rows  # filtering leaves its input as it was


def _fresh(table):
    """A new table over copies of `table`'s columns."""
    return FingerprintTable(**{f.name: getattr(table, f.name).copy() for f in dataclasses.fields(table)})


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_layouts_on_one_table_match_a_fresh_table_per_layout(order):
    # extracting one layout leaves the table as it was for the next
    table = _table(*_random_rows(11, 60, heard=0.55))
    configs = CONFIGS if order == "forward" else CONFIGS[::-1]
    assert [_outcome(table, c) for c in configs] == [_outcome(_fresh(table), c) for c in configs]


def test_sub_tables_and_pickles_match_fresh_tables():
    table = _table(*_random_rows(12, 80, heard=0.55))
    rows = np.random.default_rng(13).permutation(len(table))[:50]
    subs = {
        "filter_los": filter_los(table),
        "take rows": table.take(rows),
        "take mask": table.take(np.arange(len(table)) % 3 != 0),
        "slice": table[::-2],
    }
    for name, sub in subs.items():
        assert 10 <= len(sub) < len(table), name
        for config in CONFIGS:
            assert _outcome(sub, config) == _outcome(_fresh(sub), config), (name, config)
    restored = pickle.loads(pickle.dumps(table))
    for config in CONFIGS:
        assert _outcome(restored, config) == _outcome(_fresh(table), config), config


def test_serving_ranks_are_the_maxima_of_the_masked_grid():
    rsrp = np.full((7, len(CELLS) * BEAMS), NOISE_FLOOR - 3.0)
    rsrp[0, [3, 11, 17]] = -60.0  # tied maxima in two cells and within one
    rsrp[1, [4, 5]] = -70.0  # tied within one cell
    rsrp[1, 2] = np.nan
    rsrp[2, :] = np.nan  # nothing audible: NaN everywhere
    rsrp[3, [0, 19]] = (np.nan, -80.0)
    rsrp[4, :] = NOISE_FLOOR  # nothing audible: at the floor is not above it
    rsrp[5, [6, 7, 8]] = (-90.0, np.nan, -90.0)
    rsrp[6, [19, 0]] = -75.0  # tie between the first and last column
    table = _table(rsrp)

    masked = np.where(rsrp > NOISE_FLOOR, rsrp, -np.inf)
    heard = masked.max(axis=1) > -np.inf
    assert heard.tolist() == [True, True, False, True, False, True, True]
    assert table.locations[:, 0].tolist() == np.flatnonzero(heard).tolist()
    strongest = np.argmax(masked, axis=1)[heard]  # first maximum: the lowest (cell, beam)
    assert strongest.tolist() == [3, 4, 19, 6, 0]
    # column c is beam c % BEAMS of cell CELLS[c // BEAMS]
    assert table.serving_cell.tolist() == [CELLS[c // BEAMS] for c in strongest] == [0, 0, 7, 2, 0]
    assert table.serving_beam[:, 0].tolist() == (strongest % BEAMS).tolist() == [3, 4, 4, 1, 0]
    assert table.serving_rsrp[:, 0].tolist() == masked.max(axis=1)[heard].tolist()
    per_cell = (masked[heard] > -np.inf).reshape(-1, len(CELLS), BEAMS).sum(axis=2)
    assert table.serving_audible.tolist() == per_cell[np.arange(len(strongest)), strongest // BEAMS].tolist()
    assert table.neighbor_audible.tolist() == ((per_cell > 0).sum(axis=1) - 1).tolist() == [2, 1, 0, 0, 1]


def test_from_grid_rejects_columns_out_of_order():
    # the grid's columns become the table's as they are, so a shuffled grid is refused by name
    locations, grid = _grid(np.full((3, len(CELLS) * BEAMS), -70.0))
    order = np.random.default_rng(14).permutation(len(CELLS) * BEAMS)
    shuffled = RsrpGrid(rsrp=grid.rsrp[:, order], cell_ids=grid.cell_ids[order], beam_ids=grid.beam_ids[order],
                        site_col=grid.site_col[order], site_los=grid.site_los)
    with pytest.raises(ValueError, match=r"strictly increasing \(cell_id, beam_id\) order"):
        FingerprintTable.from_grid(locations, shuffled, NOISE_FLOOR)


def test_ranking_keeps_only_the_ranks_a_layout_reads():
    # 6 cells of 32 beams: 32 serving ranks and 5 neighbor ranks exist
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0))
    assert (len(scenario.site_xyz), len(scenario.sectors.boresight), scenario.n_beams) == (2, 3, 6 * 32)
    table = generate_samples(scenario)
    widths = {name: getattr(table, name).shape[1:] for name in (
        "serving_cell", "serving_beam", "serving_rsrp", "neighbor_cell", "neighbor_beam", "neighbor_rsrp")}
    assert widths == {"serving_cell": (), "serving_beam": (MAX_SERVING_BEAMS,), "serving_rsrp": (MAX_SERVING_BEAMS,),
                      "neighbor_cell": (MAX_NEIGHBOR_CELLS,), "neighbor_beam": (MAX_NEIGHBOR_CELLS,),
                      "neighbor_rsrp": (MAX_NEIGHBOR_CELLS,)}
    assert table.serving_audible.max() > MAX_SERVING_BEAMS and table.neighbor_audible.max() > MAX_NEIGHBOR_CELLS
    # the deepest layout from the ranks equals the reference on every audible beam
    locations = enumerate_locations(scenario)
    grid = rsrp_grid(scenario, locations, PropagationConfig())
    keys = list(zip(grid.cell_ids.tolist(), grid.beam_ids.tolist()))
    full = []
    for location, row in zip(locations, grid.rsrp):
        fingerprint = {key: value for key, value in zip(keys, row.tolist()) if value > -140.0}
        full.append(FingerprintSample(tuple(location.tolist()), fingerprint, select_serving(fingerprint), True))
    assert len(full) == len(table)
    deepest = FeatureConfig(n_serving_beams=MAX_SERVING_BEAMS, n_neighbor_cells=MAX_NEIGHBOR_CELLS)
    expected = _reference_outcome(full, deepest)
    assert len(expected[2]) > 0 and _outcome(table, deepest) == expected
    with pytest.raises(ValueError, match=rf"n_serving_beams must be in \[1, {MAX_SERVING_BEAMS}\], got {MAX_SERVING_BEAMS + 1}"):
        FeatureConfig(n_serving_beams=MAX_SERVING_BEAMS + 1)
    with pytest.raises(ValueError, match=rf"n_neighbor_cells must be in \[0, {MAX_NEIGHBOR_CELLS}\], got {MAX_NEIGHBOR_CELLS + 1}"):
        FeatureConfig(n_neighbor_cells=MAX_NEIGHBOR_CELLS + 1)


def _block_bytes(scenario, rows):
    """GRID_BLOCK_BYTES that holds `rows` rows of `scenario`'s grid."""
    return rows * scenario.n_beams * np.dtype(float).itemsize


@pytest.mark.parametrize("rows", [1, 7])
def test_row_blocks_give_the_one_block_table(monkeypatch, rows):
    scenario = _scenario()
    prop = dataclasses.replace(SHADOWED, noise_floor=-60.0)  # some rows hear no beam
    whole = generate_samples(scenario, prop)
    assert 0 < len(whole) < len(enumerate_locations(scenario))
    assert _block_bytes(scenario, len(enumerate_locations(scenario))) <= beamloc.fingerprint.GRID_BLOCK_BYTES
    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", _block_bytes(scenario, rows))
    blocked = generate_samples(scenario, prop)
    for f in dataclasses.fields(whole):
        a, b = getattr(blocked, f.name), getattr(whole, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def test_each_grid_call_holds_one_block_and_the_calls_cover_every_location_in_order(monkeypatch):
    scenario = _scenario()
    block = _block_bytes(scenario, 7)
    calls = []

    def recorder(*args):
        grid = rsrp_grid(*args)
        calls.append((args[1], grid.rsrp.nbytes))
        return grid

    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", block)
    monkeypatch.setattr(beamloc.fingerprint, "rsrp_grid", recorder)
    generate_samples(scenario, SHADOWED)
    locations = enumerate_locations(scenario)
    assert len(calls) == -(-len(locations) // 7) > 1
    assert all(0 < nbytes <= block for _, nbytes in calls)
    assert np.concatenate([seen for seen, _ in calls]).tobytes() == locations.tobytes()


@pytest.mark.parametrize("rows", [None, 7])
def test_one_generation_builds_the_scenario_arrays_once(monkeypatch, rows):
    # build_scenario builds the site, building and sector formula arrays
    # once; every block's grid reads that one scenario, which no block can write
    scenario = _scenario()
    read, blocks = [], []

    def recorder(*args):
        blocks.append(len(args[1]))
        read.append(args[0])
        return rsrp_grid(*args)

    monkeypatch.setattr(beamloc.fingerprint, "rsrp_grid", recorder)
    if rows is not None:
        monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", _block_bytes(scenario, rows))
    generate_samples(scenario, SHADOWED)
    locations = len(enumerate_locations(scenario))
    assert len(blocks) == (1 if rows is None else -(-locations // rows)) and sum(blocks) == locations
    assert all(seen is scenario for seen in read)
    fields = [getattr(scenario, f.name) for f in dataclasses.fields(scenario)]
    held = [value for field in fields for value in (field if isinstance(field, tuple) else (field,))]
    formula = scenario.sectors
    locked = [scenario.site_xyz, *scenario.buildings, formula.boresight, formula.azimuth_steers,
              formula.elevation_steers]
    assert [id(value) for value in held if isinstance(value, np.ndarray)] == list(map(id, locked))
    assert not any(value.flags.writeable for value in locked)
    with pytest.raises(ValueError, match="read-only"):
        formula.azimuth_steers[0] = 0.0


def test_generation_never_holds_half_the_whole_grid(monkeypatch):
    # the 8-site deployment (768 beams) on an 8 m lattice: about 4 MB of grid
    scenario = build_scenario(ScenarioConfig(grid_resolution_m=8.0))
    grid_bytes = _block_bytes(scenario, len(enumerate_locations(scenario)))
    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", grid_bytes // 4)
    tracemalloc.start()
    try:
        table = generate_samples(scenario, PropagationConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 0
    assert peak < grid_bytes / 2
