import dataclasses

import numpy as np
import pytest

from beamloc.fingerprint import (
    FeatureConfig,
    FingerprintSample,
    build_dataset,
    extract_features,
    extract_features_layout,
    filter_los,
    generate_samples,
    normalize,
    partition_by_cell,
    save_dataset,
)
from beamloc.scenario import Beam, Scenario, ScenarioConfig, Sector, Site, build_scenario, enumerate_locations
from oracles import load_dataset, reference_ranked_sample, select_serving, table_from_samples


def _sample(rsrp, location=(0.0, 0.0), los=True):
    return FingerprintSample(location=location, rsrp=rsrp, serving_cell=select_serving(rsrp), los_to_serving=los)


def _row_features(sample, config):
    """`extract_features` on a one-row table whose row fills the layout."""
    features, kept, dropped = extract_features(table_from_samples([sample]), config)
    assert kept.tolist() == [0] and dropped == {}
    return features[0]


def _rich_sample(rng, n_cells=4, n_beams=6, location=(0.0, 0.0)):
    rsrp = {
        (cell, beam): float(v)
        for (cell, beam), v in zip(
            ((c, b) for c in range(n_cells) for b in range(n_beams)),
            rng.uniform(-110, -60, size=n_cells * n_beams),
        )
    }
    return _sample(rsrp, location=location)


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


def _single_cell_scenario():
    beam = Beam(beam_id=0, steer_azimuth=0.0, steer_elevation=-5.0, array_gain=0.0)
    sector = Sector(cell_id=0, boresight_azimuth=0.0, beams=(beam,))
    site = Site(id=0, position=(5.0, 5.0), height=10.0, sectors=(sector,))
    return Scenario(buildings=(), sites=(site,), carrier_frequency=28.0, area=(10.0, 10.0),
                    grid_resolution=2.0, rng_seed=0)


def test_generate_samples_single_cell():
    samples = generate_samples(_single_cell_scenario())
    assert len(samples) == 36
    assert all(s.serving_cell == 0 for s in samples)
    assert all(s.los_to_serving for s in samples)


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
    rng = np.random.default_rng(0)
    samples = [_rich_sample(rng) for _ in range(6)]
    flagged = [
        FingerprintSample(s.location, s.rsrp, s.serving_cell, los)
        for s, los in zip(samples, [True, False, True, True, False, False])
    ]
    kept = filter_los(table_from_samples(flagged))
    assert len(kept) == 3
    assert list(kept) == [reference_ranked_sample(s) for s in flagged if s.los_to_serving]
    assert len(filter_los(table_from_samples([]))) == 0
    all_los = [FingerprintSample(s.location, s.rsrp, s.serving_cell, True) for s in samples]
    assert list(filter_los(table_from_samples(all_los))) == list(map(reference_ranked_sample, all_los))


def test_feature_lengths():
    rng = np.random.default_rng(1)
    sample = _rich_sample(rng)
    cases = [
        (FeatureConfig(n_serving_beams=4, n_neighbor_cells=0, include_serving_cell_id=True), 9),
        (FeatureConfig(n_serving_beams=3, n_neighbor_cells=2, include_serving_cell_id=True), 13),
        (FeatureConfig(n_serving_beams=3, n_neighbor_cells=0, include_serving_cell_id=False), 6),
    ]
    for config, expected in cases:
        assert len(_row_features(sample, config)) == expected
        assert len(extract_features_layout(config)) == expected


def test_feature_length_formula_property():
    rng = np.random.default_rng(2)
    sample = _rich_sample(rng, n_cells=5, n_beams=8)
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
                    assert len(_row_features(sample, config)) == length
                    assert len(extract_features_layout(config)) == length


def test_serving_beams_sorted_and_tie_broken():
    rsrp = {(0, 4): -70.0, (0, 1): -65.0, (0, 3): -70.0, (0, 2): -80.0, (1, 0): -90.0}
    values = _row_features(_sample(rsrp), FeatureConfig(n_serving_beams=4, include_serving_cell_id=False))
    assert values[:4].tolist() == [1.0, 3.0, 4.0, 2.0]  # -65, then -70 tie by id, then -80
    rsrps = values[4:8]
    assert all(a >= b for a, b in zip(rsrps, rsrps[1:]))


def test_neighbor_selection_and_ranking():
    rsrp = {
        (5, 0): -60.0,                     # serving
        (2, 1): -75.0, (2, 6): -71.0,      # neighbor strongest -71 via beam 6
        (7, 3): -68.0, (7, 9): -80.0,      # neighbor strongest -68 via beam 3
        (1, 2): -71.0,                     # ties cell 2's best; lower cell id ranks first
    }
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=3, include_serving_cell_id=True)
    values = _row_features(_sample(rsrp), config)
    assert values.tolist() == [0.0, -60.0, 5.0, 7.0, 3.0, -68.0, 1.0, 2.0, -71.0, 2.0, 6.0, -71.0]


def test_neighbor_beam_tie_prefers_lower_beam_id():
    rsrp = {(0, 0): -50.0, (3, 8): -70.0, (3, 2): -70.0}
    values = _row_features(_sample(rsrp), FeatureConfig(n_serving_beams=1, n_neighbor_cells=1,
                                                        include_serving_cell_id=False))
    assert values.tolist() == [0.0, -50.0, 3.0, 2.0, -70.0]


def test_extract_features_error_reasons():
    rows = [
        _rich_sample(np.random.default_rng(5)),
        _sample({(0, 0): -60.0, (0, 1): -70.0}),  # no neighbor cell
        _sample({(0, 0): -60.0}),  # one serving beam and no neighbor: counted once, as serving
    ]
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=1)
    features, kept, dropped = extract_features(table_from_samples(rows), config)
    assert features.shape == (1, len(extract_features_layout(config)))
    assert kept.tolist() == [0]
    assert dropped == {"insufficient_neighbors": 1, "insufficient_serving_beams": 1}
    features, kept, dropped = extract_features(table_from_samples(rows[1:]), FeatureConfig(n_serving_beams=3))
    assert features.shape == (0, 7)
    assert kept.tolist() == []
    assert dropped == {"insufficient_serving_beams": 2}


def test_rsrp_shift_moves_only_rsrp_features():
    rng = np.random.default_rng(3)
    sample = _rich_sample(rng)
    config = FeatureConfig(n_serving_beams=3, n_neighbor_cells=2)
    shifted = _sample({k: v + 7.5 for k, v in sample.rsrp.items()})
    a = _row_features(sample, config)
    b = _row_features(shifted, config)
    for name, va, vb in zip(extract_features_layout(config), a, b):
        if "rsrp" in name:
            assert vb - va == pytest.approx(7.5, abs=1e-12)
        else:
            assert va == vb


def test_neighbor_ids_distinct_and_not_serving():
    rng = np.random.default_rng(4)
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=3)
    table = table_from_samples(_rich_sample(rng, n_cells=6, n_beams=4) for _ in range(50))
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
    values = _row_features(_sample(rsrp), config)
    # beam one-hot(2) + rsrp + cell one-hot(3) + neighbor cell(3) + beam(2) + rsrp
    assert len(values) == 2 + 1 + 3 + 3 + 2 + 1
    assert values[:2].tolist() == [1.0, 0.0]
    assert values[3:6].tolist() == [1.0, 0.0, 0.0]
    assert values[6:9].tolist() == [0.0, 0.0, 1.0]


def test_one_hot_requires_cardinalities():
    with pytest.raises(ValueError):
        FeatureConfig(id_encoding="one_hot")


def _synthetic_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return table_from_samples(
        _rich_sample(rng, location=(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))))
        for _ in range(n)
    )


def test_build_dataset_split_sizes():
    dataset = build_dataset(_synthetic_samples(100), FeatureConfig(), split_fraction=0.9, seed=5)
    assert len(dataset.train_idx) == 90
    assert len(dataset.test_idx) == 10
    combined = np.sort(np.concatenate([dataset.train_idx, dataset.test_idx]))
    assert np.array_equal(combined, np.arange(100))


def test_build_dataset_seeded_split_reproducible():
    samples = _synthetic_samples(40)
    a = build_dataset(samples, FeatureConfig(), seed=9)
    b = build_dataset(samples, FeatureConfig(), seed=9)
    c = build_dataset(samples, FeatureConfig(), seed=10)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_build_dataset_minimum_size():
    with pytest.raises(ValueError, match="at least 10"):
        build_dataset(_synthetic_samples(9), FeatureConfig())


def test_build_dataset_counts_dropped():
    rng = np.random.default_rng(6)
    good = [_rich_sample(rng) for _ in range(12)]
    poor = [_sample({(0, 0): -60.0}) for _ in range(3)]  # one beam only
    dataset = build_dataset(table_from_samples(good + poor), FeatureConfig(n_serving_beams=3), seed=0)
    assert dataset.n_samples == 12
    assert dataset.provenance["dropped"] == {"insufficient_serving_beams": 3}


def test_normalization_train_stats():
    dataset = build_dataset(_synthetic_samples(80), FeatureConfig(n_neighbor_cells=2), seed=3)
    train = normalize(dataset, dataset.features[dataset.train_idx])
    nonconstant = dataset.std > 0
    assert np.all(np.abs(train.mean(axis=0)[nonconstant]) < 1e-9)
    assert np.allclose(train.std(axis=0)[nonconstant], 1.0, atol=1e-6)
    # stats come from train rows only
    assert np.allclose(dataset.mean, dataset.features[dataset.train_idx].mean(axis=0))
    assert np.allclose(dataset.std, dataset.features[dataset.train_idx].std(axis=0))


def test_normalize_mean_row_is_zero():
    dataset = build_dataset(_synthetic_samples(30), FeatureConfig(), seed=1)
    row = normalize(dataset, dataset.mean.reshape(1, -1))
    assert np.allclose(row, 0.0, atol=1e-12)


def test_normalize_round_trip():
    dataset = build_dataset(_synthetic_samples(30), FeatureConfig(), seed=2)
    rows = dataset.features[:7]
    std = np.where(dataset.std == 0.0, 1.0, dataset.std)
    back = normalize(dataset, rows) * std + dataset.mean
    assert np.allclose(back, rows, atol=1e-9)


def test_normalize_constant_column():
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(20):
        rsrp = {(0, 0): float(rng.uniform(-80, -60)), (0, 1): float(rng.uniform(-90, -81))}
        samples.append(_sample(rsrp))
    # serving_beam_id_1 is always 0 -> constant column
    dataset = build_dataset(table_from_samples(samples), FeatureConfig(n_serving_beams=2, include_serving_cell_id=True),
                            seed=0)
    col = dataset.layout.index("serving_beam_id_1")
    assert dataset.std[col] == 0.0
    normalized = normalize(dataset, dataset.features)
    assert np.all(normalized[:, col] == 0.0)  # (x - mean) / 1 with x = mean


def test_normalize_column_mismatch():
    dataset = build_dataset(_synthetic_samples(20), FeatureConfig(), seed=0)
    with pytest.raises(ValueError, match="columns"):
        normalize(dataset, np.zeros((2, len(dataset.mean) + 1)))


def test_partition_by_cell_single_cell():
    samples = generate_samples(_single_cell_scenario())
    parts = partition_by_cell(samples, FeatureConfig(n_serving_beams=1), min_size=10)
    assert list(parts.keys()) == [0]
    assert parts[0].n_samples == len(samples)


def test_partition_by_cell_sizes_and_layout():
    samples = _synthetic_samples(200, seed=8)
    config = FeatureConfig(n_serving_beams=2, n_neighbor_cells=1, include_serving_cell_id=True)
    parts = partition_by_cell(samples, config, min_size=5, seed=4)
    sizes = {cell: ds.n_samples for cell, ds in parts.items()}
    from collections import Counter

    by_cell = Counter(samples.serving_cell.tolist())
    skipped = sum(v for cell, v in by_cell.items() if cell not in sizes)
    assert sum(sizes.values()) == len(samples) - skipped
    for ds in parts.values():
        assert "serving_cell_id" not in ds.layout


def test_partition_by_cell_min_size_skips():
    samples = _synthetic_samples(60, seed=9)
    from collections import Counter

    by_cell = Counter(samples.serving_cell.tolist())
    threshold = max(by_cell.values())  # only the largest group survives
    parts = partition_by_cell(samples, FeatureConfig(), min_size=threshold)
    assert len(parts) == sum(1 for v in by_cell.values() if v >= threshold)


def test_partition_by_cell_names_the_cell_that_cannot_build_its_dataset():
    # cell 4 passes min_size with 12 rows, but only 8 hear the two serving
    # beams the layout needs; cell 1 builds its dataset
    full = [_sample({(1, 0): -60.0, (1, 1): -61.0}, location=(float(i), 0.0)) for i in range(12)]
    short = [_sample({(4, 0): -60.0, (4, 1): -61.0}, location=(float(i), 1.0)) for i in range(8)]
    short += [_sample({(4, 0): -60.0}, location=(float(i), 2.0)) for i in range(4)]
    table = table_from_samples(full + short)
    with pytest.raises(ValueError, match=r"^cell 4: need at least 10 usable samples, got 8$"):
        partition_by_cell(table, FeatureConfig(n_serving_beams=2), min_size=10)
    assert list(partition_by_cell(table, FeatureConfig(n_serving_beams=1), min_size=10)) == [1, 4]


def test_save_load_round_trip(tmp_path):
    dataset = build_dataset(_synthetic_samples(50), FeatureConfig(n_neighbor_cells=2), seed=11)
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
