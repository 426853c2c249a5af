"""The columnar fingerprint table against the per-row reference.

`extract_features` builds every feature matrix from a `FingerprintTable` in
one vectorized pass; `reference_extract_features` (tests/oracles.py) ranks
one sample's RSRP dict in Python. The property test feeds both the same
random sparse fingerprints, with RSRP ties forced within and across cells,
and requires bit-identical features, the same kept rows, the same drop
counts and the same one-hot error for every feature layout, on tables built
by `FingerprintTable.from_grid` and by `table_from_samples`. A table ranks
its rows once and reuses that ranking for every layout, so the later tests
compare layouts in either order, sub-tables and pickles of a ranked table
against fresh tables.
"""
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from beamloc.fingerprint import (
    MAX_NEIGHBOR_CELLS,
    MAX_SERVING_BEAMS,
    MOVE_BLOCK_BYTES,
    FeatureConfig,
    FingerprintSample,
    FingerprintTable,
    build_dataset,
    extract_features,
    extract_features_layout,
    filter_los,
    generate_samples,
    partition_by_cell,
)
from beamloc.propagation import PropagationConfig, RsrpGrid, rsrp_grid
from beamloc.scenario import ScenarioConfig, build_scenario, enumerate_locations
from oracles import FeatureExtractionError, reference_extract_features, select_serving, table_from_samples

CELLS = (0, 2, 3, 7)  # not contiguous, so cell ids are not column positions
BEAMS = 5
NOISE_FLOOR = -100.0
# few distinct levels, so equal RSRPs within a cell and across cells are common
TIED_LEVELS = (-60.0, -65.5, -65.5, -72.25, -80.0)

FEATURE_CONFIGS = [
    FeatureConfig(n_serving_beams=s, n_neighbor_cells=n, include_serving_cell_id=cid,
                  id_encoding=encoding, one_hot_cells=8, one_hot_beams=BEAMS)
    for s in (1, 2, 3, 5)
    for n in (0, 1, 2, 3)
    for cid in (True, False)
    for encoding in ("numeric", "one_hot")
]
# one-hot widths narrower than the IDs in use: both paths must raise alike
NARROW_ONE_HOT = [
    FeatureConfig(n_serving_beams=2, n_neighbor_cells=1, id_encoding="one_hot", one_hot_cells=8, one_hot_beams=2),
    FeatureConfig(n_serving_beams=1, n_neighbor_cells=2, id_encoding="one_hot", one_hot_cells=3, one_hot_beams=BEAMS),
]

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


def _site(cell):
    return cell // 2


SITES = (3, 0, 1)  # site_los column order; every _site(cell) is listed


def _grid(rsrp, site_los):
    """RsrpGrid over a copy of `rsrp`, columns in (cell, beam) order, one location per row at (row, 0)."""
    keys = np.array([(cell, beam) for cell in CELLS for beam in range(BEAMS)])
    site_col = np.array([SITES.index(_site(cell)) for cell in keys[:, 0]])
    locations = np.column_stack([np.arange(len(rsrp), dtype=float), np.zeros(len(rsrp))])
    return locations, RsrpGrid(rsrp=rsrp.copy(), cell_ids=keys[:, 0], beam_ids=keys[:, 1],
                               site_col=site_col, site_los=site_los)


def _samples(rsrp, site_los):
    """Per-row samples straight from the matrix, serving cell by select_serving."""
    keys = [(cell, beam) for cell in CELLS for beam in range(BEAMS)]
    samples = []
    for i, row in enumerate(rsrp):
        fingerprint = {key: float(v) for key, v in zip(keys, row) if v > NOISE_FLOOR}
        if fingerprint:
            serving = select_serving(fingerprint)
            los = bool(site_los[i, SITES.index(_site(serving))])
            samples.append(FingerprintSample((float(i), 0.0), fingerprint, serving, los))
    return samples


def _per_row(samples, config):
    """(feature rows, kept sample positions, drop counts, first encoding error) via the reference."""
    rows, kept, dropped = [], [], {}
    for i, sample in enumerate(samples):
        try:
            rows.append(reference_extract_features(sample, config))
        except FeatureExtractionError as err:
            dropped[err.reason] = dropped.get(err.reason, 0) + 1
            continue
        except ValueError as err:
            return None, None, None, str(err)
        kept.append(i)
    return rows, kept, dropped, None


def _assert_paths_agree(table, samples, config):
    rows, kept, dropped, error = _per_row(samples, config)
    if error is not None:
        with pytest.raises(ValueError) as exc:
            extract_features(table, config)
        assert str(exc.value) == error
        return
    features, table_kept, table_dropped = extract_features(table, config)
    expected = np.vstack(rows) if rows else np.zeros((0, len(extract_features_layout(config))))
    assert features.shape == expected.shape
    assert features.tobytes() == expected.tobytes()
    assert table_kept.tolist() == kept
    assert table_dropped == dropped
    if len(kept) < 10:
        with pytest.raises(ValueError, match="at least 10"):
            build_dataset(table, config, seed=0)
        return
    dataset = build_dataset(table, config, seed=0)
    assert dataset.features.tobytes() == expected.tobytes()
    assert dataset.labels.tolist() == [list(samples[i].location) for i in kept]
    assert dataset.provenance["dropped"] == dropped
    assert dataset.layout == extract_features_layout(config)


@settings(max_examples=30, deadline=None, phases=PHASES, suppress_health_check=[HealthCheck.too_slow])
@given(data=fingerprint_rows())
def test_table_and_per_row_paths_agree(data):
    rsrp, site_los = data
    generated = FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)
    samples = _samples(rsrp, site_los)

    assert len(generated) == len(samples)
    assert generated.serving_cell.tolist() == [s.serving_cell for s in samples]
    assert generated.los.tolist() == [s.los_to_serving for s in samples]
    assert list(generated) == samples
    stacked = table_from_samples(samples)
    assert stacked.serving_cell.tolist() == [s.serving_cell for s in samples]
    for config in FEATURE_CONFIGS + NARROW_ONE_HOT:
        _assert_paths_agree(generated, samples, config)
        _assert_paths_agree(stacked, samples, config)


@settings(max_examples=15, deadline=None, phases=PHASES)
@given(data=fingerprint_rows())
def test_partition_by_cell_matches_per_row_groups(data):
    rsrp, site_los = data
    table = FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)
    samples = _samples(rsrp, site_los)
    config = FeatureConfig(n_serving_beams=1, n_neighbor_cells=0)  # no row is dropped
    parts = partition_by_cell(table, config, min_size=10)
    groups = {cell: [s for s in samples if s.serving_cell == cell] for cell in {s.serving_cell for s in samples}}
    assert sorted(parts) == sorted(cell for cell, members in groups.items() if len(members) >= 10)
    for cell, dataset in parts.items():
        rows, kept, _, _ = _per_row(groups[cell], dataclasses.replace(config, include_serving_cell_id=False))
        assert dataset.features.tobytes() == np.vstack(rows).tobytes()
        assert dataset.labels.tolist() == [list(groups[cell][i].location) for i in kept]


def test_from_samples_keeps_given_serving_cell():
    # the serving cell is the sample's, even where another cell is stronger
    sample = FingerprintSample((1.0, 2.0), {(0, 0): -70.0, (0, 1): -65.0, (4, 3): -50.0}, 0, True)
    table = table_from_samples([sample])
    assert table.serving_cell.tolist() == [0]
    assert (table.cell_ids[table.serving_col], table.beam_ids[table.serving_col]) == ([0], [1])
    assert table[0] == sample


def test_table_rejects_columns_out_of_order():
    table = table_from_samples([FingerprintSample((0.0, 0.0), {(0, 0): -60.0, (1, 0): -70.0}, 0, True)])
    with pytest.raises(ValueError, match="increasing"):
        dataclasses.replace(table, cell_ids=table.cell_ids[::-1].copy())


def test_generated_table_is_a_sequence_of_samples():
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0))
    table = generate_samples(scenario, PropagationConfig())
    assert len(table) == len(table.locations) > 0
    assert np.all(np.diff(table.cell_ids * 1000 + table.beam_ids) > 0)  # (cell, beam) column order
    rows = list(table)
    assert [s.serving_cell for s in rows] == [select_serving(s.rsrp) for s in rows]
    assert table[-1] == rows[-1]
    assert list(table[1:3]) == rows[1:3]
    with pytest.raises(IndexError):
        table[len(table)]
    los = filter_los(table)
    assert list(los) == [s for s in rows if s.los_to_serving]
    restored = pickle.loads(pickle.dumps(table))
    assert list(restored) == rows


def _fresh(table):
    """A new table over copies of `table`'s columns, with nothing computed yet."""
    return FingerprintTable(**{f.name: getattr(table, f.name).copy() for f in dataclasses.fields(table)})


def _outcome(table, config):
    """extract_features as comparable bytes, or the error message it raises."""
    try:
        features, kept, dropped = extract_features(table, config)
    except ValueError as err:
        return str(err)
    return features.tobytes(), features.shape, kept.tobytes(), dropped


def _random_table(seed, n_rows=60):
    rng = np.random.default_rng(seed)
    rsrp = rng.choice(np.array(TIED_LEVELS + (NOISE_FLOOR - 1.0,) * 4), size=(n_rows, len(CELLS) * BEAMS))
    site_los = rng.random((n_rows, len(SITES))) < 0.6
    return FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)


CONFIGS = FEATURE_CONFIGS + NARROW_ONE_HOT


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_layouts_on_one_table_match_a_fresh_table_per_layout(order):
    # the first call ranks the table; every later layout reuses that ranking
    table = _random_table(11)
    configs = CONFIGS if order == "forward" else CONFIGS[::-1]
    assert [_outcome(table, c) for c in configs] == [_outcome(_fresh(table), c) for c in configs]


def _ranked(table):
    for config in CONFIGS:
        _outcome(table, config)
    return table


def test_sub_tables_and_pickles_of_a_ranked_table_match_fresh_tables():
    table = _ranked(_random_table(12, n_rows=80))  # rank the parent first
    rows = np.random.default_rng(13).permutation(len(table))[:50]
    subs = {
        # filter_los consumes its input, so it filters a ranked table of its own
        "filter_los": filter_los(_ranked(_random_table(12, n_rows=80))),
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


def test_serving_col_is_argmax_of_masked_grid():
    rsrp = np.full((7, len(CELLS) * BEAMS), NOISE_FLOOR - 3.0)
    rsrp[0, [3, 11, 17]] = -60.0  # tied maxima in two cells and within one
    rsrp[1, [4, 5]] = -70.0  # tied within one cell
    rsrp[1, 2] = np.nan
    rsrp[2, :] = np.nan  # nothing audible: NaN everywhere
    rsrp[3, [0, 19]] = (np.nan, -80.0)
    rsrp[4, :] = NOISE_FLOOR  # nothing audible: at the floor is not above it
    rsrp[5, [6, 7, 8]] = (-90.0, np.nan, -90.0)
    rsrp[6, [19, 0]] = -75.0  # tie between the first and last column
    site_los = np.ones((len(rsrp), len(SITES)), dtype=bool)
    table = FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)

    masked = np.where(rsrp > NOISE_FLOOR, rsrp, -np.inf)
    heard = masked.max(axis=1) > -np.inf
    assert heard.tolist() == [True, True, False, True, False, True, True]
    assert table.locations[:, 0].tolist() == np.flatnonzero(heard).tolist()
    assert table.serving_col.tolist() == np.argmax(masked, axis=1)[heard].tolist() == [3, 4, 19, 6, 0]
    assert np.array_equal(table.rsrp, masked[heard])


def test_generated_table_is_built_in_the_grid_buffer():
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0))
    locations = enumerate_locations(scenario)
    grid = rsrp_grid(scenario, locations, PropagationConfig())
    raw = grid.rsrp.copy()
    table = FingerprintTable.from_grid(locations, grid, -140.0)
    assert np.shares_memory(table.rsrp, grid.rsrp)
    assert np.array_equal(table.rsrp, np.where(raw > -140.0, raw, -np.inf))
    assert not np.shares_memory(table.locations, locations)


def test_table_with_unheard_rows_stays_in_the_grid_buffer():
    rsrp = np.full((5, len(CELLS) * BEAMS), NOISE_FLOOR - 1.0)
    rsrp[[0, 3, 4], 2] = -70.0
    locations, grid = _grid(rsrp, np.ones((len(rsrp), len(SITES)), dtype=bool))
    table = FingerprintTable.from_grid(locations, grid, NOISE_FLOOR)
    assert table.locations[:, 0].tolist() == [0.0, 3.0, 4.0]
    assert np.shares_memory(table.rsrp, grid.rsrp)


def test_from_grid_rejects_columns_out_of_order():
    # the grid's columns become the table's as they are, so a shuffled grid is refused by name
    locations, grid = _grid(np.full((3, len(CELLS) * BEAMS), -70.0), np.ones((3, len(SITES)), dtype=bool))
    order = np.random.default_rng(14).permutation(len(CELLS) * BEAMS)
    shuffled = RsrpGrid(rsrp=grid.rsrp[:, order], cell_ids=grid.cell_ids[order], beam_ids=grid.beam_ids[order],
                        site_col=grid.site_col[order], site_los=grid.site_los)
    with pytest.raises(ValueError, match=r"strictly increasing \(cell_id, beam_id\) order"):
        FingerprintTable.from_grid(locations, shuffled, NOISE_FLOOR)


@pytest.mark.parametrize("n_rows", [60, 3 * MOVE_BLOCK_BYTES // (len(CELLS) * BEAMS * 8) + 7])
def test_filter_los_returns_views_of_its_input(n_rows):
    # the larger table spans several move blocks of the RSRP matrix
    table = _random_table(15, n_rows=n_rows)
    expected = _fresh(table).take(table.los)
    assert 0 < len(expected) < len(table)
    kept = filter_los(table)
    for name in ("locations", "rsrp", "serving_col", "los"):
        assert np.shares_memory(getattr(kept, name), getattr(table, name)), name
        assert np.array_equal(getattr(kept, name), getattr(expected, name)), name
    for config in CONFIGS:
        assert _outcome(kept, config) == _outcome(expected, config), config


def test_ranking_keeps_only_the_ranks_a_layout_reads():
    # 6 cells of 32 beams: 32 serving ranks and 5 neighbor ranks exist
    table = generate_samples(build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0)))
    assert np.unique(table.cell_ids, return_counts=True)[1].tolist() == [32] * 6
    ranked, serving_audible, neighbor_audible = table._ranking
    widths = {source: values.shape[1] for source, values in ranked.items()}
    assert widths == {"serving_beam": MAX_SERVING_BEAMS, "serving_rsrp": MAX_SERVING_BEAMS, "serving_cell": 1,
                      "neighbor_cell": MAX_NEIGHBOR_CELLS, "neighbor_beam": MAX_NEIGHBOR_CELLS,
                      "neighbor_rsrp": MAX_NEIGHBOR_CELLS}
    assert serving_audible.max() > MAX_SERVING_BEAMS and neighbor_audible.max() > MAX_NEIGHBOR_CELLS
    deepest = FeatureConfig(n_serving_beams=MAX_SERVING_BEAMS, n_neighbor_cells=MAX_NEIGHBOR_CELLS)
    assert _outcome(table, deepest) == _outcome(_fresh(table), deepest)
    with pytest.raises(ValueError, match=f"n_serving_beams must be in 1..{MAX_SERVING_BEAMS}"):
        FeatureConfig(n_serving_beams=MAX_SERVING_BEAMS + 1)
    with pytest.raises(ValueError, match=f"n_neighbor_cells must be in 0..{MAX_NEIGHBOR_CELLS}"):
        FeatureConfig(n_neighbor_cells=MAX_NEIGHBOR_CELLS + 1)
