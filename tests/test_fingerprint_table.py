"""The columnar fingerprint table against the per-row reference.

`extract_features` builds every feature matrix from a `FingerprintTable` in
one vectorized pass; `reference_extract_features` (tests/oracles.py) ranks
one sample's RSRP dict in Python. The property tests feed both the same
random sparse fingerprints, with RSRP ties forced within and across cells,
and require bit-identical features, the same kept rows, the same drop
counts and the same one-hot error for every feature layout, on tables built
by `FingerprintTable.from_grid` and by `table_from_samples`. A table keeps
only each row's ranking, so its rows read back as the ranked samples of
`reference_ranked_sample`, and the features of the full fingerprints must
come out of the ranks alone. `generate_samples` ranks the RSRP grid one row
block at a time; the later tests hold the table to the one-block table and
bound the memory the blocks take.
"""
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import beamloc.fingerprint
from beamloc.fingerprint import (
    MAX_NEIGHBOR_CELLS,
    MAX_SERVING_BEAMS,
    FeatureConfig,
    FingerprintSample,
    FingerprintTable,
    build_dataset,
    extract_features,
    extract_features_layout,
    filter_los,
    generate_samples,
    partition_by_cell,
    rank_rows,
)
from beamloc.propagation import PropagationConfig, RsrpGrid, rsrp_grid
from beamloc.scenario import ScenarioConfig, build_scenario, enumerate_locations
from beamloc.seeds import derive_seed
from oracles import (
    FeatureExtractionError,
    reference_extract_features,
    reference_ranked_sample,
    select_serving,
    table_from_samples,
)

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


def _samples(rsrp, site_los, ranked=True):
    """Per-row samples straight from the matrix, serving cell by select_serving.

    A ranked sample keeps the beams a table row keeps (`reference_ranked_sample`);
    otherwise the sample holds every audible beam.
    """
    keys = [(cell, beam) for cell in CELLS for beam in range(BEAMS)]
    samples = []
    for i, row in enumerate(rsrp):
        fingerprint = {key: float(v) for key, v in zip(keys, row) if v > NOISE_FLOOR}
        if fingerprint:
            serving = select_serving(fingerprint)
            los = bool(site_los[i, SITES.index(_site(serving))])
            sample = FingerprintSample((float(i), 0.0), fingerprint, serving, los)
            samples.append(reference_ranked_sample(sample) if ranked else sample)
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


@settings(max_examples=20, deadline=None, phases=PHASES, suppress_health_check=[HealthCheck.too_slow])
@given(data=fingerprint_rows())
def test_ranks_alone_give_the_features_of_the_full_fingerprints(data):
    # the reference reads each sample's whole fingerprint, the table only its ranks
    rsrp, site_los = data
    generated = FingerprintTable.from_grid(*_grid(rsrp, site_los), NOISE_FLOOR)
    full = _samples(rsrp, site_los, ranked=False)
    assert list(generated) == [reference_ranked_sample(s) for s in full]
    for config in FEATURE_CONFIGS + NARROW_ONE_HOT:
        _assert_paths_agree(generated, full, config)
        _assert_paths_agree(table_from_samples(full), full, config)


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
    assert table.serving_beam[:, 0].tolist() == [1]
    assert table[0] == sample


def test_table_rejects_columns_out_of_order():
    rsrp = np.array([[-60.0, -70.0]])
    assert rank_rows(rsrp, np.array([0, 1]), np.array([0, 0]), -np.inf)["serving_cell"].tolist() == [0]
    with pytest.raises(ValueError, match="increasing"):
        rank_rows(rsrp, np.array([1, 0]), np.array([0, 0]), -np.inf)


def _tiny_nlos():
    """configs/tiny.yaml's scenario with two sites and 8 dB shadow fading: some rows are served without LoS."""
    config = ScenarioConfig(site_rows=1, site_cols=2, beams_per_sector=8, elevation_steers_deg=(-6.0,),
                            grid_resolution_m=4.0, seed=derive_seed(7, "scenario"))
    return build_scenario(config), PropagationConfig(shadow_fading_sigma=8.0)


def test_generated_table_is_a_sequence_of_samples():
    table = generate_samples(*_tiny_nlos())
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
    serving_col = np.argmax(masked, axis=1)[heard]
    assert serving_col.tolist() == [3, 4, 19, 6, 0]
    # column c is beam c % BEAMS of cell CELLS[c // BEAMS]
    assert table.serving_cell.tolist() == [CELLS[c // BEAMS] for c in serving_col] == [0, 0, 7, 2, 0]
    assert table.serving_beam[:, 0].tolist() == (serving_col % BEAMS).tolist() == [3, 4, 4, 1, 0]
    assert table.serving_rsrp[:, 0].tolist() == masked.max(axis=1)[heard].tolist()
    per_cell = (masked[heard] > -np.inf).reshape(-1, len(CELLS), BEAMS).sum(axis=2)
    assert table.serving_audible.tolist() == per_cell[np.arange(len(serving_col)), serving_col // BEAMS].tolist()
    assert table.neighbor_audible.tolist() == ((per_cell > 0).sum(axis=1) - 1).tolist() == [2, 1, 0, 0, 1]


def test_from_grid_rejects_columns_out_of_order():
    # the grid's columns become the table's as they are, so a shuffled grid is refused by name
    locations, grid = _grid(np.full((3, len(CELLS) * BEAMS), -70.0), np.ones((3, len(SITES)), dtype=bool))
    order = np.random.default_rng(14).permutation(len(CELLS) * BEAMS)
    shuffled = RsrpGrid(rsrp=grid.rsrp[:, order], cell_ids=grid.cell_ids[order], beam_ids=grid.beam_ids[order],
                        site_col=grid.site_col[order], site_los=grid.site_los)
    with pytest.raises(ValueError, match=r"strictly increasing \(cell_id, beam_id\) order"):
        FingerprintTable.from_grid(locations, shuffled, NOISE_FLOOR)


def test_ranking_keeps_only_the_ranks_a_layout_reads():
    # 6 cells of 32 beams: 32 serving ranks and 5 neighbor ranks exist
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=10.0))
    assert [len(cell.beams) for cell in scenario.cells] == [32] * 6
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
    rows, kept, dropped, _ = _per_row(full, deepest)
    features, table_kept, table_dropped = extract_features(table, deepest)
    assert len(kept) > 0 and features.tobytes() == np.vstack(rows).tobytes()
    assert (table_kept.tolist(), table_dropped) == (kept, dropped)
    with pytest.raises(ValueError, match=f"n_serving_beams must be in 1..{MAX_SERVING_BEAMS}"):
        FeatureConfig(n_serving_beams=MAX_SERVING_BEAMS + 1)
    with pytest.raises(ValueError, match=f"n_neighbor_cells must be in 0..{MAX_NEIGHBOR_CELLS}"):
        FeatureConfig(n_neighbor_cells=MAX_NEIGHBOR_CELLS + 1)


def _block_bytes(scenario, rows):
    """GRID_BLOCK_BYTES that holds `rows` rows of `scenario`'s grid."""
    return rows * sum(len(cell.beams) for cell in scenario.cells) * np.dtype(float).itemsize


@pytest.mark.parametrize("rows", [1, 7])
def test_row_blocks_give_the_one_block_table(monkeypatch, rows):
    scenario, prop = _tiny_nlos()
    prop = dataclasses.replace(prop, noise_floor=-60.0)  # some rows hear no beam
    whole = generate_samples(scenario, prop)
    assert 0 < len(whole) < len(enumerate_locations(scenario))
    assert _block_bytes(scenario, len(enumerate_locations(scenario))) <= beamloc.fingerprint.GRID_BLOCK_BYTES
    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", _block_bytes(scenario, rows))
    blocked = generate_samples(scenario, prop)
    for f in dataclasses.fields(whole):
        a, b = getattr(blocked, f.name), getattr(whole, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


def test_each_grid_call_holds_one_block_and_the_calls_cover_every_location_in_order(monkeypatch):
    scenario, prop = _tiny_nlos()
    block = _block_bytes(scenario, 7)
    calls = []

    def recorder(*args):
        grid = rsrp_grid(*args)
        calls.append((args[1], grid.rsrp.nbytes))
        return grid

    monkeypatch.setattr(beamloc.fingerprint, "GRID_BLOCK_BYTES", block)
    monkeypatch.setattr(beamloc.fingerprint, "rsrp_grid", recorder)
    generate_samples(scenario, prop)
    locations = enumerate_locations(scenario)
    assert len(calls) == -(-len(locations) // 7) > 1
    assert all(0 < nbytes <= block for _, nbytes in calls)
    assert np.concatenate([seen for seen, _ in calls]).tobytes() == locations.tobytes()


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
