"""The sector-at-a-time RSRP grid and the CSV writer against per-beam and
per-value references.

`rsrp_grid` computes each pattern term once per distinct (steer, beamwidth)
pair of a sector and writes the sector's block straight into the result;
`reference_rsrp_grid` evaluates the pattern beam by beam. Both apply the same
element-wise operations in the same order, so the grids must be identical,
bit for bit, wherever the reference's clamp at the noise floor leaves a
value alone; `rsrp_grid` writes raw RSRP, so the fingerprint tables built
from the two grids must be identical everywhere. `save_dataset` hands
Python floats to the csv module, which writes them with repr, so its bytes
must equal a writer that calls repr on every value.
"""
import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamloc.fingerprint import Dataset, FingerprintTable, save_dataset
from beamloc.propagation import PROPAGATION_MODELS, PropagationConfig, rsrp_grid
from beamloc.scenario import Beam, Building, Scenario, Sector, Site, synthesize_beam_grid
from oracles import load_dataset, reference_rsrp_grid

# Small pools so that duplicate steers are common; boresight + steer crosses
# +-180 degrees for many pairs, and -0.0 meets 0.0 as a dictionary key.
AZIMUTHS = (-0.0, 0.0, 45.0, -60.0, 90.0, 170.0, -170.0, 179.5, 180.0, -180.0, 200.0)
ELEVATIONS = (-0.0, 0.0, -3.0, -12.0, 7.5)
BEAMWIDTHS = (10.0, 65.0, 65, 120.0, 179.9)
FRONT_TO_BACK = (0.0, 20.0, 30, 45.5)
BORESIGHTS = (0.0, 120.0, -120.0, 170.0, -170.0, 180.0, -180.0, 240.0, 359.0)

BUILDINGS = (
    Building((40.0, 40.0), (80.0, 70.0), 25.0),
    Building((120.0, 10.0), (150.0, 90.0), 8.0),
)


def _angle(pool, low, high):
    return st.one_of(st.sampled_from(pool), st.floats(low, high, allow_nan=False))


@st.composite
def _hand_beams(draw):
    count = draw(st.integers(1, 6))
    return tuple(
        Beam(
            beam_id=i,
            steer_azimuth=draw(_angle(AZIMUTHS, -400.0, 400.0)),
            steer_elevation=draw(_angle(ELEVATIONS, -90.0, 90.0)),
            azimuth_beamwidth=draw(st.sampled_from(BEAMWIDTHS)),
            elevation_beamwidth=draw(st.sampled_from(BEAMWIDTHS)),
            element_gain=draw(st.sampled_from((0.0, 8.0, 5))),
            front_to_back=draw(st.sampled_from(FRONT_TO_BACK)),
            array_gain=draw(st.floats(0.0, 15.0)),
        )
        for i in range(count)
    )


@st.composite
def _sector(draw, cell_id):
    sector = Sector(
        cell_id=cell_id,
        boresight_azimuth=draw(_angle(BORESIGHTS, -400.0, 400.0)),
        mechanical_downtilt=draw(st.floats(0.0, 15.0)),
        tx_power=draw(st.sampled_from((30.0, 46.0, 23))),
    )
    if draw(st.booleans()):
        beams = draw(_hand_beams())
    else:
        rows = draw(st.lists(st.sampled_from(ELEVATIONS), min_size=1, max_size=4))
        count = draw(st.sampled_from((1, len(rows), 2 * len(rows), 4 * len(rows))))
        beams = tuple(
            synthesize_beam_grid(
                sector,
                count,
                elevation_steers=tuple(rows),
                azimuth_beamwidth_deg=draw(st.sampled_from(BEAMWIDTHS)),
                front_to_back_db=draw(st.sampled_from(FRONT_TO_BACK)),
            )
        )
    return dataclasses.replace(sector, beams=beams)


@st.composite
def _case(draw):
    n_sites = draw(st.integers(1, 3))
    sites = []
    for site_id in range(n_sites):
        n_sectors = draw(st.integers(1, 3))
        sectors = tuple(draw(_sector(site_id * 3 + s)) for s in range(n_sectors))
        position = (draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 100.0)))
        sites.append(Site(id=site_id, position=position, height=draw(st.floats(3.0, 30.0)), sectors=sectors))
    scenario = Scenario(
        buildings=BUILDINGS if draw(st.booleans()) else (),
        sites=tuple(sites),
        carrier_frequency=draw(st.sampled_from((3.5, 28.0, 60.0))),
        area=(200.0, 100.0),
        grid_resolution=1.0,
        rng_seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    locations = rng.uniform((-20.0, -20.0), (220.0, 120.0), size=(draw(st.integers(1, 25)), 2))
    if draw(st.booleans()):
        # a location right under a site: zero horizontal distance
        locations = np.vstack([locations, [sites[0].position]])
    config = PropagationConfig(
        model=draw(st.sampled_from(PROPAGATION_MODELS)),
        shadow_fading_sigma=draw(st.sampled_from((0.0, 4.0, 9.5))),
        # -50 dBm clamps most links, -200 dBm none
        noise_floor=draw(st.sampled_from((-200.0, -105.0, -80.0, -50.0))),
    )
    return scenario, locations, config


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_rsrp_grid_matches_beam_by_beam_reference(case):
    scenario, locations, config = case
    got = rsrp_grid(scenario, locations, config)
    want = reference_rsrp_grid(scenario, locations, config)
    assert got.rsrp.shape == want.rsrp.shape
    assert np.array_equal(np.maximum(got.rsrp, config.noise_floor), want.rsrp)
    assert np.array_equal(got.site_los, want.site_los)
    for name in ("cell_ids", "beam_ids", "site_col"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=100, deadline=None)
@given(case=_case())
def test_table_from_raw_grid_matches_table_from_floored_reference(case):
    # the table alone decides audibility: the raw grid and the reference's
    # clamped grid must give the same table, bit for bit
    scenario, locations, config = case
    got = FingerprintTable.from_grid(locations, rsrp_grid(scenario, locations, config), config.noise_floor)
    want = FingerprintTable.from_grid(locations, reference_rsrp_grid(scenario, locations, config),
                                      config.noise_floor)
    for name in (f.name for f in dataclasses.fields(got)):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_rsrp_grid_rejects_a_scenario_without_beams():
    site = Site(id=0, position=(10.0, 10.0), sectors=(Sector(cell_id=0, boresight_azimuth=0.0),))
    scenario = Scenario(buildings=(), sites=(site,), carrier_frequency=28.0, area=(20.0, 20.0),
                        grid_resolution=1.0, rng_seed=0)
    with pytest.raises(ValueError, match="no beams"):
        rsrp_grid(scenario, np.array([[1.0, 2.0]]))


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
