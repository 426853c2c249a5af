"""Propagation against closed forms, dense line-of-sight sampling and the
beam-by-beam RSRP reference in oracles.py.

Path loss is held to Friis' formula and the antenna pattern to its 3 dB
and back-lobe points. `rsrp_grid` computes each pattern term once per
distinct (steer, beamwidth) pair of a sector and writes the sector's block
straight into the result; `reference_rsrp_grid` evaluates the pattern beam
by beam. Both apply the same element-wise operations in the same order, so
the grids must be identical, bit for bit, wherever the reference's clamp at
the noise floor leaves a value alone; `rsrp_grid` writes raw RSRP, so the
fingerprint tables built from the two grids must be identical everywhere.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamloc.fingerprint import FingerprintTable
from beamloc.propagation import (
    PROPAGATION_MODELS,
    PropagationConfig,
    _beam_block,
    path_loss,
    rsrp_grid,
    shadow_fading,
)
from beamloc.scenario import (
    Beam,
    Building,
    Scenario,
    ScenarioConfig,
    Sector,
    Site,
    beam_arrays,
    build_scenario,
    enumerate_locations,
    synthesize_beam_grid,
)
from oracles import dense_los_oracle, line_of_sight, reference_rsrp_grid


SPEED_OF_LIGHT = 299_792_458.0


def test_free_space_reference_value():
    # independent evaluation of 20*log10(4*pi*d*f/c) at d=1m, f=28GHz
    expected = 20.0 * math.log10(4.0 * math.pi * 1.0 * 28e9 / SPEED_OF_LIGHT)
    got = path_loss(np.array([1.0]), np.array([True]), 28.0, PropagationConfig())
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, abs=0.05)
    assert got[0] == pytest.approx(61.4, abs=0.05)


def test_free_space_doubling_distance():
    d = np.array([2.0, 17.0, 333.0])
    los = np.ones(len(d), dtype=bool)
    cfg = PropagationConfig()
    delta = path_loss(2 * d, los, 28.0, cfg) - path_loss(d, los, 28.0, cfg)
    assert np.allclose(delta, 20.0 * math.log10(2.0), rtol=0.0, atol=1e-9)


def test_distance_clamped_below_one_meter():
    loss = path_loss(np.array([0.2, 0.7, 1.0]), np.ones(3, dtype=bool), 28.0, PropagationConfig())
    assert loss[0] == loss[1] == loss[2]


def test_nlos_never_cheaper_than_los():
    cfg = PropagationConfig(model="umi_los_nlos", nlos_extra_loss_exponent=2.0)
    d = np.random.default_rng(1).uniform(0.5, 2000.0, size=200)
    los = path_loss(d, np.ones(len(d), dtype=bool), 28.0, cfg)
    nlos = path_loss(d, np.zeros(len(d), dtype=bool), 28.0, cfg)
    assert np.all(nlos >= los)


def test_free_space_model_ignores_los_flag():
    cfg = PropagationConfig(model="free_space")
    loss = path_loss(np.array([50.0, 50.0]), np.array([True, False]), 28.0, cfg)
    assert loss[0] == loss[1]


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(model="raytrace")
    with pytest.raises(ValueError):
        PropagationConfig(shadow_fading_sigma=-1.0)


def _beam(**kwargs):
    defaults = dict(beam_id=0, steer_azimuth=0.0, steer_elevation=0.0, array_gain=10.0)
    defaults.update(kwargs)
    return Beam(**defaults)


def antenna_gain(beam, azimuth_off, elevation_off):
    """A beam's pattern at offsets in degrees (scalars or arrays), as
    `_beam_block` writes it. The beam and its sector point at 0 degrees,
    the sector has no transmit power, and the links have no loss and no
    shadowing, so the block it writes is the gain, bit for bit."""
    assert beam.steer_azimuth == beam.steer_elevation == 0.0
    sector = Sector(cell_id=0, boresight_azimuth=0.0, tx_power=0.0, beams=(beam,))
    az, el = (np.ravel(np.asarray(v, dtype=float)) for v in np.broadcast_arrays(azimuth_off, elevation_off))
    zeros = np.zeros(len(az))
    out = np.empty((len(az), 1))
    _beam_block(beam_arrays((sector,)), az, el, zeros, zeros, out)
    return float(out[0, 0]) if np.isscalar(azimuth_off) and np.isscalar(elevation_off) else out[:, 0]


def test_antenna_gain_boresight_is_peak():
    beam = _beam()
    assert antenna_gain(beam, 0.0, 0.0) == beam.peak_gain == 18.0


def test_antenna_gain_half_beamwidth_is_3db_down():
    beam = _beam()
    assert antenna_gain(beam, beam.azimuth_beamwidth / 2, 0.0) == pytest.approx(beam.peak_gain - 3.0)
    assert antenna_gain(beam, 0.0, beam.elevation_beamwidth / 2) == pytest.approx(beam.peak_gain - 3.0)


def test_antenna_gain_back_lobe_floor():
    beam = _beam()
    assert antenna_gain(beam, 180.0, 0.0) == pytest.approx(beam.peak_gain - beam.front_to_back)


def test_antenna_gain_bounded():
    beam = _beam()
    rng = np.random.default_rng(2)
    az = rng.uniform(-400, 400, size=1000)
    el = rng.uniform(-400, 400, size=1000)
    g = antenna_gain(beam, az, el)
    assert np.all(g <= beam.peak_gain + 1e-12)
    assert np.all(g >= beam.peak_gain - beam.front_to_back - 1e-12)


def test_los_empty_scene():
    assert line_of_sight((0.0, 0.0, 10.0), (50.0, 0.0, 1.5), ())


def test_los_blocked_by_interior_crossing():
    b = Building((10.0, -5.0), (20.0, 5.0), 25.0)
    assert not line_of_sight((0.0, 0.0, 10.0), (50.0, 0.0, 1.5), (b,))


def test_los_height_interpolation():
    # segment z runs 10 -> 1.5 over x in [0, 20]; over the crossing x in [1, 3]
    # it stays above 8.7, so only buildings taller than that block
    p, q = (0.0, 0.0, 10.0), (20.0, 0.0, 1.5)
    tall = Building((1.0, -1.0), (3.0, 1.0), 9.0)
    short = Building((1.0, -1.0), (3.0, 1.0), 8.0)
    assert not line_of_sight(p, q, (tall,))
    assert line_of_sight(p, q, (short,))


def test_los_is_symmetric():
    rng = np.random.default_rng(3)
    buildings = tuple(
        Building((x, y), (x + w, y + h), height)
        for x, y, w, h, height in zip(
            rng.uniform(0, 80, 8),
            rng.uniform(0, 80, 8),
            rng.uniform(2, 15, 8),
            rng.uniform(2, 15, 8),
            rng.uniform(3, 30, 8),
        )
    )
    for _ in range(100):
        p = (rng.uniform(-10, 110), rng.uniform(-10, 110), rng.uniform(1, 12))
        q = (rng.uniform(-10, 110), rng.uniform(-10, 110), rng.uniform(1, 12))
        assert line_of_sight(p, q, buildings) == line_of_sight(q, p, buildings)


def test_los_matches_dense_sampling_oracle():
    rng = np.random.default_rng(4)
    buildings = tuple(
        Building((x, y), (x + w, y + h), height)
        for x, y, w, h, height in zip(
            rng.uniform(0, 90, 10),
            rng.uniform(0, 90, 10),
            rng.uniform(3, 20, 10),
            rng.uniform(3, 20, 10),
            rng.uniform(3, 30, 10),
        )
    )
    for _ in range(200):
        p = (rng.uniform(-20, 120), rng.uniform(-20, 120), rng.uniform(1, 15))
        q = (rng.uniform(-20, 120), rng.uniform(-20, 120), rng.uniform(1, 15))
        assert line_of_sight(p, q, buildings) == dense_los_oracle(p, q, buildings)


def _one_site_scenario(tx_power=30.0, height=10.0, beams=(_beam(),)):
    """One sector of `beams` pointing at 0 degrees, on one site at the origin; no buildings."""
    sector = Sector(cell_id=0, boresight_azimuth=0.0, tx_power=tx_power, beams=beams)
    site = Site(id=0, position=(0.0, 0.0), height=height, sectors=(sector,))
    return Scenario(buildings=(), sites=(site,), carrier_frequency=28.0, area=(2000.0, 200.0),
                    grid_resolution=1.0, rng_seed=0)


def test_beam_rsrp_composition():
    # tx power + beam gain - free-space loss, with the link angles taken
    # from numpy hypot/arctan2 rather than the module's geometry
    scenario = _one_site_scenario()
    cfg = PropagationConfig()
    site = scenario.sites[0]
    sector = site.sectors[0]
    beam = sector.beams[0]
    location = (80.0, 15.0)
    dx, dy = location[0] - site.position[0], location[1] - site.position[1]
    dz = cfg.ue_height - site.height
    d2d = np.hypot(dx, dy)
    azimuth = np.degrees(np.arctan2(dy, dx))
    elevation = np.degrees(np.arctan2(dz, d2d))
    distance = math.sqrt(d2d**2 + dz**2)
    free_space = 20.0 * math.log10(4.0 * math.pi * distance * scenario.carrier_frequency * 1e9 / SPEED_OF_LIGHT)
    # parabolic pattern: both offsets lie well inside (-180, 180], so no wrap
    azimuth_off = azimuth - sector.boresight_azimuth - beam.steer_azimuth
    elevation_off = elevation - beam.steer_elevation
    rolloff = 12.0 * (azimuth_off / beam.azimuth_beamwidth) ** 2
    rolloff += 12.0 * (elevation_off / beam.elevation_beamwidth) ** 2
    gain = beam.peak_gain - min(rolloff, beam.front_to_back)
    expected = sector.tx_power + gain - free_space
    grid = rsrp_grid(scenario, np.array([location]), cfg)
    assert grid.beam_ids[0] == beam.beam_id
    # the module's free-space constant is rounded to 0.01 dB
    assert grid.rsrp[0, 0] == pytest.approx(expected, abs=0.01)


def test_rsrp_decreases_along_boresight():
    # site and UE at equal height so the link stays exactly on boresight
    scenario = _one_site_scenario(height=1.5)
    locations = np.array([[d, 0.0] for d in (2, 5, 20, 100, 700)])
    values = rsrp_grid(scenario, locations, PropagationConfig()).rsrp[:, 0]
    assert np.all(values[:-1] > values[1:])


def test_tx_power_shift_is_exact():
    base = _one_site_scenario(tx_power=30.0)
    boosted = _one_site_scenario(tx_power=33.0)
    cfg = PropagationConfig(noise_floor=-500.0)
    locations = np.array([[50.0, 10.0], [120.0, -40.0], [15.0, 90.0]])
    a = rsrp_grid(base, locations, cfg).rsrp
    b = rsrp_grid(boosted, locations, cfg).rsrp
    assert np.allclose(b - a, 3.0, atol=1e-12)


def test_rsrp_grid_deterministic():
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=20.0))
    cfg = PropagationConfig(shadow_fading_sigma=4.0)
    locations = np.array([[12.0, 34.0], [200.0, 41.0], [77.0, 8.0]])
    a = rsrp_grid(scenario, locations, cfg)
    b = rsrp_grid(scenario, locations, cfg)
    assert np.array_equal(a.rsrp, b.rsrp)
    for name in ("cell_ids", "beam_ids", "site_col", "site_los"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_rsrp_grid_subset_invariance():
    # stateless shadow fading: evaluating a subset must reproduce the same rows
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=20.0))
    cfg = PropagationConfig(shadow_fading_sigma=6.0)
    locations = np.array([[12.0, 34.0], [200.0, 41.0], [77.0, 8.0], [140.0, 60.0]])
    full = rsrp_grid(scenario, locations, cfg).rsrp
    subset = rsrp_grid(scenario, locations[[2, 0]], cfg).rsrp
    assert np.array_equal(subset[0], full[2])
    assert np.array_equal(subset[1], full[0])


coordinate = st.floats(-1e4, 1e4, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    site_id=st.integers(0, 2**16),
    sigma=st.floats(0.1, 20.0),
    locations=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30),
    data=st.data(),
)
def test_shadow_fading_ignores_location_order_and_subset(seed, site_id, sigma, locations, data):
    locations = np.array(locations)
    picks = data.draw(st.lists(st.integers(0, len(locations) - 1), max_size=40), label="picks")
    full = shadow_fading(seed, site_id, locations, sigma)
    assert shadow_fading(seed, site_id, locations[picks].reshape(-1, 2), sigma).tobytes() == full[picks].tobytes()


@pytest.fixture(scope="module")
def shadowed_lattice():
    """(scenario, its street lattice, the lattice's grid) with 6 dB shadow fading."""
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=2, grid_resolution_m=20.0))
    locations = enumerate_locations(scenario)
    return scenario, locations, rsrp_grid(scenario, locations, PropagationConfig(shadow_fading_sigma=6.0))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_rsrp_grid_rows_ignore_location_order_and_subset(shadowed_lattice, data):
    scenario, locations, full = shadowed_lattice
    picks = data.draw(st.lists(st.integers(0, len(locations) - 1), min_size=1, max_size=60), label="picks")
    subset = rsrp_grid(scenario, locations[picks], PropagationConfig(shadow_fading_sigma=6.0))
    assert subset.rsrp.tobytes() == full.rsrp[picks].tobytes()
    assert subset.site_los.tobytes() == full.site_los[picks].tobytes()


def test_shadow_shared_within_site_preserves_beam_differences():
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=1, with_buildings=False))
    locations = np.array([[55.0, 21.0], [30.0, 70.0]])
    clean = rsrp_grid(scenario, locations, PropagationConfig(noise_floor=-500.0)).rsrp
    noisy = rsrp_grid(scenario, locations, PropagationConfig(noise_floor=-500.0, shadow_fading_sigma=8.0)).rsrp
    offset = noisy - clean
    # one shadow draw per (location, site): every beam column shifts equally
    assert np.allclose(offset, offset[:, :1], atol=1e-9)
    assert not np.allclose(offset, 0.0)


def test_shadow_differs_across_sites_and_locations():
    draws_a = shadow_fading(1, 0, np.array([[1.0, 2.0], [3.0, 4.0]]), 4.0)
    draws_b = shadow_fading(1, 1, np.array([[1.0, 2.0], [3.0, 4.0]]), 4.0)
    assert draws_a[0] != draws_a[1]
    assert draws_a[0] != draws_b[0]


def test_shadow_moments():
    rng = np.random.default_rng(5)
    locations = rng.uniform(0, 1000, size=(20000, 2))
    draws = shadow_fading(42, 3, locations, 4.0)
    assert abs(float(np.mean(draws))) < 0.15
    assert float(np.std(draws)) == pytest.approx(4.0, abs=0.15)


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


@settings(max_examples=100, deadline=None)
@given(case=_case())
def test_grid_los_of_every_site_is_the_one_segment_line_of_sight(case):
    # rsrp_grid clips every site's links in one call; each entry must be the
    # blocking test of that one segment
    scenario, locations, config = case
    site_los = rsrp_grid(scenario, locations, config).site_los
    for si, site in enumerate(scenario.sites):
        start = (*site.position, site.height)
        want = [line_of_sight(start, (x, y, config.ue_height), scenario.buildings) for x, y in locations.tolist()]
        assert site_los[:, si].tolist() == want


def test_rsrp_grid_rejects_a_scenario_without_beams():
    with pytest.raises(ValueError, match="no beams"):
        rsrp_grid(_one_site_scenario(beams=()), np.array([[1.0, 2.0]]))
