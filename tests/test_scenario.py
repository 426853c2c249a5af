"""The deployment builder against closed forms and against the site-by-site,
beam-by-beam reference in oracles.py.

`build_scenario` lays out the sites, buildings and beams of a
`ScenarioConfig` with array operations; `reference_scenario_dict` writes the
same deployment out in nested loops. A property over configs holds the two
to the same scenario.json text and the same RSRP grid, bit for bit, and
holds the geometric invariants of every built deployment: each site inside
the area and outside every building's open interior, no two buildings
overlapping, and `scenario_summary` counting the config's sites, cells,
beams and buildings.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamloc.propagation import PROPAGATION_MODELS, PropagationConfig, rsrp_grid
from beamloc.scenario import (
    ScenarioConfig,
    build_scenario,
    enumerate_locations,
    scenario_summary,
    scenario_to_dict,
)
from oracles import building, hand_scenario, reference_rsrp_grid, reference_scenario_dict, sector_formula


def test_default_config_counts():
    scenario = build_scenario(ScenarioConfig())
    summary = scenario_summary(scenario)
    assert summary["sites"] == 8
    assert summary["cells"] == 24
    assert summary["beams"] == 24 * 32


def test_single_site_no_buildings():
    cfg = ScenarioConfig(site_rows=1, site_cols=1, with_buildings=False)
    summary = scenario_summary(build_scenario(cfg))
    assert (summary["sites"], summary["cells"], summary["buildings"]) == (1, 3, 0)


def test_build_is_deterministic():
    cfg = ScenarioConfig(seed=7)
    a = scenario_to_dict(build_scenario(cfg))
    b = scenario_to_dict(build_scenario(cfg))
    assert a == b


def test_sector_boresights_differ_by_120():
    for site in scenario_to_dict(build_scenario(ScenarioConfig()))["sites"]:
        az = sorted(sec["boresight_azimuth"] for sec in site["sectors"])
        diffs = {round((az[i + 1] - az[i]) % 360.0, 6) for i in range(len(az) - 1)}
        assert diffs == {120.0}


def test_cell_ids_globally_unique():
    sites = scenario_to_dict(build_scenario(ScenarioConfig()))["sites"]
    ids = [sec["cell_id"] for site in sites for sec in site["sectors"]]
    assert len(ids) == len(set(ids)) == 24


def _sector_beams(**config):
    """The beam records of the first sector of a one-site deployment."""
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=1, **config))
    return scenario_to_dict(scenario)["sites"][0]["sectors"][0]["beams"]


def test_beam_grid_default_layout():
    beams = _sector_beams()
    assert len(beams) == 32
    azimuths = sorted({b["steer_azimuth"] for b in beams})
    assert len(azimuths) == 16
    assert azimuths[0] == pytest.approx(-56.25)
    assert azimuths[-1] == pytest.approx(56.25)
    assert {b["steer_elevation"] for b in beams} == {-3.0, -12.0}
    assert all(b["array_gain"] == pytest.approx(10 * math.log10(32)) for b in beams)


def test_beam_grid_rows_strictly_increasing():
    beams = _sector_beams()
    for el in (-3.0, -12.0):
        row = [b["steer_azimuth"] for b in beams if b["steer_elevation"] == el]
        assert row == sorted(row)
        assert len(set(row)) == len(row)


def test_beam_grid_covers_azimuth_span():
    # every azimuth in the sector span lies within half a spacing of a steer
    azimuths = np.array(sorted({b["steer_azimuth"] for b in _sector_beams()}))
    spacing = 120.0 / len(azimuths)
    probes = np.linspace(-60.0, 60.0, 481)
    gaps = np.min(np.abs(probes[:, None] - azimuths[None, :]), axis=1)
    assert np.all(gaps <= spacing / 2 + 1e-9)


def test_beam_grid_single_beam_points_at_downtilt():
    beams = _sector_beams(beams_per_sector=1, mechanical_downtilt_deg=5.0)
    assert len(beams) == 1
    assert beams[0]["steer_azimuth"] == 0.0
    assert beams[0]["steer_elevation"] == -5.0
    assert beams[0]["array_gain"] == 0.0


def test_beam_grid_identical_across_sectors():
    # every sector carries one grid of beams turned to its boresight: a
    # location turned 120 degrees about the site hears the next sector's
    # beams as it heard this sector's
    scenario = build_scenario(ScenarioConfig(site_rows=1, site_cols=1, with_buildings=False))
    angles = np.radians([10.0, 130.0, 250.0])
    locations = scenario.site_xyz[0, :2] + 50.0 * np.column_stack((np.cos(angles), np.sin(angles)))
    rsrp = rsrp_grid(scenario, locations, PropagationConfig()).rsrp.reshape(3, 3, 32)
    for turn in range(3):
        assert np.allclose(np.roll(rsrp[turn], -turn, axis=0), rsrp[0], rtol=0, atol=1e-9)
    assert not np.allclose(rsrp[0, 0], rsrp[0, 1])


def test_beam_grid_uniqueness_invariants():
    beams = _sector_beams()
    ids = [b["beam_id"] for b in beams]
    steers = [(b["steer_azimuth"], b["steer_elevation"]) for b in beams]
    assert len(set(ids)) == len(beams)
    assert len(set(steers)) == len(beams)


def test_beam_grid_rejects_nonfactorable_count():
    with pytest.raises(ValueError, match="beams_per_sector 31 must be 1 or divisible by the 2 elevation_steers_deg"):
        ScenarioConfig(beams_per_sector=31)


def test_beam_grid_rejects_zero():
    with pytest.raises(ValueError, match=r"beams_per_sector must be in \[1, 64\], got 0"):
        ScenarioConfig(beams_per_sector=0)


def _lattice(buildings):
    """A 10 x 10 m area at 1 m resolution around one site."""
    return hand_scenario([(5.0, 5.0, 10.0)], buildings, sector_formula(), area=(10.0, 10.0))


def test_enumerate_locations_empty_area_lattice():
    points = enumerate_locations(_lattice([]))
    assert len(points) == 121
    # row-major: y varies slowest
    order = np.lexsort((points[:, 0], points[:, 1]))
    assert np.array_equal(order, np.arange(len(points)))


def test_enumerate_locations_fully_blocked():
    scenario = _lattice([building((-1.0, -1.0), (11.0, 11.0), 20.0)])
    assert len(enumerate_locations(scenario)) == 0


def test_enumerate_locations_matches_bruteforce_oracle():
    scenario = build_scenario(ScenarioConfig(grid_resolution_m=5.0))
    points = enumerate_locations(scenario)

    width, height = scenario.area
    res = scenario.grid_resolution
    buildings = scenario_to_dict(scenario)["buildings"]
    expected = []
    ny = int(math.floor(height / res + 1e-9)) + 1
    nx = int(math.floor(width / res + 1e-9)) + 1
    for iy in range(ny):
        for ix in range(nx):
            x, y = ix * res, iy * res
            inside = any(
                b["min_corner"][0] <= x <= b["max_corner"][0] and b["min_corner"][1] <= y <= b["max_corner"][1]
                for b in buildings
            )
            if not inside:
                expected.append((x, y))
    assert len(points) == len(expected)
    assert np.allclose(points, np.array(expected))
    assert len(points) < nx * ny  # buildings must actually remove lattice points


def test_validate_rejects_zero_sites():
    # a deployment without sites cannot be configured
    for key in ("site_rows", "site_cols"):
        with pytest.raises(ValueError, match=rf"{key} must be in \[1, 32\], got 0"):
            ScenarioConfig(**{key: 0})


def test_buildings_leave_street_corridors():
    scenario = build_scenario(ScenarioConfig())
    x, y = scenario.site_xyz[:, 0], scenario.site_xyz[:, 1]
    b = scenario.buildings
    inside = ((b.min_corner[:, None, 0] < x) & (x < b.max_corner[:, None, 0])
              & (b.min_corner[:, None, 1] < y) & (y < b.max_corner[:, None, 1]))
    assert len(b.height) == 15 and not inside.any()


def test_building_validation():
    # every built block has a positive footprint and roof; a street wider
    # than the margin or the site spacing leaves no block there
    with pytest.raises(ValueError, match=r"building_height_m must be in \(0, 10000\], got 0"):
        ScenarioConfig(building_height_m=0.0)
    for street, count in ((20.0, 15), (100.0, 3), (250.0, 0)):
        b = build_scenario(ScenarioConfig(street_width_m=street)).buildings
        assert len(b.height) == count
        assert (b.min_corner < b.max_corner).all() and (b.height == 25.0).all()


def _number(low: int, high: int):
    """A float key's value: an int, the same int spelled as a float, or any float in [low, high]."""
    return st.one_of(st.integers(low, high), st.integers(low, high).map(float), st.floats(low, high))


@st.composite
def _configs(draw):
    """Configs of 1-3 sites per axis, 1-6 sectors, and one beam or 1-4
    elevation rows, on the area edge (margin 0), with and without buildings,
    with each float key spelled as an int or a float."""
    if draw(st.booleans()):
        beams = {"beams_per_sector": 1}
    else:
        rows = draw(st.lists(_number(-90, 90), min_size=1, max_size=4))
        beams = {"elevation_steers_deg": rows, "beams_per_sector": len(rows) * draw(st.integers(1, 64 // len(rows)))}
    return ScenarioConfig(
        site_rows=draw(st.integers(1, 3)),
        site_cols=draw(st.integers(1, 3)),
        row_spacing_m=draw(_number(20, 300)),
        col_spacing_m=draw(_number(20, 300)),
        margin_m=draw(st.sampled_from((0, 0.0))),
        street_width_m=draw(_number(1, 60)),
        site_height_m=draw(_number(1, 40)),
        with_buildings=draw(st.booleans()),
        building_height_m=draw(_number(1, 60)),
        sectors_per_site=draw(st.integers(1, 6)),
        mechanical_downtilt_deg=draw(_number(-90, 90)),
        tx_power_dbm=draw(_number(-50, 50)),
        azimuth_beamwidth_deg=draw(_number(1, 179)),
        elevation_beamwidth_deg=draw(_number(1, 179)),
        element_gain_dbi=draw(_number(-10, 30)),
        front_to_back_db=draw(_number(0, 60)),
        carrier_frequency_ghz=draw(_number(1, 100)),
        grid_resolution_m=draw(_number(5, 50)),
        seed=draw(st.integers(0, 2**32)),
        **beams,
    )


@settings(max_examples=60, deadline=None)
@given(config=_configs(), data=st.data())
def test_built_scenario_is_the_beam_by_beam_reference(config, data):
    scenario = build_scenario(config)
    doc = reference_scenario_dict(config)
    text = json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
    assert text == json.dumps(doc, indent=2, sort_keys=True)

    width, height = scenario.area
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="locations seed"))
    locations = rng.uniform((0.0, 0.0), (width, height), size=(data.draw(st.integers(1, 12), label="locations"), 2))
    prop = PropagationConfig(model=data.draw(st.sampled_from(PROPAGATION_MODELS), label="model"),
                             shadow_fading_sigma=data.draw(st.sampled_from((0.0, 4.0)), label="sigma"),
                             noise_floor=-500.0)
    got = rsrp_grid(scenario, locations, prop)
    want = reference_rsrp_grid(scenario, locations, prop)
    assert np.maximum(got.rsrp, prop.noise_floor).tobytes() == want.rsrp.tobytes()
    for name in ("cell_ids", "beam_ids", "site_col", "site_los"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    x, y = scenario.site_xyz[:, 0], scenario.site_xyz[:, 1]
    assert ((0 <= x) & (x <= width) & (0 <= y) & (y <= height)).all()
    lo, hi = scenario.buildings.min_corner, scenario.buildings.max_corner
    assert (lo < hi).all()
    inside = (lo[:, None, 0] < x) & (x < hi[:, None, 0]) & (lo[:, None, 1] < y) & (y < hi[:, None, 1])
    assert not inside.any()
    overlap = ((np.minimum(hi[:, None, 0], hi[:, 0]) > np.maximum(lo[:, None, 0], lo[:, 0]))
               & (np.minimum(hi[:, None, 1], hi[:, 1]) > np.maximum(lo[:, None, 1], lo[:, 1])))
    assert np.array_equal(overlap, np.eye(len(lo), dtype=bool))
    sites = config.site_rows * config.site_cols
    cells = sites * config.sectors_per_site
    summary = scenario_summary(scenario)
    assert (summary["sites"], summary["cells"], summary["beams"], summary["buildings"]) == (
        sites, cells, cells * config.beams_per_sector, len(doc["buildings"]))
