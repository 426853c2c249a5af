"""Synthetic urban deployment: city blocks, street-corner sites, grid-of-beams.

The world is a rectangular area covered by a street grid. Sites sit at street
intersections, each with three 120-degree sectors, and every sector carries a
fixed grid-of-beams tiling its azimuth span. Buildings fill the blocks between
streets, so line of sight exists along street corridors only. The deployment
is held only as arrays, which `build_scenario` lays out from a
`ScenarioConfig` with array operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import bound, check_fields
from .geom import points_in_rect, wrap_deg

DEFAULT_ELEVATION_STEERS = (-3.0, -12.0)
SECTOR_AZIMUTH_SPAN_DEG = 120.0
# the ranges of the config keys, tabled in the README
MAX_LENGTH_M = 10_000.0  # beyond any urban deployment
MAX_DB = 500.0  # power, gain, loss or fading sigma: beyond any link budget, and sums stay finite
MIN_BEAMWIDTH_DEG = 1.0
MAX_CARRIER_GHZ = 300.0  # the top of the mmWave band
MAX_SITES_PER_AXIS = 32
MAX_SECTORS_PER_SITE = 6
MAX_BEAMS_PER_SECTOR = 64  # the largest SSB beam set of 5G NR
MAX_LATTICE_POINTS = 10_000_000  # the most `enumerate_locations` builds: a 3 km square at 1 m
# lattice points x beams: the RSRP grid's entries, ~30 ns each on a 2-vCPU Xeon, so about half a minute;
# ten times the default deployment at 1 m
MAX_GRID_ENTRIES = 1_000_000_000


def _read_only(arrays):
    """`arrays` with every array field locked: one scenario's arrays are
    shared by every grid evaluated on it, so a write would reach all later
    blocks."""
    for value in arrays:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return arrays


class BeamArrays(NamedTuple):
    """The beams of one or more sectors as arrays, one entry per beam, sectors
    in order and beams in sector order.

    The pattern is evaluated once per (steer, width) key: first the azimuth
    keys, each steer the sector boresight plus the beam's steer wrapped to
    (-180, 180], then the elevation keys, flagged in is_elevation. Beam j
    reads azimuth key az_of_beam[j] and elevation key el_of_beam[j];
    front_to_back, peak_gain and tx_power are per beam.
    """

    steer: np.ndarray
    width: np.ndarray
    is_elevation: np.ndarray
    az_of_beam: np.ndarray
    el_of_beam: np.ndarray
    front_to_back: np.ndarray
    peak_gain: np.ndarray
    tx_power: np.ndarray


class BuildingArrays(NamedTuple):
    """Building footprints and roof heights: (B, 2) corners and (B,) heights."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    height: np.ndarray


class ScenarioArrays(NamedTuple):
    """A scenario's fixed data as arrays.

    Sites are rows of site_xyz (x, y, height) and of site_id, and entries
    of site_beams, in scenario order; sites with the same beams may share
    one BeamArrays. The RSRP grid has one column per beam:
    sites in scenario order, sectors in site order, beams in sector order;
    column j is beam beam_ids[j] of cell cell_ids[j] on site row site_col[j].
    """

    site_xyz: np.ndarray  # (n_sites, 3)
    site_id: np.ndarray  # (n_sites,)
    site_beams: tuple[BeamArrays, ...]
    buildings: BuildingArrays
    site_col: np.ndarray  # (n_beams,)
    cell_ids: np.ndarray  # (n_beams,)
    beam_ids: np.ndarray  # (n_beams,)


class SectorFormula(NamedTuple):
    """The sectors every site carries and the beams every sector carries, as
    scenario.json prints them.

    boresight has one azimuth per sector of a site, and steer one row per
    beam of a sector, beam k having id k: its azimuth relative to the
    sector's boresight and its elevation. The other fields hold for every
    sector or beam. The RSRP grid reads `BeamArrays` instead, which keeps
    the absolute steers and the summed peak gain.
    """

    boresight: np.ndarray  # (sectors_per_site,)
    steer: np.ndarray  # (beams_per_sector, 2)
    mechanical_downtilt: float
    tx_power: float
    azimuth_beamwidth: float
    elevation_beamwidth: float
    element_gain: float
    front_to_back: float
    array_gain: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable world description. `area` is (width, height) with origin (0, 0).

    The RSRP grid and the location lattice read `arrays`; `sectors` is what
    only scenario.json prints, and is None for a scenario assembled from
    arrays that no `ScenarioConfig` describes.
    """

    arrays: ScenarioArrays
    carrier_frequency: float
    area: tuple[float, float]
    grid_resolution: float
    rng_seed: int
    sectors: SectorFormula | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Parametric street-grid layout; defaults mirror the 8-site deployment."""

    site_rows: int = bound(2, ge=1, le=MAX_SITES_PER_AXIS)
    site_cols: int = bound(4, ge=1, le=MAX_SITES_PER_AXIS)
    row_spacing_m: float = bound(110.0, gt=0, le=MAX_LENGTH_M)
    col_spacing_m: float = bound(200.0, gt=0, le=MAX_LENGTH_M)
    # a site exactly on the area edge (margin 0) is still inside the area
    margin_m: float = bound(40.0, ge=0, le=MAX_LENGTH_M)
    street_width_m: float = bound(20.0, gt=0, le=MAX_LENGTH_M)
    site_height_m: float = bound(10.0, gt=0, le=MAX_LENGTH_M)
    with_buildings: bool = True
    building_height_m: float = bound(25.0, gt=0, le=MAX_LENGTH_M)
    sectors_per_site: int = bound(3, ge=1, le=MAX_SECTORS_PER_SITE)
    beams_per_sector: int = bound(32, ge=1, le=MAX_BEAMS_PER_SECTOR)
    elevation_steers_deg: tuple[float, ...] = bound(DEFAULT_ELEVATION_STEERS, ge=-90, le=90)
    mechanical_downtilt_deg: float = bound(5.0, ge=-90, le=90)
    tx_power_dbm: float = bound(30.0, ge=-MAX_DB, le=MAX_DB)
    azimuth_beamwidth_deg: float = bound(65.0, ge=MIN_BEAMWIDTH_DEG, lt=180)
    elevation_beamwidth_deg: float = bound(65.0, ge=MIN_BEAMWIDTH_DEG, lt=180)
    element_gain_dbi: float = bound(8.0, ge=-MAX_DB, le=MAX_DB)
    front_to_back_db: float = bound(30.0, ge=-MAX_DB, le=MAX_DB)
    carrier_frequency_ghz: float = bound(28.0, gt=0, le=MAX_CARRIER_GHZ)
    grid_resolution_m: float = bound(1.0, gt=0, le=MAX_LENGTH_M)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        rows = len(self.elevation_steers_deg)
        if self.beams_per_sector > 1 and (rows == 0 or self.beams_per_sector % rows != 0):
            raise ValueError(
                f"beams_per_sector {self.beams_per_sector} must be 1 or divisible by the "
                f"{rows} elevation_steers_deg entries"
            )
        # counted without allocating: `enumerate_locations` builds this lattice
        width, height = self.area
        points = (width / self.grid_resolution_m + 1) * (height / self.grid_resolution_m + 1)
        if points > MAX_LATTICE_POINTS:
            raise ValueError(
                f"grid_resolution_m {self.grid_resolution_m} puts {points:.3g} lattice points on the "
                f"{width:g} x {height:g} m area from margin_m {self.margin_m}, more than {MAX_LATTICE_POINTS}"
            )
        beams = self.site_rows * self.site_cols * self.sectors_per_site * self.beams_per_sector
        if points * beams > MAX_GRID_ENTRIES:
            raise ValueError(
                f"grid_resolution_m {self.grid_resolution_m} puts {points:.3g} lattice points against {beams} beams "
                f"(site_rows {self.site_rows} x site_cols {self.site_cols} x sectors_per_site "
                f"{self.sectors_per_site} x beams_per_sector {self.beams_per_sector}): {points * beams:.3g} "
                f"RSRP grid entries, more than {MAX_GRID_ENTRIES}"
            )

    @property
    def area(self) -> tuple[float, float]:
        """(width, height) in m: the site grid plus margin_m on every side."""
        return (
            (self.site_cols - 1) * self.col_spacing_m + 2 * self.margin_m,
            (self.site_rows - 1) * self.row_spacing_m + 2 * self.margin_m,
        )


def _street_blocks(centers: np.ndarray, half_width: float, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the 1-D block intervals left between street bands centered on `centers`."""
    edges = np.concatenate(([0.0], np.column_stack((centers - half_width, centers + half_width)).ravel(), [limit]))
    lo, hi = np.maximum(edges[::2], 0.0), np.minimum(edges[1::2], limit)
    keep = hi - lo > 0
    return lo[keep], hi[keep]


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministically construct the scenario described by `config`.

    Sites sit on the intersections of a street grid, site r * site_cols + c
    at row r and column c; buildings fill every rectangular block between
    streets (and between the outer streets and the area border). Every
    sector tiles its azimuth span with rows of beams, one row per elevation
    steer, beam row * n_az + k steered spacing * (k + 0.5) past the span's
    left edge, so the steers leave half a spacing of slack at either edge.
    One beam per sector points along the boresight at the mechanical
    downtilt. Array gain is 10*log10(beams_per_sector) on top of the
    element gain.
    """
    width, height = config.area
    xs = config.margin_m + np.arange(config.site_cols) * config.col_spacing_m
    ys = config.margin_m + np.arange(config.site_rows) * config.row_spacing_m
    gx, gy = np.meshgrid(xs, ys)
    n_sites = gx.size
    site_xyz = np.column_stack((gx.ravel(), gy.ravel(), np.full(n_sites, config.site_height_m)))

    lo = hi = np.empty((0, 2))
    if config.with_buildings:
        half = config.street_width_m / 2.0
        (x_lo, x_hi), (y_lo, y_hi) = _street_blocks(xs, half, width), _street_blocks(ys, half, height)
        # x intervals outer, y intervals inner
        lo, hi = (np.column_stack([a.ravel() for a in np.meshgrid(x, y, indexing="ij")])
                  for x, y in ((x_lo, y_lo), (x_hi, y_hi)))
    buildings = BuildingArrays(lo, hi, np.full(len(lo), config.building_height_m))

    count, n_sectors = config.beams_per_sector, config.sectors_per_site
    rows = (-config.mechanical_downtilt_deg,) if count == 1 else config.elevation_steers_deg
    n_az = count // len(rows)
    spacing = SECTOR_AZIMUTH_SPAN_DEG / n_az
    azimuths = -SECTOR_AZIMUTH_SPAN_DEG / 2.0 + spacing * (np.arange(n_az) + 0.5)
    boresight = wrap_deg(np.arange(n_sectors) * 360.0 / n_sectors)
    array_gain = 10.0 * math.log10(count)
    # one key per (sector, azimuth column), then one per elevation row
    n_keys = n_sectors * n_az
    in_row = np.arange(count) % n_az
    beams = BeamArrays(
        steer=np.concatenate((wrap_deg(boresight[:, None] + azimuths).ravel(), rows)),
        width=np.repeat([config.azimuth_beamwidth_deg, config.elevation_beamwidth_deg], (n_keys, len(rows))),
        is_elevation=np.arange(n_keys + len(rows)) >= n_keys,
        az_of_beam=(np.arange(n_sectors)[:, None] * n_az + in_row).ravel(),
        el_of_beam=np.tile(n_keys + np.arange(count) // n_az, n_sectors),
        front_to_back=np.full(n_sectors * count, config.front_to_back_db),
        peak_gain=np.full(n_sectors * count, config.element_gain_dbi + array_gain),
        tx_power=np.full(n_sectors * count, config.tx_power_dbm),
    )
    arrays = ScenarioArrays(
        site_xyz=site_xyz,
        site_id=np.arange(n_sites, dtype=np.uint64),
        # every site carries the same beams
        site_beams=(_read_only(beams),) * n_sites,
        buildings=_read_only(buildings),
        site_col=np.repeat(np.arange(n_sites, dtype=np.int64), n_sectors * count),
        cell_ids=np.repeat(np.arange(n_sites * n_sectors, dtype=np.int64), count),
        beam_ids=np.tile(np.arange(count, dtype=np.int64), n_sites * n_sectors),
    )
    sectors = SectorFormula(
        boresight=boresight,
        steer=np.column_stack((azimuths[in_row], np.repeat(rows, n_az))),
        mechanical_downtilt=config.mechanical_downtilt_deg,
        tx_power=config.tx_power_dbm,
        azimuth_beamwidth=config.azimuth_beamwidth_deg,
        elevation_beamwidth=config.elevation_beamwidth_deg,
        element_gain=config.element_gain_dbi,
        front_to_back=config.front_to_back_db,
        array_gain=array_gain,
    )
    return Scenario(
        arrays=_read_only(arrays),
        carrier_frequency=config.carrier_frequency_ghz,
        area=(width, height),
        grid_resolution=config.grid_resolution_m,
        rng_seed=config.seed,
        sectors=_read_only(sectors),
    )


def enumerate_locations(scenario: Scenario) -> np.ndarray:
    """All lattice points at grid_resolution spacing strictly outside buildings.

    Returns an (N, 2) float array in row-major order (y outer, x inner),
    boundary points included.
    """
    width, height = scenario.area
    res = scenario.grid_resolution
    nx = int(math.floor(width / res + 1e-9)) + 1
    ny = int(math.floor(height / res + 1e-9)) + 1
    xs = np.arange(nx) * res
    ys = np.arange(ny) * res
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    keep = np.ones(len(points), dtype=bool)
    buildings = scenario.arrays.buildings
    for lo, hi in zip(buildings.min_corner.tolist(), buildings.max_corner.tolist()):
        keep &= ~points_in_rect(points, lo, hi)
    return points[keep]


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready export of the full scenario for inspection or plotting:
    buildings, and sites with their sectors with their beams. Every sector
    shares one list of beam records."""
    arrays, formula = scenario.arrays, scenario.sectors
    beam = {
        "azimuth_beamwidth": formula.azimuth_beamwidth,
        "elevation_beamwidth": formula.elevation_beamwidth,
        "element_gain": formula.element_gain,
        "front_to_back": formula.front_to_back,
        "array_gain": formula.array_gain,
    }
    beams = [
        {"beam_id": k, "steer_azimuth": azimuth, "steer_elevation": elevation, **beam}
        for k, (azimuth, elevation) in enumerate(formula.steer.tolist())
    ]
    boresight = formula.boresight.tolist()
    cells = arrays.cell_ids[:: len(beams)].reshape(-1, len(boresight)).tolist()
    sector = {"mechanical_downtilt": formula.mechanical_downtilt, "tx_power": formula.tx_power, "beams": beams}
    sites = [
        {
            "id": site_id,
            "position": [x, y],
            "height": z,
            "sectors": [{"cell_id": cell, "boresight_azimuth": azimuth, **sector}
                        for cell, azimuth in zip(site_cells, boresight)],
        }
        for site_id, (x, y, z), site_cells in zip(arrays.site_id.tolist(), arrays.site_xyz.tolist(), cells)
    ]
    b = arrays.buildings
    return {
        "buildings": [
            {"min_corner": lo, "max_corner": hi, "height": h}
            for lo, hi, h in zip(b.min_corner.tolist(), b.max_corner.tolist(), b.height.tolist())
        ],
        "sites": sites,
        "carrier_frequency_ghz": scenario.carrier_frequency,
        "area": list(scenario.area),
        "grid_resolution_m": scenario.grid_resolution,
        "rng_seed": scenario.rng_seed,
    }


def scenario_summary(scenario: Scenario) -> dict:
    arrays = scenario.arrays
    return {
        "sites": len(arrays.site_id),
        "cells": len(np.unique(arrays.cell_ids, return_counts=True)[0]),
        "beams": len(arrays.cell_ids),
        "buildings": len(arrays.buildings.height),
        "area_m": list(scenario.area),
        "grid_resolution_m": scenario.grid_resolution,
    }
