"""Synthetic urban deployment: city blocks, street-corner sites, grid-of-beams.

The world is a rectangular area covered by a street grid. Sites sit at street
intersections, each with three 120-degree sectors, and every sector carries a
fixed grid-of-beams tiling its azimuth span. Buildings fill the blocks between
streets, so line of sight exists along street corridors only. The deployment
is held as the arrays of its sites and buildings and one `SectorFormula` of
the sectors and beams every site carries, which `build_scenario` lays out
from a `ScenarioConfig` with array operations.
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


class BuildingArrays(NamedTuple):
    """Building footprints and roof heights: (B, 2) corners and (B,) heights."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    height: np.ndarray


class SectorFormula(NamedTuple):
    """The sectors every site carries and the beams every sector carries.

    boresight has one azimuth per sector of a site. A sector's beams are
    rows of columns: beam k sits in row k // n_az, steered to
    elevation_steers[k // n_az], and in column k % n_az, steered
    azimuth_steers[k % n_az] from the sector's boresight, with n_az the
    number of azimuth_steers. The other fields hold for every sector or beam.
    """

    boresight: np.ndarray  # (sectors_per_site,)
    azimuth_steers: np.ndarray  # (n_az,)
    elevation_steers: np.ndarray  # (rows,)
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

    Sites are rows of site_xyz (x, y, height), site i having id i, and every
    site carries the sectors of `sectors`. Construction locks every array:
    one scenario is shared by every grid block evaluated on it, so a write
    would reach all later blocks.
    """

    site_xyz: np.ndarray  # (n_sites, 3)
    buildings: BuildingArrays
    sectors: SectorFormula
    carrier_frequency: float
    area: tuple[float, float]
    grid_resolution: float
    rng_seed: int

    def __post_init__(self):
        for value in (self.site_xyz, *self.buildings, *self.sectors):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n_beams(self) -> int:
        """Every beam of every sector of every site: the RSRP grid's columns."""
        formula = self.sectors
        return len(self.site_xyz) * len(formula.boresight) * len(formula.azimuth_steers) * len(formula.elevation_steers)


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

    count = config.beams_per_sector
    rows = (-config.mechanical_downtilt_deg,) if count == 1 else config.elevation_steers_deg
    n_az = count // len(rows)
    spacing = SECTOR_AZIMUTH_SPAN_DEG / n_az
    sectors = SectorFormula(
        boresight=wrap_deg(np.arange(config.sectors_per_site) * 360.0 / config.sectors_per_site),
        azimuth_steers=-SECTOR_AZIMUTH_SPAN_DEG / 2.0 + spacing * (np.arange(n_az) + 0.5),
        elevation_steers=np.array(rows, dtype=float),
        mechanical_downtilt=config.mechanical_downtilt_deg,
        tx_power=config.tx_power_dbm,
        azimuth_beamwidth=config.azimuth_beamwidth_deg,
        elevation_beamwidth=config.elevation_beamwidth_deg,
        element_gain=config.element_gain_dbi,
        front_to_back=config.front_to_back_db,
        array_gain=10.0 * math.log10(count),
    )
    return Scenario(
        site_xyz=site_xyz,
        buildings=BuildingArrays(lo, hi, np.full(len(lo), config.building_height_m)),
        sectors=sectors,
        carrier_frequency=config.carrier_frequency_ghz,
        area=(width, height),
        grid_resolution=config.grid_resolution_m,
        rng_seed=config.seed,
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
    buildings = scenario.buildings
    for lo, hi in zip(buildings.min_corner.tolist(), buildings.max_corner.tolist()):
        keep &= ~points_in_rect(points, lo, hi)
    return points[keep]


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready export of the full scenario for inspection or plotting:
    buildings, and sites with their sectors with their beams. Every sector
    shares one list of beam records."""
    formula = scenario.sectors
    beam = {
        "azimuth_beamwidth": formula.azimuth_beamwidth,
        "elevation_beamwidth": formula.elevation_beamwidth,
        "element_gain": formula.element_gain,
        "front_to_back": formula.front_to_back,
        "array_gain": formula.array_gain,
    }
    azimuths, elevations = formula.azimuth_steers.tolist(), formula.elevation_steers.tolist()
    beams = [
        {"beam_id": k, "steer_azimuth": azimuths[k % len(azimuths)], "steer_elevation": elevations[k // len(azimuths)],
         **beam}
        for k in range(len(azimuths) * len(elevations))
    ]
    boresight = formula.boresight.tolist()
    sector = {"mechanical_downtilt": formula.mechanical_downtilt, "tx_power": formula.tx_power, "beams": beams}
    sites = [
        {
            "id": site_id,
            "position": [x, y],
            "height": z,
            "sectors": [{"cell_id": site_id * len(boresight) + s, "boresight_azimuth": azimuth, **sector}
                        for s, azimuth in enumerate(boresight)],
        }
        for site_id, (x, y, z) in enumerate(scenario.site_xyz.tolist())
    ]
    b = scenario.buildings
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
    return {
        "sites": len(scenario.site_xyz),
        "cells": len(scenario.site_xyz) * len(scenario.sectors.boresight),
        "beams": scenario.n_beams,
        "buildings": len(scenario.buildings.height),
        "area_m": list(scenario.area),
        "grid_resolution_m": scenario.grid_resolution,
    }
