"""Synthetic urban deployment: city blocks, street-corner sites, grid-of-beams.

The world is a rectangular area covered by a street grid. Sites sit at street
intersections, each with three 120-degree sectors, and every sector carries a
fixed grid-of-beams tiling its azimuth span. Buildings fill the blocks between
streets, so line of sight exists along street corridors only.
"""
from __future__ import annotations

import dataclasses
import functools
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


@dataclass(frozen=True)
class Building:
    """Axis-aligned rectangular footprint with a flat roof height in meters."""

    min_corner: tuple[float, float]
    max_corner: tuple[float, float]
    height: float = bound(gt=0)

    def __post_init__(self):
        check_fields(self)
        if not (self.min_corner[0] < self.max_corner[0] and self.min_corner[1] < self.max_corner[1]):
            raise ValueError(f"building min_corner {self.min_corner} must be < max_corner {self.max_corner}")


@dataclass(frozen=True)
class Beam:
    """One member of a sector grid-of-beams.

    steer_azimuth is relative to the sector boresight; steer_elevation is the
    absolute pointing elevation (negative = below horizon, downtilt included).
    """

    beam_id: int
    steer_azimuth: float
    steer_elevation: float
    azimuth_beamwidth: float = bound(65.0, ge=MIN_BEAMWIDTH_DEG, lt=180)
    elevation_beamwidth: float = bound(65.0, ge=MIN_BEAMWIDTH_DEG, lt=180)
    element_gain: float = 8.0
    front_to_back: float = 30.0
    array_gain: float = 0.0

    def __post_init__(self):
        check_fields(self)

    @property
    def peak_gain(self) -> float:
        return self.element_gain + self.array_gain


@dataclass(frozen=True)
class Sector:
    cell_id: int
    boresight_azimuth: float
    mechanical_downtilt: float = 5.0
    tx_power: float = 30.0
    beams: tuple[Beam, ...] = ()


@dataclass(frozen=True)
class Site:
    id: int
    position: tuple[float, float]
    height: float = bound(10.0, gt=0)
    sectors: tuple[Sector, ...] = ()

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Scenario:
    """Immutable world description. `area` is (width, height) with origin (0, 0)."""

    buildings: tuple[Building, ...]
    sites: tuple[Site, ...]
    carrier_frequency: float
    area: tuple[float, float]
    grid_resolution: float
    rng_seed: int

    @property
    def cells(self) -> tuple[Sector, ...]:
        return tuple(sector for site in self.sites for sector in site.sectors)

    @functools.cached_property
    def arrays(self) -> ScenarioArrays:
        """The scenario's sites, buildings and grid columns as arrays, built on first use."""
        return scenario_arrays(self)


def _read_only(arrays):
    """`arrays` with every array field locked: one scenario's arrays are
    shared by every grid evaluated on it, so a write would reach all later
    blocks."""
    for value in arrays:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return arrays


def _distinct(keys: list) -> tuple[list, list[int]]:
    """Distinct keys in first-seen order, and each key's index into them."""
    index: dict = {}
    inverse = [index.setdefault(key, len(index)) for key in keys]
    return list(index), inverse


class BeamArrays(NamedTuple):
    """The beams of one or more sectors as arrays, one entry per beam, sectors
    in order and beams in sector order.

    The pattern is evaluated once per distinct (steer, width) key: first the
    azimuth keys, each steer the sector boresight plus the beam's steer
    wrapped to (-180, 180], then the elevation keys, flagged in
    is_elevation. Beam j reads azimuth key az_of_beam[j] and elevation key
    el_of_beam[j]; front_to_back, peak_gain and tx_power are per beam.
    """

    steer: np.ndarray
    width: np.ndarray
    is_elevation: np.ndarray
    az_of_beam: np.ndarray
    el_of_beam: np.ndarray
    front_to_back: np.ndarray
    peak_gain: np.ndarray
    tx_power: np.ndarray


def beam_arrays(sectors) -> BeamArrays:
    """The beams of `sectors` as arrays."""
    pairs = [(sector, beam) for sector in sectors for beam in sector.beams]
    boresight = np.array([sector.boresight_azimuth for sector, _ in pairs], dtype=float)
    # wrap_deg works element by element, so one call wraps every beam's steer
    steer = wrap_deg(boresight + np.array([beam.steer_azimuth for _, beam in pairs], dtype=float))
    az_keys, az_of_beam = _distinct(list(zip(steer.tolist(), [beam.azimuth_beamwidth for _, beam in pairs])))
    el_keys, el_of_beam = _distinct([(beam.steer_elevation, beam.elevation_beamwidth) for _, beam in pairs])
    keys = np.array(az_keys + el_keys, dtype=float).reshape(-1, 2)
    return _read_only(BeamArrays(
        steer=np.ascontiguousarray(keys[:, 0]),
        width=np.ascontiguousarray(keys[:, 1]),
        is_elevation=np.arange(len(keys)) >= len(az_keys),
        az_of_beam=np.array(az_of_beam, dtype=np.intp),
        el_of_beam=len(az_keys) + np.array(el_of_beam, dtype=np.intp),
        front_to_back=np.array([beam.front_to_back for _, beam in pairs], dtype=float),
        peak_gain=np.array([beam.peak_gain for _, beam in pairs], dtype=float),
        tx_power=np.array([sector.tx_power for sector, _ in pairs], dtype=float),
    ))


class BuildingArrays(NamedTuple):
    """Building footprints and roof heights: (B, 2) corners and (B,) heights."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    height: np.ndarray

    @classmethod
    def of(cls, buildings) -> BuildingArrays:
        return _read_only(cls(
            min_corner=np.array([b.min_corner for b in buildings], dtype=float).reshape(-1, 2),
            max_corner=np.array([b.max_corner for b in buildings], dtype=float).reshape(-1, 2),
            height=np.array([b.height for b in buildings], dtype=float),
        ))


class ScenarioArrays(NamedTuple):
    """A scenario's fixed data as arrays.

    Sites are rows of site_xyz (x, y, height) and of site_id, and entries
    of site_beams, in scenario order. The RSRP grid has one column per beam:
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


def scenario_arrays(scenario: Scenario) -> ScenarioArrays:
    """`scenario.arrays`, which is built once per scenario."""
    columns = [
        (si, sector.cell_id, beam.beam_id)
        for si, site in enumerate(scenario.sites)
        for sector in site.sectors
        for beam in sector.beams
    ]
    site_col, cell_ids, beam_ids = np.array(columns, dtype=np.int64).reshape(-1, 3).T
    return _read_only(ScenarioArrays(
        site_xyz=np.array([(*site.position, site.height) for site in scenario.sites], dtype=float).reshape(-1, 3),
        site_id=np.array([site.id for site in scenario.sites], dtype=np.uint64),
        site_beams=tuple(beam_arrays(site.sectors) for site in scenario.sites),
        buildings=BuildingArrays.of(scenario.buildings),
        site_col=site_col,
        cell_ids=cell_ids,
        beam_ids=beam_ids,
    ))


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

    @property
    def area(self) -> tuple[float, float]:
        """(width, height) in m: the site grid plus margin_m on every side."""
        return (
            (self.site_cols - 1) * self.col_spacing_m + 2 * self.margin_m,
            (self.site_rows - 1) * self.row_spacing_m + 2 * self.margin_m,
        )


def synthesize_beam_grid(
    sector: Sector,
    count: int,
    elevation_steers: tuple[float, ...] = DEFAULT_ELEVATION_STEERS,
    azimuth_span_deg: float = SECTOR_AZIMUTH_SPAN_DEG,
    azimuth_beamwidth_deg: float = 65.0,
    elevation_beamwidth_deg: float = 65.0,
    element_gain_dbi: float = 8.0,
    front_to_back_db: float = 30.0,
) -> list[Beam]:
    """Tile the sector azimuth span with `count` beams.

    The grid is rows-of-azimuth-steers, one row per elevation steer; azimuth
    centers are evenly spaced so the steers cover the span with half a
    beam-spacing of slack at the edges. count=1 yields a single boresight beam
    pointing along the mechanical downtilt. Array gain is 10*log10(count) on
    top of the element gain.
    """
    if count < 1:
        raise ValueError("beam count must be >= 1")
    array_gain = 10.0 * math.log10(count)
    common = dict(
        azimuth_beamwidth=azimuth_beamwidth_deg,
        elevation_beamwidth=elevation_beamwidth_deg,
        element_gain=element_gain_dbi,
        front_to_back=front_to_back_db,
        array_gain=array_gain,
    )
    if count == 1:
        return [Beam(beam_id=0, steer_azimuth=0.0, steer_elevation=-sector.mechanical_downtilt, **common)]

    n_rows = len(elevation_steers)
    if n_rows < 1 or count % n_rows != 0:
        raise ValueError(
            f"beam count {count} is not factorable into {n_rows} elevation rows"
        )
    n_az = count // n_rows
    spacing = azimuth_span_deg / n_az
    az_steers = [-azimuth_span_deg / 2.0 + spacing * (k + 0.5) for k in range(n_az)]
    beams = []
    for row, el in enumerate(elevation_steers):
        for k, az in enumerate(az_steers):
            beams.append(Beam(beam_id=row * n_az + k, steer_azimuth=az, steer_elevation=el, **common))
    return beams


def _street_block_intervals(centers: list[float], half_width: float, limit: float) -> list[tuple[float, float]]:
    """1-D block intervals left between street bands centered on `centers`."""
    edges = [0.0]
    for c in centers:
        edges.extend((c - half_width, c + half_width))
    edges.append(limit)
    intervals = []
    for lo, hi in zip(edges[::2], edges[1::2]):
        lo, hi = max(lo, 0.0), min(hi, limit)
        if hi - lo > 0:
            intervals.append((lo, hi))
    return intervals


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministically construct the scenario described by `config`.

    Sites sit on the intersections of a street grid; buildings fill every
    rectangular block between streets (and between the outer streets and the
    area border).
    """
    width, height = config.area
    xs = [config.margin_m + c * config.col_spacing_m for c in range(config.site_cols)]
    ys = [config.margin_m + r * config.row_spacing_m for r in range(config.site_rows)]

    buildings: list[Building] = []
    if config.with_buildings:
        half = config.street_width_m / 2.0
        for x_lo, x_hi in _street_block_intervals(xs, half, width):
            for y_lo, y_hi in _street_block_intervals(ys, half, height):
                buildings.append(Building((x_lo, y_lo), (x_hi, y_hi), config.building_height_m))

    sites: list[Site] = []
    for r, y in enumerate(ys):
        for c, x in enumerate(xs):
            site_id = r * config.site_cols + c
            sectors = []
            for s in range(config.sectors_per_site):
                cell_id = site_id * config.sectors_per_site + s
                boresight = wrap_deg(s * 360.0 / config.sectors_per_site)
                sector = Sector(
                    cell_id=cell_id,
                    boresight_azimuth=boresight,
                    mechanical_downtilt=config.mechanical_downtilt_deg,
                    tx_power=config.tx_power_dbm,
                )
                beams = synthesize_beam_grid(
                    sector,
                    config.beams_per_sector,
                    elevation_steers=config.elevation_steers_deg,
                    azimuth_beamwidth_deg=config.azimuth_beamwidth_deg,
                    elevation_beamwidth_deg=config.elevation_beamwidth_deg,
                    element_gain_dbi=config.element_gain_dbi,
                    front_to_back_db=config.front_to_back_db,
                )
                sectors.append(dataclasses.replace(sector, beams=tuple(beams)))
            sites.append(Site(id=site_id, position=(x, y), height=config.site_height_m, sectors=tuple(sectors)))

    scenario = Scenario(
        buildings=tuple(buildings),
        sites=tuple(sites),
        carrier_frequency=config.carrier_frequency_ghz,
        area=(width, height),
        grid_resolution=config.grid_resolution_m,
        rng_seed=config.seed,
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Reject geometrically inconsistent scenarios."""
    if not scenario.sites:
        raise ValueError("scenario has zero sites")
    width, height = scenario.area
    for site in scenario.sites:
        x, y = site.position
        if not (0 <= x <= width and 0 <= y <= height):
            raise ValueError(f"site {site.id} at {site.position} lies outside the area")
        for b in scenario.buildings:
            if b.min_corner[0] < x < b.max_corner[0] and b.min_corner[1] < y < b.max_corner[1]:
                raise ValueError(f"site {site.id} at {site.position} is inside a building")
    for i, a in enumerate(scenario.buildings):
        for b in scenario.buildings[i + 1 :]:
            overlap_x = min(a.max_corner[0], b.max_corner[0]) > max(a.min_corner[0], b.min_corner[0])
            overlap_y = min(a.max_corner[1], b.max_corner[1]) > max(a.min_corner[1], b.min_corner[1])
            if overlap_x and overlap_y:
                raise ValueError(f"buildings {a} and {b} overlap")
    cell_ids = [sector.cell_id for site in scenario.sites for sector in site.sectors]
    if len(cell_ids) != len(set(cell_ids)):
        raise ValueError("cell ids are not globally unique")


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
    for b in scenario.buildings:
        keep &= ~points_in_rect(points, b.min_corner, b.max_corner)
    return points[keep]


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready export of the full scenario for inspection or plotting."""
    doc = dataclasses.asdict(scenario)
    doc["carrier_frequency_ghz"] = doc.pop("carrier_frequency")
    doc["grid_resolution_m"] = doc.pop("grid_resolution")
    return doc


def scenario_summary(scenario: Scenario) -> dict:
    return {
        "sites": len(scenario.sites),
        "cells": len(scenario.cells),
        "beams": sum(len(cell.beams) for cell in scenario.cells),
        "buildings": len(scenario.buildings),
        "area_m": list(scenario.area),
        "grid_resolution_m": scenario.grid_resolution,
    }
