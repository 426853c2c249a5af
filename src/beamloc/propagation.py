"""Per-beam received power over the scenario grid.

Direct-ray analytic model: geometric line-of-sight against building
footprints, log-distance path loss at the carrier frequency, and a parabolic
(in dB) directional beam pattern. Optional lognormal shadow fading is drawn
from a stateless per-(location, site) hash so results never depend on
evaluation order or parallelism. Link geometry, LoS and shadow fading are
evaluated for every site at once and beam gain one site's beams at a time,
from the scenario's one sector formula (`Scenario.sectors`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import segment_rect_crossing, wrap_deg
from .bounds import bound, check_fields
from .scenario import MAX_DB, MAX_LENGTH_M, BuildingArrays, Scenario, SectorFormula
from .seeds import derive_seed

DEFAULT_UE_HEIGHT = 1.5
FREE_SPACE_CONST_DB = -147.55  # 20*log10(4*pi/c)

PROPAGATION_MODELS = ("free_space", "umi_los_nlos")


@dataclass(frozen=True)
class PropagationConfig:
    """Path-loss model and receiver settings.

    `free_space` is Friis loss, 20*log10(4*pi*d*f/c). `umi_los_nlos` is the
    same free-space loss plus 10*n*log10(d) on links without line of sight,
    with n = `nlos_extra_loss_exponent`; it is not the 3GPP TR 38.901 UMi
    street-canyon model, only named after the urban-micro setting.
    `noise_floor` is read by the fingerprint table, not by `rsrp_grid`.
    """

    model: str = bound("free_space", choices=PROPAGATION_MODELS)
    # a path-loss exponent beyond 10 has no measured counterpart
    nlos_extra_loss_exponent: float = bound(2.0, ge=0, le=10)
    shadow_fading_sigma: float = bound(0.0, ge=0, le=MAX_DB)
    noise_floor: float = bound(-140.0, ge=-MAX_DB, le=MAX_DB)
    ue_height: float = bound(DEFAULT_UE_HEIGHT, gt=0, le=MAX_LENGTH_M)

    def __post_init__(self):
        check_fields(self)


def _blocked_mask(p, targets: np.ndarray, target_height: float, buildings: BuildingArrays) -> np.ndarray:
    """True where the 3-D segment from p to (targets[i], target_height) is blocked.

    p is one (x, y, z) start point, giving an (N,) mask, or an (S, 1, 3)
    array of them, giving (S, N). A building blocks a segment iff the 2-D
    footprint crossing is non-empty (open interior, so edge grazing does not
    block) and the building height exceeds the segment's lowest interpolated
    height over the crossing.
    """
    p = np.asarray(p, dtype=float)
    targets = np.asarray(targets, dtype=float)
    # one leading axis per building, then one axis per segment axis
    axes = (1,) * len(np.broadcast_shapes(p.shape[:-1], targets.shape[:-1]))
    hit, t_enter, t_exit = segment_rect_crossing(
        p[..., :2], targets, buildings.min_corner.reshape(-1, *axes, 2), buildings.max_corner.reshape(-1, *axes, 2)
    )
    z0, z1 = p[..., 2], target_height
    min_z = np.minimum(z0 + t_enter * (z1 - z0), z0 + t_exit * (z1 - z0))
    return np.logical_or.reduce(hit & (buildings.height.reshape(-1, *axes) > min_z), axis=0)


def _link_arrays(locations: np.ndarray, scenario: Scenario, config: PropagationConfig):
    """Direct-path geometry and LoS from every site of `scenario` to every
    location, as (sites, N) arrays with rows in scenario order."""
    locations = np.asarray(locations, dtype=float)
    p = scenario.site_xyz[:, None]
    dx = locations[:, 0] - p[..., 0]
    dy = locations[:, 1] - p[..., 1]
    dz = config.ue_height - p[..., 2]
    d2d = np.hypot(dx, dy)
    d3d = np.sqrt(d2d * d2d + dz * dz)
    azimuth = np.degrees(np.arctan2(dy, dx))
    elevation = np.degrees(np.arctan2(dz, d2d))
    los = ~_blocked_mask(p, locations, config.ue_height, scenario.buildings)
    return d3d, azimuth, elevation, los


def path_loss(d3d: np.ndarray, los: np.ndarray, freq_ghz: float, config: PropagationConfig) -> np.ndarray:
    """Path loss in dB per link, distances clamped at 1 m.

    Free-space loss at `freq_ghz`; under `umi_los_nlos` a link whose `los`
    entry is False adds 10*n*log10(d), n = `nlos_extra_loss_exponent`
    (a distance-exponent penalty, not the 3GPP TR 38.901 UMi formulas).
    """
    d = np.maximum(np.asarray(d3d, dtype=float), 1.0)
    loss = 20.0 * np.log10(d) + 20.0 * np.log10(freq_ghz * 1e9) + FREE_SPACE_CONST_DB
    if config.model == "umi_los_nlos":
        extra = 10.0 * config.nlos_extra_loss_exponent * np.log10(d)
        loss = loss + np.where(los, 0.0, extra)
    return loss


def _pattern_term(offset, beamwidth):
    """Quadratic rolloff 12*(|wrap(offset)| / beamwidth)**2 in dB along one axis."""
    return 12.0 * (np.abs(wrap_deg(np.asarray(offset, dtype=float))) / beamwidth) ** 2


_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(x) -> np.ndarray:
    # wrapping uint64 arithmetic is intended here
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=np.uint64) + _MIX_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX_M1
        z = (z ^ (z >> np.uint64(27))) * _MIX_M2
        return z ^ (z >> np.uint64(31))


def _hash_uniform(key: np.ndarray, salt: int) -> np.ndarray:
    """Map uint64 keys to uniforms in (0, 1)."""
    h = _mix64(key ^ np.uint64(salt))
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.maximum(u, 2.0**-53)


def shadow_fading(seed: int, site_id, locations: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian shadow fading in dB, one draw per (location, site).

    Stateless: the draw is a pure hash of (seed, site_id, exact coordinates),
    so any subset of locations evaluated in any order or process yields the
    same values. Shared across all beams of the site, which preserves
    relative beam rankings while perturbing absolute levels. One site id
    gives (N,) draws; an (S, 1) array of ids gives (S, N), one row per site.
    """
    locations = np.asarray(locations, dtype=float)
    if sigma == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(site_id), (len(locations),)))
    xb = np.ascontiguousarray(locations[:, 0]).view(np.uint64)
    yb = np.ascontiguousarray(locations[:, 1]).view(np.uint64)
    key = _mix64(np.uint64(seed))
    key = _mix64(key ^ np.asarray(site_id, dtype=np.uint64))
    key = _mix64(key ^ xb)
    key = _mix64(key ^ yb)
    u1 = _hash_uniform(key, 0x5EED)
    u2 = _hash_uniform(key, 0xFACE)
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return sigma * normal


@dataclass(frozen=True)
class RsrpGrid:
    """Per-location, per-beam raw RSRP with the column identities and LoS map.

    rsrp has shape (n_locations, n_beams) and holds every beam's RSRP, however
    weak; which beams are audible is decided when the grid becomes a
    fingerprint table. Column j belongs to beam beam_ids[j] of cell
    cell_ids[j], on the site in column site_col[j] of site_los, which has
    shape (n_locations, n_sites) with columns ordered like the scenario's sites.
    """

    rsrp: np.ndarray
    cell_ids: np.ndarray  # (n_beams,)
    beam_ids: np.ndarray  # (n_beams,)
    site_col: np.ndarray  # (n_beams,)
    site_los: np.ndarray


def _beam_block(sectors: SectorFormula, azimuth, elevation, loss, shadow, out: np.ndarray) -> None:
    """Write the (locations, beams) RSRP block of one site's beams into `out`.

    The site's links give the per-location azimuth, elevation, loss and
    shadow. A beam's gain is the peak gain minus the summed azimuth and
    elevation rolloff, floored at front_to_back below the peak. The azimuth
    rolloff is computed once per (sector, column), its steer the sector's
    boresight plus the column's steer wrapped to (-180, 180], and the
    elevation rolloff once per row; broadcasting adds them over
    (locations, sectors, rows, columns), in the per-element order of a
    beam-by-beam evaluation on wrapped offsets. The azimuth offset is
    wrapped once: wrap_deg returns its own outputs unchanged, bit for bit,
    so a second wrap would change nothing.
    """
    n_sectors, n_az = len(sectors.boresight), len(sectors.azimuth_steers)
    steer = wrap_deg(sectors.boresight[:, None] + sectors.azimuth_steers).ravel()
    azimuth_term = _pattern_term(azimuth[:, None] - steer, sectors.azimuth_beamwidth)
    elevation_term = _pattern_term(elevation[:, None] - sectors.elevation_steers, sectors.elevation_beamwidth)
    rolloff = azimuth_term.reshape(len(azimuth), n_sectors, 1, n_az) + elevation_term[:, None, :, None]
    rolloff = rolloff.reshape(len(azimuth), -1)
    np.minimum(rolloff, sectors.front_to_back, out=rolloff)
    gain = np.subtract(sectors.element_gain + sectors.array_gain, rolloff, out=rolloff)
    # composed in the contiguous buffer: only the last pass writes the
    # strided column slice `out`, which is slower to update in place
    rsrp = np.add(sectors.tx_power, gain, out=gain)
    rsrp -= loss[:, None]
    np.add(rsrp, shadow[:, None], out=out)


def rsrp_grid(scenario: Scenario, locations: np.ndarray, config: PropagationConfig | None = None) -> RsrpGrid:
    """Evaluate every beam at every location.

    Column order is sites in scenario order, sectors in site order, beams in
    sector order. Deterministic for a fixed (scenario, locations, config).
    Link geometry, LoS, path loss and shadow fading are (sites, locations)
    arrays, one pass each for every site at once; the pattern is evaluated
    one site at a time into that site's columns of the grid.
    """
    config = config or PropagationConfig()
    locations = np.asarray(locations, dtype=float)
    formula = scenario.sectors
    n_sites, n_sectors = len(scenario.site_xyz), len(formula.boresight)
    count = len(formula.azimuth_steers) * len(formula.elevation_steers)
    if not n_sites * n_sectors * count:
        raise ValueError("scenario has no beams")
    d3d, azimuth, elevation, los = _link_arrays(locations, scenario, config)
    loss = path_loss(d3d, los, scenario.carrier_frequency, config)
    shadow_seed = derive_seed(scenario.rng_seed, "shadow")
    shadow = shadow_fading(shadow_seed, np.arange(n_sites, dtype=np.uint64)[:, None], locations,
                           config.shadow_fading_sigma)
    width = n_sectors * count
    rsrp = np.empty((len(locations), n_sites * width))
    for si in range(n_sites):
        _beam_block(formula, azimuth[si], elevation[si], loss[si], shadow[si], rsrp[:, si * width:(si + 1) * width])
    return RsrpGrid(
        rsrp=rsrp,
        cell_ids=np.repeat(np.arange(n_sites * n_sectors, dtype=np.int64), count),
        beam_ids=np.tile(np.arange(count, dtype=np.int64), n_sites * n_sectors),
        site_col=np.repeat(np.arange(n_sites, dtype=np.int64), width),
        site_los=np.ascontiguousarray(los.T),
    )
