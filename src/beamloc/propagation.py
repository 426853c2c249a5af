"""Per-beam received power over the scenario grid.

Direct-ray analytic model: geometric line-of-sight against building
footprints, log-distance path loss at the carrier frequency, and a parabolic
(in dB) directional beam pattern. Optional lognormal shadow fading is drawn
from a stateless per-(location, site) hash so results never depend on
evaluation order or parallelism. LoS and beam gain exist only in vectorized
form: one site's links, one sector's beams at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import segment_rect_crossing, wrap_deg
from .scenario import Scenario, Sector, Site, check_finite_fields
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

    model: str = "free_space"
    nlos_extra_loss_exponent: float = 2.0
    shadow_fading_sigma: float = 0.0
    noise_floor: float = -140.0
    ue_height: float = DEFAULT_UE_HEIGHT

    def __post_init__(self):
        if self.model not in PROPAGATION_MODELS:
            raise ValueError(f"unknown propagation model {self.model!r}, expected one of {PROPAGATION_MODELS}")
        if self.shadow_fading_sigma < 0:
            raise ValueError("shadow_fading_sigma must be >= 0")
        if self.nlos_extra_loss_exponent < 0:
            raise ValueError(f"nlos_extra_loss_exponent must be >= 0, got {self.nlos_extra_loss_exponent}")
        if self.ue_height <= 0:
            raise ValueError(f"ue_height must be > 0, got {self.ue_height}")
        check_finite_fields(self)


def _blocked_mask(p: tuple[float, float, float], targets: np.ndarray, target_height: float, buildings) -> np.ndarray:
    """True where the 3-D segment from p to (targets[i], target_height) is blocked.

    A building blocks a segment iff the 2-D footprint crossing is non-empty
    (open interior, so edge grazing does not block) and the building height
    exceeds the segment's lowest interpolated height over the crossing.
    """
    min_corners = np.array([b.min_corner for b in buildings], dtype=float).reshape(-1, 1, 2)
    max_corners = np.array([b.max_corner for b in buildings], dtype=float).reshape(-1, 1, 2)
    heights = np.array([b.height for b in buildings], dtype=float).reshape(-1, 1)
    hit, t_enter, t_exit = segment_rect_crossing(p[:2], targets, min_corners, max_corners)
    z0, z1 = p[2], target_height
    min_z = np.minimum(z0 + t_enter * (z1 - z0), z0 + t_exit * (z1 - z0))
    return np.logical_or.reduce(hit & (heights > min_z), axis=0)


def _site_link_arrays(site: Site, locations: np.ndarray, scenario: Scenario, config: PropagationConfig):
    """Vectorized direct-path geometry from one site to every location."""
    locations = np.asarray(locations, dtype=float)
    sx, sy = site.position
    dx = locations[:, 0] - sx
    dy = locations[:, 1] - sy
    dz = config.ue_height - site.height
    d2d = np.hypot(dx, dy)
    d3d = np.sqrt(d2d * d2d + dz * dz)
    azimuth = np.degrees(np.arctan2(dy, dx))
    elevation = np.degrees(np.arctan2(dz, d2d))
    los = ~_blocked_mask((sx, sy, site.height), locations, config.ue_height, scenario.buildings)
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


def shadow_fading(seed: int, site_id: int, locations: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian shadow fading in dB, one draw per (location, site).

    Stateless: the draw is a pure hash of (seed, site_id, exact coordinates),
    so any subset of locations evaluated in any order or process yields the
    same values. Shared across all beams of the site, which preserves
    relative beam rankings while perturbing absolute levels.
    """
    locations = np.asarray(locations, dtype=float)
    if sigma == 0.0:
        return np.zeros(len(locations))
    xb = np.ascontiguousarray(locations[:, 0]).view(np.uint64)
    yb = np.ascontiguousarray(locations[:, 1]).view(np.uint64)
    key = _mix64(np.uint64(seed))
    key = _mix64(key ^ np.uint64(site_id))
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
    shape (n_locations, n_sites) with columns ordered like scenario.sites.
    """

    rsrp: np.ndarray
    cell_ids: np.ndarray  # (n_beams,)
    beam_ids: np.ndarray  # (n_beams,)
    site_col: np.ndarray  # (n_beams,)
    site_los: np.ndarray


def _distinct(keys: list) -> tuple[list, list[int]]:
    """Distinct keys in first-seen order, and each key's index into them."""
    index: dict = {}
    inverse = [index.setdefault(key, len(index)) for key in keys]
    return list(index), inverse


def _sector_block(sector: Sector, azimuth, elevation, loss, shadow, out: np.ndarray) -> None:
    """Write the sector's (locations, beams) RSRP block into `out`.

    A beam's gain is its peak gain minus the summed azimuth and elevation
    rolloff, floored at front_to_back below the peak. Each rolloff term is
    computed once per distinct (steer, beamwidth) pair and gathered per
    beam, in the per-element order of a beam-by-beam evaluation on wrapped
    offsets. The azimuth offset is wrapped once: wrap_deg returns its own
    outputs unchanged, bit for bit, so a second wrap would change nothing.
    """
    beams = sector.beams
    # wrap_deg works element by element, so one call wraps every beam's steer
    steer = wrap_deg(sector.boresight_azimuth + np.array([b.steer_azimuth for b in beams], dtype=float))
    az_keys, az_of_beam = _distinct(list(zip(steer.tolist(), [b.azimuth_beamwidth for b in beams])))
    el_keys, el_of_beam = _distinct([(b.steer_elevation, b.elevation_beamwidth) for b in beams])
    az_steer, az_width = np.array(az_keys, dtype=float).T
    el_steer, el_width = np.array(el_keys, dtype=float).T
    az_term = _pattern_term(azimuth[:, None] - az_steer, az_width)
    el_term = _pattern_term(elevation[:, None] - el_steer, el_width)

    rolloff = az_term[:, az_of_beam]
    rolloff += el_term[:, el_of_beam]
    np.minimum(rolloff, np.array([b.front_to_back for b in beams], dtype=float), out=rolloff)
    gain = np.subtract(np.array([b.peak_gain for b in beams], dtype=float), rolloff, out=rolloff)
    # composed in the contiguous buffer: only the last pass writes the
    # strided column slice `out`, which is slower to update in place
    rsrp = np.add(sector.tx_power, gain, out=gain)
    rsrp -= loss[:, None]
    np.add(rsrp, shadow[:, None], out=out)


def rsrp_grid(scenario: Scenario, locations: np.ndarray, config: PropagationConfig | None = None) -> RsrpGrid:
    """Evaluate every beam at every location.

    Column order is sites in scenario order, sectors in site order, beams in
    sector order. Deterministic for a fixed (scenario, locations, config).
    """
    config = config or PropagationConfig()
    locations = np.asarray(locations, dtype=float)
    shadow_seed = derive_seed(scenario.rng_seed, "shadow")
    columns = [
        (si, sector.cell_id, beam.beam_id)
        for si, site in enumerate(scenario.sites)
        for sector in site.sectors
        for beam in sector.beams
    ]
    if not columns:
        raise ValueError("scenario has no beams")
    site_col, cell_ids, beam_ids = np.array(columns, dtype=np.int64).T
    rsrp = np.empty((len(locations), len(columns)))
    site_los = np.zeros((len(locations), len(scenario.sites)), dtype=bool)
    column = 0
    for si, site in enumerate(scenario.sites):
        d3d, azimuth, elevation, los = _site_link_arrays(site, locations, scenario, config)
        site_los[:, si] = los
        loss = path_loss(d3d, los, scenario.carrier_frequency, config)
        shadow = shadow_fading(shadow_seed, site.id, locations, config.shadow_fading_sigma)
        for sector in site.sectors:
            if not sector.beams:
                continue
            end = column + len(sector.beams)
            _sector_block(sector, azimuth, elevation, loss, shadow, rsrp[:, column:end])
            column = end
    return RsrpGrid(rsrp=rsrp, cell_ids=cell_ids, beam_ids=beam_ids, site_col=site_col, site_los=site_los)
