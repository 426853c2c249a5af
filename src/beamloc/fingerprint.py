"""Labeled fingerprint datasets from per-beam RSRP maps.

Pipeline: evaluate the beam grid at every street location, keep the beams
above the noise floor as the location's fingerprint, pick the serving cell as
the owner of the globally strongest beam, keep LoS locations, and flatten
each fingerprint into a fixed-layout feature vector (serving beam IDs and
RSRPs, optional serving cell ID, then one strongest beam per neighbor cell).

All locations live in one columnar `FingerprintTable`, which keeps only
each row's ranking: the ranks a feature layout can read, not the location
x beam matrix they come from. `generate_samples` evaluates the RSRP grid one
block of locations at a time (at most GRID_BLOCK_BYTES of grid) and ranks
each block before the next one is evaluated, so no grid of the whole
lattice exists. `extract_features` builds every feature matrix from the
ranked columns in one vectorized pass; `FingerprintSample` is only a
read-only view of one table row. `save_dataset` writes each dataset as a CSV
plus a JSON sidecar; the program never reads them back.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import logging
import os
import tempfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound, check_fields
from .propagation import PropagationConfig, RsrpGrid, rsrp_grid
from .scenario import MAX_BEAMS_PER_SECTOR, MAX_SECTORS_PER_SITE, MAX_SITES_PER_AXIS, Scenario, enumerate_locations
from .seeds import derive_seed

log = logging.getLogger(__name__)

ID_ENCODINGS = ("numeric", "one_hot")
# the deepest ranks a layout can read; a table keeps no more than these
MAX_SERVING_BEAMS = 8
MAX_NEIGHBOR_CELLS = 4
# `generate_samples` evaluates at most this many bytes of RSRP grid at a time
GRID_BLOCK_BYTES = 1 << 20
# `save_dataset` joins at most this many CSV rows into one string
CSV_BLOCK_ROWS = 512


class NoLocationsError(ValueError):
    """The scenario's location lattice has no point outside the buildings."""


@dataclass(frozen=True)
class FingerprintSample:
    """One location's labeled beam measurement snapshot."""

    location: tuple[float, float]
    rsrp: dict
    serving_cell: int
    los_to_serving: bool

    def __post_init__(self):
        if not self.rsrp:
            raise ValueError("sample rsrp map is empty")
        if self.serving_cell not in {cell for cell, _ in self.rsrp}:
            raise ValueError(f"serving cell {self.serving_cell} absent from rsrp keys")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature layout: how many serving beams, neighbor cells, and ID fields.

    With numeric ID encoding (default) the vector length is
    2*n_serving_beams + (1 if include_serving_cell_id) + 3*n_neighbor_cells.
    One-hot encoding expands every ID field to its configured cardinality.
    """

    n_serving_beams: int = bound(3, ge=1, le=MAX_SERVING_BEAMS)
    n_neighbor_cells: int = bound(0, ge=0, le=MAX_NEIGHBOR_CELLS)
    include_serving_cell_id: bool = True
    id_encoding: str = bound("numeric", choices=ID_ENCODINGS)
    # a one-hot field is never wider than the ids a scenario can hold
    one_hot_cells: int = bound(0, ge=0, le=MAX_SITES_PER_AXIS**2 * MAX_SECTORS_PER_SITE)
    one_hot_beams: int = bound(0, ge=0, le=MAX_BEAMS_PER_SECTOR)

    def __post_init__(self):
        check_fields(self)
        if self.id_encoding == "one_hot" and (self.one_hot_cells < 1 or self.one_hot_beams < 1):
            raise ValueError("one_hot encoding needs one_hot_cells and one_hot_beams cardinalities")


@dataclass(frozen=True, eq=False)
class FingerprintTable(Sequence):
    """Every location's ranked fingerprint as columns, one row per location.

    A row holds its location, its LoS flag (line of sight to the serving
    cell's site) and the ranks `rank_rows` computes: the serving cell, its
    strongest audible beams (up to MAX_SERVING_BEAMS, ranked by RSRP
    descending, ties to the lower beam_id), the strongest other cells (up to
    MAX_NEIGHBOR_CELLS, ranked by their best beam's RSRP, ties to the lower
    cell_id) with that best beam, and how many serving beams and neighbor
    cells the row hears in all. A rank the row does not hear has RSRP -inf.
    The table holds no location x beam matrix, so a sub-table (`take`,
    `filter_los`, slicing) slices these arrays and never ranks again. It is
    a sequence of `FingerprintSample` rows built on demand; a row's sample
    holds its ranked audible beams only: the serving cell's strongest beams
    and each ranked neighbor cell's best beam.
    """

    locations: np.ndarray  # (n_rows, 2)
    los: np.ndarray  # (n_rows,)
    serving_cell: np.ndarray  # (n_rows,)
    serving_beam: np.ndarray  # (n_rows, serving ranks)
    serving_rsrp: np.ndarray  # (n_rows, serving ranks)
    neighbor_cell: np.ndarray  # (n_rows, neighbor ranks)
    neighbor_beam: np.ndarray  # (n_rows, neighbor ranks)
    neighbor_rsrp: np.ndarray  # (n_rows, neighbor ranks)
    serving_audible: np.ndarray  # (n_rows,) audible beams of the serving cell
    neighbor_audible: np.ndarray  # (n_rows,) audible cells besides the serving one

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        row = range(len(self))[index]
        cell = int(self.serving_cell[row])
        serving = self.serving_rsrp[row] > -np.inf
        neighbors = self.neighbor_rsrp[row] > -np.inf
        keys = [(cell, beam) for beam in self.serving_beam[row, serving].tolist()]
        keys += zip(self.neighbor_cell[row, neighbors].tolist(), self.neighbor_beam[row, neighbors].tolist())
        values = self.serving_rsrp[row, serving].tolist() + self.neighbor_rsrp[row, neighbors].tolist()
        return FingerprintSample(
            location=tuple(self.locations[row].tolist()),
            rsrp=dict(zip(keys, values)),
            serving_cell=cell,
            los_to_serving=bool(self.los[row]),
        )

    def take(self, rows) -> FingerprintTable:
        """The table restricted to `rows` (indices or a boolean mask), in that order."""
        return FingerprintTable(**{f.name: getattr(self, f.name)[rows] for f in dataclasses.fields(self)})

    @classmethod
    def from_grid(cls, locations, grid: RsrpGrid, noise_floor: float) -> FingerprintTable:
        """Rows of the beams strictly above `noise_floor`; rows hearing none are left out.

        The table is the one place that decides audibility: a beam at or
        below the floor (or NaN) is inaudible. The grid is only read.
        """
        ranked = rank_rows(grid.rsrp, grid.cell_ids, grid.beam_ids, noise_floor)
        # columns are in (cell, beam) order, so this is the serving cell's first column
        site = grid.site_col[np.searchsorted(grid.cell_ids, ranked["serving_cell"])]
        table = cls(
            locations=np.array(locations, dtype=float),
            los=grid.site_los[np.arange(len(site)), site].astype(bool),
            **ranked,
        )
        heard = table.serving_audible > 0
        return table if heard.all() else table.take(heard)


def rank_rows(rsrp, cell_ids, beam_ids, noise_floor: float) -> dict[str, np.ndarray]:
    """The ranked columns of a `FingerprintTable`, one row per row of `rsrp`.

    `rsrp` is a dense (rows, beams) block whose columns are in strictly
    increasing (cell_id, beam_id) order; a beam strictly above `noise_floor`
    is audible. The serving cell is the owner of the row's strongest audible
    beam (ties to the lowest (cell, beam)). A row hearing nothing gets the
    lowest cell and no audible rank. Only one cell's columns are masked at a
    time, so no copy of `rsrp` is made.
    """
    cell_step, beam_step = np.diff(cell_ids), np.diff(beam_ids)
    if not np.all((cell_step > 0) | ((cell_step == 0) & (beam_step > 0))):
        raise ValueError("grid columns must be in strictly increasing (cell_id, beam_id) order")
    n = len(rsrp)
    rows = np.arange(n)
    cells, starts, counts = np.unique(cell_ids, return_index=True, return_counts=True)
    best_col = np.empty((n, len(cells)), dtype=np.int64)
    for pos, (start, count) in enumerate(zip(starts.tolist(), counts.tolist())):
        audible = rsrp[:, start:start + count]
        # first maximum: the lowest beam_id
        best_col[:, pos] = np.where(audible > noise_floor, audible, -np.inf).argmax(axis=1)
    best_col += starts
    best = rsrp[rows[:, None], best_col]
    best = np.where(best > noise_floor, best, -np.inf)
    serving_pos = best.argmax(axis=1)  # first maximum: the lowest cell

    # the serving cell's columns, clipped to the grid; slots past the cell are inaudible
    slots = np.arange(counts.max(initial=0))
    serving_cols = np.minimum(starts[serving_pos][:, None] + slots, len(cell_ids) - 1)
    values = rsrp[rows[:, None], serving_cols]
    in_cell = slots < counts[serving_pos][:, None]
    serving_block = np.where(in_cell & (values > noise_floor), values, -np.inf)
    serving_order = np.argsort(-serving_block, axis=1, kind="stable")[:, :MAX_SERVING_BEAMS]
    best[rows, serving_pos] = -np.inf
    neighbor_order = np.argsort(-best, axis=1, kind="stable")[:, :MAX_NEIGHBOR_CELLS]
    return {
        "serving_cell": cells[serving_pos],
        "serving_beam": beam_ids[np.take_along_axis(serving_cols, serving_order, axis=1)],
        "serving_rsrp": np.take_along_axis(serving_block, serving_order, axis=1),
        "neighbor_cell": cells[neighbor_order],
        "neighbor_beam": beam_ids[np.take_along_axis(best_col, neighbor_order, axis=1)],
        "neighbor_rsrp": np.take_along_axis(best, neighbor_order, axis=1),
        "serving_audible": (serving_block > -np.inf).sum(axis=1),
        "neighbor_audible": (best > -np.inf).sum(axis=1),
    }


def generate_samples(scenario: Scenario, prop_config: PropagationConfig | None = None) -> FingerprintTable:
    """One fingerprint row per street-grid location.

    The fingerprint keeps every beam strictly above the noise floor. Rare
    locations hearing no beam at all (possible with an aggressive floor) are
    dropped and counted in the log. The grid is evaluated on consecutive
    blocks of locations, each at most GRID_BLOCK_BYTES of grid, and each
    block is ranked into table rows before the next is evaluated. A grid
    value depends only on its own location, so the table does not depend
    on the block size.
    """
    prop_config = prop_config or PropagationConfig()
    locations = enumerate_locations(scenario)
    if len(locations) == 0:
        raise NoLocationsError("scenario has no street locations to sample")
    n_beams = len(scenario.arrays.cell_ids)
    step = max(1, GRID_BLOCK_BYTES // (max(1, n_beams) * np.dtype(float).itemsize))
    blocks = [
        FingerprintTable.from_grid(block, rsrp_grid(scenario, block, prop_config), prop_config.noise_floor)
        for block in (locations[start:start + step] for start in range(0, len(locations), step))
    ]
    table = FingerprintTable(**{
        f.name: np.concatenate([getattr(block, f.name) for block in blocks])
        for f in dataclasses.fields(FingerprintTable)
    })
    if len(table) < len(locations):
        log.warning("dropped %d locations with no beam above the noise floor", len(locations) - len(table))
    return table


def filter_los(table: FingerprintTable) -> FingerprintTable:
    """Keep exactly the rows with line of sight to their serving cell."""
    return table.take(table.los)


def _layout_fields(config: FeatureConfig) -> list[tuple[str, str | None, str, int]]:
    """(name, id kind, ranked source, rank) of every feature field, in column order.

    The id kind is "beam" or "cell" for an ID field, which one-hot encoding
    expands, and None for an RSRP. Each field reads column `rank` of the
    table's ranked column named `source`, or the whole column if `rank` is None.
    """
    fields = [(f"serving_beam_id_{r + 1}", "beam", "serving_beam", r) for r in range(config.n_serving_beams)]
    fields += [(f"serving_rsrp_{r + 1}", None, "serving_rsrp", r) for r in range(config.n_serving_beams)]
    if config.include_serving_cell_id:
        fields.append(("serving_cell_id", "cell", "serving_cell", None))
    for r in range(config.n_neighbor_cells):
        fields += [
            (f"neighbor{r + 1}_cell_id", "cell", "neighbor_cell", r),
            (f"neighbor{r + 1}_beam_id", "beam", "neighbor_beam", r),
            (f"neighbor{r + 1}_rsrp", None, "neighbor_rsrp", r),
        ]
    return fields


def _one_hot_dim(kind: str | None, config: FeatureConfig) -> int | None:
    """Width of a one-hot ID field; None for fields kept as one numeric column."""
    if kind is None or config.id_encoding == "numeric":
        return None
    return config.one_hot_beams if kind == "beam" else config.one_hot_cells


def extract_features_layout(config: FeatureConfig) -> tuple[str, ...]:
    """Column names for the configured layout, without needing a sample."""
    layout: list[str] = []
    for name, kind, _, _ in _layout_fields(config):
        dim = _one_hot_dim(kind, config)
        layout += [name] if dim is None else [f"{name}[{k}]" for k in range(dim)]
    return tuple(layout)


def _field_values(table: FingerprintTable, source: str, rank: int | None) -> np.ndarray:
    values = getattr(table, source)
    return values if rank is None else values[:, rank]


def _encode(table: FingerprintTable, config: FeatureConfig) -> np.ndarray:
    """Feature matrix, one row per table row."""
    if config.id_encoding == "one_hot":
        _check_one_hot(table, config)
    columns = []
    for _, kind, source, rank in _layout_fields(config):
        values = _field_values(table, source, rank)
        dim = _one_hot_dim(kind, config)
        if dim is None:
            columns.append(values.astype(float)[:, None])
        else:
            columns.append((values[:, None] == np.arange(dim)).astype(float))
    return np.hstack(columns)


def _check_one_hot(table: FingerprintTable, config: FeatureConfig) -> None:
    """Raise for the first ID (row-major, in layout order) outside its one-hot width."""
    ids = [(name, _field_values(table, source, rank), _one_hot_dim(kind, config))
           for name, kind, source, rank in _layout_fields(config) if kind is not None]
    bad = np.column_stack([(values < 0) | (values >= dim) for _, values, dim in ids])
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        name, values, dim = ids[int(np.argmax(bad[row]))]
        raise ValueError(f"{name}={values[row]} outside one-hot cardinality {dim}")


def extract_features(table: FingerprintTable, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """(features, kept row indices, dropped-row counts by reason) in one pass.

    Each row's serving beams are ranked by RSRP descending (ties to the
    lower beam_id); its neighbor cells by their strongest beam's RSRP
    descending (ties to the lower cell_id), each contributing that single
    beam (ties to the lower beam_id). Rows with fewer audible serving beams
    or neighbor cells than the layout needs are dropped and counted under
    "insufficient_serving_beams" or "insufficient_neighbors"; a one-hot ID
    outside its width raises ValueError.
    """
    if len(table) == 0:
        return np.zeros((0, len(extract_features_layout(config)))), np.zeros(0, dtype=np.int64), {}
    short_serving = table.serving_audible < config.n_serving_beams
    short_neighbors = ~short_serving & (table.neighbor_audible < config.n_neighbor_cells)
    reasons = [(reason, mask) for reason, mask in (
        ("insufficient_serving_beams", short_serving),
        ("insufficient_neighbors", short_neighbors),
    ) if mask.any()]
    dropped = {reason: int(mask.sum()) for reason, mask in sorted(reasons, key=lambda item: np.argmax(item[1]))}
    kept = np.flatnonzero(~(short_serving | short_neighbors))
    if len(kept) == 0:
        return np.zeros((0, len(extract_features_layout(config)))), kept, dropped
    return _encode(table.take(kept), config), kept, dropped


@dataclass
class Dataset:
    """Unnormalized features plus labels, split indices, and train-row stats."""

    features: np.ndarray
    labels: np.ndarray
    layout: tuple[str, ...]
    train_idx: np.ndarray
    test_idx: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.features)


def build_dataset(
    table: FingerprintTable,
    config: FeatureConfig,
    split_fraction: float = 0.9,
    seed: int = 0,
) -> Dataset:
    """Extract features, split train/test, and attach train-row norm stats.

    Rows that cannot fill the layout are dropped; per-reason counts go to
    the log and the dataset provenance. Stats use the population std and are
    computed on training rows only.
    """
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split_fraction must be in (0, 1)")
    features, kept, dropped = extract_features(table, config)
    if dropped:
        log.warning("dropped samples during feature extraction: %s", dropped)
    if len(features) < 10:
        raise ValueError(f"need at least 10 usable samples, got {len(features)}")

    labels_arr = table.locations[kept]
    layout = extract_features_layout(config)

    n = len(features)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = min(max(int(n * split_fraction), 1), n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    mean = features[train_idx].mean(axis=0)
    std = features[train_idx].std(axis=0)
    return Dataset(
        features=features,
        labels=labels_arr,
        layout=layout,
        train_idx=train_idx,
        test_idx=test_idx,
        mean=mean,
        std=std,
        provenance={
            "feature_config": dataclasses.asdict(config),
            "split_fraction": split_fraction,
            "seed": seed,
            "dropped": dropped,
        },
    )


def _safe_std(std: np.ndarray) -> np.ndarray:
    return np.where(std == 0.0, 1.0, std)


def normalize(dataset: Dataset, rows: np.ndarray) -> np.ndarray:
    """(x - mean) / std per column with train-derived stats; std 0 divides by 1."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(dataset.mean):
        raise ValueError(f"expected {len(dataset.mean)} columns, got {rows.shape[1]}")
    return (rows - dataset.mean) / _safe_std(dataset.std)


def partition_by_cell(
    table: FingerprintTable,
    config: FeatureConfig,
    split_fraction: float = 0.9,
    seed: int = 0,
    min_size: int = 50,
) -> dict[int, Dataset]:
    """Group rows by serving cell and build one dataset per group.

    The serving-cell ID feature is constant within a group, so it is removed
    from the per-cell layouts. Groups smaller than min_size are skipped and
    logged; a kept group that cannot build its dataset raises ValueError
    naming the cell. Each group gets its own seeded split and normalization
    stats.
    """
    config = dataclasses.replace(config, include_serving_cell_id=False)
    serving = table.serving_cell

    datasets: dict[int, Dataset] = {}
    for cell_id in np.unique(serving).tolist():
        members = np.flatnonzero(serving == cell_id)
        if len(members) < min_size:
            log.warning("skipping cell %d: %d samples < min_size %d", cell_id, len(members), min_size)
            continue
        try:
            datasets[cell_id] = build_dataset(
                table.take(members), config, split_fraction, derive_seed(seed, "cell", cell_id)
            )
        except ValueError as err:
            raise ValueError(f"cell {cell_id}: {err}") from err
    return datasets


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write via a temp file + rename so readers never see partial output.

    `text` is one string or an iterable of strings written in order.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, csv_path: str, *, column_text: dict[bytes, list[str]] | None = None) -> None:
    """CSV of unnormalized features + labels, JSON sidecar with everything else.

    The body holds every float as its repr, so a reload is bit-exact, in the
    bytes `csv.writer` would write: repr fields, "," between them, "\r\n"
    after each row. Each column is formatted with one repr per distinct bit
    pattern, and its text is kept in `column_text` under the column's bytes;
    datasets saved with one dict format a column they share once. The rows
    are joined and written CSV_BLOCK_ROWS at a time.
    """
    if column_text is None:
        column_text = {}
    buf = io.StringIO()
    csv.writer(buf).writerow(list(dataset.layout) + ["label_x", "label_y"])
    columns = []
    for column in np.vstack([dataset.features.T, dataset.labels.T]).astype(float, copy=False):
        key = column.tobytes()
        if key not in column_text:
            bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
            column_text[key] = text[inverse].tolist()
        columns.append(column_text[key])
    rows = zip(*columns)
    blocks = (
        "".join(",".join(row) + "\r\n" for row in itertools.islice(rows, CSV_BLOCK_ROWS))
        for _ in range(0, len(dataset.labels), CSV_BLOCK_ROWS)
    )
    atomic_write_text(csv_path, itertools.chain([buf.getvalue()], blocks))
    sidecar = {
        "layout": list(dataset.layout),
        "train_idx": dataset.train_idx.tolist(),
        "test_idx": dataset.test_idx.tolist(),
        "mean": [repr(float(v)) for v in dataset.mean],
        "std": [repr(float(v)) for v in dataset.std],
        "provenance": dataset.provenance,
    }
    atomic_write_text(_sidecar_path(csv_path), json.dumps(sidecar, indent=2, sort_keys=True))


def _sidecar_path(csv_path: str) -> str:
    return str(csv_path) + ".meta.json"
