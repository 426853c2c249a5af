"""Labeled fingerprint datasets from per-beam RSRP maps.

Pipeline: evaluate the beam grid at every street location, keep the beams
above the noise floor as the location's fingerprint, pick the serving cell as
the owner of the globally strongest beam, keep LoS locations, and flatten
each fingerprint into a fixed-layout feature vector (serving beam IDs and
RSRPs, optional serving cell ID, then one strongest beam per neighbor cell).

All locations live in one columnar `FingerprintTable`, and
`extract_features` builds every feature matrix from it in one vectorized
pass over the table's ranking, which each table computes once and every
layout reuses; `FingerprintSample` is only a read-only view of one table row.
The table is built in the RSRP grid's own buffer and LoS filtering moves rows
within it, so a run allocates one location x beam matrix.
`save_dataset` writes each dataset as a CSV plus a JSON sidecar; the program
never reads them back.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .propagation import PropagationConfig, RsrpGrid, rsrp_grid
from .scenario import Scenario, enumerate_locations
from .seeds import derive_seed

log = logging.getLogger(__name__)

ID_ENCODINGS = ("numeric", "one_hot")
# the deepest ranks a layout can read; `_ranking` keeps no more than these
MAX_SERVING_BEAMS = 8
MAX_NEIGHBOR_CELLS = 4
# `_move_to_front` moves about this many bytes of an array's rows at a time
MOVE_BLOCK_BYTES = 1 << 20


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

    n_serving_beams: int = 3
    n_neighbor_cells: int = 0
    include_serving_cell_id: bool = True
    id_encoding: str = "numeric"
    one_hot_cells: int = 0
    one_hot_beams: int = 0

    def __post_init__(self):
        if not 1 <= self.n_serving_beams <= MAX_SERVING_BEAMS:
            raise ValueError(f"n_serving_beams must be in 1..{MAX_SERVING_BEAMS}")
        if not 0 <= self.n_neighbor_cells <= MAX_NEIGHBOR_CELLS:
            raise ValueError(f"n_neighbor_cells must be in 0..{MAX_NEIGHBOR_CELLS}")
        if self.id_encoding not in ID_ENCODINGS:
            raise ValueError(f"id_encoding must be one of {ID_ENCODINGS}")
        if self.id_encoding == "one_hot" and (self.one_hot_cells < 1 or self.one_hot_beams < 1):
            raise ValueError("one_hot encoding needs one_hot_cells and one_hot_beams cardinalities")


@dataclass(frozen=True, eq=False)
class FingerprintTable(Sequence):
    """Every location's fingerprint as columns, one row per location.

    `rsrp` is dense, (n_rows, n_beams), with columns in (cell_id, beam_id)
    order and -inf where a beam is inaudible. `serving_col` is each row's
    strongest serving-cell column: for generated tables the row-wise argmax,
    so ties go to the lowest (cell, beam). The table is a sequence of
    `FingerprintSample` rows built on demand. A table's columns are never
    written while it is in use: the first `extract_features` call ranks every
    row once (`_ranking`), and later layouts on the same table reuse that
    ranking. `from_grid` and `filter_los` consume their input instead of
    copying it, and the input is not read again.
    """

    locations: np.ndarray  # (n_rows, 2)
    rsrp: np.ndarray  # (n_rows, n_beams)
    cell_ids: np.ndarray  # (n_beams,)
    beam_ids: np.ndarray  # (n_beams,)
    serving_col: np.ndarray  # (n_rows,)
    los: np.ndarray  # (n_rows,) line of sight to the serving cell's site

    def __post_init__(self):
        cell_step, beam_step = np.diff(self.cell_ids), np.diff(self.beam_ids)
        if not np.all((cell_step > 0) | ((cell_step == 0) & (beam_step > 0))):
            raise ValueError("table columns must be in strictly increasing (cell_id, beam_id) order")

    @property
    def serving_cell(self) -> np.ndarray:
        return self.cell_ids[self.serving_col]

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        row = range(len(self))[index]
        cols = np.flatnonzero(self.rsrp[row] > -np.inf)
        keys = zip(self.cell_ids[cols].tolist(), self.beam_ids[cols].tolist())
        return FingerprintSample(
            location=tuple(self.locations[row].tolist()),
            rsrp=dict(zip(keys, self.rsrp[row, cols].tolist())),
            serving_cell=int(self.cell_ids[self.serving_col[row]]),
            los_to_serving=bool(self.los[row]),
        )

    def take(self, rows) -> FingerprintTable:
        """The table restricted to `rows` (indices or a boolean mask), in that order.

        The new table is built through `__init__`, so it ranks its own rows.
        """
        return dataclasses.replace(
            self,
            locations=self.locations[rows],
            rsrp=self.rsrp[rows],
            serving_col=self.serving_col[rows],
            los=self.los[rows],
        )

    @classmethod
    def from_grid(cls, locations, grid: RsrpGrid, noise_floor: float) -> FingerprintTable:
        """Rows of the beams strictly above `noise_floor`; rows hearing none are left out.

        The table is the one place that decides audibility: a beam at or
        below the floor (or NaN) becomes -inf here. Consumes `grid`: its
        `rsrp` is floored in place and becomes the table's `rsrp` (rows
        hearing none are moved out in place too), so the grid's matrix is
        the only location x beam matrix. Grid columns must already be in
        (cell_id, beam_id) order, as `rsrp_grid` writes them; the table
        rejects any other order.
        """
        rsrp = grid.rsrp
        mask = rsrp > noise_floor  # one bool buffer for both passes below
        np.copyto(rsrp, -np.inf, where=np.logical_not(mask, out=mask))
        # no NaN is left, so the first column equal to the row maximum is the
        # row's argmax; a row hearing nothing is all -inf and gets column 0
        strongest = rsrp.max(axis=1)
        serving_col = np.equal(rsrp, strongest[:, None], out=mask).argmax(axis=1)
        table = cls(
            locations=np.array(locations, dtype=float),
            rsrp=rsrp,
            cell_ids=grid.cell_ids,
            beam_ids=grid.beam_ids,
            serving_col=serving_col,
            los=grid.site_los[np.arange(len(rsrp)), grid.site_col[serving_col]].astype(bool),
        )
        heard = strongest > -np.inf
        return table if heard.all() else _keep_rows(table, np.flatnonzero(heard))

    @cached_property
    def _ranking(self) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """(ranked arrays, audible serving beams, audible neighbor cells) of every row.

        The ranked (n_rows, rank) arrays, in the order `extract_features`
        describes, are named by the sources of `_layout_fields` and keep the
        first MAX_SERVING_BEAMS serving and MAX_NEIGHBOR_CELLS neighbor ranks,
        so each layout reads a prefix. The audible counts cover every rank.
        Computed on first use and kept with the table.
        """
        n = len(self)
        cells, starts, counts = np.unique(self.cell_ids, return_index=True, return_counts=True)
        width = int(counts.max())
        # (row, cell, slot) view of the matrix; slots follow ascending beam_id
        slot = np.arange(len(self.cell_ids)) - np.repeat(starts, counts)
        cell_pos = np.repeat(np.arange(len(cells)), counts)
        if (counts == width).all():
            cube = self.rsrp.reshape(n, len(cells), width)
        else:
            cube = np.full((n, len(cells), width), -np.inf)
            cube[:, cell_pos, slot] = self.rsrp
        slot_beam = np.zeros((len(cells), width), dtype=np.int64)
        slot_beam[cell_pos, slot] = self.beam_ids

        rows = np.arange(n)
        serving_pos = cell_pos[self.serving_col]
        serving_block = cube[rows, serving_pos]
        serving_order = np.argsort(-serving_block, axis=1, kind="stable")[:, :MAX_SERVING_BEAMS]
        # the same first maximum as cube.argmax(axis=2), as one 2-D pass
        best_slot = cube.reshape(-1, width).argmax(axis=1).reshape(n, len(cells))
        best = cube.max(axis=2)
        best[rows, serving_pos] = -np.inf
        neighbor_order = np.argsort(-best, axis=1, kind="stable")[:, :MAX_NEIGHBOR_CELLS]
        ranked = {
            "serving_beam": slot_beam[serving_pos[:, None], serving_order],
            "serving_rsrp": np.take_along_axis(serving_block, serving_order, axis=1),
            "serving_cell": cells[serving_pos][:, None],
            "neighbor_cell": cells[neighbor_order],
            "neighbor_beam": slot_beam[neighbor_order, np.take_along_axis(best_slot, neighbor_order, axis=1)],
            "neighbor_rsrp": np.take_along_axis(best, neighbor_order, axis=1),
        }
        return ranked, (serving_block > -np.inf).sum(axis=1), (best > -np.inf).sum(axis=1)


def generate_samples(scenario: Scenario, prop_config: PropagationConfig | None = None) -> FingerprintTable:
    """One fingerprint row per street-grid location.

    The fingerprint keeps every beam strictly above the noise floor. Rare
    locations hearing no beam at all (possible with an aggressive floor) are
    dropped and counted in the log.
    """
    prop_config = prop_config or PropagationConfig()
    locations = enumerate_locations(scenario)
    if len(locations) == 0:
        raise ValueError("scenario has no street locations to sample")
    grid = rsrp_grid(scenario, locations, prop_config)
    table = FingerprintTable.from_grid(locations, grid, prop_config.noise_floor)
    if len(table) < len(locations):
        log.warning("dropped %d locations with no beam above the noise floor", len(locations) - len(table))
    return table


def filter_los(table: FingerprintTable) -> FingerprintTable:
    """Keep exactly the rows with line of sight to their serving cell.

    Consumes `table`: the kept rows move to the front of its own arrays and
    the result's columns are views of them, so no second matrix is allocated.
    Read what is needed of `table` (its length, its LoS count) before the call.
    """
    return _keep_rows(table, np.flatnonzero(table.los))


def _keep_rows(table: FingerprintTable, rows: np.ndarray) -> FingerprintTable:
    """`table` restricted to the increasing `rows`, built in `table`'s own arrays."""
    return dataclasses.replace(table, **{
        name: _move_to_front(getattr(table, name), rows) for name in ("locations", "rsrp", "serving_col", "los")
    })


def _move_to_front(array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write `array[rows]` over `array[:len(rows)]` in place; return that leading view.

    Rows move in blocks of about MOVE_BLOCK_BYTES, gathered before they are
    written. `rows` is increasing, so rows[i] >= i: every block's source rows
    lie at or after its target rows, and no row is overwritten before it is
    read. A block whose rows are already in place is skipped.
    """
    step = max(1, MOVE_BLOCK_BYTES // max(1, array[:1].nbytes))
    for start in range(0, len(rows), step):
        source = rows[start:start + step]
        if source[-1] != start + len(source) - 1:
            array[start:start + len(source)] = array[source]
    return array[:len(rows)]


def _layout_fields(config: FeatureConfig) -> list[tuple[str, str | None, str, int]]:
    """(name, id kind, ranked source, rank) of every feature field, in column order.

    The id kind is "beam" or "cell" for an ID field, which one-hot encoding
    expands, and None for an RSRP. Each field reads column `rank` of the
    ranked array named `source`.
    """
    fields = [(f"serving_beam_id_{r + 1}", "beam", "serving_beam", r) for r in range(config.n_serving_beams)]
    fields += [(f"serving_rsrp_{r + 1}", None, "serving_rsrp", r) for r in range(config.n_serving_beams)]
    if config.include_serving_cell_id:
        fields.append(("serving_cell_id", "cell", "serving_cell", 0))
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


def _encode(ranked: dict[str, np.ndarray], config: FeatureConfig) -> np.ndarray:
    """Feature matrix, one row per row of the ranked (n_rows, rank) arrays."""
    if config.id_encoding == "one_hot":
        _check_one_hot(ranked, config)
    columns = []
    for _, kind, source, rank in _layout_fields(config):
        values = ranked[source][:, rank]
        dim = _one_hot_dim(kind, config)
        if dim is None:
            columns.append(values.astype(float)[:, None])
        else:
            columns.append((values[:, None] == np.arange(dim)).astype(float))
    return np.hstack(columns)


def _check_one_hot(ranked: dict[str, np.ndarray], config: FeatureConfig) -> None:
    """Raise for the first ID (row-major, in layout order) outside its one-hot width."""
    ids = [(name, ranked[source][:, rank], _one_hot_dim(kind, config))
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
    ranked, serving_audible, neighbor_audible = table._ranking
    short_serving = serving_audible < config.n_serving_beams
    short_neighbors = ~short_serving & (neighbor_audible < config.n_neighbor_cells)
    reasons = [(reason, mask) for reason, mask in (
        ("insufficient_serving_beams", short_serving),
        ("insufficient_neighbors", short_neighbors),
    ) if mask.any()]
    dropped = {reason: int(mask.sum()) for reason, mask in sorted(reasons, key=lambda item: np.argmax(item[1]))}
    kept = np.flatnonzero(~(short_serving | short_neighbors))
    if len(kept) == 0:
        return np.zeros((0, len(extract_features_layout(config)))), kept, dropped
    return _encode({source: values[kept] for source, values in ranked.items()}, config), kept, dropped


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


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, csv_path: str) -> None:
    """CSV of unnormalized features + labels, JSON sidecar with everything else.

    The body holds every float as its repr, so a reload is bit-exact. It is
    formatted a column at a time into the bytes `csv.writer` would write:
    repr fields, "," between them, "\r\n" after each row.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(list(dataset.layout) + ["label_x", "label_y"])
    table = np.column_stack([dataset.features, dataset.labels]).astype(float, copy=False)
    columns = [map(repr, column) for column in table.T.tolist()]
    buf.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))
    atomic_write_text(csv_path, buf.getvalue())
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
