"""Independent brute-force references used by unit and acceptance tests, and
the test-only entry points into the library.

The references deliberately avoid the library's own geometry and math
helpers so that agreement is evidence, not tautology. The entry points at
the end of the file are the opposite: thin one-item or read-back wrappers
around the library's own code (`line_of_sight`, `_best_split`,
`tree_to_dict`, `load_dataset`), which the pipeline never needs and the
tests hold against the references. `flatten` lays the MLP's parameter
groups out as one vector for bit-for-bit comparison.

A deployment is written out here as scenario.json lays it out: a dict of
building records and of sites, each with its sectors, each with its beams.
`reference_scenario_dict` writes one from a `ScenarioConfig` beam by beam,
and `reference_rsrp_grid`, `dense_los_oracle` and `line_of_sight` read such
records. `hand_scenario` builds a scenario from hand-drawn sites, building
records and a `SectorFormula`, which `sector_formula` fills in.
"""
import csv
import json
import math

import numpy as np

from beamloc.dtree import _best_splits
from beamloc.fingerprint import (
    MAX_NEIGHBOR_CELLS,
    MAX_SERVING_BEAMS,
    Dataset,
    FingerprintSample,
    FingerprintTable,
    _sidecar_path,
    rank_rows,
)
from beamloc.propagation import RsrpGrid, _blocked_mask, _link_arrays, path_loss, shadow_fading
from beamloc.scenario import BuildingArrays, Scenario, SectorFormula, scenario_to_dict
from beamloc.seeds import derive_seed


def building(min_corner, max_corner, height) -> dict:
    """One building record: an axis-aligned footprint and a flat roof height in meters."""
    return {"min_corner": list(min_corner), "max_corner": list(max_corner), "height": height}


def dense_los_oracle(p, q, buildings, samples: int = 10_000) -> bool:
    """Line-of-sight by dense sampling along the 3-D segment p -> q.

    A sample blocks the link iff it lies strictly inside a footprint (open
    interior, so edge and corner grazing never block) at a height strictly
    below the building roof.
    """
    t = np.linspace(0.0, 1.0, samples)
    xs = p[0] + t * (q[0] - p[0])
    ys = p[1] + t * (q[1] - p[1])
    zs = p[2] + t * (q[2] - p[2])
    for b in buildings:
        (x0, y0), (x1, y1) = b["min_corner"], b["max_corner"]
        inside = (xs > x0) & (xs < x1) & (ys > y0) & (ys < y1) & (zs < b["height"])
        if bool(np.any(inside)):
            return False
    return True


def brute_force_best_split(x: np.ndarray, y: np.ndarray):
    """Exhaustive best axis-aligned split by summed squared error.

    Returns (feature, threshold, sse_after) with thresholds at midpoints of
    consecutive sorted unique feature values, ties broken by lowest feature
    index then lowest threshold. Returns None if no split separates the data.
    """
    n, d = x.shape
    best = None
    for j in range(d):
        values = np.unique(x[:, j])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2.0
            if not a <= thr < b:
                # midpoint rounded up to the upper value, or overflowed; the
                # lower value induces the same partition with a proper threshold
                thr = a
            left = x[:, j] <= thr
            right = ~left
            sse = 0.0
            for mask in (left, right):
                part = y[mask]
                sse += float(np.sum((part - part.mean(axis=0)) ** 2))
            if best is None or sse < best[2]:
                best = (j, thr, sse)
    return best


def _reference_partition_sse(x_col, y, threshold):
    mask = x_col <= threshold
    total = 0.0
    for side in (mask, ~mask):
        part = y[side]
        if len(part) == 0:
            continue
        total += float(((part - part.mean(axis=0)) ** 2).sum())
    return total


def _reference_best_split(x, y, min_leaf):
    """Per-node, per-feature argsort and cumulative-sum scan; the candidates
    within rounding distance of each feature's minimum are re-evaluated in
    original row order, lowest feature then lowest threshold winning ties."""
    n = len(x)
    total_sum = y.sum(axis=0)
    total_sq = float((y * y).sum())
    tie_window = 1e-9 * max(1.0, total_sq)
    best = None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xv = x[order, j]
        yv = y[order]
        boundaries = np.flatnonzero(xv[1:] != xv[:-1])
        if len(boundaries) == 0:
            continue
        n_left = boundaries + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        boundaries = boundaries[valid]
        n_left = n_left[valid]
        n_right = n_right[valid]
        cum_sum = np.cumsum(yv, axis=0)
        cum_sq = np.cumsum((yv * yv).sum(axis=1))
        sum_left = cum_sum[boundaries]
        sq_left = cum_sq[boundaries]
        sse_left = sq_left - (sum_left * sum_left).sum(axis=1) / n_left
        sum_right = total_sum - sum_left
        sse_right = (total_sq - sq_left) - (sum_right * sum_right).sum(axis=1) / n_right
        scan = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)

        near = np.flatnonzero(scan <= scan.min() + tie_window)
        feature_best = None
        for k in near:
            lower = xv[boundaries[k]]
            upper = xv[boundaries[k] + 1]
            threshold = (lower + upper) / 2.0
            if not lower <= threshold < upper:
                threshold = lower
            children = _reference_partition_sse(x[:, j], y, threshold)
            if feature_best is None or children < feature_best[0]:
                feature_best = (children, float(threshold))
        if best is None or feature_best[0] < best[0]:
            best = (feature_best[0], j, feature_best[1])
    if best is None:
        return None
    return best[1], best[2]


def reference_fit_tree(features, labels, config):
    """CART grown depth-first with a fresh argsort of every feature at every
    node. `config` is a beamloc.dtree.TreeConfig; returns a
    beamloc.dtree.TreeNode root."""
    from beamloc.dtree import TreeNode

    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    root = TreeNode(n_features=features.shape[1])
    stack = [(root, np.arange(len(features)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        y = labels[idx]
        mean = y.mean(axis=0)
        node.count = len(idx)
        sse = float(((y - mean) ** 2).sum())
        depth_ok = config.max_depth is None or depth < config.max_depth
        split = None
        if sse > 0.0 and depth_ok and len(idx) >= config.min_samples_split:
            split = _reference_best_split(features[idx], y, config.min_samples_leaf)
        if split is None:
            node.value = mean
            continue
        node.feature_index, node.threshold = split
        go_left = features[idx, node.feature_index] <= node.threshold
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.left, idx[go_left], depth + 1))
        stack.append((node.right, idx[~go_left], depth + 1))
    return root


def flatten(*groups):
    """Every array of `groups` (lists of arrays), raveled into one vector in order."""
    return np.concatenate([a.ravel() for group in groups for a in group])


def reference_forward_cached(weights, biases, batch):
    """Per-layer activations of a tanh MLP with a linear head, input first."""
    activations = [batch]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w + b
        activations.append(z if i == last else np.tanh(z))
    return activations


def reference_backward(weights, biases, batch, target):
    """MSE gradients as fresh per-parameter arrays, one allocation per op."""
    activations = reference_forward_cached(weights, biases, batch)
    pred = activations[-1]
    weight_grads = [np.empty_like(w) for w in weights]
    bias_grads = [np.empty_like(b) for b in biases]
    delta = 2.0 * (pred - target) / pred.size
    for layer in range(len(weights) - 1, -1, -1):
        weight_grads[layer] = activations[layer].T @ delta
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return weight_grads, bias_grads


def reference_train(weights, biases, features, labels, config):
    """Per-parameter Adam over seeded shuffled mini-batches, each batch
    gathered with `features[rows]`; early stop on training loss with
    best-parameter restore. `config` is a beamloc.mlp.TrainConfig.

    Returns (weights, biases, training_log); the input arrays are not touched.
    """
    weights = [np.array(w, dtype=float) for w in weights]
    biases = [np.array(b, dtype=float) for b in biases]
    rng = np.random.default_rng(config.seed)
    params = weights + biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0

    best_loss = np.inf
    best_params = ([w.copy() for w in weights], [b.copy() for b in biases])
    reference_loss = np.inf
    stale_epochs = 0
    log = []

    for _ in range(config.max_epochs):
        order = rng.permutation(len(features))
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            weight_grads, bias_grads = reference_backward(weights, biases, features[rows], labels[rows])
            step += 1
            correction1 = 1.0 - config.beta1**step
            correction2 = 1.0 - config.beta2**step
            for p, g, m, v in zip(params, weight_grads + bias_grads, m_state, v_state):
                m *= config.beta1
                m += (1.0 - config.beta1) * g
                v *= config.beta2
                v += (1.0 - config.beta2) * g * g
                p -= config.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + config.epsilon)

        pred = reference_forward_cached(weights, biases, features)[-1]
        epoch_loss = float(np.mean((pred - labels) ** 2))
        log.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = ([w.copy() for w in weights], [b.copy() for b in biases])
        if epoch_loss < reference_loss - config.min_delta:
            reference_loss = epoch_loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    return best_params[0], best_params[1], log


def _reference_wrap(angle):
    wrapped = np.asarray(angle, dtype=float) % 360.0
    return np.where(wrapped > 180.0, wrapped - 360.0, wrapped)


def _reference_blocks(centers, half_width, limit):
    """1-D block intervals left between street bands centered on `centers`."""
    edges = [0.0]
    for c in centers:
        edges.extend((c - half_width, c + half_width))
    edges.append(limit)
    clipped = [(max(lo, 0.0), min(hi, limit)) for lo, hi in zip(edges[::2], edges[1::2])]
    return [(lo, hi) for lo, hi in clipped if hi - lo > 0]


def reference_beam_grid(count, elevation_steers, downtilt, **fields) -> list[dict]:
    """One sector's beam records, beam by beam: `count` beams in rows of
    azimuth steers, one row per elevation steer, evenly spaced over the
    sector's 120-degree span with half a spacing of slack at either edge;
    one beam points along the boresight at -`downtilt`. `fields` gives the
    azimuth_beamwidth, elevation_beamwidth, element_gain and front_to_back
    of every beam; array_gain is 10*log10(count)."""
    if count == 1:
        steers = [(0.0, -downtilt)]
    else:
        n_az = count // len(elevation_steers)
        spacing = 120.0 / n_az
        steers = [(-120.0 / 2.0 + spacing * (k + 0.5), el) for el in elevation_steers for k in range(n_az)]
    array_gain = 10.0 * math.log10(count)
    return [
        {"beam_id": i, "steer_azimuth": az, "steer_elevation": el, **fields, "array_gain": array_gain}
        for i, (az, el) in enumerate(steers)
    ]


def reference_scenario_dict(config) -> dict:
    """scenario.json's dict for a `beamloc.scenario.ScenarioConfig`, built
    site by site, sector by sector and beam by beam in Python floats: every
    number the config spells as a float key is a float here, however the
    config spells it."""
    margin, height = float(config.margin_m), float(config.site_height_m)
    col_spacing, row_spacing = float(config.col_spacing_m), float(config.row_spacing_m)
    width = (config.site_cols - 1) * col_spacing + 2 * margin
    depth = (config.site_rows - 1) * row_spacing + 2 * margin
    xs = [margin + c * col_spacing for c in range(config.site_cols)]
    ys = [margin + r * row_spacing for r in range(config.site_rows)]
    buildings = []
    if config.with_buildings:
        half = float(config.street_width_m) / 2.0
        for x_lo, x_hi in _reference_blocks(xs, half, width):
            for y_lo, y_hi in _reference_blocks(ys, half, depth):
                buildings.append(building((x_lo, y_lo), (x_hi, y_hi), float(config.building_height_m)))
    downtilt = float(config.mechanical_downtilt_deg)
    beams = reference_beam_grid(
        config.beams_per_sector,
        [float(el) for el in config.elevation_steers_deg],
        downtilt,
        azimuth_beamwidth=float(config.azimuth_beamwidth_deg),
        elevation_beamwidth=float(config.elevation_beamwidth_deg),
        element_gain=float(config.element_gain_dbi),
        front_to_back=float(config.front_to_back_db),
    )
    n_sectors = config.sectors_per_site
    sites = []
    for r, y in enumerate(ys):
        for c, x in enumerate(xs):
            site_id = r * config.site_cols + c
            sectors = [
                {
                    "cell_id": site_id * n_sectors + s,
                    "boresight_azimuth": float(_reference_wrap(s * 360.0 / n_sectors)),
                    "mechanical_downtilt": downtilt,
                    "tx_power": float(config.tx_power_dbm),
                    "beams": [dict(beam) for beam in beams],
                }
                for s in range(n_sectors)
            ]
            sites.append({"id": site_id, "position": [x, y], "height": height, "sectors": sectors})
    return {
        "buildings": buildings,
        "sites": sites,
        "carrier_frequency_ghz": float(config.carrier_frequency_ghz),
        "area": [width, depth],
        "grid_resolution_m": float(config.grid_resolution_m),
        "rng_seed": config.seed,
    }


def _building_arrays(buildings) -> BuildingArrays:
    return BuildingArrays(
        min_corner=np.array([b["min_corner"] for b in buildings], dtype=float).reshape(-1, 2),
        max_corner=np.array([b["max_corner"] for b in buildings], dtype=float).reshape(-1, 2),
        height=np.array([b["height"] for b in buildings], dtype=float),
    )


def sector_formula(boresight=(0.0,), azimuth_steers=(0.0,), elevation_steers=(0.0,), **fields) -> SectorFormula:
    """A `SectorFormula` of the given steers, by default one sector of one
    beam at 0 degrees; `fields` overrides the deployment's default pattern,
    30 dBm and 10 dB of array gain."""
    scalars = dict(mechanical_downtilt=5.0, tx_power=30.0, azimuth_beamwidth=65.0, elevation_beamwidth=65.0,
                   element_gain=8.0, front_to_back=30.0, array_gain=10.0)
    return SectorFormula(
        boresight=np.array(boresight, dtype=float),
        azimuth_steers=np.array(azimuth_steers, dtype=float),
        elevation_steers=np.array(elevation_steers, dtype=float),
        **{**scalars, **fields},
    )


def hand_scenario(sites, buildings, sectors: SectorFormula, *, carrier_frequency=28.0, area=(200.0, 100.0),
                  grid_resolution=1.0, rng_seed=0) -> Scenario:
    """The scenario of hand-drawn `sites`, each (x, y, height), building
    records and one formula that every site carries."""
    return Scenario(
        site_xyz=np.array(sites, dtype=float).reshape(-1, 3),
        buildings=_building_arrays(buildings),
        sectors=sectors,
        carrier_frequency=carrier_frequency,
        area=tuple(area),
        grid_resolution=grid_resolution,
        rng_seed=rng_seed,
    )


def reference_rsrp_grid(scenario, locations, config):
    """RSRP grid of `scenario` evaluated beam by beam over its scenario.json
    records: both angle offsets wrapped and the parabolic pattern evaluated
    once per beam, one column per beam, stacked at the end. Link geometry,
    LoS, path loss and shadow fading are the library's; the pattern and the
    RSRP composition are written out here. Every value is clamped at
    `config.noise_floor`, which `rsrp_grid` does not do: a beam at the floor
    and a beam below it must give the same fingerprint table.
    """
    doc = scenario_to_dict(scenario)
    locations = np.asarray(locations, dtype=float)
    shadow_seed = derive_seed(doc["rng_seed"], "shadow")
    columns, ids = [], []
    site_los = np.zeros((len(locations), len(doc["sites"])), dtype=bool)
    link_arrays = _link_arrays(locations, scenario, config)
    for si, site in enumerate(doc["sites"]):
        d3d, azimuth, elevation, los = (links[si] for links in link_arrays)
        site_los[:, si] = los
        loss = path_loss(d3d, los, doc["carrier_frequency_ghz"], config)
        shadow = shadow_fading(shadow_seed, site["id"], locations, config.shadow_fading_sigma)
        for sector in site["sectors"]:
            for beam in sector["beams"]:
                beam_azimuth = _reference_wrap(sector["boresight_azimuth"] + beam["steer_azimuth"])
                az = np.abs(_reference_wrap(_reference_wrap(azimuth - beam_azimuth)))
                el = np.abs(_reference_wrap(elevation - beam["steer_elevation"]))
                rolloff = 12.0 * (az / beam["azimuth_beamwidth"]) ** 2 + 12.0 * (el / beam["elevation_beamwidth"]) ** 2
                gain = beam["element_gain"] + beam["array_gain"] - np.minimum(rolloff, beam["front_to_back"])
                rsrp = sector["tx_power"] + gain - loss + shadow
                columns.append(np.maximum(rsrp, config.noise_floor))
                ids.append((sector["cell_id"], beam["beam_id"], si))
    cell_ids, beam_ids, site_col = np.array(ids, dtype=np.int64).T
    return RsrpGrid(rsrp=np.column_stack(columns), cell_ids=cell_ids, beam_ids=beam_ids, site_col=site_col,
                    site_los=site_los)


class FeatureExtractionError(ValueError):
    """A sample cannot fill the configured layout; `reason` is the drop label."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def select_serving(sample_rsrp: dict) -> int:
    """Cell owning the maximum RSRP entry; ties to lowest (cell_id, beam_id)."""
    if not sample_rsrp:
        raise ValueError("empty rsrp map")
    best = max(sample_rsrp.values())
    return min(key for key, value in sample_rsrp.items() if value == best)[0]


def reference_ranked_sample(sample):
    """The sample as a table row shows it: the serving cell's strongest
    beams (RSRP descending, ties to lower beam_id) and the best beam (ties to
    lower beam_id) of each of the strongest other cells (best RSRP
    descending, ties to lower cell_id), ranked in Python from the dict."""
    serving = sorted(((-value, beam) for (cell, beam), value in sample.rsrp.items() if cell == sample.serving_cell))
    best = {}
    for (cell, beam), value in sorted(sample.rsrp.items()):
        if cell != sample.serving_cell and (cell not in best or value > best[cell][1]):
            best[cell] = (beam, value)
    neighbors = sorted(best.items(), key=lambda item: (-item[1][1], item[0]))[:MAX_NEIGHBOR_CELLS]
    rsrp = {(sample.serving_cell, beam): -value for value, beam in serving[:MAX_SERVING_BEAMS]}
    rsrp.update({(cell, beam): value for cell, (beam, value) in neighbors})
    return FingerprintSample(sample.location, rsrp, sample.serving_cell, sample.los_to_serving)


def table_from_samples(samples) -> FingerprintTable:
    """Stack hand-built `FingerprintSample`s into a table, ranked by the
    library's `rank_rows`. Raises ValueError naming each row whose sample's
    serving cell is not the owner of its strongest beam (ties to the lowest
    (cell, beam), the rule of `select_serving`)."""
    samples = list(samples)
    # with no samples there is no cell to rank; one placeholder column gives the zero-row table
    keys = sorted({key for sample in samples for key in sample.rsrp}) or [(0, 0)]
    column = {key: k for k, key in enumerate(keys)}
    rsrp = np.full((len(samples), len(keys)), -np.inf)
    for row, sample in enumerate(samples):
        rsrp[row, [column[key] for key in sample.rsrp]] = list(sample.rsrp.values())
    keys = np.array(keys, dtype=np.int64)
    table = FingerprintTable(
        locations=np.array([sample.location for sample in samples], dtype=float).reshape(-1, 2),
        los=np.array([sample.los_to_serving for sample in samples], dtype=bool),
        **rank_rows(rsrp, keys[:, 0], keys[:, 1], -np.inf),
    )
    given = np.array([sample.serving_cell for sample in samples], dtype=np.int64)
    wrong = np.flatnonzero(table.serving_cell != given).tolist()
    if wrong:
        raise ValueError(f"rows {wrong}: the serving cell does not own the strongest beam")
    return table


def reference_extract_features(sample, config) -> np.ndarray:
    """One sample's feature vector, ranked from its RSRP dict in Python.

    Serving beams by RSRP descending (ties to lower beam_id); neighbor cells
    by their strongest beam's RSRP descending (ties to lower cell_id), each
    contributing its single strongest beam (ties to lower beam_id). Raises
    FeatureExtractionError when the sample cannot fill the layout, and
    ValueError for the first ID, in layout order, outside its one-hot width.
    The encoding is written out here, not taken from the library.
    """
    serving = sorted(
        ((beam, value) for (cell, beam), value in sample.rsrp.items() if cell == sample.serving_cell),
        key=lambda item: (-item[1], item[0]),
    )
    if len(serving) < config.n_serving_beams:
        raise FeatureExtractionError(
            "insufficient_serving_beams", f"need {config.n_serving_beams}, sample has {len(serving)}"
        )
    strongest_per_cell: dict[int, tuple[int, float]] = {}
    for (cell, beam), value in sample.rsrp.items():
        if cell == sample.serving_cell:
            continue
        current = strongest_per_cell.get(cell)
        if current is None or (value, -beam) > (current[1], -current[0]):
            strongest_per_cell[cell] = (beam, value)
    neighbors = sorted(strongest_per_cell.items(), key=lambda item: (-item[1][1], item[0]))
    if len(neighbors) < config.n_neighbor_cells:
        raise FeatureExtractionError(
            "insufficient_neighbors", f"need {config.n_neighbor_cells}, sample has {len(neighbors)}"
        )

    serving = serving[: config.n_serving_beams]
    fields = [(f"serving_beam_id_{r + 1}", "beam", beam) for r, (beam, _) in enumerate(serving)]
    fields += [(f"serving_rsrp_{r + 1}", None, value) for r, (_, value) in enumerate(serving)]
    if config.include_serving_cell_id:
        fields.append(("serving_cell_id", "cell", sample.serving_cell))
    for r, (cell, (beam, value)) in enumerate(neighbors[: config.n_neighbor_cells]):
        fields += [
            (f"neighbor{r + 1}_cell_id", "cell", cell),
            (f"neighbor{r + 1}_beam_id", "beam", beam),
            (f"neighbor{r + 1}_rsrp", None, value),
        ]
    values = []
    for name, kind, value in fields:
        if kind is None or config.id_encoding == "numeric":
            values.append(float(value))
            continue
        width = config.one_hot_beams if kind == "beam" else config.one_hot_cells
        if not 0 <= value < width:
            raise ValueError(f"{name}={value} outside one-hot cardinality {width}")
        values += [float(k == value) for k in range(width)]
    return np.array(values)


def line_of_sight(p, q, buildings) -> bool:
    """True iff no building record blocks the direct segment between two 3-D
    points: `rsrp_grid`'s blocking test for one segment."""
    if p[:2] == q[:2] and p[2] == q[2]:
        raise ValueError("line_of_sight requires distinct endpoints")
    mask = _blocked_mask(p, np.array([q[:2]]), q[2], _building_arrays(buildings))
    return not bool(mask[0])


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest-children-SSE split of (x, y), or None if no candidate separates it.

    The one-node call of the scan `fit_tree` runs on every group of nodes.
    """
    sorted_rows = np.argsort(x, axis=0, kind="stable").T
    feature, threshold = _best_splits(x, y, np.arange(len(x))[None], sorted_rows[None], min_leaf)
    return None if feature[0] < 0 else (int(feature[0]), float(threshold[0]))


def tree_to_dict(tree) -> dict:
    """Nested plain-dict form of a `beamloc.dtree.TreeNode` tree, built
    without recursion."""
    rendered: dict[int, dict] = {}
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    for node in reversed(order):
        if node.is_leaf:
            rendered[id(node)] = {"value": [float(v) for v in node.value], "count": node.count}
        else:
            rendered[id(node)] = {
                "feature_index": node.feature_index,
                "threshold": node.threshold,
                "count": node.count,
                "left": rendered[id(node.left)],
                "right": rendered[id(node.right)],
            }
    return rendered[id(tree)]


def load_dataset(csv_path: str) -> Dataset:
    """Read back a CSV and sidecar written by `beamloc.fingerprint.save_dataset`."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = [[float(v) for v in row] for row in reader]
    if header[-2:] != ["label_x", "label_y"]:
        raise ValueError(f"{csv_path} does not look like a saved dataset")
    data = np.asarray(body, dtype=float)
    with open(_sidecar_path(csv_path)) as fh:
        sidecar = json.load(fh)
    return Dataset(
        features=data[:, :-2],
        labels=data[:, -2:],
        layout=tuple(sidecar["layout"]),
        train_idx=np.asarray(sidecar["train_idx"], dtype=int),
        test_idx=np.asarray(sidecar["test_idx"], dtype=int),
        mean=np.array([float(v) for v in sidecar["mean"]]),
        std=np.array([float(v) for v in sidecar["std"]]),
        provenance=sidecar["provenance"],
    )
