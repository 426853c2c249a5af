"""Span tracing of one `beamloc` invocation, installed from outside the program.

`Tracer.install` replaces each layer function at the module attribute its
callers look up (for example `beamloc.fingerprint.rsrp_grid`, which
`generate_samples` calls, or `beamloc.evaluation.train`) with a wrapper that
records a span around the call; `Tracer.uninstall` puts the originals back.
No file of the program changes. Spans stay in memory until the invocation
ends; `layer_metrics` then reduces them, plus the exact work counts the
wrappers take from arguments and results, to the per-layer metrics.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

# Per-layer metrics in report order: (name, unit, exact). Exact metrics are
# counts that must repeat bit for bit across invocations of one seed; the
# others are wall times. "computed" counts come from array sizes.
LAYER_METRICS = (
    ("config.load_run_config.s", "s", False),
    ("scenario.build_scenario.s", "s", False),
    ("scenario.enumerate_locations.s", "s", False),
    ("scenario.locations", "count", True),
    ("geom.segment_rect_crossing.s", "s", False),
    ("geom.segment_rect_crossing.calls", "count", True),
    ("propagation.rsrp_grid.s", "s", False),
    ("propagation.rsrp_grid.cells", "count", True),
    ("propagation.rsrp_grid.bytes_computed", "bytes", True),
    ("fingerprint.generate_samples.self_s", "s", False),
    ("fingerprint.samples", "count", True),
    ("fingerprint.los_ratio", "ratio", True),
    ("fingerprint.build_dataset.s", "s", False),
    ("fingerprint.build_dataset.calls", "count", True),
    ("fingerprint.extract_features.s", "s", False),
    ("fingerprint.extract_features.calls", "count", True),
    ("fingerprint.rows_dropped", "count", True),
    ("fingerprint.rows_dropped.insufficient_serving_beams", "count", True),
    ("fingerprint.rows_dropped.insufficient_neighbors", "count", True),
    ("fingerprint.partition_by_cell.s", "s", False),
    ("fingerprint.cells_kept", "count", True),
    ("fingerprint.cells_skipped", "count", True),
    ("fingerprint.save_dataset.s", "s", False),
    ("fingerprint.save_dataset.bytes", "bytes", True),
    ("mlp.train.s", "s", False),
    ("mlp.train.calls", "count", True),
    ("mlp.train.self_s", "s", False),
    ("mlp.train.network_level.s", "s", False),
    ("mlp.train.cell_specific.s", "s", False),
    ("mlp.backward.s", "s", False),
    ("mlp.backward.calls", "count", True),
    ("mlp.step_us", "us", False),
    ("mlp.forward.s", "s", False),
    ("mlp.forward.calls", "count", True),
    ("mlp.predict.s", "s", False),
    ("mlp.row_epochs", "count", True),
    ("mlp.flops_computed", "flop", True),
    ("dtree.fit_tree.s", "s", False),
    ("dtree.fit_tree.calls", "count", True),
    ("dtree.fit_tree.network_level.s", "s", False),
    ("dtree.fit_tree.cell_specific.s", "s", False),
    ("dtree.predict_tree.s", "s", False),
    ("dtree.leaves", "count", True),
    ("dtree.depth_max", "count", True),
    ("evaluation.run_matrix.s", "s", False),
    ("evaluation.prepare_data.s", "s", False),
    ("evaluation.run_experiment.s", "s", False),
    ("evaluation.run_experiment.self_s", "s", False),
    ("evaluation.arms_failed", "count", True),
    ("cli.main.s", "s", False),
    ("cli.write.s", "s", False),
    ("cli.write.bytes", "bytes", True),
)


def _on_locations(counts, args, result):
    counts["scenario.locations"] += len(result)


def _on_rsrp_grid(counts, args, result):
    counts["propagation.rsrp_grid.cells"] += result.rsrp.size
    counts["propagation.rsrp_grid.bytes_computed"] += result.rsrp.nbytes + result.site_los.nbytes


def _on_samples(counts, args, result):
    counts["fingerprint.samples"] += len(result)
    counts["los_samples"] += sum(1 for s in result if s.los_to_serving)


def _on_dataset(counts, args, result):
    for reason, n in result.provenance["dropped"].items():
        counts[f"fingerprint.rows_dropped.{reason}"] += n


def _on_partition(counts, args, result):
    counts["fingerprint.cells_kept"] += len(result)
    counts["fingerprint.cells_skipped"] += len({s.serving_cell for s in args[0]}) - len(result)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _on_save_dataset(counts, args, result):
    # save_dataset writes the CSV plus a JSON sidecar next to it
    counts["fingerprint.save_dataset.bytes"] += _file_bytes(args[1], str(args[1]) + ".meta.json")


def _on_train(counts, args, result):
    counts["mlp.row_epochs"] += len(args[1]) * len(result.training_log)


def _on_backward(counts, args, result):
    # forward plus backward matmul FLOPs of one step: the forward pass and the
    # weight gradients each cost 2*b*fan_in*fan_out per layer, and the delta
    # sent back to every layer but the input costs as much again
    dims = args[0].architecture.layer_dims
    layer = [a * b for a, b in zip(dims[:-1], dims[1:])]
    counts["mlp.flops_computed"] += 2 * len(args[1]) * (2 * sum(layer) + sum(layer[1:]))


def _on_fit_tree(counts, args, result):
    # imported here because run.py loads this module without the program
    from beamloc.dtree import leaf_nodes, tree_depth

    counts["dtree.leaves"] += len(leaf_nodes(result))
    counts["dtree.depth_max"] = max(counts["dtree.depth_max"], tree_depth(result))


def _on_run_matrix(counts, args, result):
    counts["evaluation.arms_failed"] += len(result[1])


def _written(position):
    def hook(counts, args, result):
        counts["cli.write.bytes"] += _file_bytes(args[position])
    return hook


def _topology(args):
    return args[1].topology


# (module the caller looks the name up in, attribute, span name, hook, tag).
# A hook sees (counts, args, result) after the span closes. A tag function
# labels the span from its arguments; other spans inherit their parent's tag.
WRAP_SITES = (
    ("beamloc.cli", "main", "cli.main", None, None),
    ("beamloc.cli", "load_run_config", "config.load_run_config", None, None),
    ("beamloc.cli", "build_scenario", "scenario.build_scenario", None, None),
    ("beamloc.fingerprint", "enumerate_locations", "scenario.enumerate_locations", _on_locations, None),
    ("beamloc.propagation", "segment_rect_crossing", "geom.segment_rect_crossing", None, None),
    ("beamloc.fingerprint", "rsrp_grid", "propagation.rsrp_grid", _on_rsrp_grid, None),
    ("beamloc.cli", "generate_samples", "fingerprint.generate_samples", _on_samples, None),
    ("beamloc.cli", "build_dataset", "fingerprint.build_dataset", _on_dataset, None),
    ("beamloc.evaluation", "build_dataset", "fingerprint.build_dataset", _on_dataset, None),
    ("beamloc.fingerprint", "build_dataset", "fingerprint.build_dataset", _on_dataset, None),
    ("beamloc.fingerprint", "extract_features", "fingerprint.extract_features", None, None),
    ("beamloc.evaluation", "partition_by_cell", "fingerprint.partition_by_cell", _on_partition, None),
    ("beamloc.cli", "save_dataset", "fingerprint.save_dataset", _on_save_dataset, None),
    ("beamloc.cli", "run_matrix", "evaluation.run_matrix", _on_run_matrix, None),
    ("beamloc.evaluation", "prepare_data", "evaluation.prepare_data", None, None),
    ("beamloc.evaluation", "run_experiment", "evaluation.run_experiment", None, _topology),
    ("beamloc.evaluation", "train", "mlp.train", _on_train, None),
    ("beamloc.mlp", "backward", "mlp.backward", _on_backward, None),
    ("beamloc.mlp", "forward", "mlp.forward", None, None),
    ("beamloc.evaluation", "predict", "mlp.predict", None, None),
    ("beamloc.evaluation", "fit_tree", "dtree.fit_tree", _on_fit_tree, None),
    ("beamloc.evaluation", "predict_tree", "dtree.predict_tree", None, None),
    ("beamloc.cli", "save_report", "cli.write", _written(1), None),
    ("beamloc.cli", "save_cdf_csv", "cli.write", _written(1), None),
    ("beamloc.cli", "save_comparison_csv", "cli.write", _written(1), None),
    ("beamloc.cli", "atomic_write_text", "cli.write", _written(0), None),
)

# span record fields
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans [name, start, end, parent index, tag] for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook, tag_of):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if tag_of is not None:
                tag = tag_of(args)
            else:
                tag = spans[parent][TAG] if parent >= 0 else None
            record = [name, 0.0, 0.0, parent, tag]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._saved = snapshot_sites()
        for (module, attr, original), (*_, name, hook, tag_of) in zip(self._saved, WRAP_SITES):
            setattr(module, attr, self._wrap(original, name, hook, tag_of))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "tag"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def originals_restored(saved: list[tuple]) -> bool:
    """True when every (module, attr, original) triple is back in place."""
    return all(getattr(module, attr) is original for module, attr, original in saved)


def snapshot_sites() -> list[tuple]:
    """The current object at every wrap site, for a later restore check."""
    out = []
    for module_name, attr, *_ in WRAP_SITES:
        module = importlib.import_module(module_name)
        out.append((module, attr, getattr(module, attr)))
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child[record[PARENT]] += record[END] - record[START]
    return [r[END] - r[START] - c for r, c in zip(spans, child)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, keyed like LAYER_METRICS."""
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_total: dict[str, float] = defaultdict(float)
    tagged: dict[tuple, float] = defaultdict(float)
    train_forward = 0.0
    for i, record in enumerate(spans):
        name = record[NAME]
        duration = record[END] - record[START]
        calls[name] += 1
        self_total[name] += own[i]
        # a span nested in one of the same name is already inside its total
        parent, nested = record[PARENT], False
        while parent >= 0 and not nested:
            nested = spans[parent][NAME] == name
            parent = spans[parent][PARENT]
        if not nested:
            total[name] += duration
            tagged[name, record[TAG]] += duration
        if name == "mlp.forward" and record[PARENT] >= 0 and spans[record[PARENT]][NAME] == "mlp.train":
            train_forward += duration

    counts = tracer.counts
    steps = calls["mlp.backward"]
    out = {
        "mlp.train.self_s": self_total["mlp.train"],
        "fingerprint.generate_samples.self_s": self_total["fingerprint.generate_samples"],
        "evaluation.run_experiment.self_s": self_total["evaluation.run_experiment"],
        # one optimizer step: backward plus the Adam update and batching
        "mlp.step_us": (total["mlp.train"] - train_forward) / steps * 1e6 if steps else 0.0,
        "fingerprint.los_ratio": (
            counts["los_samples"] / counts["fingerprint.samples"] if counts["fingerprint.samples"] else 0.0
        ),
        "fingerprint.rows_dropped": sum(
            n for key, n in counts.items() if key.startswith("fingerprint.rows_dropped.")
        ),
    }
    for topology in ("network_level", "cell_specific"):
        out[f"mlp.train.{topology}.s"] = tagged["mlp.train", topology]
        out[f"dtree.fit_tree.{topology}.s"] = tagged["dtree.fit_tree", topology]
    for name, _, _ in LAYER_METRICS:
        if name in out:
            continue
        if name.endswith(".s"):
            out[name] = total[name[:-2]]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        else:
            out[name] = counts[name]
    return out
