"""Positioning-error statistics and the experiment harness.

Error statistics use the population form (divisor N) for the standard
deviation. Experiments pair a feature layout with a training topology
(network-level: one pooled model; cell-specific: one model per serving cell,
test errors pooled across cells) and a model kind (neural network or
regression tree). Every stochastic stage derives its own seed from the
descriptor seed, so reports are reproducible and independent of execution
order or parallelism.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound, check_fields
from .dtree import TreeConfig, fit_tree, leaf_nodes, predict_tree, tree_depth
from .fingerprint import (
    Dataset,
    FeatureConfig,
    atomic_write_text,
    build_dataset,
    normalize,
    partition_by_cell,
)
from .mlp import MAX_HIDDEN_WIDTH, MlpArchitecture, TrainConfig, init_model, predict, train
from .seeds import derive_seed

log = logging.getLogger(__name__)

TOPOLOGIES = ("network_level", "cell_specific")
MODEL_KINDS = ("mlp", "dtree")
REPORT_PERCENTILES = (50, 80, 90)


@dataclass(frozen=True)
class ErrorStats:
    """Eq-style summary: mean, population std (divisor N), and sample count."""

    mean: float
    std: float
    n: int


def euclidean_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return np.sqrt(((pred - truth) ** 2).sum(axis=1))


def _error_samples(errors) -> np.ndarray:
    """The errors as a flat float array; ValueError if there are none."""
    errors = np.asarray(errors, dtype=float).ravel()
    if len(errors) == 0:
        raise ValueError("empty error list")
    return errors


def error_stats(errors) -> ErrorStats:
    errors = _error_samples(errors)
    return ErrorStats(mean=float(np.mean(errors)), std=float(np.std(errors)), n=len(errors))


def error_cdf(errors) -> list[tuple[float, float]]:
    """Empirical CDF sampled at the sorted unique error values."""
    errors = _error_samples(errors)
    values, counts = np.unique(errors, return_counts=True)
    fractions = np.cumsum(counts) / len(errors)
    return [(float(v), float(f)) for v, f in zip(values, fractions)]


def percentile_nearest_rank(errors, p: float) -> float:
    """Smallest value with at least p percent of the samples at or below it."""
    errors = np.sort(_error_samples(errors))
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = int(np.ceil(p / 100.0 * len(errors)))
    return float(errors[rank - 1])


@dataclass(frozen=True)
class ExperimentDescriptor:
    """One arm of the study: features x topology x model x seed."""

    experiment_id: str
    feature_config: FeatureConfig
    topology: str = bound("network_level", choices=TOPOLOGIES)
    model_kind: str = bound("mlp", choices=MODEL_KINDS)
    hidden_layers: tuple[int, ...] = bound((64,), ge=1, le=MAX_HIDDEN_WIDTH)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    tree_config: TreeConfig = field(default_factory=TreeConfig)
    seed: int = 0

    def __post_init__(self):
        if not self.experiment_id:
            raise ValueError("experiment_id must be non-empty")
        check_fields(self)

    def summary(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "feature_config": dataclasses.asdict(self.feature_config),
            "topology": self.topology,
            "model_kind": self.model_kind,
            "hidden_layers": list(self.hidden_layers),
            "seed": self.seed,
        }


def prepare_data(samples, descriptor: ExperimentDescriptor, split_fraction: float = 0.9, min_cell_size: int = 50):
    """The arm's parts, [(seed labels, Dataset)]: the pooled ("net",) dataset,
    or one ("cell", id) dataset per kept serving cell in ascending id order.
    """
    if descriptor.topology == "network_level":
        return [(("net",), build_dataset(samples, descriptor.feature_config, split_fraction,
                                         derive_seed(descriptor.seed, "split")))]
    cells = partition_by_cell(samples, descriptor.feature_config, split_fraction,
                              derive_seed(descriptor.seed, "partition"), min_size=min_cell_size)
    if not cells:
        raise ValueError("cell_specific topology received no per-cell datasets")
    return [(("cell", cell_id), cells[cell_id]) for cell_id in sorted(cells)]


def _fit_and_predict(dataset: Dataset, descriptor: ExperimentDescriptor, *seed_labels):
    """Train one model on the dataset's train rows; predict all rows.

    The tree consumes raw features (threshold splits are scale-free). The
    network consumes normalized features, and trains against labels
    standardized with train-row statistics so that optimization behaves the
    same whether a model covers one cell block or the whole deployment;
    predictions are mapped back to meters before any error is computed.
    """
    x, y = dataset.features, dataset.labels
    tr = dataset.train_idx
    if descriptor.model_kind == "mlp":
        arch = MlpArchitecture(input_dim=x.shape[1], hidden_layers=descriptor.hidden_layers)
        model = init_model(arch, derive_seed(descriptor.seed, *seed_labels, "init"))
        cfg = dataclasses.replace(descriptor.train_config, seed=derive_seed(descriptor.seed, *seed_labels, "shuffle"))
        label_mean = y[tr].mean(axis=0)
        label_std = y[tr].std(axis=0)
        label_std = np.where(label_std == 0.0, 1.0, label_std)
        train(model, normalize(dataset, x[tr]), (y[tr] - label_mean) / label_std, cfg)
        pred = predict(model, x, (dataset.mean, dataset.std)) * label_std + label_mean
        info = {
            "kind": "mlp",
            "hidden_layers": list(descriptor.hidden_layers),
            "epochs_trained": len(model.training_log),
            "best_train_loss": min(model.training_log),
        }
    else:
        tree = fit_tree(x[tr], y[tr], descriptor.tree_config)
        pred = predict_tree(tree, x)
        info = {
            "kind": "dtree",
            "depth": tree_depth(tree),
            "leaves": len(leaf_nodes(tree)),
            "max_depth": descriptor.tree_config.max_depth,
            "min_samples_leaf": descriptor.tree_config.min_samples_leaf,
        }
    return pred, info


def _centroid_errors(dataset: Dataset) -> np.ndarray:
    centroid = dataset.labels[dataset.train_idx].mean(axis=0)
    return euclidean_errors(np.tile(centroid, (len(dataset.test_idx), 1)), dataset.labels[dataset.test_idx])


def run_experiment(parts, descriptor: ExperimentDescriptor) -> dict:
    """Train and evaluate one experiment arm; return its report document.

    `parts` is what prepare_data returned for this descriptor. Each part (the
    pooled dataset, or one cell's) trains its own model under its own seed
    labels; test errors are pooled across parts (cells sorted by id) so
    topologies are compared on one test population. The report is the JSON
    document `save_report` writes; only cell-specific arms have `per_cell`.
    """
    train_parts, test_parts, baseline_parts, infos = [], [], [], []
    for seed_labels, dataset in parts:
        pred, info = _fit_and_predict(dataset, descriptor, *seed_labels)
        train_parts.append(euclidean_errors(pred[dataset.train_idx], dataset.labels[dataset.train_idx]))
        test_parts.append(euclidean_errors(pred[dataset.test_idx], dataset.labels[dataset.test_idx]))
        baseline_parts.append(_centroid_errors(dataset))
        infos.append(info)
    test_err = np.concatenate(test_parts)
    report = {
        "experiment_id": descriptor.experiment_id,
        "descriptor": descriptor.summary(),
        "train": dataclasses.asdict(error_stats(np.concatenate(train_parts))),
        "test": dataclasses.asdict(error_stats(test_err)),
        "cdf": [list(point) for point in error_cdf(test_err)],
        "percentiles": {f"p{p}": percentile_nearest_rank(test_err, p) for p in REPORT_PERCENTILES},
        "model": infos[0],
        "baseline_test_mean": float(np.mean(np.concatenate(baseline_parts))),
    }
    if descriptor.topology == "cell_specific":
        cells = [str(cell_id) for (_, cell_id), _ in parts]
        report["model"] = {"kind": descriptor.model_kind, "cells": dict(zip(cells, infos))}
        if descriptor.model_kind == "mlp":
            report["model"]["hidden_layers"] = list(descriptor.hidden_layers)
        report["per_cell"] = {}
        for cell, (_, dataset), cell_test in zip(cells, parts, test_parts):
            stats = error_stats(cell_test)
            report["per_cell"][cell] = {
                "n_train": len(dataset.train_idx),
                "n_test": len(dataset.test_idx),
                "test_mean": stats.mean,
                "test_std": stats.std,
            }
    return report


def _run_one(samples, descriptor: ExperimentDescriptor, split_fraction: float, min_cell_size: int) -> dict:
    parts = prepare_data(samples, descriptor, split_fraction, min_cell_size)
    return run_experiment(parts, descriptor)


def run_matrix(
    samples,
    descriptors: list[ExperimentDescriptor],
    split_fraction: float = 0.9,
    min_cell_size: int = 50,
    jobs: int = 1,
):
    """Run every experiment; failures are recorded and the matrix continues.

    Returns (reports, failures) with failures as {experiment_id, error}
    entries. At most min(jobs, arms, CPUs) worker processes run; one worker
    runs the arms in this process. Results do not depend on `jobs`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ids = [d.experiment_id for d in descriptors]
    if len(ids) != len(set(ids)):
        raise ValueError("experiment ids are not unique")

    reports: list[dict] = []
    failures: list[dict] = []
    workers = min(jobs, len(descriptors), os.cpu_count() or 1)
    arms = [(samples, d, split_fraction, min_cell_size) for d in descriptors]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        # one callable per arm: it returns the arm's report or raises its error
        if pool is None:
            outcomes = [functools.partial(_run_one, *arm) for arm in arms]
        else:
            outcomes = [pool.submit(_run_one, *arm).result for arm in arms]
        for d, outcome in zip(descriptors, outcomes):
            try:
                reports.append(outcome())
            except Exception as err:
                log.error("experiment %s failed: %s", d.experiment_id, err)
                failures.append({"experiment_id": d.experiment_id, "error": str(err)})
    return reports, failures


def comparison_rows(reports: list[dict]) -> list[dict]:
    """Flat summary table, one row per report, sorted by experiment id."""
    rows = []
    for report in sorted(reports, key=lambda r: r["experiment_id"]):
        descriptor = report["descriptor"]
        fc = descriptor["feature_config"]
        rows.append(
            {
                "experiment_id": report["experiment_id"],
                "model": descriptor["model_kind"],
                "topology": descriptor["topology"],
                "n_serving_beams": fc["n_serving_beams"],
                "n_neighbor_cells": fc["n_neighbor_cells"],
                "hidden_layers": "x".join(str(w) for w in descriptor["hidden_layers"]),
                "train_mean_m": report["train"]["mean"],
                "test_mean_m": report["test"]["mean"],
                "test_std_m": report["test"]["std"],
                "p50_m": report["percentiles"]["p50"],
                "p80_m": report["percentiles"]["p80"],
                "p90_m": report["percentiles"]["p90"],
                "baseline_test_mean_m": report["baseline_test_mean"],
            }
        )
    return rows


def save_report(report: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def save_comparison_csv(reports: list[dict], path: str) -> None:
    rows = comparison_rows(reports)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else ["experiment_id"])
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    atomic_write_text(path, buf.getvalue())


def save_cdf_csv(report: dict, path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["error_m", "fraction"])
    for value, fraction in report["cdf"]:
        writer.writerow([repr(value), repr(fraction)])
    atomic_write_text(path, buf.getvalue())
