"""Output checks for one invocation, without importing the program.

An operation is one experiment arm (`beamloc run`) or one written dataset
(`beamloc dataset`). It passes when it succeeded, its files match the config
and every error statistic in it is finite. Each operation also gets a digest
of its output bytes, so the caller can compare invocations of one seed.
"""
from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
from dataclasses import dataclass, field


@dataclass
class Outcome:
    ok: list[bool]
    digests: list[str]
    shared_digest: str = ""  # files no single operation owns
    error_mean_m: float = math.nan
    error_p90_m: float = math.nan
    problems: list[str] = field(default_factory=list)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def check_outputs(workload, out: str) -> Outcome:
    """Check what one invocation of `workload` wrote under `out`."""
    if workload.command == "run":
        return check_run([e["id"] for e in workload.experiments], out)
    return check_datasets(workload.operations, out)


def check_run(experiment_ids: list[str], out: str) -> Outcome:
    """Reports, CDF files and comparison table of `beamloc run`.

    The error metrics are the mean over arms of each report's test mean and
    nearest-rank p90.
    """
    n = len(experiment_ids)
    outcome = Outcome(ok=[False] * n, digests=[""] * n)
    manifest_path = os.path.join(out, "manifest.json")
    comparison_path = os.path.join(out, "comparison.csv")
    if not (os.path.exists(manifest_path) and os.path.exists(comparison_path)):
        outcome.problems.append("manifest.json or comparison.csv missing")
        return outcome
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    failed = {f["experiment_id"]: f["error"] for f in manifest["failed"]}
    comparison = _csv_rows(comparison_path)[1:]
    tables_match = len(comparison) == len(manifest["reports"]) == n - len(failed)
    if not tables_match:
        outcome.problems.append(f"comparison.csv has {len(comparison)} rows for {n - len(failed)} reports")
    outcome.shared_digest = _digest(manifest_path, comparison_path)

    means, p90s = [], []
    for i, exp_id in enumerate(experiment_ids):
        if exp_id in failed:
            outcome.problems.append(f"{exp_id} failed: {failed[exp_id]}")
            continue
        report_path = os.path.join(out, "reports", f"{exp_id}.json")
        cdf_path = os.path.join(out, "reports", f"{exp_id}_cdf.csv")
        if not (os.path.exists(report_path) and os.path.exists(cdf_path)):
            outcome.problems.append(f"{exp_id}: report or CDF file missing")
            continue
        with open(report_path) as fh:
            report = json.load(fh)
        stats = [
            report["train"]["mean"], report["train"]["std"], report["test"]["mean"], report["test"]["std"],
            report["baseline_test_mean"], *report["percentiles"].values(),
        ]
        cdf = _csv_rows(cdf_path)[1:]
        problems = []
        if not all(math.isfinite(v) for v in stats):
            problems.append("non-finite error statistic")
        if len(cdf) != len(report["cdf"]) or not cdf or float(cdf[-1][1]) != 1.0:
            problems.append("CDF file does not match the report")
        outcome.problems += [f"{exp_id}: {p}" for p in problems]
        outcome.ok[i] = tables_match and not problems
        outcome.digests[i] = _digest(report_path, cdf_path)
        means.append(report["test"]["mean"])
        p90s.append(report["percentiles"]["p90"])
    outcome.error_mean_m = _mean(means)
    outcome.error_p90_m = _mean(p90s)
    return outcome


def check_datasets(n_datasets: int, out: str) -> Outcome:
    """Fingerprint CSVs and sidecars of `beamloc dataset`.

    Datasets carry no model, so the error metrics are those of the centroid
    predictor (the train-label centroid for every test row), the same
    baseline the study reports carry: mean over datasets of its test mean
    and nearest-rank p90.
    """
    outcome = Outcome(ok=[False] * n_datasets, digests=[""] * n_datasets)
    paths = sorted(glob.glob(os.path.join(out, "datasets", "*.csv")))
    if len(paths) != n_datasets:
        outcome.problems.append(f"{len(paths)} dataset CSVs written, config names {n_datasets}")
    means, p90s, covered = [], [], []
    for i, path in enumerate(paths[:n_datasets]):
        sidecar_path = path + ".meta.json"
        if not os.path.exists(sidecar_path):
            outcome.problems.append(f"{os.path.basename(path)}: sidecar missing")
            continue
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        rows = _csv_rows(path)
        header, body = rows[0], rows[1:]
        values = [[float(v) for v in row] for row in body]
        name = os.path.basename(path)
        problems = []
        if header != sidecar["layout"] + ["label_x", "label_y"]:
            problems.append("header does not match the layout")
        if len(body) != len(sidecar["train_idx"]) + len(sidecar["test_idx"]):
            problems.append(f"{len(body)} rows do not match the split")
        covered.append(len(body) + sum(sidecar["provenance"]["dropped"].values()))
        if not all(math.isfinite(v) for row in values for v in row):
            problems.append("non-finite value")
        outcome.problems += [f"{name}: {p}" for p in problems]
        if problems:
            continue
        labels = [(row[-2], row[-1]) for row in values]
        train = [labels[k] for k in sidecar["train_idx"]]
        cx = sum(x for x, _ in train) / len(train)
        cy = sum(y for _, y in train) / len(train)
        errors = [math.hypot(labels[k][0] - cx, labels[k][1] - cy) for k in sidecar["test_idx"]]
        means.append(_mean(errors))
        p90s.append(_nearest_rank(errors, 90))
        outcome.ok[i] = True
        outcome.digests[i] = _digest(path, sidecar_path)
    # every layout is built from the same samples: rows kept plus rows dropped
    if len(set(covered)) > 1:
        outcome.problems.append(f"layouts account for different sample counts: {covered}")
        outcome.ok = [False] * n_datasets
    outcome.error_mean_m = _mean(means)
    outcome.error_p90_m = _mean(p90s)
    return outcome
