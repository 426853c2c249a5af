"""Command line front end.

Three commands share one YAML config: `scenario` materializes the deployment
geometry, `dataset` writes fingerprint datasets per feature layout, and `run`
executes the experiment matrix. Exit codes: 0 on success, 1 when every
experiment failed (or a dataset came up empty or could not be built), 2 for
config errors and for `--jobs` below 1. All files are written atomically and
land under the configured output directory.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .config import ConfigError, RunConfig, load_run_config
from .evaluation import (
    atomic_write_text,
    comparison_rows,
    run_matrix,
    save_cdf_csv,
    save_comparison_csv,
    save_report,
)
from .fingerprint import FeatureConfig, NoLocationsError, build_dataset, filter_los, generate_samples, save_dataset
from .scenario import build_scenario, scenario_summary, scenario_to_dict
from .seeds import derive_seed

log = logging.getLogger(__name__)


def _feature_tag(fc: FeatureConfig) -> str:
    cid = "cid" if fc.include_serving_cell_id else "nocid"
    tag = f"s{fc.n_serving_beams}_n{fc.n_neighbor_cells}_{cid}"
    if fc.id_encoding == "one_hot":
        tag += f"_onehot_c{fc.one_hot_cells}_b{fc.one_hot_beams}"
    return tag


def _build_samples(config: RunConfig):
    """Scenario -> LoS-annotated samples, reporting the LoS fraction of every heard row."""
    try:
        samples = generate_samples(build_scenario(config.scenario), config.propagation)
    except NoLocationsError as err:
        raise ConfigError(
            f"scenario: grid_resolution_m {config.scenario.grid_resolution_m} puts no lattice point on a street "
            f"of street_width_m {config.scenario.street_width_m}"
        ) from err
    fraction = int(samples.los.sum()) / len(samples) if samples else 0.0
    print(f"samples: {len(samples)}  LoS fraction: {fraction:.4f}")
    return filter_los(samples) if config.dataset.los_only else samples


def cmd_scenario(config: RunConfig, dry_run: bool = False) -> int:
    scenario = build_scenario(config.scenario)
    summary = scenario_summary(scenario)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    path = os.path.join(config.output_dir, "scenario.json")
    if dry_run:
        print(f"dry run: would write {path}")
        return 0
    atomic_write_text(path, json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_dataset(config: RunConfig, dry_run: bool = False) -> int:
    # one dataset per output file, in order of first use
    layouts: dict[str, FeatureConfig] = {}
    for fc in [d.feature_config for d in config.experiments] or [FeatureConfig()]:
        layouts.setdefault(os.path.join(config.output_dir, "datasets", f"fingerprints_{_feature_tag(fc)}.csv"), fc)
    if dry_run:
        for path in layouts:
            print(f"dry run: would write {path}")
        return 0

    samples = _build_samples(config)
    if not samples:
        print("error: no samples left after filtering", file=sys.stderr)
        return 1
    failed = 0
    # the layouts share most of their columns; each distinct one is formatted once
    column_text: dict[bytes, list[str]] = {}
    for path, fc in layouts.items():
        try:
            dataset = build_dataset(
                samples, fc, config.dataset.split_fraction, derive_seed(config.seed, "split", _feature_tag(fc))
            )
        except ValueError as err:  # a layout the samples cannot fill
            print(f"error: {path}: {err}", file=sys.stderr)
            failed += 1
            continue
        save_dataset(dataset, path, column_text=column_text)
        print(f"wrote {path} ({dataset.n_samples} rows, {dataset.features.shape[1]} features)")
    return 1 if failed else 0


def cmd_run(config: RunConfig, jobs: int = 1, dry_run: bool = False) -> int:
    if not config.experiments:
        print("config error: experiments: none configured", file=sys.stderr)
        return 2
    if dry_run:
        for descriptor in config.experiments:
            fc = descriptor.feature_config
            arch = "x".join(str(w) for w in descriptor.hidden_layers) if descriptor.model_kind == "mlp" else "tree"
            print(
                f"dry run: {descriptor.experiment_id}: {descriptor.model_kind} {arch} "
                f"{descriptor.topology} {_feature_tag(fc)} seed={descriptor.seed}"
            )
        return 0

    samples = _build_samples(config)
    if not samples:
        print("error: no samples left after filtering", file=sys.stderr)
        return 1
    reports, failures = run_matrix(
        samples,
        list(config.experiments),
        split_fraction=config.dataset.split_fraction,
        min_cell_size=config.dataset.min_cell_size,
        jobs=jobs,
    )

    report_dir = os.path.join(config.output_dir, "reports")
    manifest = {"seed": config.seed, "reports": [], "failed": failures}
    for report in reports:
        path = os.path.join(report_dir, report["experiment_id"] + ".json")
        save_report(report, path)
        save_cdf_csv(report, os.path.join(report_dir, report["experiment_id"] + "_cdf.csv"))
        manifest["reports"].append(os.path.relpath(path, config.output_dir))
    comparison_path = os.path.join(config.output_dir, "comparison.csv")
    save_comparison_csv(reports, comparison_path)
    manifest["comparison"] = os.path.relpath(comparison_path, config.output_dir)
    atomic_write_text(
        os.path.join(config.output_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )

    for row in comparison_rows(reports):
        print(
            f"{row['experiment_id']}: test mean {row['test_mean_m']:.2f} m  "
            f"std {row['test_std_m']:.2f} m  p90 {row['p90_m']:.2f} m"
        )
    for failure in failures:
        print(f"failed: {failure['experiment_id']}: {failure['error']}", file=sys.stderr)
    if reports:
        return 0
    print("error: all experiments failed", file=sys.stderr)
    return 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel experiment workers")
    parser.add_argument("--dry-run", action="store_true", help="print the plan, write nothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamloc", description="beam-fingerprint positioning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("scenario", help="synthesize the deployment and write scenario.json"))
    _add_common(sub.add_parser("dataset", help="generate fingerprint datasets per feature layout"))
    _add_common(sub.add_parser("run", help="run the experiment matrix and write reports"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"usage error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        config = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "scenario":
            return cmd_scenario(config, dry_run=args.dry_run)
        if args.command == "dataset":
            return cmd_dataset(config, dry_run=args.dry_run)
        return cmd_run(config, jobs=args.jobs, dry_run=args.dry_run)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
