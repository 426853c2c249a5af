"""YAML run configuration.

A run file describes the whole pipeline: scenario geometry, propagation,
dataset splitting, and the experiment matrix. Validation errors always name
the offending section and key so a bad file is quick to fix.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import yaml

from .bounds import bound, check_fields, check_value
from .dtree import TreeConfig
from .evaluation import ExperimentDescriptor
from .fingerprint import FeatureConfig
from .mlp import TrainConfig
from .propagation import PropagationConfig
from .scenario import ScenarioConfig
from .seeds import derive_seed


class ConfigError(Exception):
    """Raised for a missing/invalid config file or a bad section/key."""


@dataclass(frozen=True)
class DatasetConfig:
    """The `dataset` section: train share of each split, smallest per-cell
    dataset, and whether only line-of-sight rows are kept."""

    split_fraction: float = bound(0.9, gt=0, lt=1)
    min_cell_size: int = bound(50, ge=1)
    los_only: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    output_dir: str
    scenario: ScenarioConfig
    propagation: PropagationConfig
    dataset: DatasetConfig
    experiments: tuple[ExperimentDescriptor, ...]

    def __post_init__(self):
        check_fields(self)


# the file's key for each descriptor field it spells differently
EXPERIMENT_KEYS = {"experiment_id": "id", "model_kind": "model", "feature_config": "features",
                   "train_config": "train", "tree_config": "tree"}


def _require_map(doc, section: str):
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(doc).__name__}")
    return doc


def _build_dataclass(cls, values, section: str, *, defaults=None, spelled=None):
    """Construct a config dataclass from a file section, rejecting by name a
    section that is not a mapping, an unknown key and, by the class's own
    `check_fields`, a value of the wrong type or out of range. `spelled`
    gives the file's key for each field where the two differ."""
    spelled = spelled or {}
    fields = {spelled.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    values = _require_map(values, section)
    for key in values:
        if key not in fields:
            raise ConfigError(f"{section}: unknown key '{key}'")
    merged = dict(defaults or {})
    merged.update((fields[key], value) for key, value in values.items())
    try:
        return cls(**merged)
    except ValueError as err:
        # a message opens with the field's name, given here as the file spells it
        name, _, rest = str(err).partition(" ")
        raise ConfigError(f"{section}: {spelled.get(name, name)} {rest}") from err


def _parse_experiment(entry, index: int, global_seed: int) -> ExperimentDescriptor:
    section = f"experiments[{index}]"
    entry = _require_map(entry, section)
    if "id" not in entry or not entry["id"]:
        raise ConfigError(f"{section}: missing required key 'id'")
    exp_id = str(entry["id"])
    # the id names the arm's report files, so it must stay one file name
    if any(sep and sep in exp_id for sep in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"{section}: id {exp_id!r} must not contain a path separator or NUL")
    section = f"experiments[{exp_id}]"

    train_map = _require_map(entry.get("train"), f"{section}.train")
    if "seed" in train_map:
        raise ConfigError(f"{section}.train: key 'seed' is derived from the run seed, set 'seed' on the experiment instead")
    values = {
        **entry,
        "id": exp_id,
        "features": _build_dataclass(FeatureConfig, entry.get("features"), f"{section}.features"),
        "train": _build_dataclass(TrainConfig, train_map, f"{section}.train"),
        "tree": _build_dataclass(TreeConfig, entry.get("tree"), f"{section}.tree"),
    }
    if values.get("seed") is None:
        values["seed"] = derive_seed(global_seed, "experiment", exp_id)
    return _build_dataclass(ExperimentDescriptor, values, section, spelled=EXPERIMENT_KEYS)


def load_run_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> RunConfig:
    """Parse and validate a YAML run file.

    CLI overrides are applied before seed fan-out, so overriding the seed
    re-derives every stage seed consistently.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}") from err
    doc = _require_map(doc, "top level")

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    try:
        # every derived seed hashes it, so it is checked before the first one
        seed = check_value(RunConfig, "seed", seed)
    except ValueError as err:
        raise ConfigError(f"top level: {err}") from err
    scenario = _build_dataclass(
        ScenarioConfig, doc.get("scenario"), "scenario", defaults={"seed": derive_seed(seed, "scenario")}
    )
    propagation = _build_dataclass(PropagationConfig, doc.get("propagation"), "propagation")
    dataset = _build_dataclass(DatasetConfig, doc.get("dataset"), "dataset")

    entries = doc.get("experiments", [])
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ConfigError("experiments: expected a list")
    experiments = tuple(_parse_experiment(e, i, seed) for i, e in enumerate(entries))
    ids = [e.experiment_id for e in experiments]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigError(f"experiments: duplicate id '{dupes[0]}'")

    values = {**doc, "seed": seed, "scenario": scenario, "propagation": propagation, "dataset": dataset,
              "experiments": experiments}
    if out_override is not None:
        values["output_dir"] = out_override
    return _build_dataclass(RunConfig, values, "top level", defaults={"output_dir": "out"})
