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

from .bounds import bound, check_fields
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


def _require_map(doc, section: str):
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(doc).__name__}")
    return doc


def _is_int(value) -> bool:
    """True for an int that is not a bool (YAML `true` is an int to isinstance)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build_dataclass(cls, values: dict, section: str, *, defaults=None):
    """Construct a config dataclass, rejecting by name unknown keys and any
    value of the wrong type: bools, ints, optional ints (int or null), floats
    (int or float) and float tuples (a list of those)."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in values.items():
        if key not in fields:
            raise ConfigError(f"{section}: unknown key '{key}'")
        if fields[key].type == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{section}: {key} must be a bool, got {type(value).__name__}")
        if fields[key].type == "int" and not _is_int(value):
            raise ConfigError(f"{section}: {key} must be an int, got {type(value).__name__}")
        if fields[key].type == "int | None" and not (value is None or _is_int(value)):
            raise ConfigError(f"{section}: {key} must be an int or null, got {type(value).__name__}")
        if fields[key].type == "float" and not _is_number(value):
            raise ConfigError(f"{section}: {key} must be a number, got {type(value).__name__}")
        if fields[key].type == "tuple[float, ...]" and not (
            isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)
        ):
            raise ConfigError(f"{section}: {key} must be a list of numbers, got {value!r}")
    merged = dict(defaults or {})
    merged.update(values)
    try:
        return cls(**merged)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}: {err}") from err


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

    known = {"id", "model", "topology", "features", "hidden_layers", "train", "tree", "seed"}
    for key in entry:
        if key not in known:
            raise ConfigError(f"{section}: unknown key '{key}'")

    features = _build_dataclass(
        FeatureConfig, _require_map(entry.get("features"), f"{section}.features"), f"{section}.features"
    )
    train_map = _require_map(entry.get("train"), f"{section}.train")
    if "seed" in train_map:
        raise ConfigError(f"{section}.train: key 'seed' is derived from the run seed, set 'seed' on the experiment instead")
    train = _build_dataclass(TrainConfig, train_map, f"{section}.train")
    tree = _build_dataclass(TreeConfig, _require_map(entry.get("tree"), f"{section}.tree"), f"{section}.tree")

    hidden = entry.get("hidden_layers", [64])
    if not isinstance(hidden, (list, tuple)) or not all(_is_int(w) for w in hidden):
        raise ConfigError(f"{section}: hidden_layers must be a list of ints")

    seed = entry.get("seed")
    if seed is None:
        seed = derive_seed(global_seed, "experiment", exp_id)
    elif not _is_int(seed):
        raise ConfigError(f"{section}: seed must be an int")
    try:
        return ExperimentDescriptor(
            experiment_id=exp_id,
            feature_config=features,
            topology=entry.get("topology", "network_level"),
            model_kind=entry.get("model", "mlp"),
            hidden_layers=hidden,
            train_config=train,
            tree_config=tree,
            seed=seed,
        )
    except (TypeError, ValueError) as err:
        # the descriptor's model_kind is the file's key `model`
        raise ConfigError(f"{section}: {err}".replace("model_kind", "model", 1)) from err


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

    known = {"seed", "output_dir", "scenario", "propagation", "dataset", "experiments"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"top level: unknown key '{key}'")

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("top level: seed must be an int")
    output_dir = out_override if out_override is not None else doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("top level: output_dir must be a string")

    scenario_map = _require_map(doc.get("scenario"), "scenario")
    scenario_defaults = {"seed": derive_seed(seed, "scenario")}
    scenario = _build_dataclass(ScenarioConfig, scenario_map, "scenario", defaults=scenario_defaults)
    propagation = _build_dataclass(
        PropagationConfig, _require_map(doc.get("propagation"), "propagation"), "propagation"
    )

    dataset = _build_dataclass(DatasetConfig, _require_map(doc.get("dataset"), "dataset"), "dataset")

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

    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        scenario=scenario,
        propagation=propagation,
        dataset=dataset,
        experiments=experiments,
    )
