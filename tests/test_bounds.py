"""Declared field bounds: the message of each kind of rule, and a guard that
every number of a config section declares its range.

A config dataclass field holding an int, a float or a tuple of them must
declare a bound with `bound(...)`, or be listed in UNBOUNDED with the reason
no range applies, so a key added without a range fails here.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest

from beamloc.bounds import bound, check_fields
from beamloc.config import DatasetConfig
from beamloc.dtree import TreeConfig
from beamloc.evaluation import ExperimentDescriptor
from beamloc.fingerprint import FeatureConfig
from beamloc.mlp import TrainConfig
from beamloc.propagation import PropagationConfig
from beamloc.scenario import ScenarioConfig

CONFIG_SECTIONS = (ScenarioConfig, PropagationConfig, DatasetConfig, FeatureConfig, TrainConfig, TreeConfig,
                   ExperimentDescriptor)
NUMBER_TYPES = ("int", "float", "int | None", "tuple[int, ...]", "tuple[float, ...]")
UNBOUNDED = {
    "ScenarioConfig.seed": "any int seeds the scenario; seeds are hashed, never used as a size",
    "TrainConfig.seed": "derived from the arm's seed; the file may not set it",
    "ExperimentDescriptor.seed": "any int seeds the arm; seeds are hashed, never used as a size",
}


def test_every_number_of_a_config_section_declares_a_bound():
    numbers = {
        f"{cls.__name__}.{f.name}": "bound" in f.metadata
        for cls in CONFIG_SECTIONS
        for f in dataclasses.fields(cls)
        if f.type in NUMBER_TYPES
    }
    assert [name for name, bounded in numbers.items() if not bounded and name not in UNBOUNDED] == []
    # the list names only fields that exist and have no bound
    assert [name for name in UNBOUNDED if numbers.get(name, True)] == []


@dataclass(frozen=True)
class Example:
    positive: float = bound(1.0, gt=0)
    count: int = bound(1, ge=1)
    fraction: float = bound(0.5, ge=0, lt=1)
    width: float = bound(10.0, gt=0, le=300)
    kind: str = bound("a", choices=("a", "b"))
    depth: int | None = bound(None, ge=0)
    steers: tuple[float, ...] = bound((0.0,), ge=-90, le=90)
    corner: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"positive": 0}, "positive must be > 0, got 0"),
        ({"count": 0}, "count must be >= 1, got 0"),
        ({"fraction": 1.0}, r"fraction must be in \[0, 1\), got 1.0"),
        ({"width": 300.5}, r"width must be in \(0, 300\], got 300.5"),
        ({"kind": "c"}, r"kind must be one of \('a', 'b'\), got 'c'"),
        ({"kind": []}, r"kind must be one of \('a', 'b'\), got \[\]"),
        ({"depth": -1}, "depth must be >= 0, got -1"),
        ({"steers": [0.0, 91.0]}, r"steers must be in \[-90, 90\], got \(0.0, 91.0\)"),
        ({"positive": float("nan")}, "positive must be finite, got nan"),
        ({"width": float("inf")}, "width must be finite, got inf"),
        ({"corner": (0.0, float("-inf"))}, r"corner must be finite, got \(0.0, -inf\)"),
        # an int too large for a float is compared exactly, not overflowed
        ({"width": 10**400}, r"width must be in \(0, 300\], got 1000"),
    ],
)
def test_each_rule_names_the_field_and_the_value(values, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        Example(**values)


def test_a_list_becomes_a_tuple_and_unset_optionals_and_unbounded_ints_pass():
    example = Example(steers=[-90, 0.5, 90], depth=None, seed=-(10**30))
    assert example.steers == (-90, 0.5, 90) and isinstance(example.steers, tuple)
    assert hash(example) == hash(Example(steers=(-90, 0.5, 90), seed=-(10**30)))
