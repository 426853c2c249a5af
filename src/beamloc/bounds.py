"""Declared bounds of dataclass fields, and the one function that checks them.

A field declares its valid values once, `height: float = bound(10.0, gt=0)`,
and `__post_init__` calls `check_fields(self)`. That makes a list given for
a tuple field a tuple, and rejects by name a non-finite float or float-tuple
entry (`<name> must be finite, got <value>`) and a value or tuple entry out
of bound (`<name> must be <rule>, got <value>`, the rule reading `> 0`,
`>= 1`, `in [0, 1)` or `one of (...)`).
"""
from __future__ import annotations

import dataclasses
import math

FLOAT_TYPES = ("float", "tuple[float, ...]", "tuple[float, float]")


def bound(default=dataclasses.MISSING, *, gt=None, ge=None, lt=None, le=None, choices=None):
    """A dataclass field whose values `check_fields` holds to one lower limit
    (`gt` or `ge`) and at most one upper limit (`lt` or `le`), or to `choices`."""
    if choices is not None:
        rule, admits = f"one of {choices}", choices.__contains__
    else:
        low, high = (gt if ge is None else ge), (lt if le is None else le)

        def admits(value) -> bool:
            above = value > low if ge is None else value >= low
            return above and (high is None or (value < high if le is None else value <= high))

        if high is None:
            rule = f"{'>' if ge is None else '>='} {low:g}"
        else:
            rule = f"in {'(' if ge is None else '['}{low:g}, {high:g}{')' if le is None else ']'}"
    return dataclasses.field(default=default, metadata={"bound": (rule, admits)})


def check_fields(obj) -> None:
    """Make each tuple field of dataclass `obj` a tuple, and raise ValueError
    naming the first field with a non-finite float or a value out of bound."""
    for f in dataclasses.fields(obj):
        value, declared = getattr(obj, f.name), f.metadata.get("bound")
        if value is None and f.type.endswith("| None"):
            continue
        if f.type.startswith("tuple[") and isinstance(value, list):
            value = tuple(value)
            object.__setattr__(obj, f.name, value)
        for entry in value if f.type.startswith("tuple[") else (value,):
            # False for nan, and exact for an int of any size
            if f.type in FLOAT_TYPES and not -math.inf < entry < math.inf:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if declared is not None and not declared[1](entry):
                raise ValueError(f"{f.name} must be {declared[0]}, got {value!r}")
