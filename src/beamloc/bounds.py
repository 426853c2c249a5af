"""Declared types and bounds of dataclass fields, and the one function that
checks them, for a config built in code as for one read from YAML.

A field declares its type by annotation and its range once, as in
`height: float = bound(10.0, gt=0)`, and `__post_init__` calls
`check_fields(self)`. That rejects by name a wrong type before any
comparison (`<name> must be a bool, got str`), a non-finite float and a
value or tuple entry out of bound (`<name> must be in [0, 1), got 1.0`).
It stores a list as a tuple, and an int given for a float as a float.
"""
from __future__ import annotations

import dataclasses
import math


def _is_int(value) -> bool:
    # YAML `true` is an int to isinstance
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(admits):
    return lambda value: isinstance(value, (list, tuple)) and all(map(admits, value))


# what a field of each annotation accepts, and what its error says it must be;
# a field of another annotation (a nested config) is checked by its own class
TYPES = {
    "bool": (lambda value: isinstance(value, bool), "a bool"),
    "int": (_is_int, "an int"),
    "int | None": (lambda value: value is None or _is_int(value), "an int or null"),
    "float": (_is_number, "a number"),
    "tuple[float, ...]": (_list_of(_is_number), "a list of numbers"),
    "tuple[float, float]": (_list_of(_is_number), "a list of numbers"),
    "tuple[int, ...]": (_list_of(_is_int), "a list of ints"),
    "str": (lambda value: isinstance(value, str), "a string"),
}
FLOAT_TYPES = ("float", "tuple[float, ...]", "tuple[float, float]")


def bound(default=dataclasses.MISSING, *, gt=None, ge=None, lt=None, le=None, choices=None, max_len=None):
    """A dataclass field whose values `check_fields` holds to one lower limit
    (`gt` or `ge`) and at most one upper limit (`lt` or `le`), or to
    `choices`; a tuple field holds each entry to the limits, and at most
    `max_len` entries."""
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
    return dataclasses.field(default=default,
                             metadata={"bound": (rule, admits), "choices": choices, "max_len": max_len})


def check_value(cls, name: str, value):
    """Return `value` as field `name` of dataclass `cls` stores it, or raise
    the ValueError that `check_fields` would raise for it."""
    f = cls.__dataclass_fields__[name]
    declared, kind = f.metadata.get("bound"), TYPES.get(f.type)
    # a choice field is held to its choices alone, which admit no other type
    if kind is not None and f.metadata.get("choices") is None and not kind[0](value):
        got = repr(value) if f.type.startswith("tuple[") else type(value).__name__
        raise ValueError(f"{name} must be {kind[1]}, got {got}")
    if value is None and f.type.endswith("| None"):
        return value
    is_tuple = f.type.startswith("tuple[")
    if is_tuple and isinstance(value, list):
        value = tuple(value)
    if is_tuple and f.metadata.get("max_len") is not None and len(value) > f.metadata["max_len"]:
        raise ValueError(f"{name} must have at most {f.metadata['max_len']} entries, got {len(value)}")
    for entry in value if is_tuple else (value,):
        # False for nan, and exact for an int of any size
        if f.type in FLOAT_TYPES and not -math.inf < entry < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")
        if declared is not None and not declared[1](entry):
            raise ValueError(f"{name} must be {declared[0]}, got {value!r}")
    if f.type not in FLOAT_TYPES:
        return value
    # an int admitted above may still be too large for a float
    try:
        return tuple(map(float, value)) if is_tuple else float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def check_fields(obj) -> None:
    """Store each field of dataclass `obj` as `check_value` returns it, or
    raise its ValueError for the first field that fails."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, check_value(type(obj), f.name, getattr(obj, f.name)))
