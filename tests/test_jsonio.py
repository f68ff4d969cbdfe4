"""The one field-typing rule: ``jsonio.read`` for JSON values, and
``jsonio.check_fields`` for the four config dataclasses' constructors."""

import dataclasses
import json
import math
import typing
import warnings
from fractions import Fraction

import numpy as np
import pytest

from relayauction.jsonio import is_finite_number, read, write
from relayauction.montecarlo import SweepConfig
from relayauction.scenario import ChannelConfig, GeometryConfig
from relayauction.schedule import SystemParams

FIELDS = [
    (cls, f.name)
    for cls in (SystemParams, GeometryConfig, ChannelConfig, SweepConfig)
    for f in dataclasses.fields(cls)
]
FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name in FIELDS]

BAD = [True, np.bool_(True), math.inf, math.nan, "1", None, (1.0, 2.0, 3.0), [[1.0]]]
BAD_IDS = ["true", "np-bool", "inf", "nan", "string", "none", "three-tuple", "nested-list"]


def _read(cls, name, value):
    problems: list[str] = []
    typed = read(typing.get_type_hints(cls)[name], value, name, problems)
    return typed, problems


def _build(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        return str(exc)


def _plain(value) -> bool:
    if type(value) is tuple:
        return all(map(_plain, value))
    return type(value) in (float, int, str)


@pytest.mark.parametrize(
    "val,finite",
    [
        (np.float32("inf"), False),
        (np.float16("inf"), False),
        (np.float32("nan"), False),
        (10**400, False),
        (-(10**400), False),
        (Fraction(10**400, 3), False),
        (np.float32(1.5), True),
        (np.float16(-2.0), True),
        (10**300, True),
        (np.int64(-3), True),
        (Fraction(1, 3), True),
    ],
)
def test_is_finite_number(val, finite):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast-overflow RuntimeWarning either
        assert is_finite_number(val) == finite


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("cls,name", FIELDS, ids=FIELD_IDS)
def test_a_mistyped_field_is_named(cls, name, value):
    typed, problems = _read(cls, name, value)
    if problems:
        with pytest.raises(ValueError) as err:
            cls(**{name: value})
        assert str(err.value) == "; ".join(problems)
        assert str(err.value).startswith(name)
    else:
        # Typed as read types it, the value meets the same range checks.
        assert _build(cls, **{name: value}) == _build(cls, **{name: typed})


def _good_values(default):
    if isinstance(default, tuple):
        out = [list(default), np.array(default)]
        if isinstance(default[0], float):
            out.append(np.array(default, np.float32))
        elif isinstance(default[0], int):
            out.append(tuple(map(np.int64, default)))
        return out
    if isinstance(default, int):
        return [np.int64(default), np.uint64(default)]
    return [np.float32(default)] + ([np.int64(default)] if default.is_integer() else [])


GOOD = [
    (cls, name, value)
    for cls, name in FIELDS
    for value in _good_values(getattr(cls(), name))
]


@pytest.mark.parametrize(
    "cls,name,value", GOOD, ids=[f"{cls.__name__}.{name}-{i}" for i, (cls, name, _) in enumerate(GOOD)]
)
def test_numpy_numbers_and_arrays_are_stored_plain(cls, name, value):
    typed, problems = _read(cls, name, value)
    assert not problems and _plain(typed)
    obj = cls(**{name: value})
    stored = getattr(obj, name)
    assert stored == typed and type(stored) is type(typed) and _plain(stored)
    assert obj == cls(**{name: typed}) and hash(obj) == hash(cls(**{name: typed}))
    json.dumps(write(obj), allow_nan=False)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(q_s_m=(7.0, 7.0, 1.0)), "q_s_m must be a list of length 2, got (7.0, 7.0, 1.0)"),
        (dict(q_s_m=(7.0, math.inf), blockage_radius_m=True),
         "q_s_m[1] must be a finite number, got inf; blockage_radius_m must be a finite number, got True"),
    ],
)
def test_every_mistyped_field_in_one_error(kwargs, message):
    with pytest.raises(ValueError) as err:
        GeometryConfig(**kwargs)
    assert str(err.value) == message
