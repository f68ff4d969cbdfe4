"""One JSON reader and one writer for the package's dataclasses.

``read`` types a JSON value by a type hint, field by field for a dataclass,
by the same rules for a config section as for a stored record (the README's
"Config schema" lists them). A field with no default must be present, keys
that name no field are ignored, and every problem is collected, the
dataclass's own ``ValueError`` included. It also takes numpy numbers and
arrays, which JSON never holds, as plain Python values. ``check_fields``
applies the same rule to a dataclass instance's own fields, so every
constructor types its arguments as the reader does: the config dataclasses'
always, and the records' (``Bid``, ``ScenarioInstance``) wherever a field is
not already the exact type the reader stores. ``frozen_record`` makes the
records' classes. ``write`` is the inverse: fields as JSON values,
tuples and arrays as lists, non-finite floats as null.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import typing
from dataclasses import MISSING, FrozenInstanceError, asdict, dataclass, fields, is_dataclass

import numpy as np

Points = typing.NewType("Points", np.ndarray)  # an (n, 2) float array
MaybeInf = typing.NewType("MaybeInf", float)  # a float that may be +inf, null in JSON

_FLOAT_MAX = sys.float_info.max

# The JSON list each array hint is read from, and the array's shape.
_ARRAYS = {np.ndarray: (tuple[float, ...], (-1,)), Points: (tuple[tuple[float, float], ...], (-1, 2))}

_WORDS = {float: "a finite number", MaybeInf: "a finite number or null", int: "an integer",
          bool: "true or false", str: "a string", np.ndarray: "a list of finite numbers",
          Points: "a list of [x, y] pairs"}

# Cached per class: get_type_hints costs more than a whole read.
_hints = functools.cache(typing.get_type_hints)


def is_finite_number(val) -> bool:
    # What read takes for a float: a real number, not a bool, finite as a double.
    # Integers and fractions compare exactly (float(10**400) raises); other
    # reals convert first, since comparing a float32 with _FLOAT_MAX casts the
    # bound to inf.
    if isinstance(val, (bool, np.bool_)) or not isinstance(val, numbers.Real):
        return False
    return abs(val) <= _FLOAT_MAX if isinstance(val, numbers.Rational) else math.isfinite(val)


class FieldErrors(ValueError):
    """Every problem found reading one JSON value, one line each."""

    def __init__(self, what: str, problems: list[str]):
        self.problems = list(problems)
        super().__init__(f"invalid {what}:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _describe(hint) -> str:
    if hint in _WORDS:
        return _WORDS[hint]
    if is_dataclass(hint):
        return "an object"
    items = typing.get_args(hint)
    return "a list" if items[-1] is Ellipsis else f"a list of length {len(items)}"


def read(hint, val, where: str, problems: list[str]):
    """``val`` as the type ``hint`` names. If it is not one, appends a line
    per problem, naming ``where``, to ``problems`` and returns None."""
    start = len(problems)
    if hint is MaybeInf and val is None:
        return math.inf
    if hint is float or hint is MaybeInf:
        if is_finite_number(val):
            return float(val)
    elif hint is int:
        if isinstance(val, (int, np.integer)) and not isinstance(val, bool):
            return int(val)
    elif hint is str or hint is bool:
        if isinstance(val, hint):
            return hint(val)
    elif is_dataclass(hint):
        if isinstance(val, dict):
            hints, values = _hints(hint), {}
            for f in fields(hint):
                if f.name in val:
                    values[f.name] = read(hints[f.name], val[f.name], f"{where}.{f.name}", problems)
                elif f.default is MISSING and f.default_factory is MISSING:
                    problems.append(f"{where}.{f.name} is missing")
            if len(problems) > start:
                return None
            try:
                return hint(**values)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                return None
    elif isinstance(val, (list, tuple)) or isinstance(val, np.ndarray) and val.ndim:
        list_hint, shape = _ARRAYS.get(hint, (hint, None))
        items = typing.get_args(list_hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(val)
        if len(items) == len(val):
            out = tuple(read(h, v, f"{where}[{i}]", problems) for i, (h, v) in enumerate(zip(items, val)))
            if len(problems) > start:
                return None
            return out if shape is None else np.array(out, float).reshape(shape)
    problems.append(f"{where} must be {_describe(hint)}, got {val!r}")
    return None


def check_fields(obj) -> None:
    """Types each field of the dataclass instance ``obj`` in place by
    ``read``'s rule, storing the value ``read`` returns; raises one
    ValueError naming every mistyped field."""
    problems: list[str] = []
    hints = _hints(type(obj))
    for f in fields(obj):
        object.__setattr__(obj, f.name, read(hints[f.name], getattr(obj, f.name), f.name, problems))
    if problems:
        raise ValueError("; ".join(problems))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_record(cls):
    """``dataclass(frozen=True, slots=True)`` applied to ``cls``, with the
    generated ``__init__`` swapped for one that stores each field through
    its slot descriptor's ``__set__``, bound once here, where the
    dataclass's calls ``object.__setattr__`` by name. Parameters, defaults
    and the ``__post_init__`` call are the dataclass's; eq, hash, repr,
    pickle, ``replace`` and ``__match_args__`` are left as the dataclass
    makes them. Assigning or deleting any name raises FrozenInstanceError
    in the dataclass's words, where the dataclass's own methods raise a
    TypeError for a name that is not a field: their ``super()`` call names
    the class that ``slots=True`` replaced. A field takes a plain default
    or none."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    env, params, body = {}, [], []
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain default or none")
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        body.append(f"    _set_{f.name}(self, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields(cls)}, "return": None}
    cls.__init__ = init
    return cls


def read_record(cls, record, format: str, version: int):
    """A ``cls`` read from a record that ``write`` headed with ``format`` and
    ``version``; raises ValueError, listing every problem of the fields."""
    kind = format.rsplit("/", 1)[-1]
    if not isinstance(record, dict):
        raise ValueError(f"not a {kind} record: the top level must be a JSON object")
    if record.get("format") != format:
        raise ValueError(f"not a {kind} record: {record.get('format')!r}")
    found = record.get("version")
    # A JSON integer: true and 1.0 compare equal to 1 but are not versions.
    if not (type(found) is int and found == version):
        raise ValueError(f"unsupported record version {found!r}")
    problems: list[str] = []
    out = read(cls, record, kind, problems)
    if problems:
        raise FieldErrors(f"{kind} record", problems)
    return out


def _plain(val):
    if isinstance(val, np.ndarray):
        val = val.tolist()
    if isinstance(val, dict):
        return {key: _plain(v) for key, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_plain(v) for v in val]
    return None if isinstance(val, float) and not math.isfinite(val) else val


def write(obj, **header) -> dict:
    """The ``header`` keys, then the dataclass ``obj``'s fields as JSON values."""
    return {**header, **_plain(asdict(obj))}
