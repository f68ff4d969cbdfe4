"""One JSON config schema shared by every CLI command.

The four frozen parameter dataclasses are the schema: their fields name the
keys, their defaults fill the keys left out, their type hints type the
values and their ``__post_init__`` checks the ranges. Keys carry their
units (lambda_w, sigma2_w, d_bits_per_hz, ...) so a misconfigured unit is
visible in the file itself. Validation reports every violation at once, and
resolution echoes each default actually used so the run manifest never
hides one.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .montecarlo import SweepConfig
from .scenario import ChannelConfig, GeometryConfig
from .schedule import SystemParams

MANIFEST_FORMAT = "relayauction/run-manifest"
MANIFEST_VERSION = 1

SECTIONS = {
    "system": SystemParams,
    "geometry": GeometryConfig,
    "channel": ChannelConfig,
    "sweep": SweepConfig,
}

# Resolved once: typing.get_type_hints costs far more than a whole resolve.
_HINTS = {section: typing.get_type_hints(cls) for section, cls in SECTIONS.items()}

_FLOAT_MAX = sys.float_info.max

# (singular, plural) wording of each scalar type in error messages.
_WORDS = {float: ("a finite number", "finite numbers"), int: ("an integer", "integers"),
          str: ("a string", "strings")}


def _as_json(params) -> dict:
    return {key: list(val) if isinstance(val, tuple) else val for key, val in asdict(params).items()}


DEFAULT_CONFIG: dict = {section: _as_json(cls()) for section, cls in SECTIONS.items()}


def _convert(hint, val):
    """``val`` as the type ``hint`` names; raises TypeError if it is not one.

    Booleans are not numbers, floats must be finite (an integer too large
    for a double is not), integers must be JSON integers, and a tuple hint
    takes a list of its length (any length for ``tuple[X, ...]``).
    """
    if hint is float:
        if isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= _FLOAT_MAX:
            return float(val)
    elif hint is int:
        if isinstance(val, int) and not isinstance(val, bool):
            return val
    elif hint is str:
        if isinstance(val, str):
            return val
    elif isinstance(val, (list, tuple)):
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(val)
        if len(items) == len(val):
            return tuple(_convert(h, v) for h, v in zip(items, val))
    raise TypeError(val)


def _describe(hint) -> str:
    items = typing.get_args(hint)
    if not items:
        return _WORDS[hint][0]
    if items[-1] is Ellipsis:
        return f"a list of {_WORDS[items[0]][1]}"
    return f"a list of {len(items)} {_WORDS[items[0]][1]}"


class ConfigError(ValueError):
    """Carries the complete list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass(frozen=True)
class ResolvedConfig:
    system: SystemParams
    geometry: GeometryConfig
    channel: ChannelConfig
    sweep: SweepConfig

    def as_dict(self) -> dict:
        return {section: _as_json(getattr(self, section)) for section in SECTIONS}


def resolve_config(config: dict | None = None) -> ResolvedConfig:
    """Merge a (possibly partial) config onto the defaults and validate.

    Raises ConfigError listing every violation, not just the first.
    """
    config = config or {}
    problems = [f"unknown section {section!r}" for section in config if section not in SECTIONS]
    resolved = {}
    for section, cls in SECTIONS.items():
        given = config.get(section, {})
        if not isinstance(given, dict):
            problems.append(f"section {section!r} must be an object")
            continue
        values = {}
        typed = True
        for key, val in given.items():
            hint = _HINTS[section].get(key)
            if hint is None:
                problems.append(f"unknown key {section}.{key}")
                continue
            try:
                values[key] = _convert(hint, val)
            except TypeError:
                problems.append(f"{section}.{key} must be {_describe(hint)}, got {val!r}")
                typed = False
        if typed:
            try:
                resolved[section] = cls(**values)
            except ValueError as exc:
                problems.append(f"{section}: {exc}")
    if problems:
        raise ConfigError(problems)
    return ResolvedConfig(**resolved)


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(config, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return config


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, defaults included."""

    config_path: str
    resolved_params: dict
    artifact_version: str
    seed: int
    started: str
    finished: str

    def to_record(self) -> dict:
        return {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, **asdict(self)}


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
