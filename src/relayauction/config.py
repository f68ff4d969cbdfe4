"""One JSON config schema shared by every CLI command.

The four frozen parameter dataclasses are the schema: their fields name the
keys, their defaults fill the keys left out, their type hints type the
values (by ``jsonio.read``, the reader stored records use too) and their
``__post_init__`` checks the ranges. Keys carry their units (lambda_w,
sigma2_w, d_bits_per_hz, ...) so a misconfigured unit is visible in the
file itself. Validation reports every violation at once: unknown sections
and keys, every mistyped value, and every range problem of each section.
Resolution echoes each default actually used so the run manifest never
hides one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone

from .jsonio import FieldErrors, read, write
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

DEFAULT_CONFIG: dict = {section: write(cls()) for section, cls in SECTIONS.items()}


class ConfigError(FieldErrors):
    """Carries the complete list of validation problems."""

    def __init__(self, problems: list[str]):
        super().__init__("configuration", problems)


@dataclass(frozen=True)
class ResolvedConfig:
    system: SystemParams
    geometry: GeometryConfig
    channel: ChannelConfig
    sweep: SweepConfig

    def as_dict(self) -> dict:
        return {section: write(getattr(self, section)) for section in SECTIONS}


def resolve_config(config: dict | None = None) -> ResolvedConfig:
    """Merge a (possibly partial) config onto the defaults and validate.

    Raises ConfigError listing every violation, not just the first.
    """
    config = config or {}
    problems = [f"unknown section {section!r}" for section in config if section not in SECTIONS]
    resolved = {}
    for section, cls in SECTIONS.items():
        given = config.get(section, {})
        if isinstance(given, dict):
            names = {f.name for f in fields(cls)}
            problems += [f"unknown key {section}.{key}" for key in given if key not in names]
        resolved[section] = read(cls, given, section, problems)
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
        return write(self, format=MANIFEST_FORMAT, version=MANIFEST_VERSION)


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
