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
import platform
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .jsonio import FieldErrors, read, write
from .montecarlo import SweepConfig
from .scenario import ChannelConfig, GeometryConfig
from .schedule import SystemParams

MANIFEST_FORMAT = "relayauction/run-manifest"
MANIFEST_VERSION = 2
# The float64 ufuncs whose SIMD target can change a sweep's last bits.
SIMD_UFUNCS = ("power", "sqrt", "exp", "expm1", "log1p")

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


def simd_targets() -> dict:
    """numpy's current SIMD target for each of SIMD_UFUNCS on float64, as
    ``opt_func_info`` names it; all None on numpy < 2, which cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return dict.fromkeys(SIMD_UFUNCS)
    info = opt_func_info(f"^({'|'.join(SIMD_UFUNCS)})$", "float64")
    return {name: next(iter(info.get(name, {}).values()), {}).get("current") for name in SIMD_UFUNCS}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, defaults included, and the
    Python, numpy and SIMD targets that produced its bytes."""

    config_path: str
    resolved_params: dict
    artifact_version: str
    seed: int
    started: str
    finished: str
    python: str = field(default_factory=platform.python_version)
    numpy: str = np.__version__
    simd_targets: dict = field(default_factory=simd_targets)

    def to_record(self) -> dict:
        return write(self, format=MANIFEST_FORMAT, version=MANIFEST_VERSION)


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
