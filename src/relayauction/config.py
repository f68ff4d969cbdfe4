"""One JSON config schema shared by every CLI command.

Keys carry their units (lambda_w, sigma2_w, d_bits_per_hz, ...) so a
misconfigured unit is visible in the file itself. Validation reports every
violation at once, and resolution echoes each default actually used so the
run manifest never hides one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .montecarlo import MECHANISMS, SweepConfig
from .scenario import ChannelConfig, GeometryConfig
from .schedule import SystemParams

MANIFEST_FORMAT = "relayauction/run-manifest"
MANIFEST_VERSION = 1

DEFAULT_CONFIG: dict = {
    "system": {
        "d_bits_per_hz": 8.0,
        "lambda_w": 1.0,
        "p_max_w": 1.0,
        "sigma2_w": 1e-9,
        "a_r_m2": 1e-4,
        "alpha": 0.2,
    },
    "geometry": {
        "q_s_m": [7.0, 7.0],
        "blockage_center_m": [3.5, 3.5],
        "blockage_radius_m": 1.0,
        "sampling_box_m": [1.5, 6.5, 1.5, 6.5],
    },
    "channel": {
        "k_nlos_db": -25.0,
        "eta_nlos": 5.76,
        "k_los_db": 0.0,
        "eta_los": 2.5,
    },
    "sweep": {
        "n_values": [1, 2, 3, 4, 5, 6, 7, 8],
        "lambda_values_w": [1.0, 10.0, 100.0],
        "trials": 5000,
        "seed": 20260808,
        "mechanisms": ["cooperative", "mspoa"],
    },
}

_NUMERIC_KEYS = {
    ("system", "d_bits_per_hz"),
    ("system", "lambda_w"),
    ("system", "p_max_w"),
    ("system", "sigma2_w"),
    ("system", "a_r_m2"),
    ("system", "alpha"),
    ("geometry", "blockage_radius_m"),
    ("channel", "k_nlos_db"),
    ("channel", "eta_nlos"),
    ("channel", "k_los_db"),
    ("channel", "eta_los"),
}


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
        return {
            "system": asdict(self.system),
            "geometry": {
                "q_s_m": list(self.geometry.q_s_m),
                "blockage_center_m": list(self.geometry.blockage_center_m),
                "blockage_radius_m": self.geometry.blockage_radius_m,
                "sampling_box_m": list(self.geometry.sampling_box_m),
            },
            "channel": asdict(self.channel),
            "sweep": {
                "n_values": list(self.sweep.n_values),
                "lambda_values_w": list(self.sweep.lambda_values_w),
                "trials": self.sweep.trials,
                "seed": self.sweep.seed,
                "mechanisms": list(self.sweep.mechanisms),
            },
        }


def _check_structure(config: dict, problems: list[str]) -> None:
    for section in config:
        if section not in DEFAULT_CONFIG:
            problems.append(f"unknown section {section!r}")
            continue
        if not isinstance(config[section], dict):
            problems.append(f"section {section!r} must be an object")
            continue
        for key, val in config[section].items():
            if key not in DEFAULT_CONFIG[section]:
                problems.append(f"unknown key {section}.{key}")
                continue
            if (section, key) in _NUMERIC_KEYS and not _is_number(val):
                problems.append(f"{section}.{key} must be a finite number, got {val!r}")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and math.isfinite(val)


def _pair(val, name, problems):
    if not (isinstance(val, (list, tuple)) and len(val) == 2 and all(_is_number(v) for v in val)):
        problems.append(f"{name} must be a pair of finite numbers, got {val!r}")
        return (0.0, 0.0)
    return (float(val[0]), float(val[1]))


def resolve_config(config: dict | None = None) -> ResolvedConfig:
    """Merge a (possibly partial) config onto the defaults and validate.

    Raises ConfigError listing every violation, not just the first.
    """
    config = config or {}
    problems: list[str] = []
    _check_structure(config, problems)
    # Merge only known keys so value-level validation still runs (and can
    # report its own problems) even when unknown keys are present.
    merged = {}
    for section in DEFAULT_CONFIG:
        given = config.get(section, {})
        given = given if isinstance(given, dict) else {}
        merged[section] = {
            key: given.get(key, default) for key, default in DEFAULT_CONFIG[section].items()
        }

    sys_d = merged["system"]
    geo_d = merged["geometry"]
    cha_d = merged["channel"]
    swe_d = merged["sweep"]

    q_s = _pair(geo_d["q_s_m"], "geometry.q_s_m", problems)
    center = _pair(geo_d["blockage_center_m"], "geometry.blockage_center_m", problems)
    box = geo_d["sampling_box_m"]
    if not (isinstance(box, (list, tuple)) and len(box) == 4 and all(_is_number(v) for v in box)):
        problems.append(f"geometry.sampling_box_m must be [xmin, xmax, ymin, ymax], got {box!r}")
        box = [0.0, 1.0, 0.0, 1.0]

    system = geometry = channel = sweep = None
    try:
        system = SystemParams(
            d_bits_per_hz=float(sys_d["d_bits_per_hz"]),
            lambda_w=float(sys_d["lambda_w"]),
            p_max_w=float(sys_d["p_max_w"]),
            sigma2_w=float(sys_d["sigma2_w"]),
            a_r_m2=float(sys_d["a_r_m2"]),
            alpha=float(sys_d["alpha"]),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"system: {exc}")
    try:
        geometry = GeometryConfig(
            q_s_m=q_s,
            blockage_center_m=center,
            blockage_radius_m=float(geo_d["blockage_radius_m"]),
            sampling_box_m=tuple(float(v) for v in box),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"geometry: {exc}")
    try:
        channel = ChannelConfig(
            k_nlos_db=float(cha_d["k_nlos_db"]),
            eta_nlos=float(cha_d["eta_nlos"]),
            k_los_db=float(cha_d["k_los_db"]),
            eta_los=float(cha_d["eta_los"]),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"channel: {exc}")
    try:
        sweep = SweepConfig(
            n_values=tuple(swe_d["n_values"]),
            lambda_values_w=tuple(swe_d["lambda_values_w"]),
            trials=int(swe_d["trials"]),
            seed=int(swe_d["seed"]),
            mechanisms=tuple(swe_d["mechanisms"]),
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"sweep: {exc}")
    if problems:
        raise ConfigError(problems)
    return ResolvedConfig(system=system, geometry=geometry, channel=channel, sweep=sweep)


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
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "config_path": self.config_path,
            "resolved_params": self.resolved_params,
            "artifact_version": self.artifact_version,
            "seed": self.seed,
            "started": self.started,
            "finished": self.finished,
        }


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()
