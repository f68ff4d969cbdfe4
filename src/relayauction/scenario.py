"""Random problem instances: geometry, line-of-sight blockage, and channels.

The access point sits at the origin and the source at q_s; a circular
blockage on the segment between them puts the direct link in a deep fade
(NLOS path loss), while relay candidates are sampled uniformly from the
region with clear line of sight to both endpoints and enjoy LOS path loss.
Channel powers combine a log-distance law with unit-mean exponential
(Rayleigh) fading, drawn independently per link.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import Points, check_fields, plain, read_record, write
from .schedule import SystemParams

RECORD_FORMAT = "relayauction/scenario-instance"
RECORD_VERSION = 1

# Per-candidate rejection-sampling budget; exhausting it means the doubly-LOS
# region is a negligible fraction of the sampling box, i.e. a config error.
REJECTION_BUDGET = 10_000
_BATCH = 256
_FLOAT = np.dtype(float)
_SLICE = 32  # batch rows converted to Python floats at a time; n <= 8 rarely needs more


@dataclass(frozen=True)
class GeometryConfig:
    """Positions are meters; the access point is pinned at the origin."""

    q_s_m: tuple[float, float] = (7.0, 7.0)
    blockage_center_m: tuple[float, float] = (3.5, 3.5)
    blockage_radius_m: float = 1.0
    # (xmin, xmax, ymin, ymax) candidate sampling rectangle
    sampling_box_m: tuple[float, float, float, float] = (1.5, 6.5, 1.5, 6.5)

    def __post_init__(self):
        check_fields(self)
        problems = []
        if not self.blockage_radius_m > 0.0:
            problems.append("blockage_radius_m must be strictly positive")
        xmin, xmax, ymin, ymax = self.sampling_box_m
        if not (xmax > xmin and ymax > ymin):
            problems.append("sampling_box_m must have positive area")
        r2 = self.blockage_radius_m**2
        cx, cy = self.blockage_center_m
        if cx * cx + cy * cy <= r2:
            problems.append("access point (origin) must lie outside the blockage disc")
        qx, qy = self.q_s_m
        if (qx - cx) ** 2 + (qy - cy) ** 2 <= r2:
            problems.append("source position must lie outside the blockage disc")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class ChannelConfig:
    """Log-distance path-loss parameters (intercepts in dB at 1 m)."""

    k_nlos_db: float = -25.0
    eta_nlos: float = 5.76
    k_los_db: float = 0.0
    eta_los: float = 2.5

    def __post_init__(self):
        check_fields(self)
        if not (self.eta_nlos > self.eta_los > 0.0):
            raise ValueError(
                "expected eta_nlos > eta_los > 0 (the direct link must fade deeper)"
            )


@dataclass(frozen=True)
class ScenarioInstance:
    """One experiment's positions, channel powers, and effective channels.

    All arrays are indexed by candidate. alpha_tilde is the end-to-end WPT
    efficiency h_si * a_r * alpha; z values follow
    z0 = sigma2 / h_s and z[i] = sigma2 * (1/h_si[i] + 1/(alpha_tilde[i]*h_i[i])).
    """

    candidate_positions_m: Points
    h_s: float
    h_i: np.ndarray
    h_si: np.ndarray
    alpha_tilde: np.ndarray
    z0_w: float
    z_w: np.ndarray = field(repr=False)

    def __post_init__(self):
        # An ndarray of float64 is what plain returns for it, so it is kept
        # without re-typing; its shape and range are checked all the same.
        pos = self.candidate_positions_m
        if not (type(pos) is np.ndarray and pos.dtype is _FLOAT):
            pos = plain(Points, pos, "candidate_positions_m")
            object.__setattr__(self, "candidate_positions_m", pos)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"candidate_positions_m must be a list of [x, y] pairs, got shape {pos.shape}")
        for name in ("h_s", "z0_w"):
            object.__setattr__(self, name, plain(float, getattr(self, name), name))
        n = len(pos)
        names = ("h_i", "h_si", "alpha_tilde", "z_w")
        for name in names:
            arr = getattr(self, name)
            if not (type(arr) is np.ndarray and arr.dtype is _FLOAT):
                arr = plain(np.ndarray, arr, name)
                object.__setattr__(self, name, arr)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per candidate position, got shape {arr.shape}")
        # Finite and > 0, as the record path requires: one test for all four
        # arrays; the first field in declaration order that fails is named.
        values = np.concatenate([getattr(self, name) for name in names])
        finite = 0.0 < self.h_s < math.inf and 0.0 < self.z0_w < math.inf
        if not (finite and (not n or values.min() > 0.0 and values.max() < math.inf)):
            for name in ("h_s", "h_i", "h_si", "alpha_tilde", "z0_w", "z_w"):
                value = np.asarray(getattr(self, name))
                if not ((value > 0.0) & (value < np.inf)).all():
                    raise ValueError(f"{name}{' entries' if value.ndim else ''} must be strictly positive and finite")

    @property
    def n_candidates(self) -> int:
        return len(self.z_w)

    def to_record(self) -> dict:
        return write(self, format=RECORD_FORMAT, version=RECORD_VERSION)

    @classmethod
    def from_record(cls, record: dict) -> "ScenarioInstance":
        return read_record(cls, record, RECORD_FORMAT, RECORD_VERSION)


def _segment_clears(px: float, py: float, ex: float, ey: float, cx: float, cy: float, radius: float) -> bool:
    # Whether segment (px, py)-(ex, ey) clears the disc about (cx, cy): squared
    # point-to-segment distance against squared radius, each operation in a
    # fixed order so that each decision is one IEEE result; len2 == 0 is a point.
    dx = ex - px
    dy = ey - py
    len2 = dx * dx + dy * dy
    t = ((cx - px) * dx + (cy - py) * dy) / len2 if len2 > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ox = cx - (px + t * dx)
    oy = cy - (py + t * dy)
    return ox * ox + oy * oy > radius * radius


def has_los(p, q, geom: GeometryConfig) -> bool:
    """True iff segment [p, q] clears the blockage disc (distance > radius)."""
    (px, py), (qx, qy) = np.asarray(p, float).tolist(), np.asarray(q, float).tolist()
    return _segment_clears(px, py, qx, qy, *geom.blockage_center_m, geom.blockage_radius_m)


class SamplingExhausted(RuntimeError, ValueError):
    """Rejection sampling ran out of attempts: a config error, not a numerical one."""


def sample_candidates(n: int, geom: GeometryConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions over the part of the box with LOS to both endpoints.

    Plain rejection sampling in fixed-size batches (so draw counts, and hence
    reproducibility, do not depend on how many candidates are requested at
    once). Each batch is ``rng.uniform``'s draw, low + (high - low) * u. Its
    points are tested in order, and sampling stops at the n-th that passes.
    Raises SamplingExhausted when the budget of 10^4 attempts per candidate
    is exhausted.
    """
    if n < 0:
        raise ValueError("candidate count must be non-negative")
    if n == 0:
        return np.empty((0, 2))
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    sx, sy = xmax - xmin, ymax - ymin
    (qx, qy), (cx, cy), r = geom.q_s_m, geom.blockage_center_m, geom.blockage_radius_m
    out: list[tuple[float, float]] = []
    attempts = 0
    budget = REJECTION_BUDGET * n
    while True:
        if attempts >= budget:
            raise SamplingExhausted(
                f"rejection sampling exhausted {budget} attempts for {n} candidates; "
                f"the doubly-LOS region inside {geom.sampling_box_m} is too small"
            )
        u = rng.random((_BATCH, 2))
        attempts += _BATCH
        for i in range(0, _BATCH, _SLICE):
            for ux, uy in u[i : i + _SLICE].tolist():
                x, y = xmin + ux * sx, ymin + uy * sy
                # LOS to the access point (origin), then to the source.
                if _segment_clears(x, y, 0.0, 0.0, cx, cy, r) and _segment_clears(x, y, qx, qy, cx, cy, r):
                    out.append((x, y))
                    if len(out) == n:
                        return np.array(out)


@functools.lru_cache(maxsize=64)
def _path_loss_constants(q_s_m: tuple[float, float], chan: ChannelConfig) -> tuple[float, float]:
    """The direct link's path loss k_nlos * d_s**-eta_nlos, and k_los.

    Computed and checked once per source position and channel: a source at
    or next to the access point has no finite path loss, and one far enough
    away has none above zero."""
    d_s = float(np.hypot(*q_s_m))
    try:
        source_loss = 10.0 ** (chan.k_nlos_db / 10.0) * d_s ** (-chan.eta_nlos)
    except ArithmeticError:  # 0 ** -eta divides by zero; a tiny d_s overflows
        source_loss = math.inf
    if not 0.0 < source_loss < math.inf:
        raise ValueError(
            f"q_s_m {list(q_s_m)} gives the direct link a path loss k_nlos*d_s^-eta_nlos of "
            f"{source_loss!r} (k_nlos_db {chan.k_nlos_db!r}, eta_nlos {chan.eta_nlos!r}); "
            "it must be strictly positive and finite"
        )
    return source_loss, 10.0 ** (chan.k_los_db / 10.0)


def build_instance(
    positions: np.ndarray,
    fading_s: float,
    fading_i: np.ndarray,
    fading_si: np.ndarray,
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
) -> ScenarioInstance:
    """Deterministic instance assembly from positions and fading draws."""
    positions = np.asarray(positions, float)
    qx, qy = geom.q_s_m
    source_loss, k_los = _path_loss_constants(geom.q_s_m, chan)
    h_s = source_loss * float(fading_s)
    # Both LOS links, to the access point (origin) and then the source, in Python
    # floats; only their path loss takes numpy's power, whose last bits libm's
    # pow does not match.
    xs, ys = positions[:, 0].tolist(), positions[:, 1].tolist()
    d2 = [x * x + y * y for x, y in zip(xs, ys)]
    d2 += [(x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in zip(xs, ys)]
    loss = (np.sqrt(d2) ** (-chan.eta_los)).tolist()
    fading = np.array((fading_i, fading_si), float).ravel().tolist()
    h = [k_los * g * f for g, f in zip(loss, fading, strict=True)]
    h_i, h_si = h[: len(xs)], h[len(xs) :]
    alpha_tilde = [g * params.a_r_m2 * params.alpha for g in h_si]
    # A zero or underflowed channel divides to inf, as in numpy; the instance rejects it.
    z0 = params.sigma2_w / h_s if h_s else math.inf
    z = [params.sigma2_w * (1.0 / g + 1.0 / (a * hi)) if g and a * hi else math.inf
         for g, a, hi in zip(h_si, alpha_tilde, h_i)]
    h_i, h_si, alpha_tilde, z = np.array((h_i, h_si, alpha_tilde, z))
    return ScenarioInstance(positions, h_s, h_i, h_si, alpha_tilde, z0, z)


def sample_instance(
    n: int,
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
    rng: np.random.Generator,
) -> ScenarioInstance:
    """Sample candidate positions, then one Exp(1) fading draw per link.

    Draw order is fixed (positions, source fading, candidate-AP fadings,
    source-candidate fadings) so a given generator state maps to exactly one
    instance. The fadings are one draw of 2n + 1 standard exponentials, the
    same stream as three ``exponential`` calls.
    """
    if n < 1:
        raise ValueError("need at least one candidate")
    positions = sample_candidates(n, geom, rng)
    fading = rng.standard_exponential(2 * n + 1)
    return build_instance(positions, fading[0], fading[1 : n + 1], fading[n + 1 :], geom, chan, params)
