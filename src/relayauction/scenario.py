"""Random problem instances: geometry, line-of-sight blockage, and channels.

The access point sits at the origin and the source at q_s; a circular
blockage on the segment between them puts the direct link in a deep fade
(NLOS path loss), while relay candidates are sampled uniformly from the
region with clear line of sight to both endpoints and enjoy LOS path loss.
Channel powers combine a log-distance law with unit-mean exponential
(Rayleigh) fading, drawn independently per link.
"""

from __future__ import annotations

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
# Points of a batch tested first; they usually hold every candidate needed.
_PREFIX = 32


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
        pos = plain(Points, self.candidate_positions_m, "candidate_positions_m")
        object.__setattr__(self, "candidate_positions_m", pos)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"candidate_positions_m must be a list of [x, y] pairs, got shape {pos.shape}")
        for name in ("h_s", "z0_w"):
            object.__setattr__(self, name, plain(float, getattr(self, name), name))
        n = len(pos)
        names = ("h_i", "h_si", "alpha_tilde", "z_w")
        for name in names:
            arr = plain(np.ndarray, getattr(self, name), name)
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


def _segments_clear(px, py, ex, ey, center, radius: float) -> np.ndarray:
    # Whether the segments from (px, py) to (ex, ey), coordinates broadcast,
    # clear the disc: squared point-to-segment distance against squared
    # radius, so the scalar and vector paths agree bit for bit. Each result
    # depends on its own segment alone, so a batch may be tested in parts
    # or against stacked endpoints with the same outcome.
    cx, cy = center
    dx = ex - px
    dy = ey - py
    len2 = dx * dx + dy * dy
    apart = len2 > 0.0
    t = np.where(apart, ((cx - px) * dx + (cy - py) * dy) / np.where(apart, len2, 1.0), 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    ox = cx - (px + t * dx)
    oy = cy - (py + t * dy)
    return ox * ox + oy * oy > radius * radius


def has_los(p, q, geom: GeometryConfig) -> bool:
    """True iff segment [p, q] clears the blockage disc (distance > radius)."""
    (px, py), (qx, qy) = np.asarray(p, float), np.asarray(q, float)
    return bool(_segments_clear(px, py, qx, qy, geom.blockage_center_m, geom.blockage_radius_m))


class SamplingExhausted(RuntimeError, ValueError):
    """Rejection sampling ran out of attempts: a config error, not a numerical one."""


def sample_candidates(n: int, geom: GeometryConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions over the part of the box with LOS to both endpoints.

    Plain rejection sampling in fixed-size batches (so draw counts, and hence
    reproducibility, do not depend on how many candidates are requested at
    once). Each batch is ``rng.uniform``'s draw, low + (high - low) * u. Its
    first 32 points are tested, and the rest only when those fall short.
    Raises SamplingExhausted when the budget of 10^4 attempts per candidate
    is exhausted.
    """
    if n < 0:
        raise ValueError("candidate count must be non-negative")
    if n == 0:
        return np.empty((0, 2))
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    low = np.array((xmin, ymin))
    span = np.array((xmax, ymax)) - low
    # Segment ends, one row each: the access point (origin) and the source.
    ex = np.array(((0.0,), (geom.q_s_m[0],)))
    ey = np.array(((0.0,), (geom.q_s_m[1],)))

    def clear(u):
        pts = low + u * span
        ok = _segments_clear(pts[:, 0], pts[:, 1], ex, ey, geom.blockage_center_m, geom.blockage_radius_m)
        return pts[ok[0] & ok[1]]

    out: list[np.ndarray] = []
    have = 0
    attempts = 0
    budget = REJECTION_BUDGET * n
    while have < n:
        if attempts >= budget:
            raise SamplingExhausted(
                f"rejection sampling exhausted {budget} attempts for {n} candidates; "
                f"the doubly-LOS region inside {geom.sampling_box_m} is too small"
            )
        u = rng.random((_BATCH, 2))
        attempts += _BATCH
        kept = clear(u[:_PREFIX])
        if have + len(kept) < n:
            kept = np.concatenate((kept, clear(u[_PREFIX:])))
        out.append(kept)
        have += len(kept)
    return np.concatenate(out)[:n]


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
    d_s = float(np.hypot(qx, qy))
    k_nlos = 10.0 ** (chan.k_nlos_db / 10.0)
    k_los = 10.0 ** (chan.k_los_db / 10.0)
    h_s = k_nlos * d_s ** (-chan.eta_nlos) * float(fading_s)
    # Both LOS links at once: rows are the access point (origin) and the source.
    dx = positions[:, 0] - np.array(((0.0,), (qx,)))
    dy = positions[:, 1] - np.array(((0.0,), (qy,)))
    dist = np.sqrt(dx * dx + dy * dy)
    h_i, h_si = k_los * dist ** (-chan.eta_los) * np.array((fading_i, fading_si), float)
    alpha_tilde = h_si * params.a_r_m2 * params.alpha
    z0 = params.sigma2_w / h_s
    z = params.sigma2_w * (1.0 / h_si + 1.0 / (alpha_tilde * h_i))
    return ScenarioInstance(
        candidate_positions_m=positions,
        h_s=h_s,
        h_i=h_i,
        h_si=h_si,
        alpha_tilde=alpha_tilde,
        z0_w=z0,
        z_w=z,
    )


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
