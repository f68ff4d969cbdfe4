"""Random problem instances: geometry, line-of-sight blockage, and channels.

The access point sits at the origin and the source at q_s; a circular
blockage on the segment between them puts the direct link in a deep fade
(NLOS path loss), while relay candidates are sampled uniformly from the
region with clear line of sight to both endpoints and enjoy LOS path loss.
Channel powers combine a log-distance law with unit-mean exponential
(Rayleigh) fading, drawn independently per link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jsonio import Points, read_record, write
from .schedule import SystemParams

RECORD_FORMAT = "relayauction/scenario-instance"
RECORD_VERSION = 1

# Per-candidate rejection-sampling budget; exhausting it means the doubly-LOS
# region is a negligible fraction of the sampling box, i.e. a config error.
REJECTION_BUDGET = 10_000
_BATCH = 256


@dataclass(frozen=True)
class GeometryConfig:
    """Positions are meters; the access point is pinned at the origin."""

    q_s_m: tuple[float, float] = (7.0, 7.0)
    blockage_center_m: tuple[float, float] = (3.5, 3.5)
    blockage_radius_m: float = 1.0
    # (xmin, xmax, ymin, ymax) candidate sampling rectangle
    sampling_box_m: tuple[float, float, float, float] = (1.5, 6.5, 1.5, 6.5)

    def __post_init__(self):
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
        pos = np.asarray(self.candidate_positions_m, float)
        object.__setattr__(self, "candidate_positions_m", pos)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"candidate_positions_m must be a list of [x, y] pairs, got shape {pos.shape}")
        n = len(pos)
        if not (self.h_s > 0.0 and self.z0_w > 0.0):
            raise ValueError("source channel and z0 must be strictly positive")
        for name in ("h_i", "h_si", "alpha_tilde", "z_w"):
            arr = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, arr)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per candidate position, got shape {arr.shape}")
            if n and not (arr > 0.0).all():
                raise ValueError(f"{name} entries must be strictly positive")

    @property
    def n_candidates(self) -> int:
        return len(self.z_w)

    def to_record(self) -> dict:
        return write(self, format=RECORD_FORMAT, version=RECORD_VERSION)

    @classmethod
    def from_record(cls, record: dict) -> "ScenarioInstance":
        return read_record(cls, record, RECORD_FORMAT, RECORD_VERSION)


def _segments_clear(points: np.ndarray, endpoint: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    # Squared point-to-segment distance against squared radius; comparisons in
    # squared units keep the scalar and vector paths bit-consistent.
    d = endpoint - points
    len2 = (d * d).sum(axis=-1)
    denom = np.where(len2 > 0.0, len2, 1.0)
    t = np.where(len2 > 0.0, ((center - points) * d).sum(axis=-1) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = points + t[..., None] * d
    dist2 = ((center - proj) ** 2).sum(axis=-1)
    return dist2 > radius * radius


def has_los(p, q, geom: GeometryConfig) -> bool:
    """True iff segment [p, q] clears the blockage disc (distance > radius)."""
    res = _segments_clear(
        np.asarray(p, float),
        np.asarray(q, float),
        np.asarray(geom.blockage_center_m, float),
        geom.blockage_radius_m,
    )
    return bool(res)


def sample_candidates(n: int, geom: GeometryConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions over the part of the box with LOS to both endpoints.

    Plain rejection sampling in fixed-size batches (so draw counts, and hence
    reproducibility, do not depend on how many candidates are requested at
    once). Raises RuntimeError when the budget of 10^4 attempts per candidate
    is exhausted.
    """
    if n < 0:
        raise ValueError("candidate count must be non-negative")
    if n == 0:
        return np.empty((0, 2))
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    origin = np.zeros(2)
    q_s = np.asarray(geom.q_s_m, float)
    center = np.asarray(geom.blockage_center_m, float)
    out: list[np.ndarray] = []
    have = 0
    attempts = 0
    budget = REJECTION_BUDGET * n
    while have < n:
        if attempts >= budget:
            raise RuntimeError(
                f"rejection sampling exhausted {budget} attempts for {n} candidates; "
                f"the doubly-LOS region inside {geom.sampling_box_m} is too small"
            )
        pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(_BATCH, 2))
        attempts += _BATCH
        ok = _segments_clear(pts, origin, center, geom.blockage_radius_m) & _segments_clear(
            pts, q_s, center, geom.blockage_radius_m
        )
        kept = pts[ok]
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
    q_s = np.asarray(geom.q_s_m, float)
    d_s = float(np.hypot(*q_s))
    k_nlos = 10.0 ** (chan.k_nlos_db / 10.0)
    k_los = 10.0 ** (chan.k_los_db / 10.0)
    h_s = k_nlos * d_s ** (-chan.eta_nlos) * float(fading_s)
    d_i = np.sqrt((positions**2).sum(axis=1))
    d_si = np.sqrt(((positions - q_s) ** 2).sum(axis=1))
    h_i = k_los * d_i ** (-chan.eta_los) * np.asarray(fading_i, float)
    h_si = k_los * d_si ** (-chan.eta_los) * np.asarray(fading_si, float)
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
    instance.
    """
    if n < 1:
        raise ValueError("need at least one candidate")
    positions = sample_candidates(n, geom, rng)
    fading_s = rng.exponential()
    fading_i = rng.exponential(size=n)
    fading_si = rng.exponential(size=n)
    return build_instance(positions, fading_s, fading_i, fading_si, geom, chan, params)
