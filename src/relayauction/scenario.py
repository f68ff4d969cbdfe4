"""Random problem instances: geometry, line-of-sight blockage, and channels.

The access point sits at the origin and the source at q_s; a circular
blockage on the segment between them puts the direct link in a deep fade
(NLOS path loss), while relay candidates are sampled uniformly from the
region with clear line of sight to both endpoints and enjoy LOS path loss.
Channel powers combine a log-distance law with unit-mean exponential
(Rayleigh) fading, drawn independently per link.

One builder assembles every instance in Python floats around one numpy
``sqrt`` and ``power`` of the 2n link lengths, from ``sample_instance``'s
draws (a sweep trial's path) or ``build_instance``'s arguments. The sampler
tests each candidate point against both of its segments in one call of the
predicate ``has_los`` also uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import Points, check_fields, read_record, write
from .schedule import SystemParams

RECORD_FORMAT = "relayauction/scenario-instance"
RECORD_VERSION = 1

# Per-candidate rejection-sampling budget; exhausting it means the doubly-LOS
# region is a negligible fraction of the sampling box, i.e. a config error.
REJECTION_BUDGET = 10_000
_BATCH = 256
_FLOAT = np.dtype(float)
_SLICE = 32  # batch points converted to Python floats at a time; n <= 8 rarely needs more
_ARRAY_FIELDS = ("h_i", "h_si", "alpha_tilde", "z_w")


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
        # Python floats and float64 arrays, which every builder passes, are
        # kept as they are; any other input is typed by the reader's rule.
        pos, h_i, h_si, at, z = self.candidate_positions_m, self.h_i, self.h_si, self.alpha_tilde, self.z_w
        if not (
            type(self.h_s) is type(self.z0_w) is float
            and type(pos) is type(h_i) is type(h_si) is type(at) is type(z) is np.ndarray
            and pos.dtype is h_i.dtype is h_si.dtype is at.dtype is z.dtype is _FLOAT
        ):
            check_fields(self)
            pos = self.candidate_positions_m
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"candidate_positions_m must be a list of [x, y] pairs, got shape {pos.shape}")
        xy = pos.ravel().tolist()
        # Their sum is finite, unless a pair of huge ones overflowed it.
        if not math.isfinite(sum(xy)) and not all(-math.inf < v < math.inf for v in xy):
            raise ValueError("candidate_positions_m entries must be finite")
        n = len(pos)
        values = [self.h_s, self.z0_w]
        for name in _ARRAY_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per candidate position, got shape {arr.shape}")
            values += arr.tolist()
        # Finite and > 0, as the record path requires: one pass over every
        # value as a Python float; the first field in declaration order that
        # fails is named.
        if not all(0.0 < v < math.inf for v in values):
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


def _clears(px: float, py: float, ends, cx: float, cy: float, rr: float) -> bool:
    # Whether the segment from (px, py) to each end (ex, ey) in turn clears
    # the disc about (cx, cy) of squared radius rr: squared point-to-segment
    # distance against rr, each operation in a fixed order so that each
    # decision is one IEEE result; len2 == 0 is a point. The first end whose
    # segment is blocked decides, and the later ones are not tested. At t = 0
    # the nearest point is p itself: px + 0*dx is px, so the offset is (ax, ay).
    ax = cx - px
    ay = cy - py
    for ex, ey in ends:
        dx = ex - px
        dy = ey - py
        len2 = dx * dx + dy * dy
        t = (ax * dx + ay * dy) / len2 if len2 > 0.0 else 0.0
        if t <= 0.0:
            ox, oy = ax, ay
        else:
            if t > 1.0:
                t = 1.0
            ox = cx - (px + t * dx)
            oy = cy - (py + t * dy)
        if not ox * ox + oy * oy > rr:
            return False
    return True


def has_los(p, q, geom: GeometryConfig) -> bool:
    """True iff segment [p, q] clears the blockage disc (distance > radius)."""
    (px, py), (qx, qy) = np.asarray(p, float).tolist(), np.asarray(q, float).tolist()
    (cx, cy), r = geom.blockage_center_m, geom.blockage_radius_m
    return _clears(px, py, ((qx, qy),), cx, cy, r * r)


class SamplingExhausted(RuntimeError, ValueError):
    """Rejection sampling ran out of attempts: a config error, not a numerical one."""


def _sample_xy(n: int, geom: GeometryConfig, rng: np.random.Generator) -> list[float]:
    # sample_instance's points as one flat list [x0, y0, x1, y1, ...], n >= 1.
    # A batch is 2 * _BATCH uniforms, the same stream as rng.random((_BATCH, 2)).
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    sx, sy = xmax - xmin, ymax - ymin
    (cx, cy), r = geom.blockage_center_m, geom.blockage_radius_m
    ends, rr = ((0.0, 0.0), geom.q_s_m), r * r  # the access point (origin), then the source
    xy: list[float] = []
    size = 2 * n
    attempts = 0
    budget = REJECTION_BUDGET * n
    while attempts < budget:
        u = rng.random(2 * _BATCH)
        attempts += _BATCH
        for i in range(0, 2 * _BATCH, 2 * _SLICE):
            coords = iter(u[i : i + 2 * _SLICE].tolist())
            for ux, uy in zip(coords, coords):
                x, y = xmin + ux * sx, ymin + uy * sy
                if _clears(x, y, ends, cx, cy, rr):
                    xy += (x, y)
                    if len(xy) == size:
                        return xy
    raise SamplingExhausted(
        f"rejection sampling exhausted {budget} attempts for {n} candidates; "
        f"the doubly-LOS region inside {geom.sampling_box_m} is too small"
    )


@functools.lru_cache(maxsize=64)
def _path_loss_constants(q_s_m: tuple[float, float], chan: ChannelConfig) -> tuple[float, float]:
    """The direct link's path loss k_nlos * d_s**-eta_nlos, and k_los.

    Computed and checked once per source position and channel: a source at
    or next to the access point has no finite path loss, one far enough away
    has none above zero, and a k_los_db far enough from 0 dB overflows or
    underflows k_los."""
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
    try:
        k_los = 10.0 ** (chan.k_los_db / 10.0)
    except OverflowError:
        k_los = math.inf
    if not 0.0 < k_los < math.inf:
        raise ValueError(
            f"k_los_db {chan.k_los_db!r} gives the LOS links a path-loss intercept 10^(k_los_db/10) "
            f"of {k_los!r}; it must be strictly positive and finite"
        )
    return source_loss, k_los


def _instance(
    xy: list, fading: list, geom: GeometryConfig, chan: ChannelConfig, params: SystemParams
) -> ScenarioInstance:
    # The instance of candidates at xy = [x0, y0, x1, y1, ...] under the 2n + 1
    # link fadings: the source's, then those to the access point (origin), then
    # to the source. Only the 2n link lengths' path loss takes numpy's power,
    # whose last bits libm's pow does not match.
    source_loss, k_los = _path_loss_constants(geom.q_s_m, chan)
    qx, qy = geom.q_s_m
    d2_ap, d2_src = [], []
    for x, y in zip(xy[0::2], xy[1::2]):
        d2_ap.append(x * x + y * y)
        dx, dy = x - qx, y - qy
        d2_src.append(dx * dx + dy * dy)
    n = len(d2_ap)
    loss = (np.sqrt(d2_ap + d2_src) ** (-chan.eta_los)).tolist()
    h = [k_los * g * f for g, f in zip(loss, fading[1:], strict=True)]
    a_r, alpha, sigma2 = params.a_r_m2, params.alpha, params.sigma2_w
    alpha_tilde, z = [], []
    # A zero or underflowed channel divides to inf, as in numpy; the instance rejects it.
    for h_i, h_si in zip(h, h[n:]):
        a = h_si * a_r * alpha
        alpha_tilde.append(a)
        a_h = a * h_i
        z.append(sigma2 * (1.0 / h_si + 1.0 / a_h) if h_si and a_h else math.inf)
    h_s = source_loss * fading[0]
    z0 = sigma2 / h_s if h_s else math.inf
    # The position and channel arrays are views of one array.
    arr = np.fromiter(xy + h + alpha_tilde + z, float, 6 * n)
    h_i, h_si, alpha_tilde, z = arr[2 * n :].reshape(4, n)
    return ScenarioInstance(arr[: 2 * n].reshape(n, 2), h_s, h_i, h_si, alpha_tilde, z0, z)


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
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"candidate_positions_m must be a list of [x, y] pairs, got shape {positions.shape}")
    fading = [float(fading_s), *np.array((fading_i, fading_si), float).ravel().tolist()]
    return _instance(positions.ravel().tolist(), fading, geom, chan, params)


def sample_instance(
    n: int,
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
    rng: np.random.Generator,
) -> ScenarioInstance:
    """Sample n candidate positions, then one Exp(1) fading draw per link.

    The positions are uniform over the part of the box with LOS to both
    endpoints: rejection sampling in batches of 256 ``rng.uniform`` points,
    so draw counts do not depend on n, up to the n-th point that passes.
    Raises SamplingExhausted after 10^4 attempts per candidate. The fadings
    (source, candidate-AP, source-candidate) are one draw of 2n + 1 standard
    exponentials, the same stream as three ``exponential`` calls, so a
    generator state maps to exactly one instance.
    """
    if n < 1:
        raise ValueError("need at least one candidate")
    xy = _sample_xy(n, geom, rng)
    return _instance(xy, rng.standard_exponential(2 * n + 1).tolist(), geom, chan, params)
