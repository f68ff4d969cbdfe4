import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import examples

from relayauction import (
    ChannelConfig,
    GeometryConfig,
    ScenarioInstance,
    SystemParams,
    build_instance,
    has_los,
    sample_instance,
)
from relayauction.scenario import REJECTION_BUDGET, SamplingExhausted, _clears, _sample_xy

# 10^(-2.5) * 98^(-2.88): direct-link channel power at unit fading for the
# default source position (7, 7).
H_S_UNIT_FADING = 5.824637500782942e-09

class _UnitFading:
    """rng stub: real position draws, fading forced to one on every link."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return self._rng.random(size)

    def standard_exponential(self, size):
        return np.ones(size)


def _segments_clear(px, py, ex, ey, center, radius: float) -> np.ndarray:
    # The reference for scenario's scalar segment test, in numpy: whether the
    # segments from (px, py) to (ex, ey), coordinates broadcast, clear the
    # disc, by squared point-to-segment distance against squared radius.
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


def _reference_build_instance(positions, fading_s, fading_i, fading_si, geom, chan, params):
    # The reference for build_instance, in numpy: both LOS links as the rows
    # of one array, the access point (origin) and then the source.
    positions = np.asarray(positions, float)
    qx, qy = geom.q_s_m
    d_s = float(np.hypot(qx, qy))
    k_nlos = 10.0 ** (chan.k_nlos_db / 10.0)
    k_los = 10.0 ** (chan.k_los_db / 10.0)
    # A source at or next to the access point, or too far from it, has no
    # finite positive path loss: numpy's power says inf or 0 without raising.
    with np.errstate(all="ignore"):
        source_loss = float(k_nlos * np.float64(d_s) ** -chan.eta_nlos)
    if not 0.0 < source_loss < math.inf:
        raise ValueError(
            f"q_s_m {list(geom.q_s_m)} gives the direct link a path loss k_nlos*d_s^-eta_nlos of "
            f"{source_loss!r} (k_nlos_db {chan.k_nlos_db!r}, eta_nlos {chan.eta_nlos!r}); "
            "it must be strictly positive and finite"
        )
    h_s = k_nlos * d_s ** (-chan.eta_nlos) * float(fading_s)
    dx = positions[:, 0] - np.array(((0.0,), (qx,)))
    dy = positions[:, 1] - np.array(((0.0,), (qy,)))
    dist = np.sqrt(dx * dx + dy * dy)
    h_i, h_si = k_los * dist ** (-chan.eta_los) * np.array((fading_i, fading_si), float)
    alpha_tilde = h_si * params.a_r_m2 * params.alpha
    with np.errstate(divide="ignore"):
        z = params.sigma2_w * (1.0 / h_si + 1.0 / (alpha_tilde * h_i))
    return ScenarioInstance(positions, h_s, h_i, h_si, alpha_tilde, params.sigma2_w / h_s, z)


def _library_draw_instance(n, geom, chan, params, rng):
    # sample_instance written with the library's own draws and the numpy
    # references: tuple-bound uniform batches tested whole against the same
    # budget, then three exponential calls.
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    (qx, qy), center, radius = geom.q_s_m, geom.blockage_center_m, geom.blockage_radius_m
    kept, attempts = [], 0
    while sum(map(len, kept)) < n:
        if attempts >= REJECTION_BUDGET * n:
            raise SamplingExhausted("reference sampler ran out of attempts")
        pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(256, 2))
        attempts += 256
        ok = _segments_clear(pts[:, 0], pts[:, 1], 0.0, 0.0, center, radius)
        ok &= _segments_clear(pts[:, 0], pts[:, 1], qx, qy, center, radius)
        kept.append(pts[ok])
    positions = np.concatenate(kept)[:n]
    fading_s, fading_i, fading_si = rng.exponential(), rng.exponential(size=n), rng.exponential(size=n)
    return _reference_build_instance(positions, fading_s, fading_i, fading_si, geom, chan, params)


# The scalar sampler as it stood before the lean trial path, kept as the
# reference for sample_instance bit for bit: two predicate calls per point,
# batches converted 32 rows at a time, the channels assembled from an (n, 2)
# positions array and stacked in one (4, n) array, and the instance's range
# check over the concatenated arrays.


def _reference_segment_clears(px, py, ex, ey, cx, cy, radius):
    dx = ex - px
    dy = ey - py
    len2 = dx * dx + dy * dy
    t = ((cx - px) * dx + (cy - py) * dy) / len2 if len2 > 0.0 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ox = cx - (px + t * dx)
    oy = cy - (py + t * dy)
    return ox * ox + oy * oy > radius * radius


def _reference_sample_candidates(n, geom, rng):
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    sx, sy = xmax - xmin, ymax - ymin
    (qx, qy), (cx, cy), r = geom.q_s_m, geom.blockage_center_m, geom.blockage_radius_m
    out = []
    attempts = 0
    budget = REJECTION_BUDGET * n
    while True:
        if attempts >= budget:
            raise SamplingExhausted(
                f"rejection sampling exhausted {budget} attempts for {n} candidates; "
                f"the doubly-LOS region inside {geom.sampling_box_m} is too small"
            )
        u = rng.random((256, 2))
        attempts += 256
        for i in range(0, 256, 32):
            for ux, uy in u[i : i + 32].tolist():
                x, y = xmin + ux * sx, ymin + uy * sy
                if _reference_segment_clears(x, y, 0.0, 0.0, cx, cy, r) and _reference_segment_clears(
                    x, y, qx, qy, cx, cy, r
                ):
                    out.append((x, y))
                    if len(out) == n:
                        return np.array(out)


def _reference_range_check(fields):
    # The first field in declaration order that is not finite and > 0 is named.
    names = ("h_i", "h_si", "alpha_tilde", "z_w")
    values = np.concatenate([fields[name] for name in names])
    finite = 0.0 < fields["h_s"] < math.inf and 0.0 < fields["z0_w"] < math.inf
    if not (finite and (values.min() > 0.0 and values.max() < math.inf)):
        for name in ("h_s", "h_i", "h_si", "alpha_tilde", "z0_w", "z_w"):
            value = np.asarray(fields[name])
            if not ((value > 0.0) & (value < np.inf)).all():
                raise ValueError(f"{name}{' entries' if value.ndim else ''} must be strictly positive and finite")


def _reference_scalar_build(positions, fading_s, fading_i, fading_si, geom, chan, params):
    positions = np.asarray(positions, float)
    qx, qy = geom.q_s_m
    d_s = float(np.hypot(qx, qy))
    try:
        source_loss = 10.0 ** (chan.k_nlos_db / 10.0) * d_s ** (-chan.eta_nlos)
    except ArithmeticError:
        source_loss = math.inf
    if not 0.0 < source_loss < math.inf:
        raise ValueError(
            f"q_s_m {list(geom.q_s_m)} gives the direct link a path loss k_nlos*d_s^-eta_nlos of "
            f"{source_loss!r} (k_nlos_db {chan.k_nlos_db!r}, eta_nlos {chan.eta_nlos!r}); "
            "it must be strictly positive and finite"
        )
    k_los = 10.0 ** (chan.k_los_db / 10.0)
    h_s = source_loss * float(fading_s)
    xs, ys = positions[:, 0].tolist(), positions[:, 1].tolist()
    d2 = [x * x + y * y for x, y in zip(xs, ys)]
    d2 += [(x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in zip(xs, ys)]
    loss = (np.sqrt(d2) ** (-chan.eta_los)).tolist()
    fading = np.array((fading_i, fading_si), float).ravel().tolist()
    h = [k_los * g * f for g, f in zip(loss, fading, strict=True)]
    h_i, h_si = h[: len(xs)], h[len(xs) :]
    alpha_tilde = [g * params.a_r_m2 * params.alpha for g in h_si]
    z0 = params.sigma2_w / h_s if h_s else math.inf
    z = [params.sigma2_w * (1.0 / g + 1.0 / (a * hi)) if g and a * hi else math.inf
         for g, a, hi in zip(h_si, alpha_tilde, h_i)]
    h_i, h_si, alpha_tilde, z = np.array((h_i, h_si, alpha_tilde, z))
    fields = dict(candidate_positions_m=positions, h_s=h_s, h_i=h_i, h_si=h_si, alpha_tilde=alpha_tilde,
                  z0_w=z0, z_w=z)
    _reference_range_check(fields)
    return fields


def _reference_scalar_sample(n, geom, chan, params, rng):
    positions = _reference_sample_candidates(n, geom, rng)
    fading = rng.standard_exponential(2 * n + 1)
    return _reference_scalar_build(positions, fading[0], fading[1 : n + 1], fading[n + 1 :], geom, chan, params)


_FIELDS = ("candidate_positions_m", "h_s", "h_i", "h_si", "alpha_tilde", "z0_w", "z_w")
MOSTLY_BLOCKED = GeometryConfig(blockage_radius_m=3.2, sampling_box_m=(0.0, 7.0, 0.0, 7.0))
# Every point of this box lies inside the blockage disc.
EXHAUSTED = GeometryConfig(sampling_box_m=(4.05, 4.2, 4.05, 4.2))


def _exact_outcome(draw, n, geom, chan, params, rng):
    # Every field's dtype, shape and bytes, or the exception's type and text;
    # then the generator's whole state.
    try:
        fields = draw(n, geom, chan, params, rng)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        got = (type(exc), str(exc))
    else:
        fields = vars(fields) if isinstance(fields, ScenarioInstance) else fields
        got = [(np.asarray(fields[name]).dtype, np.asarray(fields[name]).shape, np.asarray(fields[name]).tobytes())
               for name in _FIELDS]
    return got, rng.bit_generator.state


def _chi_square_mesh(geom, grid):
    # Cell centres of a grid x grid mesh over the sampling box, x-major.
    xmin, xmax, ymin, ymax = geom.sampling_box_m
    xs = xmin + (np.arange(grid) + 0.5) * (xmax - xmin) / grid
    ys = ymin + (np.arange(grid) + 0.5) * (ymax - ymin) / grid
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


_coordinate = st.floats(-12.0, 12.0)


@st.composite
def _scenarios(draw):
    # Valid geometry, channel and system configs over wide ranges: any source
    # and blockage, a box anywhere near them, and integral path-loss
    # exponents, where numpy's power may take another route.
    x0, y0 = draw(_coordinate), draw(_coordinate)
    try:
        geom = GeometryConfig(
            q_s_m=(draw(_coordinate), draw(_coordinate)),
            blockage_center_m=(draw(_coordinate), draw(_coordinate)),
            blockage_radius_m=draw(st.floats(0.05, 4.0)),
            sampling_box_m=(x0, x0 + draw(st.floats(0.05, 12.0)), y0, y0 + draw(st.floats(0.05, 12.0))),
        )
    except ValueError:
        assume(False)
    eta_los = draw(st.one_of(st.sampled_from((1.0, 2.0, 3.0)), st.floats(0.5, 4.0)))
    chan = ChannelConfig(
        k_nlos_db=draw(st.floats(-60.0, 20.0)),
        eta_nlos=eta_los + draw(st.one_of(st.just(1.0), st.floats(0.01, 4.0))),
        k_los_db=draw(st.floats(-30.0, 20.0)),
        eta_los=eta_los,
    )
    params = SystemParams(
        sigma2_w=draw(st.floats(1e-15, 1.0)), a_r_m2=draw(st.floats(1e-6, 1.0)), alpha=draw(st.floats(0.01, 1.0))
    )
    return geom, chan, params


def _outcome(draw_instance, n, geom, chan, params, seed):
    # Every field's bytes and the generator's next draw; for a failure, the
    # error and where the generator stopped (an exhausted sampler by type).
    rng = np.random.default_rng(seed)
    try:
        inst = draw_instance(n, geom, chan, params, rng)
    except SamplingExhausted:
        return "exhausted", rng.random()
    except (ArithmeticError, ValueError) as exc:
        return repr(exc), rng.random()
    names = ("candidate_positions_m", "h_s", "h_i", "h_si", "alpha_tilde", "z0_w", "z_w")
    return [np.asarray(getattr(inst, name)).tobytes() for name in names], rng.random()


def _positions(n, geom, rng):
    # The candidate positions sample_instance draws from rng.
    return sample_instance(n, geom, ChannelConfig(), SystemParams(), rng).candidate_positions_m


class TestScalarReference:
    """sample_instance against the scalar sampler it replaced."""

    @settings(max_examples=examples(90), deadline=None)
    @given(
        st.sampled_from([GeometryConfig(), MOSTLY_BLOCKED, EXHAUSTED]),
        st.integers(1, 8),
        st.integers(0, 2**63),
    )
    def test_fields_state_and_errors_are_the_reference_ones(self, geom, n, seed):
        chan, params = ChannelConfig(), SystemParams()
        want = _exact_outcome(_reference_scalar_sample, n, geom, chan, params, np.random.default_rng(seed))
        assert _exact_outcome(sample_instance, n, geom, chan, params, np.random.default_rng(seed)) == want

    def test_candidates_are_the_reference_positions(self):
        geom = MOSTLY_BLOCKED
        for seed in range(20):
            a = _positions(1 + seed % 8, geom, np.random.default_rng(seed))
            b = _reference_sample_candidates(1 + seed % 8, geom, np.random.default_rng(seed))
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=examples(60), deadline=None)
    @given(_scenarios(), st.integers(1, 8), st.integers(0, 2**32))
    def test_build_instance_is_the_reference_one(self, scenario, n, seed):
        geom, chan, params = scenario
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-12.0, 12.0, (n, 2))
        fading = rng.standard_exponential(2 * n + 1)
        args = (positions, fading[0], fading[1 : n + 1], fading[n + 1 :], geom, chan, params)
        # k_los_db stays in [-30, 20] dB, where the reference's k_los is
        # finite and positive and the two name the same field.
        want = _exact_outcome(lambda *_: _reference_scalar_build(*args), n, geom, chan, params, rng)
        assert _exact_outcome(lambda *_: build_instance(*args), n, geom, chan, params, rng) == want


class TestConfigs:
    def test_qs_must_clear_blockage(self):
        with pytest.raises(ValueError):
            GeometryConfig(q_s_m=(3.5, 3.5))

    def test_origin_must_clear_blockage(self):
        with pytest.raises(ValueError):
            GeometryConfig(blockage_center_m=(0.5, 0.0), blockage_radius_m=1.0)

    def test_box_needs_area(self):
        with pytest.raises(ValueError):
            GeometryConfig(sampling_box_m=(2.0, 2.0, 0.0, 1.0))

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            GeometryConfig(blockage_radius_m=0.0)

    def test_fade_exponent_ordering(self):
        with pytest.raises(ValueError):
            ChannelConfig(eta_nlos=2.0, eta_los=2.5)

    # The range checks alone would take each of these: True > 0.0 holds, and
    # an infinite source position clears every blockage disc.
    @pytest.mark.parametrize(
        "cls,name,value,message",
        [
            (GeometryConfig, "blockage_radius_m", True, "blockage_radius_m must be a finite number, got True"),
            (GeometryConfig, "q_s_m", (math.inf, math.inf),
             "q_s_m[0] must be a finite number, got inf; q_s_m[1] must be a finite number, got inf"),
            (ChannelConfig, "k_nlos_db", math.nan, "k_nlos_db must be a finite number, got nan"),
            (ChannelConfig, "k_los_db", math.inf, "k_los_db must be a finite number, got inf"),
        ],
        ids=["radius-bool", "source-inf", "k-nlos-nan", "k-los-inf"],
    )
    def test_rejects_bools_and_non_finite_numbers(self, cls, name, value, message):
        with pytest.raises(ValueError) as err:
            cls(**{name: value})
        assert str(err.value) == message

    def test_numpy_numbers_and_arrays_are_numbers(self):
        geom = GeometryConfig(q_s_m=np.array([7.0, 7.0]), blockage_radius_m=np.float64(1.0))
        assert geom.blockage_radius_m == 1.0
        assert ChannelConfig(k_los_db=np.int64(0)).k_los_db == 0


class TestHasLos:
    def test_clear_segment_far_from_disc(self):
        geom = GeometryConfig()
        assert has_los((6.0, 1.6), (6.4, 1.6), geom)

    def test_segment_through_center_blocked(self):
        geom = GeometryConfig()
        assert not has_los((2.0, 3.5), (5.0, 3.5), geom)

    def test_direct_path_blocked_by_construction(self):
        # Blockage center sits on the AP-source segment, so distance is zero.
        geom = GeometryConfig(blockage_radius_m=1.0)
        assert not has_los((0.0, 0.0), (7.0, 7.0), geom)

    def test_degenerate_segment_uses_point_distance(self):
        geom = GeometryConfig()
        assert has_los((6.0, 6.0), (6.0, 6.0), geom)
        assert not has_los((3.6, 3.6), (3.6, 3.6), geom)

    def test_matches_the_reference_on_the_chi_square_mesh(self):
        # Every fourth row and column of the uniformity test's mesh, towards
        # both segment ends.
        geom = GeometryConfig()
        mesh = _chi_square_mesh(geom, 1200).reshape(1200, 1200, 2)[::4, ::4].reshape(-1, 2)
        center, radius = geom.blockage_center_m, geom.blockage_radius_m
        for end in ((0.0, 0.0), geom.q_s_m):
            want = _segments_clear(mesh[:, 0], mesh[:, 1], *end, center, radius)
            got = [has_los(p, end, geom) for p in mesh]
            assert 0 < want.sum() < len(mesh)
            assert got == want.tolist()


class TestSegmentPredicate:
    # The unit disc at the origin; each case holds the scalar test to the
    # numpy reference and to the answer worked out by hand.
    @pytest.mark.parametrize(
        "p, e, clear",
        [
            ((2.0, 0.0), (2.0, 0.0), True),  # p at the endpoint: len2 == 0, the point's own distance
            ((0.5, 0.0), (0.5, 0.0), False),
            ((1.0, 0.0), (1.0, 0.0), False),  # a point segment on the circle
            ((-1.0, 1.0), (1.0, 1.0), False),  # tangent: distance equals the radius, not clear
            ((-1.0, 1.5), (1.0, 1.5), True),
            ((2.0, 0.0), (3.0, 0.0), True),  # t = -2 clamped at 0: the nearest point is p
            ((-3.0, 0.0), (-2.0, 0.0), True),  # t = 3 clamped at 1: the nearest point is e
            ((0.0, 1.0), (0.0, 2.0), False),  # t = -1 clamped at 0, p on the circle: not clear
            ((-2.0, 0.0), (2.0, 0.0), False),  # t = 1/2, through the centre
        ],
        ids=["endpoint-clear", "endpoint-inside", "endpoint-on-circle", "tangent", "above",
             "clamped-at-0", "clamped-at-1", "on-circle-clamped-at-0", "through-centre"],
    )
    def test_cases(self, p, e, clear):
        assert _clears(*p, (e,), 0.0, 0.0, 1.0) is clear
        assert bool(_segments_clear(*p, *e, (0.0, 0.0), 1.0)) is clear


class TestSampleCandidates:
    def test_all_positions_doubly_visible(self):
        geom = GeometryConfig()
        pts = _positions(200, geom, np.random.default_rng(5))
        for p in pts:
            assert has_los(p, (0.0, 0.0), geom)
            assert has_los(p, geom.q_s_m, geom)

    def test_deterministic_for_seed(self):
        geom = GeometryConfig()
        a = _positions(50, geom, np.random.default_rng(42))
        b = _positions(50, geom, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_budget_exhaustion_raises(self):
        # A box tucked against the blockage has no doubly-LOS points at all.
        geom = GeometryConfig(sampling_box_m=(4.05, 4.2, 4.05, 4.2))
        with pytest.raises(RuntimeError, match="rejection sampling"):
            _positions(1, geom, np.random.default_rng(0))

    def test_empirical_uniformity_chi_square(self):
        # Expected counts come from fine-grid integration of the valid area.
        geom = GeometryConfig()
        xmin, xmax, ymin, ymax = geom.sampling_box_m
        # sample_instance's positions, without the 100k channels it would build.
        pts = np.reshape(_sample_xy(100_000, geom, np.random.default_rng(777)), (-1, 2))

        grid = 1200
        mesh = _chi_square_mesh(geom, grid)
        center, radius = geom.blockage_center_m, geom.blockage_radius_m
        ok = _segments_clear(mesh[:, 0], mesh[:, 1], 0.0, 0.0, center, radius)
        ok &= _segments_clear(mesh[:, 0], mesh[:, 1], *geom.q_s_m, center, radius)
        ok = ok.reshape(grid, grid)
        cell = grid // 4
        frac = np.array(
            [
                [ok[i * cell : (i + 1) * cell, j * cell : (j + 1) * cell].mean() for j in range(4)]
                for i in range(4)
            ]
        )
        frac /= frac.sum()

        ix = np.minimum(((pts[:, 0] - xmin) / (xmax - xmin) * 4).astype(int), 3)
        iy = np.minimum(((pts[:, 1] - ymin) / (ymax - ymin) * 4).astype(int), 3)
        obs = np.zeros((4, 4))
        np.add.at(obs, (ix, iy), 1.0)
        exp = frac * len(pts)

        mask = exp >= 5.0
        chi2 = float(((obs[mask] - exp[mask]) ** 2 / exp[mask]).sum())
        p_value = float(stats.chi2.sf(chi2, int(mask.sum()) - 1))
        assert obs[~mask].sum() == 0
        assert p_value > 0.01


class TestInstances:
    def test_unit_fading_direct_channel(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        inst = sample_instance(2, geom, chan, params, _UnitFading())
        assert inst.h_s == pytest.approx(H_S_UNIT_FADING, rel=1e-12)
        assert inst.z0_w == pytest.approx(params.sigma2_w / H_S_UNIT_FADING, rel=1e-12)

    def test_closer_candidate_has_better_channel(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        positions = np.array([[2.0, 5.0], [1.8, 5.2]])  # second farther from both
        inst = build_instance(positions, 1.0, np.ones(2), np.ones(2), geom, chan, params)
        assert inst.z_w[0] < inst.z_w[1]

    def test_fading_is_unit_mean_exponential(self):
        mean = np.random.default_rng(424242).exponential(size=10**6).mean()
        assert 0.997 <= mean <= 1.003

    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    @pytest.mark.parametrize(
        "geom",
        [GeometryConfig(), GeometryConfig(blockage_radius_m=2.3, sampling_box_m=(0.0, 7.0, 0.0, 7.0))],
        ids=["defaults", "mostly-blocked"],
    )
    def test_stream_matches_the_library_draws(self, geom, n):
        # The leaner draws and the scalar arithmetic change no instance and
        # leave the generator where the library's own calls would.
        chan, params = ChannelConfig(), SystemParams()
        for k in range(25):
            a_rng, b_rng = np.random.default_rng((5, n, k)), np.random.default_rng((5, n, k))
            a = sample_instance(n, geom, chan, params, a_rng)
            b = _library_draw_instance(n, geom, chan, params, b_rng)
            for name in ("candidate_positions_m", "h_i", "h_si", "alpha_tilde", "z_w"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (k, name)
            assert (a.h_s, a.z0_w) == (b.h_s, b.z0_w)
            assert a_rng.random() == b_rng.random()

    @settings(max_examples=examples(60), deadline=None)
    @given(_scenarios(), st.integers(1, 12), st.integers(0, 2**32))
    def test_matches_the_numpy_reference_bit_for_bit(self, scenario, n, seed):
        geom, chan, params = scenario
        want = _outcome(_library_draw_instance, n, geom, chan, params, seed)
        assert _outcome(sample_instance, n, geom, chan, params, seed) == want

    @pytest.mark.parametrize(
        "changes, fading, message",
        [
            # The parent's Python division raised ZeroDivisionError here.
            ({}, (0.0, [1.0, 1.0], [1.0, 1.0]), "^h_s must be strictly positive"),
            # k_los underflows to 0: named where it is computed, not as a zero h_i.
            ({"k_los_db": -4000.0}, (1.0, [1.0, 1.0], [1.0, 1.0]), r"^k_los_db -4000\.0 gives the LOS links"),
            ({}, (1.0, [1.0, 0.0], [1.0, 1.0]), "^h_i entries"),
            ({}, (1.0, [1.0, 1.0], [0.0, 1.0]), "^h_si entries"),
            # alpha_tilde * h_i underflows to 0 although both are positive.
            ({}, (1.0, [1e-200, 1.0], [1e-200, 1.0]), "^z_w entries"),
        ],
        ids=["h_s-zero", "k_los-underflow", "h_i-zero", "h_si-zero", "z-underflow"],
    )
    def test_zero_channel_is_named_not_divided_by(self, changes, fading, message):
        geom, chan, params = GeometryConfig(), ChannelConfig(**changes), SystemParams()
        positions = np.array([[2.0, 5.0], [1.8, 5.2]])
        with pytest.raises(ValueError, match=message):
            build_instance(positions, *fading, geom, chan, params)

    @pytest.mark.parametrize("positions", [np.ones(2), np.ones((2, 3))], ids=["flat", "triples"])
    def test_misshapen_positions_are_named(self, positions):
        args = (1.0, np.ones(2), np.ones(2), GeometryConfig(), ChannelConfig(), SystemParams())
        with pytest.raises(ValueError, match=r"^candidate_positions_m must be a list of \[x, y\] pairs, got shape"):
            build_instance(positions, *args)

    @pytest.mark.parametrize("q_s_m", [(0.0, 0.0), (0.0, 2.2e-313), (1e60, 0.0)])
    def test_source_without_a_finite_path_loss_is_named(self, q_s_m):
        # Python's float power raised ZeroDivisionError and OverflowError on
        # the first two; the third built a zero h_s.
        geom, chan, params = GeometryConfig(q_s_m=q_s_m), ChannelConfig(), SystemParams()
        args = (np.array([[2.0, 5.0]]), 1.0, [1.0], [1.0], geom, chan, params)
        with pytest.raises(ValueError, match=r"^q_s_m \[.*must be strictly positive and finite$") as err:
            build_instance(*args)
        with pytest.raises(ValueError) as ref:
            _reference_build_instance(*args)
        assert str(err.value) == str(ref.value)

    def test_first_non_positive_array_is_named(self, golden_instance):
        fields = {**vars(golden_instance), "h_si": np.array([1.0, -1.0]), "z_w": np.array([0.0, 1.0])}
        with pytest.raises(ValueError, match="h_si entries"):
            ScenarioInstance(**fields)

    @pytest.mark.parametrize("name", ["h_s", "z0_w", "h_i", "h_si", "alpha_tilde", "z_w"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_channel_is_named(self, golden_instance, name, bad):
        # The record path rejects these; the constructor must too.
        value = getattr(golden_instance, name)
        if isinstance(value, np.ndarray):
            value = np.array([value[0], bad])
        else:
            value = bad
        with pytest.raises(ValueError, match=rf"^{name}\b.*strictly positive and finite"):
            ScenarioInstance(**{**vars(golden_instance), name: value})

    def test_first_bad_field_in_declaration_order_is_named(self, golden_instance):
        fields = {**vars(golden_instance), "h_i": np.array([1.0, math.inf]), "z0_w": 0.0}
        with pytest.raises(ValueError, match="^h_i entries"):
            ScenarioInstance(**fields)

    def test_deterministic_for_seed(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        a = sample_instance(4, geom, chan, params, np.random.default_rng(9))
        b = sample_instance(4, geom, chan, params, np.random.default_rng(9))
        assert a.h_s == b.h_s
        assert np.array_equal(a.candidate_positions_m, b.candidate_positions_m)
        assert np.array_equal(a.z_w, b.z_w)

    def test_z_values_finite_positive(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        for k in range(200):
            inst = sample_instance(1 + k % 5, geom, chan, params, np.random.default_rng(k))
            assert np.isfinite(inst.z0_w) and inst.z0_w > 0
            assert np.isfinite(inst.z_w).all() and (inst.z_w > 0).all()

    def test_invariants_recomputable(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        inst = sample_instance(3, geom, chan, params, np.random.default_rng(31))
        np.testing.assert_allclose(
            inst.alpha_tilde, inst.h_si * params.a_r_m2 * params.alpha, rtol=1e-14
        )
        np.testing.assert_allclose(
            inst.z_w,
            params.sigma2_w * (1.0 / inst.h_si + 1.0 / (inst.alpha_tilde * inst.h_i)),
            rtol=1e-14,
        )

    def test_record_round_trip(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        inst = sample_instance(3, geom, chan, params, np.random.default_rng(55))
        back = ScenarioInstance.from_record(json.loads(json.dumps(inst.to_record())))
        assert back.h_s == inst.h_s
        assert np.array_equal(back.z_w, inst.z_w)
        assert np.array_equal(back.candidate_positions_m, inst.candidate_positions_m)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(z_w=np.array([[1.0, 2.0]])),
            dict(h_i=np.array([1.0])),
            dict(candidate_positions_m=np.ones((2, 3))),
            dict(candidate_positions_m=np.ones(2)),
        ],
    )
    def test_rejects_misshapen_arrays(self, golden_instance, changes):
        fields = {**vars(golden_instance), **changes}
        with pytest.raises(ValueError, match=next(iter(changes))):
            ScenarioInstance(**fields)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("h_s", True, "h_s must be a finite number, got True"),
            ("h_s", np.bool_(True), "h_s must be a finite number, got np.True_"),
            ("h_s", "2.0", "h_s must be a finite number, got '2.0'"),
            ("z0_w", None, "z0_w must be a finite number, got None"),
            ("h_i", ["1.0", "2.0"], "h_i[0] must be a finite number, got '1.0'; h_i[1] must be a finite number, got '2.0'"),
            ("h_si", np.array([True, True]),
             "h_si[0] must be a finite number, got np.True_; h_si[1] must be a finite number, got np.True_"),
            # numpy makes [True, 2.0] a float array; the list's items are looked at.
            ("alpha_tilde", [True, 2.0], "alpha_tilde[0] must be a finite number, got True"),
            ("candidate_positions_m", [[1.0, 1.0], [True, 2.0]],
             "candidate_positions_m[1][0] must be a finite number, got True"),
            # to_record would write these as null, which from_record rejects.
            ("candidate_positions_m", np.array([[math.nan, math.inf], [1.0, 1.0]]),
             "candidate_positions_m entries must be finite"),
            ("candidate_positions_m", [[math.nan, math.inf], [1.0, 1.0]],
             "candidate_positions_m[0][0] must be a finite number, got nan; "
             "candidate_positions_m[0][1] must be a finite number, got inf"),
        ],
    )
    def test_rejects_what_its_record_reader_rejects(self, golden_instance, name, value, message):
        with pytest.raises(ValueError) as err:
            ScenarioInstance(**{**vars(golden_instance), name: value})
        assert str(err.value) == message
        record = {**golden_instance.to_record(), name: value.tolist() if isinstance(value, np.ndarray) else value}
        with pytest.raises(ValueError, match=name):
            ScenarioInstance.from_record(record)

    def test_takes_finite_positions_whose_sum_overflows(self):
        ones = np.ones(2)
        huge = np.full((2, 2), sys.float_info.max)
        assert ScenarioInstance(huge, 1.0, ones, ones, ones, 1.0, ones).candidate_positions_m is huge

    def test_numbers_it_takes_are_stored_as_its_reader_stores_them(self, golden_instance):
        inst = ScenarioInstance(**{
            **vars(golden_instance), "h_s": np.float32(0.5), "z0_w": 2, "h_i": [1, 2], "z_w": np.array([1, 2]),
            "candidate_positions_m": [[1, 2], [3.5, 4.0]],
        })
        assert type(inst.h_s) is float and type(inst.z0_w) is float
        assert inst.h_i.dtype == inst.z_w.dtype == inst.candidate_positions_m.dtype == np.float64
        assert inst.candidate_positions_m.tolist() == [[1.0, 2.0], [3.5, 4.0]]
        record = json.loads(json.dumps(inst.to_record(), allow_nan=False))
        back = ScenarioInstance.from_record(record)
        assert back.to_record() == inst.to_record()

    def test_record_format_guard(self):
        with pytest.raises(ValueError, match="scenario-instance"):
            ScenarioInstance.from_record({"format": "something-else", "version": 1})

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_record_version_must_be_a_json_integer(self, golden_instance, version):
        record = {**golden_instance.to_record(), "version": version}
        with pytest.raises(ValueError, match="unsupported record version"):
            ScenarioInstance.from_record(record)

    def test_needs_at_least_one_candidate(self):
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        with pytest.raises(ValueError):
            sample_instance(0, geom, chan, params, np.random.default_rng(0))

    def test_deep_fade_premise_on_defaults(self):
        # Median direct-link z must exceed the median best-candidate z at
        # n = 2: the defaults have to make relaying genuinely attractive.
        geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
        z0s = np.empty(10_000)
        zmins = np.empty(10_000)
        for k in range(10_000):
            inst = sample_instance(2, geom, chan, params, np.random.default_rng((1007, k)))
            z0s[k] = inst.z0_w
            zmins[k] = inst.z_w.min()
        assert np.median(z0s) > np.median(zmins)
