import math
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

from relayauction import (
    ChannelConfig,
    ConvergenceError,
    GeometryConfig,
    SweepConfig,
    SystemParams,
    aggregate,
    cooperative_baseline,
    run_mspoa,
    run_spoa,
    run_sweep,
    sample_instance,
    truthful_profile,
)
from relayauction import montecarlo
from relayauction.mechanisms import AuctionOutcome, score, settle
from relayauction.montecarlo import (
    CSV_HEADER,
    MECHANISMS,
    _trial_chunk,
    render_csv,
    run_mechanism,
    trial_rng,
    trial_streams,
)
from relayauction.schedule import optimal_schedules


@pytest.fixture(scope="module")
def default_setup():
    return GeometryConfig(), ChannelConfig(), SystemParams()


def _outcome(t, p, net=0.0, winner=1):
    return AuctionOutcome(
        winner=winner,
        payment_t_s=t,
        payment_p_w=p,
        source_cost_ws=t * (1.0 + p),
        winner_net_energy_j=net,
        runner_up=0,
    )


class TestSweepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials=0),
            dict(n_values=()),
            dict(lambda_values_w=()),
            dict(n_values=(0, 1)),
            dict(lambda_values_w=(0.0,)),
            dict(mechanisms=("vickrey",)),
            dict(mechanisms=()),
            dict(seed=-1),
            dict(seed=2**64),
            dict(n_values=(1, 1)),
            dict(lambda_values_w=(1.0, 10.0, 1.0)),
            dict(n_values=(1.5,)),
            dict(trials=2.7),
            # Above the work bound; built only, never run.
            dict(n_values=(1, 1001)),
            dict(n_values=(10**9,)),
            dict(n_values=(1, 2), trials=2_000_001),
            dict(trials=2**32),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_values_w=(True,)),  # would run lambda = 1
            dict(lambda_values_w=("10",)),  # would run lambda = 10
            dict(lambda_values_w=(1.0, math.inf)),
            dict(mechanisms=("mspoa", "mspoa")),  # would duplicate its rows
        ],
        ids=["lambda-bool", "lambda-str", "lambda-inf", "mechanism-twice"],
    )
    def test_rejects_and_names_the_field(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SweepConfig(**kwargs)

    def test_numpy_integers_are_plain_ints(self):
        cfg = SweepConfig(n_values=(np.int64(2), np.int32(3)), trials=np.int64(4))
        assert cfg.n_values == (2, 3) and all(type(n) is int for n in cfg.n_values)

    def test_work_bound_is_inclusive(self):
        # Built only, never run.
        assert SweepConfig(n_values=(1, montecarlo.MAX_N), trials=montecarlo.MAX_INSTANCES // 2)


class TestAggregate:
    def test_single_outcome_identity(self, default_setup):
        geom, chan, params = default_setup
        inst = sample_instance(2, geom, chan, params, np.random.default_rng(1))
        out = cooperative_baseline(truthful_profile(inst, params), inst, params)
        cell = aggregate([out], [inst], n=2, lambda_w=params.lambda_w, mechanism="cooperative")
        assert cell.mean_t_s == out.payment_t_s
        assert cell.std_err_t_s == 0.0
        assert cell.win_rate_source == (1.0 if out.winner == 0 else 0.0)
        assert cell.trials == 1

    def test_one_millijoule_is_zero_db(self):
        cell = aggregate([_outcome(t=1.0, p=1e-3)], [None], n=1, lambda_w=1.0, mechanism="mspoa")
        assert cell.mean_energy_db_mj == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_two_durations(self):
        outs = [_outcome(t=1.0, p=0.5), _outcome(t=3.0, p=0.5)]
        cell = aggregate(outs, [None, None], n=1, lambda_w=1.0, mechanism="mspoa")
        assert cell.mean_t_s == 2.0

    def test_db_applies_to_mean_not_mean_of_db(self):
        # 10*log10(mean) differs from mean(10*log10); the former is specified.
        outs = [_outcome(t=1.0, p=1e-3), _outcome(t=1.0, p=1e-1)]
        cell = aggregate(outs, [None, None], n=1, lambda_w=1.0, mechanism="mspoa")
        mean_j = (1e-3 + 1e-1) / 2.0
        assert cell.mean_energy_db_mj == pytest.approx(10.0 * math.log10(mean_j * 1e3), rel=1e-12)

    def test_scaled_standard_errors_keep_np_std_bits(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = 10.0 ** rng.uniform(-30.0, 30.0, size=rng.integers(2, 50))
            x *= rng.choice([-1.0, 1.0], size=len(x))
            assert montecarlo._std_err(x) == float(np.std(x, ddof=1)) / math.sqrt(len(x))

    def test_cell_near_the_largest_double_is_finite(self):
        # np.std squares 1e299 and overflows; the scaled form does not.
        metrics = np.array([[1e299, 1e306, 3e299, 0.0], [2e299, 2e306, 1e299, 0.0], [3e299, 3e306, 2e299, 1.0]])
        cell = montecarlo._stats_from_metrics(metrics, 1, 1.0, "mspoa")
        assert all(math.isfinite(v) for v in vars(cell).values() if isinstance(v, float))
        assert cell.std_err_t_s == pytest.approx(1e299 / math.sqrt(3.0), rel=1e-15)
        # 2e306 J is past the largest double in mJ.
        assert cell.mean_energy_db_mj == pytest.approx(10.0 * math.log10(2e306) + 30.0, rel=1e-15)

    def test_cell_that_is_not_finite_names_itself(self):
        metrics = np.array([[1.0, math.inf, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        with pytest.raises(ConvergenceError, match=r"^cell \(mechanism=spoa, n=3, lambda_w=10\.0\) has no finite "
                           r"mean_energy_db_mj, std_err_energy_db_mj$"):
            montecarlo._stats_from_metrics(metrics, 3, 10.0, "spoa")

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            aggregate([], [], n=1, lambda_w=1.0, mechanism="mspoa")
        with pytest.raises(ValueError):
            aggregate([_outcome(1.0, 1.0)], [], n=1, lambda_w=1.0, mechanism="mspoa")


class TestRunSweep:
    def test_single_trial_matches_direct_computation(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(2,), lambda_values_w=(1.0,), trials=1, seed=77,
                          mechanisms=("cooperative",))
        (cell,) = run_sweep(cfg, geom, chan, params)
        inst = sample_instance(2, geom, chan, params, trial_rng(77, 2, 0))
        out = cooperative_baseline(truthful_profile(inst, params), inst, params)
        assert cell.mean_t_s == out.payment_t_s
        assert cell.mean_energy_db_mj == pytest.approx(
            10.0 * math.log10(out.payment_t_s * out.payment_p_w * 1e3), rel=1e-12
        )

    def test_cooperative_harvest_is_zero(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 3), lambda_values_w=(1.0, 100.0), trials=50,
                          mechanisms=("cooperative",))
        for cell in run_sweep(cfg, geom, chan, params):
            assert cell.mean_net_harvest_j == 0.0

    def test_bit_identical_reruns_and_workers(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 2), lambda_values_w=(1.0, 100.0), trials=40,
                          mechanisms=("cooperative", "spoa", "mspoa"))
        a = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
        b = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
        c = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=3))
        assert a == b == c

    def test_csv_does_not_depend_on_the_chunk_length(self, default_setup, monkeypatch):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 4), lambda_values_w=(1.0, 100.0), trials=300,
                          mechanisms=("cooperative", "spoa", "mspoa"))
        csvs = set()
        for chunk in (256, 7, 1000):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            csvs.add(render_csv(run_sweep(cfg, geom, chan, params)))
        assert len(csvs) == 1

    def test_cell_ordering_and_header(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 2), lambda_values_w=(1.0, 10.0), trials=2,
                          mechanisms=("mspoa", "cooperative"))
        cells = run_sweep(cfg, geom, chan, params)
        keys = [(c.n, c.lambda_w, c.mechanism) for c in cells]
        assert keys == [
            (1, 1.0, "cooperative"), (1, 1.0, "mspoa"),
            (1, 10.0, "cooperative"), (1, 10.0, "mspoa"),
            (2, 1.0, "cooperative"), (2, 1.0, "mspoa"),
            (2, 10.0, "cooperative"), (2, 10.0, "mspoa"),
        ]
        csv = render_csv(cells)
        assert csv.splitlines()[0] == CSV_HEADER
        assert len(csv.splitlines()) == 9

    def test_pool_never_outnumbers_the_chunks(self, default_setup, monkeypatch):
        # An inline stand-in for the process pool: no process is started.
        sizes = []

        class InlinePool:
            def __init__(self, *, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        cfg = SweepConfig(n_values=(1, 2), lambda_values_w=(1.0,), trials=5)  # two chunks
        serial = render_csv(run_sweep(cfg, *default_setup))
        assert render_csv(run_sweep(cfg, *default_setup, n_jobs=64)) == serial
        assert sizes == [2]
        run_sweep(replace(cfg, n_values=(1,)), *default_setup, n_jobs=64)  # one chunk: no pool
        assert sizes == [2]

    def test_csv_round_trips_floats(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(2,), lambda_values_w=(10.0,), trials=8)
        cells = run_sweep(cfg, geom, chan, params)
        row = render_csv(cells).splitlines()[1].split(",")
        assert float(row[4]) == cells[0].mean_t_s
        assert float(row[6]) == cells[0].mean_energy_db_mj


class TestSharedProfile:
    # The chunk loop settles every mechanism of a (chunk, lambda) as arrays.
    # Against one auction at a time it may move only by the array kernel's
    # last bits, and pick another winner only where two scores tie.
    def test_chunk_matches_one_auction_at_a_time(self, default_setup):
        geom, chan, params = default_setup
        lambdas = (1.0, 10.0, 100.0)
        for n in (1, 3, 6):
            chunk = _trial_chunk(31, n, 5, 25, lambdas, MECHANISMS, geom, chan, params)
            insts = [sample_instance(n, geom, chan, params, trial_rng(31, n, k)) for k in range(5, 25)]
            z = np.array([[inst.z0_w, *inst.z_w] for inst in insts])
            alpha = np.array([inst.alpha_tilde for inst in insts])
            for j, lam in enumerate(lambdas):
                cell = replace(params, lambda_w=lam)
                t, p, _, _ = optimal_schedules(z, cell)
                winners, _ = settle(MECHANISMS, t, p, z, alpha, cell)
                for i, inst in enumerate(insts):
                    scores = sorted(score(b, cell) for b in truthful_profile(inst, cell).bids)
                    tie = scores[1] - scores[0] <= 1e-12 * scores[1]
                    for m, mech in enumerate(MECHANISMS):
                        out = run_mechanism(mech, inst, cell)
                        t, tp, net, source_won = chunk[i, j, m]
                        where = (n, i + 5, lam, mech)
                        assert source_won == (out.winner == 0), where
                        if tie:
                            continue
                        assert winners[i] == out.winner, where
                        assert t == pytest.approx(out.payment_t_s, rel=1e-12, abs=0.0), where
                        energy = out.payment_t_s * out.payment_p_w
                        assert tp == pytest.approx(energy, rel=1e-12, abs=0.0), where
                        alpha_w = inst.alpha_tilde[out.winner - 1] if out.winner else 0.0
                        assert abs(net - out.winner_net_energy_j) <= 1e-12 * energy * alpha_w, where

    def test_mechanism_rows_do_not_depend_on_the_others(self, default_setup):
        geom, chan, params = default_setup
        grid = dict(n_values=(1, 2, 5), lambda_values_w=(1.0, 100.0), trials=60, seed=808)
        alone = render_csv(run_sweep(SweepConfig(mechanisms=("mspoa",), **grid), geom, chan, params))
        every = render_csv(run_sweep(SweepConfig(mechanisms=MECHANISMS, **grid), geom, chan, params))
        mspoa_rows = [row for row in every.splitlines()[1:] if row.startswith("mspoa,")]
        assert alone.splitlines()[1:] == mspoa_rows


class TestPerTrialInvariants:
    def test_common_random_numbers_cost_ordering(self, default_setup):
        # Cooperative is the perfect-information optimum; the second-score
        # payments of MSPOA and SPOA coincide under truthful bidding.
        geom, chan, params = default_setup
        for k in range(100):
            inst = sample_instance(3, geom, chan, params, trial_rng(5150, 3, k))
            profile = truthful_profile(inst, params)
            coop = cooperative_baseline(profile, inst, params)
            spoa = run_spoa(profile, inst, params)
            mspoa = run_mspoa(profile, inst, params)
            assert coop.source_cost_ws <= mspoa.source_cost_ws * (1.0 + 1e-8)
            assert mspoa.source_cost_ws == pytest.approx(spoa.source_cost_ws, rel=1e-8)

    def test_truthful_mspoa_harvest_non_negative(self, default_setup):
        geom, chan, params = default_setup
        for k in range(100):
            inst = sample_instance(4, geom, chan, params, trial_rng(6021, 4, k))
            out = run_mechanism("mspoa", inst, params)
            assert out.winner_net_energy_j >= -1e-12

    def test_instance_shared_across_lambdas(self, default_setup):
        # The trial stream must not depend on the delay power.
        geom, chan, params = default_setup
        a = sample_instance(2, geom, chan, params, trial_rng(99, 2, 7))
        b = sample_instance(2, geom, chan, replace(params, lambda_w=100.0), trial_rng(99, 2, 7))
        assert np.array_equal(a.z_w, b.z_w) and a.z0_w == b.z0_w

    def test_rule_is_looked_up_at_call_time(self, default_setup, monkeypatch):
        # A traced run's span replaces montecarlo.run_mspoa; run_mechanism must call it.
        geom, chan, params = default_setup
        inst = sample_instance(3, geom, chan, params, trial_rng(5, 3, 0))
        calls = []

        def spy(*args):
            calls.append(args)
            return run_mspoa(*args)

        monkeypatch.setattr(montecarlo, "run_mspoa", spy)
        out = run_mechanism("mspoa", inst, params)
        assert len(calls) == 1
        assert out == run_mspoa(truthful_profile(inst, params), inst, params)

    def test_unknown_mechanism_rejected(self, default_setup):
        geom, chan, params = default_setup
        inst = sample_instance(1, geom, chan, params, trial_rng(1, 1, 0))
        with pytest.raises(ValueError, match="unknown mechanism"):
            run_mechanism("english", inst, params)


def _state(rng):
    return rng.bit_generator.state


class TestTrialStreams:
    # trial_streams(seed, n, lo, hi) is trial_rng(seed, n, k) for k in
    # lo..hi-1 from one reused generator, for n and k below 2**32 (which
    # SweepConfig's work bound keeps a sweep to); beyond that it raises.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 8, 2**32])
    def test_state_and_draws_are_the_per_trial_stream(self, seed, n):
        if n >> 32:
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                next(trial_streams(seed, n, 0, 256))
            return
        for lo, hi in ((0, 256), (2**32 - 2, 2**32)):
            for k, rng in zip(range(lo, hi), trial_streams(seed, n, lo, hi), strict=True):
                want = trial_rng(seed, n, k)
                assert _state(rng) == _state(want), k
                if k in (0, 255, 2**32 - 1):
                    assert rng.random(1000).tobytes() == want.random(1000).tobytes(), k
                # An odd number of 32-bit draws leaves half a word buffered;
                # the next trial's stream must not see it.
                assert rng.integers(2**32, dtype=np.uint32) == want.integers(2**32, dtype=np.uint32)
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            next(trial_streams(seed, n, 2**32 - 1, 2**32 + 1))

    def test_the_chunk_generator_is_reused(self):
        streams = trial_streams(3, 2, 0, 3)
        assert next(streams) is next(streams)
        assert list(trial_streams(3, 2, 5, 5)) == [] == list(trial_streams(3, 2, 5, 4))

    @pytest.mark.parametrize("args", [(-1, 2, 0, 1), (3, -2, 0, 1), (3, 2, -1, 1), (3, 2.0, 0, 1)])
    def test_rejects_what_seed_sequence_rejects(self, args):
        with pytest.raises((ValueError, TypeError)):
            trial_rng(*args[:3])
        with pytest.raises((ValueError, TypeError)):
            next(trial_streams(*args))

    @settings(max_examples=examples(200), deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.one_of(st.integers(1, 16), st.integers(1, 2**32 - 1)),
        st.one_of(st.integers(0, 600), st.integers(2**32 - 20, 2**32 - 12), st.integers(0, 2**32 - 12)),
        st.integers(0, 12),
    )
    def test_every_stream_matches_trial_rng(self, seed, n, lo, length):
        got = [_state(rng) for rng in trial_streams(seed, n, lo, lo + length)]
        assert got == [_state(trial_rng(seed, n, k)) for k in range(lo, lo + length)]

    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.integers(0, 2**80),
        st.one_of(st.integers(1, 16), st.integers(1, 2**40)),
        st.one_of(st.integers(0, 600), st.integers(2**32 - 8, 2**32 + 8), st.integers(0, 2**40)),
        st.integers(1, 12),
    )
    def test_streams_beyond_the_bound_raise(self, seed, n, lo, length):
        # Where trial_rng's entropy would take a fifth word, or the last
        # trial index a second one, trial_streams raises rather than wrap.
        beyond = seed >> 64 or n >> 32 or lo + length > 2**32
        if beyond:
            with pytest.raises(ValueError):
                next(trial_streams(seed, n, lo, lo + length))
        else:
            assert _state(next(trial_streams(seed, n, lo, lo + length))) == _state(trial_rng(seed, n, lo))


class _CountingRng:
    """A generator that counts its 256-point batches."""

    def __init__(self, rng):
        self._rng = rng
        self.batches = 0

    def random(self, size):
        self.batches += 1
        return self._rng.random(size)

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size)


MOSTLY_BLOCKED = GeometryConfig(blockage_radius_m=3.2, sampling_box_m=(0.0, 7.0, 0.0, 7.0))


class TestChunkStreams:
    # The chunk loop's channels against sample_instance on trial_rng, one
    # trial at a time.
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_mostly_blocked_channels_are_the_per_trial_ones(self, default_setup, n):
        _, chan, params = default_setup
        z, alpha_tilde = montecarlo._chunk_channels(23, n, 40, 104, MOSTLY_BLOCKED, chan, params)
        rngs = [_CountingRng(trial_rng(23, n, k)) for k in range(40, 104)]
        insts = [sample_instance(n, MOSTLY_BLOCKED, chan, params, rng) for rng in rngs]
        assert max(rng.batches for rng in rngs) >= 2  # about 1.3 % of the box sees both ends
        want_z = np.array([[inst.z0_w, *inst.z_w] for inst in insts])
        want_alpha = np.array([inst.alpha_tilde for inst in insts])
        assert z.shape == want_z.shape and z.tobytes() == want_z.tobytes()
        assert alpha_tilde.shape == want_alpha.shape and alpha_tilde.tobytes() == want_alpha.tobytes()

    @pytest.mark.parametrize(
        "geom, chan, n, lo",
        [
            # The direct link's channel is subnormal, so z0 = sigma2 / h_s
            # overflows on a deep enough fade.
            (GeometryConfig(), ChannelConfig(k_nlos_db=-3095.0), 3, 2),
            # About 1e-4 of the box sees both ends: some trials exhaust.
            (GeometryConfig(blockage_radius_m=3.45, sampling_box_m=(0.0, 7.0, 0.0, 7.0)), ChannelConfig(), 1, 20),
        ],
        ids=["channel-underflow", "budget-exhausted"],
    )
    def test_fails_at_the_trial_where_the_per_trial_sampler_fails(self, geom, chan, n, lo):
        params, lambdas = SystemParams(), (1.0, 100.0)
        for k in range(lo, lo + 64):
            try:
                sample_instance(n, geom, chan, params, trial_rng(7, n, k))
            except ValueError as exc:
                want = exc
                break
        else:
            pytest.fail("no trial fails")
        assert k > lo
        _trial_chunk(7, n, lo, k, lambdas, MECHANISMS, geom, chan, params)
        for hi in (k + 1, lo + 64):
            with pytest.raises(type(want)) as got:
                _trial_chunk(7, n, lo, hi, lambdas, MECHANISMS, geom, chan, params)
            assert str(got.value) == str(want)


class TestTrendSmoke:
    def test_mspoa_duration_improves_with_candidates(self, default_setup):
        # Full-scale trend gates run in the acceptance suite; this is a
        # 300-trial sanity check at the largest delay power.
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 3), lambda_values_w=(100.0,), trials=300,
                          mechanisms=("mspoa",))
        c1, c3 = run_sweep(cfg, geom, chan, params)
        assert c3.mean_t_s < c1.mean_t_s
