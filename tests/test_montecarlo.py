import math
from dataclasses import replace

import numpy as np
import pytest

from relayauction import (
    ChannelConfig,
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
from relayauction.mechanisms import AuctionOutcome
from relayauction.montecarlo import (
    CSV_HEADER,
    MECHANISMS,
    _outcome_metrics,
    _trial_chunk,
    render_csv,
    run_mechanism,
    trial_rng,
)


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


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
            assert abs(cell.mean_net_harvest_j) <= 1e-12

    def test_bit_identical_reruns_and_workers(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 2), lambda_values_w=(1.0, 100.0), trials=40,
                          mechanisms=("cooperative", "spoa", "mspoa"))
        a = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
        b = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
        c = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=3))
        assert a == b == c

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

    def test_csv_round_trips_floats(self, default_setup):
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(2,), lambda_values_w=(10.0,), trials=8)
        cells = run_sweep(cfg, geom, chan, params)
        row = render_csv(cells).splitlines()[1].split(",")
        assert float(row[4]) == cells[0].mean_t_s
        assert float(row[6]) == cells[0].mean_energy_db_mj


class TestSharedProfile:
    # The chunk loop settles every mechanism on one truthful profile per
    # (trial, lambda); that must change no bit of any mechanism's result.
    def test_chunk_matches_one_auction_at_a_time(self, default_setup):
        geom, chan, params = default_setup
        lambdas = (1.0, 10.0, 100.0)
        for n in (1, 3, 6):
            chunk = _trial_chunk(31, n, 5, 25, lambdas, MECHANISMS, geom, chan, params)
            for k in range(5, 25):
                inst = sample_instance(n, geom, chan, params, trial_rng(31, n, k))
                for j, lam in enumerate(lambdas):
                    cell = replace(params, lambda_w=lam)
                    for m, mech in enumerate(MECHANISMS):
                        want = np.array(_outcome_metrics(run_mechanism(mech, inst, cell)))
                        assert chunk[k - 5, j, m].tobytes() == want.tobytes(), (n, k, lam, mech)

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

    def test_unknown_mechanism_rejected(self, default_setup):
        geom, chan, params = default_setup
        inst = sample_instance(1, geom, chan, params, trial_rng(1, 1, 0))
        with pytest.raises(ValueError, match="unknown mechanism"):
            run_mechanism("english", inst, params)


class TestTrendSmoke:
    def test_mspoa_duration_improves_with_candidates(self, default_setup):
        # Full-scale trend gates run in the acceptance suite; this is a
        # 300-trial sanity check at the largest delay power.
        geom, chan, params = default_setup
        cfg = SweepConfig(n_values=(1, 3), lambda_values_w=(100.0,), trials=300,
                          mechanisms=("mspoa",))
        c1, c3 = run_sweep(cfg, geom, chan, params)
        assert c3.mean_t_s < c1.mean_t_s
