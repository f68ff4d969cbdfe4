import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayauction import (
    AuctionOutcome,
    Bid,
    ConvergenceError,
    ScenarioInstance,
    StrategyProfile,
    SystemParams,
    cooperative_baseline,
    ex_post_utility,
    min_total_power,
    non_ic_witness,
    optimal_schedule,
    run_mspoa,
    run_spoa,
    sample_deviations,
    score,
    truthful_bid,
    truthful_profile,
    value_of_z,
)

LN2 = math.log(2.0)

# Frozen from the construction at z=1, lambda=1, D=8, eps1=0.5 with
# eps2 = 1.01 * t*(z) * eps1 / ((z - eps1) + lambda).
WITNESS_BOUND = 1.8483924814931874
WITNESS_T = 7.412053850787681
WITNESS_P = 0.5565221203585975
WITNESS_SCORE = 11.53702577604015
V_OF_1 = 15.07335508290976


def _single_candidate_instance(z0: float, z1: float) -> ScenarioInstance:
    return ScenarioInstance(
        candidate_positions_m=np.array([[1.0, 1.0]]),
        h_s=1.0 / z0,
        h_i=np.array([1.0 / max(z1 - 0.25, 1e-9)]),
        h_si=np.array([4.0]),
        alpha_tilde=np.array([1.0]),
        z0_w=z0,
        z_w=np.array([z1]),
    )


class TestBidAndProfile:
    def test_bid_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            Bid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Bid(1.0, -1.0, 1)

    def test_profile_requires_single_reservation(self):
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 1), Bid(1.0, 1.0, 2)))
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 0), Bid(1.0, 1.0, 0)))

    def test_profile_requires_unique_bidders(self):
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 0), Bid(1.0, 1.0, 1), Bid(2.0, 1.0, 1)))

    def test_records_round_trip(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        back = StrategyProfile.from_record(profile.to_record())
        assert back == profile
        outcome = run_spoa(profile, golden_instance, golden_params)
        assert AuctionOutcome.from_record(outcome.to_record()) == outcome


class TestScore:
    def test_unit_bid(self, golden_params):
        assert score(Bid(1.0, 1.0, 1), golden_params) == 2.0

    def test_slow_low_power_bid(self, golden_params):
        assert score(Bid(2.0, 0.5, 1), golden_params) == 3.0

    def test_truthful_score_equals_value(self, golden_params):
        for z in (0.2, 1.0, 2.0, 30.0):
            b = truthful_bid(z, golden_params, 1)
            assert score(b, golden_params) == pytest.approx(
                value_of_z(z, golden_params), rel=1e-12
            )


class TestTruthfulBid:
    def test_matched_delay_power(self, golden_params):
        b = truthful_bid(1.0, golden_params, 3)
        assert b.t_s == pytest.approx(8.0 * LN2, rel=1e-12)
        assert b.p_tot_w == pytest.approx(math.e - 1.0, rel=1e-12)
        assert b.bidder == 3

    def test_capped_channel_bids_max_power(self, golden_params):
        b = truthful_bid(1e5, golden_params, 1)
        assert b.p_tot_w == golden_params.p_max_w


class TestCooperativeBaseline:
    def test_candidate_break_even(self, golden_params):
        inst = _single_candidate_instance(z0=10.0, z1=1.0)
        out = cooperative_baseline(truthful_profile(inst, golden_params), inst, golden_params)
        assert out.winner == 1
        assert abs(out.winner_net_energy_j) <= 1e-12

    def test_source_wins_when_direct_is_best(self, golden_params):
        inst = _single_candidate_instance(z0=0.5, z1=1.0)
        out = cooperative_baseline(truthful_profile(inst, golden_params), inst, golden_params)
        assert out.winner == 0
        assert out.winner_net_energy_j == 0.0

    def test_golden_payment_is_winners_own_schedule(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        out = cooperative_baseline(profile, golden_instance, golden_params)
        sol = optimal_schedule(1.0, golden_params)
        assert out.winner == 1
        assert out.runner_up == 2
        assert out.payment_t_s == sol.t_star_s
        assert out.payment_p_w == sol.p_star_w
        assert out.source_cost_ws == pytest.approx(V_OF_1, rel=1e-12)
        # the winner's bid scores exactly its value: t*(lambda + p) both ways
        assert out.source_cost_ws == value_of_z(1.0, golden_params)

    def test_pays_the_best_bid_verbatim(self, golden_instance, golden_params):
        off = Bid(3.0, 0.5, 1)  # scores 4.5, below every truthful bid
        profile = StrategyProfile(
            (truthful_bid(10.0, golden_params, 0), off, truthful_bid(2.0, golden_params, 2))
        )
        out = cooperative_baseline(profile, golden_instance, golden_params)
        assert (out.winner, out.runner_up) == (1, 2)
        assert (out.payment_t_s, out.payment_p_w) == (off.t_s, off.p_tot_w)
        assert out.source_cost_ws == score(off, golden_params)


class TestRunSpoa:
    def test_all_truthful_pays_runner_up_bid(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        out = run_spoa(profile, golden_instance, golden_params)
        runner_bid = truthful_bid(2.0, golden_params, 2)
        assert out.winner == 1
        assert out.runner_up == 2
        assert out.payment_t_s == runner_bid.t_s
        assert out.payment_p_w == runner_bid.p_tot_w

    def test_reservation_binds(self, golden_params):
        inst = _single_candidate_instance(z0=0.5, z1=1.0)
        out = run_spoa(truthful_profile(inst, golden_params), inst, golden_params)
        sol = optimal_schedule(0.5, golden_params)
        assert out.winner == 0
        assert out.payment_t_s == sol.t_star_s
        assert out.winner_net_energy_j == 0.0

    def test_winner_utility_matches_manifold_formula(self, golden_instance, golden_params):
        # Payment on the manifold at z2 gives the winner
        # t*(z2) * alpha_tilde * (2^(D/t*(z2)) - 1) * (z2 - z1).
        profile = truthful_profile(golden_instance, golden_params)
        out = run_spoa(profile, golden_instance, golden_params)
        u = ex_post_utility(1, out, golden_instance, golden_params)
        sol2 = optimal_schedule(2.0, golden_params)
        expected = sol2.t_star_s * 1.0 * (2.0 ** (8.0 / sol2.t_star_s) - 1.0) * (2.0 - 1.0)
        assert u == pytest.approx(expected, rel=1e-9)
        assert u > 0.0

    def test_reservation_bid_can_be_runner_up(self, golden_params):
        # z = (1, 20) against z0 = 10: the source's own bid is second-best
        # and becomes the payment.
        inst = ScenarioInstance(
            candidate_positions_m=np.array([[1.0, 1.0], [2.0, 2.0]]),
            h_s=0.1,
            h_i=np.array([4.0 / 3.0, 0.05]),
            h_si=np.array([4.0, 4.0]),
            alpha_tilde=np.array([1.0, 1.0]),
            z0_w=10.0,
            z_w=np.array([1.0, 20.25]),
        )
        profile = truthful_profile(inst, golden_params)
        out = run_spoa(profile, inst, golden_params)
        b0 = truthful_bid(10.0, golden_params, 0)
        assert out.winner == 1
        assert out.runner_up == 0
        assert out.payment_t_s == b0.t_s
        assert out.payment_p_w == b0.p_tot_w

    def test_rejects_overpowered_bid(self, golden_instance, golden_params):
        profile = StrategyProfile(
            (
                truthful_bid(golden_instance.z0_w, golden_params, 0),
                Bid(1.0, golden_params.p_max_w * 1.5, 1),
                truthful_bid(2.0, golden_params, 2),
            )
        )
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_spoa(profile, golden_instance, golden_params)

    def test_rejects_unknown_bidder(self, golden_instance, golden_params):
        profile = StrategyProfile(
            (truthful_bid(10.0, golden_params, 0), truthful_bid(1.0, golden_params, 7))
        )
        with pytest.raises(ValueError, match="candidates"):
            run_spoa(profile, golden_instance, golden_params)

    def test_needs_two_bids(self, golden_params):
        inst = _single_candidate_instance(10.0, 1.0)
        lonely = StrategyProfile((truthful_bid(10.0, golden_params, 0),))
        with pytest.raises(ValueError, match="two bids"):
            run_spoa(lonely, inst, golden_params)

    def test_tie_breaks_to_lowest_index(self, golden_params):
        inst = ScenarioInstance(
            candidate_positions_m=np.array([[1.0, 1.0], [2.0, 2.0]]),
            h_s=0.1,
            h_i=np.array([1.0, 1.0]),
            h_si=np.array([4.0, 4.0]),
            alpha_tilde=np.array([1.0, 1.0]),
            z0_w=10.0,
            z_w=np.array([1.0, 1.0]),
        )
        profile = truthful_profile(inst, golden_params)
        out = run_spoa(profile, inst, golden_params)
        assert out.winner == 1
        assert out.runner_up == 2


class TestRunMspoa:
    def test_truthful_payments_match_spoa(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        spoa = run_spoa(profile, golden_instance, golden_params)
        mspoa = run_mspoa(profile, golden_instance, golden_params)
        assert mspoa.winner == spoa.winner
        assert mspoa.payment_t_s == pytest.approx(spoa.payment_t_s, rel=1e-8)
        assert mspoa.payment_p_w == pytest.approx(spoa.payment_p_w, rel=1e-8)

    def test_off_manifold_payment_preserves_score(self, golden_instance, golden_params):
        off = Bid(20.0, 0.3, 2)  # scores 26: above v(1), below v(10)
        profile = StrategyProfile(
            (
                truthful_bid(10.0, golden_params, 0),
                truthful_bid(1.0, golden_params, 1),
                off,
            )
        )
        out = run_mspoa(profile, golden_instance, golden_params)
        assert out.winner == 1
        assert out.runner_up == 2
        assert out.source_cost_ws == pytest.approx(score(off, golden_params), rel=1e-8)
        # and the payment sits on the manifold: it is its own optimal schedule
        from relayauction import z_of_value

        z_pay = z_of_value(out.source_cost_ws, golden_params)
        sol = optimal_schedule(z_pay, golden_params)
        assert out.payment_t_s == pytest.approx(sol.t_star_s, rel=1e-8)

    def test_winner_zero_identical_to_spoa(self, golden_params):
        inst = _single_candidate_instance(z0=0.5, z1=1.0)
        profile = truthful_profile(inst, golden_params)
        assert run_mspoa(profile, inst, golden_params) == run_spoa(profile, inst, golden_params)

    def test_same_winner_as_spoa_under_arbitrary_bids(self, golden_instance, golden_params):
        rng = np.random.default_rng(12)
        for _ in range(50):
            bids = [truthful_bid(golden_instance.z0_w, golden_params, 0)]
            for j in (1, 2):
                bids.append(
                    Bid(
                        float(10.0 ** rng.uniform(-0.5, 1.5)),
                        float(rng.uniform(0.05, golden_params.p_max_w)),
                        j,
                    )
                )
            profile = StrategyProfile(tuple(bids))
            a = run_spoa(profile, golden_instance, golden_params)
            b = run_mspoa(profile, golden_instance, golden_params)
            assert a.winner == b.winner
            assert a.runner_up == b.runner_up


class TestExPostUtility:
    def test_non_winner_gets_zero(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        out = run_spoa(profile, golden_instance, golden_params)
        assert ex_post_utility(2, out, golden_instance, golden_params) == 0.0
        assert ex_post_utility(0, out, golden_instance, golden_params) == 0.0

    def test_break_even_payment_is_zero(self, golden_params):
        inst = _single_candidate_instance(10.0, 1.0)
        out = cooperative_baseline(truthful_profile(inst, golden_params), inst, golden_params)
        assert ex_post_utility(1, out, inst, golden_params) == pytest.approx(0.0, abs=1e-12)


class TestNonIcWitness:
    def test_frozen_construction_values(self, golden_params):
        w = non_ic_witness(1.0, golden_params, eps1=0.5)
        assert w.t_s == pytest.approx(WITNESS_T, rel=1e-12)
        assert w.p_tot_w == pytest.approx(WITNESS_P, rel=1e-12)
        assert score(w, golden_params) == pytest.approx(WITNESS_SCORE, rel=1e-12)
        assert score(w, golden_params) < V_OF_1

    def test_eps1_bounds(self, golden_params):
        with pytest.raises(ValueError):
            non_ic_witness(1.0, golden_params, eps1=1.0)
        with pytest.raises(ValueError):
            non_ic_witness(1.0, golden_params, eps1=0.0)

    def test_guarantees_hold_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            z = float(10.0 ** rng.uniform(-2, 2))
            lam = float(10.0 ** rng.uniform(-1, 2))
            eps1 = z * float(rng.uniform(0.05, 0.95))
            params = SystemParams(lambda_w=lam, p_max_w=10.0)
            w = non_ic_witness(z, params, eps1)
            assert score(w, params) < value_of_z(z, params)
            assert w.p_tot_w < min_total_power(w.t_s, z, params)
            assert w.p_tot_w <= params.p_max_w

    def test_losing_energy_when_paid_witness(self, golden_instance, golden_params):
        # Candidate 2's off-manifold bid (built on z=2 with eps1=1.5) scores
        # between v(1) and v(2): candidate 1 still wins truthfully but the
        # SPOA payment sits below its break-even power.
        witness = non_ic_witness(2.0, golden_params, eps1=1.5, bidder=2)
        assert V_OF_1 < score(witness, golden_params) < value_of_z(2.0, golden_params)
        profile = StrategyProfile(
            (
                truthful_bid(10.0, golden_params, 0),
                truthful_bid(1.0, golden_params, 1),
                witness,
            )
        )
        spoa = run_spoa(profile, golden_instance, golden_params)
        mspoa = run_mspoa(profile, golden_instance, golden_params)
        assert spoa.winner == mspoa.winner == 1
        assert ex_post_utility(1, spoa, golden_instance, golden_params) < 0.0
        assert ex_post_utility(1, mspoa, golden_instance, golden_params) >= 0.0


class TestSampleDeviations:
    def test_all_bids_valid(self, golden_params):
        rng = np.random.default_rng(4)
        for dev in sample_deviations(1.0, golden_params, 50, rng):
            assert dev.t_s > 0.0
            assert 0.0 < dev.p_tot_w <= golden_params.p_max_w

    def test_manifold_family_scores_match_value(self, golden_params):
        from relayauction import z_of_value

        rng = np.random.default_rng(14)
        devs = sample_deviations(1.0, golden_params, 9, rng)
        # 1 witness + 8 remaining, half of which are on-manifold, listed first
        for bid in devs[:4]:
            z_tilde = z_of_value(score(bid, golden_params), golden_params)
            sol = optimal_schedule(z_tilde, golden_params)
            assert bid.t_s == pytest.approx(sol.t_star_s, rel=1e-7)
            assert bid.p_tot_w == pytest.approx(sol.p_star_w, rel=1e-7)

    def test_witness_membership_follows_precondition(self, golden_params):
        rng = np.random.default_rng(6)
        with_witness = sample_deviations(1.0, golden_params, 7, rng, witness_eps1=0.4)
        expected = non_ic_witness(1.0, golden_params, 0.4)
        assert with_witness[-1] == expected
        without = sample_deviations(1.0, golden_params, 7, rng, witness_eps1=2.0)
        assert len(without) == 7
        assert all(b != expected for b in without)

    def test_requested_count(self, golden_params):
        rng = np.random.default_rng(8)
        assert len(sample_deviations(0.7, golden_params, 31, rng)) == 31


class TestIncentiveFuzzSmoke:
    # Small-scale versions of the release-gate fuzz; the full 1000x200 runs
    # live in the acceptance suite.
    def test_mspoa_truthful_dominates(self):
        from relayauction.verify import check_mspoa_ic_fuzz

        res = check_mspoa_ic_fuzz(instances=60, deviations=30)
        assert res.passed, res.detail

    def test_spoa_truthful_is_equilibrium(self):
        from relayauction.verify import check_spoa_ne_fuzz

        res = check_spoa_ne_fuzz(instances=60, deviations=30)
        assert res.passed, res.detail


class TestExtremeChannels:
    @given(
        n=st.integers(1, 4),
        log_z0=st.floats(-300.0, 300.0),
        log_z=st.lists(st.floats(-300.0, 300.0), min_size=4, max_size=4),
        log_h_i=st.lists(st.floats(-320.0, 300.0), min_size=4, max_size=4),
        log_h_si=st.lists(st.floats(-300.0, 300.0), min_size=4, max_size=4),
        log_alpha_tilde=st.lists(st.floats(-300.0, 300.0), min_size=4, max_size=4),
        log_lam=st.floats(-6.0, 6.0),
        log_pmax=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_outcome_or_an_error(
        self, n, log_z0, log_z, log_h_i, log_h_si, log_alpha_tilde, log_lam, log_pmax
    ):
        params = SystemParams(lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax)
        inst = ScenarioInstance(
            candidate_positions_m=np.ones((n, 2)),
            h_s=1.0,
            h_i=10.0 ** np.array(log_h_i[:n]),
            h_si=10.0 ** np.array(log_h_si[:n]),
            alpha_tilde=10.0 ** np.array(log_alpha_tilde[:n]),
            z0_w=10.0**log_z0,
            z_w=10.0 ** np.array(log_z[:n]),
        )
        try:
            profile = truthful_profile(inst, params)
        except (ValueError, ConvergenceError):
            return
        for mechanism in (cooperative_baseline, run_spoa, run_mspoa):
            try:
                out = mechanism(profile, inst, params)
            except (ValueError, ConvergenceError):
                continue
            assert math.isfinite(out.payment_t_s) and math.isfinite(out.payment_p_w)
            assert math.isfinite(out.source_cost_ws)
            assert math.isfinite(out.winner_net_energy_j)
            assert math.isfinite(out.winner_relay_p_w) or not out.winner_relay_feasible
            json.dumps(out.to_record(), allow_nan=False)
