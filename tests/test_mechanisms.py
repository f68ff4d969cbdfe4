import copy
import dataclasses
import inspect
import json
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples

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
from relayauction import mechanisms, verify
from relayauction.mechanisms import SOURCE, settle
from relayauction.schedule import ScheduleSolution, optimal_schedules, z_of_value

LN2 = math.log(2.0)

# Frozen from the construction at z=1, lambda=1, D=8, eps1=0.5 with
# eps2 = 1.01 * t*(z) * eps1 / ((z - eps1) + lambda).
WITNESS_BOUND = 1.8483924814931874
WITNESS_T = 7.412053850787681
WITNESS_P = 0.5565221203585975
WITNESS_SCORE = 11.53702577604015
V_OF_1 = 15.07335508290976


def _settle_truthful(mechs, z, alpha_tilde, params):
    # The sweep's call: every bidder bids its own schedule from the array kernel.
    t, p, _, _ = optimal_schedules(z, params)
    return settle(mechs, t, p, z, alpha_tilde, params)


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, 0.5, True), "bidder must be an integer, got True"),
            ((1.0, 0.5, 1.0), "bidder must be an integer, got 1.0"),
            (("1", 0.5, 1), "t_s must be a finite number or null, got '1'"),
            ((1.0, np.bool_(True), 1), "p_tot_w must be a finite number, got np.True_"),
            ((1.0, math.inf, 1), "bid power must be strictly positive and finite"),
            ((1.0, 0.5, -1), "bidder index must be non-negative"),
            # numpy infinities are not numbers to the reader, whatever the width.
            ((np.float64(math.inf), 0.5, 1), "t_s must be a finite number or null, got np.float64(inf)"),
            ((np.float32(math.inf), 0.5, 1), "t_s must be a finite number or null, got np.float32(inf)"),
        ],
    )
    def test_bid_rejects_what_its_record_reader_rejects(self, args, message):
        with pytest.raises(ValueError) as err:
            Bid(*args)
        assert str(err.value) == message

    def test_bid_stores_numbers_as_its_record_reader_does(self):
        bid = Bid(np.float32(1.5), 1, np.int64(2))
        assert (type(bid.t_s), type(bid.p_tot_w), type(bid.bidder)) == (float, float, int)

    def test_profile_requires_single_reservation(self):
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 1), Bid(1.0, 1.0, 2)))
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 0), Bid(1.0, 1.0, 0)))

    def test_profile_requires_unique_bidders(self):
        with pytest.raises(ValueError):
            StrategyProfile((Bid(1.0, 1.0, 0), Bid(1.0, 1.0, 1), Bid(2.0, 1.0, 1)))

    def test_records_round_trip(self, golden_instance, golden_params):
        outcome = run_spoa(truthful_profile(golden_instance, golden_params), golden_instance, golden_params)
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

    def test_outcome_without_a_positive_duration_is_rejected(self, golden_instance, golden_params):
        out = AuctionOutcome(1, 0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError) as err:
            ex_post_utility(1, out, golden_instance, golden_params)
        assert str(err.value) == "duration must be strictly positive, got 0.0"

    def test_break_even_payment_is_zero(self, golden_params):
        inst = _single_candidate_instance(10.0, 1.0)
        out = cooperative_baseline(truthful_profile(inst, golden_params), inst, golden_params)
        assert ex_post_utility(1, out, inst, golden_params) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("winner", [-1, 3, 5])
    def test_winner_outside_the_candidates_is_rejected(self, winner):
        # A negative index would read another candidate's channel.
        inst, params = verify.witness_instance()
        out = AuctionOutcome(winner, 0, 1.0, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError, match=f"^winner {winner} is not a candidate of an instance with 2 "):
            ex_post_utility(winner, out, inst, params)

    def test_winner_whose_relay_channel_underflows_is_rejected(self):
        # sigma2/h_i underflows to 0: the rules' own error, not a net energy.
        params = SystemParams(sigma2_w=1e-300)
        inst = _instance(2, h_i=[1e300, 1.0])
        with pytest.raises(ValueError, match="got 0.0$") as rules:
            mechanisms._outcome(1, 2, 1.0, 0.5, 1.5, inst, params)
        out = AuctionOutcome(1, 2, 1.0, 0.5, 1.5, 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(rules.value))}$"):
            ex_post_utility(1, out, inst, params)


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

    @given(
        z=st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max),
        log_lam=st.floats(-3.0, 3.0),
        log_pmax=st.floats(-3.0, 3.0),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(z=5e-324, log_lam=0.0, log_pmax=1.0, k=6, seed=0)  # a misreport underflows to 0
    @example(z=1e308, log_lam=0.0, log_pmax=1.0, k=6, seed=0)  # z's own schedule overflows
    @example(z=5e-324, log_lam=3.0, log_pmax=0.0, k=1, seed=0)  # p_max/z overflows and the cap binds
    @example(z=2.5108138099089954e307, log_lam=-1.0, log_pmax=0.0, k=1, seed=0)  # the witness's t overflows
    @settings(max_examples=examples(200), deadline=None)
    def test_every_positive_finite_channel_gets_k_bids(self, z, log_lam, log_pmax, k, seed):
        params = SystemParams(lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax)
        devs = sample_deviations(z, params, k, np.random.default_rng(seed))
        assert len(devs) == k
        assert all(b.t_s > 0.0 and 0.0 < b.p_tot_w <= params.p_max_w for b in devs)

    def test_needs_at_least_one_deviation(self, golden_params):
        with pytest.raises(ValueError) as err:
            sample_deviations(0.7, golden_params, 0, np.random.default_rng(8))
        assert str(err.value) == "need k >= 1 deviations"


class TestIncentiveFuzzSmoke:
    # Small-scale versions of the release-gate fuzz; the full 1000x200 runs
    # live in the acceptance suite.
    def test_mspoa_truthful_dominates(self):
        from relayauction.verify import check_mspoa_ic_fuzz

        res = check_mspoa_ic_fuzz(instances=60, deviations=30)
        assert res.passed, res.detail

    def test_mspoa_opponents_bid_every_kind_of_deviation(self):
        # Each opponent bids a channel misreport (on the manifold of optimal
        # schedules), a log-perturbation of its truthful bid, or the witness.
        from relayauction.verify import _arbitrary_opponents, _fuzz_setup

        kinds = []
        for k in range(40):
            inst, params, rng, focal = _fuzz_setup(k, 511)
            for b in _arbitrary_opponents(inst, params, rng, focal).bids[1:]:
                z = float(inst.z_w[b.bidder - 1])
                if b.bidder == focal:
                    assert b == truthful_bid(z, params, focal)
                elif b == non_ic_witness(z, params, z / 4.0, b.bidder):
                    kinds.append("witness")
                else:
                    # The channel whose break-even power at t_s is p_tot_w.
                    z_said = b.p_tot_w / math.expm1(params.d_bits_per_hz * LN2 / b.t_s)
                    on_manifold = optimal_schedule(z_said, params).t_star_s == pytest.approx(b.t_s, rel=1e-9)
                    kinds.append("misreport" if on_manifold else "perturbation")
        counts = {kind: kinds.count(kind) for kind in ("misreport", "perturbation", "witness")}
        assert all(counts.values()), counts

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
    @settings(max_examples=examples(300), deadline=None)
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
        # A bidder whose schedule overflows scores +inf instead of aborting.
        profile = truthful_profile(inst, params)
        best, runner = sorted(profile.bids, key=lambda b: (score(b, params), b.bidder))[:2]
        for mechanism in (cooperative_baseline, run_spoa, run_mspoa):
            sets_payment = best if mechanism is cooperative_baseline or best.bidder == SOURCE else runner
            if score(sets_payment, params) == math.inf:
                with pytest.raises(ConvergenceError, match="score overflows"):
                    mechanism(profile, inst, params)
                continue
            try:
                out = mechanism(profile, inst, params)
            except (ValueError, ConvergenceError) as exc:
                assert "score overflows" not in str(exc)
                continue
            assert out.winner == best.bidder
            assert math.isfinite(out.payment_t_s) and math.isfinite(out.payment_p_w)
            assert math.isfinite(out.source_cost_ws)
            assert math.isfinite(out.winner_net_energy_j)
            assert math.isfinite(out.winner_relay_p_w) or not out.winner_relay_feasible
            json.dumps(out.to_record(), allow_nan=False)


class TestOverflowingBidder:
    # Default parameters: a schedule at z = 3e307 costs more than the largest double.
    PARAMS = SystemParams()

    def _instance(self, z0, z):
        n = len(z)
        return ScenarioInstance(
            candidate_positions_m=np.ones((n, 2)), h_s=1.0, h_i=np.ones(n), h_si=np.ones(n),
            alpha_tilde=np.full(n, 0.5), z0_w=z0, z_w=np.array(z),
        )

    def test_it_scores_inf_and_the_auction_goes_on(self):
        inst = self._instance(10.0, [1.0, 3e307])
        profile = truthful_profile(inst, self.PARAMS)
        assert score(profile.bids[2], self.PARAMS) == math.inf
        for mechanism in (cooperative_baseline, run_spoa, run_mspoa):
            out = mechanism(profile, inst, self.PARAMS)
            assert (out.winner, out.runner_up) == (1, SOURCE)
            assert math.isfinite(out.source_cost_ws)

    def test_it_fails_the_auction_only_where_it_sets_the_payment(self):
        inst = self._instance(3e307, [1.0, 3e307])
        profile = truthful_profile(inst, self.PARAMS)
        assert cooperative_baseline(profile, inst, self.PARAMS).winner == 1
        for mechanism in (run_spoa, run_mspoa):
            with pytest.raises(ConvergenceError, match="score overflows"):
                mechanism(profile, inst, self.PARAMS)

    def test_the_array_rule_agrees(self):
        z = np.array([[10.0, 1.0, 3e307], [3e307, 1.0, 3e307]])
        alpha = np.full((2, 2), 0.5)
        winner, [(t, _, _)] = _settle_truthful(("cooperative",), z, alpha, self.PARAMS)
        assert winner.tolist() == [1, 1] and np.isfinite(t).all()
        _, settled = _settle_truthful(("spoa", "mspoa"), z[:1], alpha[:1], self.PARAMS)
        assert all(np.isfinite(t).all() for t, _, _ in settled)
        for mech in ("spoa", "mspoa"):
            with pytest.raises(ConvergenceError, match="score overflows"):
                _settle_truthful((mech,), z, alpha, self.PARAMS)

    def test_overflowing_net_energy_fails_as_in_the_scalar_rules(self):
        alpha_tilde = np.full(2, 1e308)
        inst = self._instance(10.0, [1.0, 2.0])
        inst = dataclasses.replace(inst, alpha_tilde=alpha_tilde)
        profile = truthful_profile(inst, self.PARAMS)
        for name, mechanism in (("cooperative", cooperative_baseline), ("spoa", run_spoa), ("mspoa", run_mspoa)):
            with pytest.raises(ConvergenceError) as scalar:
                mechanism(profile, inst, self.PARAMS)
            with pytest.raises(ConvergenceError) as array:
                _settle_truthful((name,), np.array([[10.0, 1.0, 2.0]]), alpha_tilde[None], self.PARAMS)
            assert str(array.value) == str(scalar.value) == "winner 1's net energy overflows a double"


class TestSettle:
    """The array winner rule against the scalar mechanisms, its reference,
    on arbitrary valid profiles."""

    RULES = {"cooperative": cooperative_baseline, "spoa": run_spoa, "mspoa": run_mspoa}
    # A tie copies the bid to its left, so two bidders score the same
    # exactly; an overflow bids as truthful_bid does for a channel whose
    # schedule overflows, and scores +inf.
    KINDS = ("truthful", "misreport", "perturbation", "witness", "tie", "overflow")
    # Net energies are t*alpha*(p - p_even) with p_even = expm1(D*ln2/t)*z:
    # np.expm1 in the array rule, math.expm1 in the scalar one. Each is
    # within an ulp or two of the rate, so the two net energies may differ
    # by a few ulps of t*alpha*max(p, p_even); this bound allows 8.
    ULPS = 8

    @staticmethod
    def _bid(kind, z, params, bidder, left, u):
        truth = truthful_bid(z, params, bidder)
        if kind == "misreport":
            return truthful_bid(z * 10.0 ** (2.0 * u[0]), params, bidder)
        if kind == "perturbation":
            p = truth.p_tot_w * math.exp(u[1])
            return Bid(truth.t_s * math.exp(u[0]), min(p, params.p_max_w), bidder)
        if kind == "witness":
            return non_ic_witness(z, params, z / 4.0, bidder)
        if kind == "tie" and left is not None:
            return Bid(left.t_s, left.p_tot_w, bidder)
        if kind == "overflow":
            return Bid(math.inf, params.p_max_w, bidder)
        return truth

    @given(
        n=st.integers(1, 3),
        rows=st.integers(1, 8),
        log_lam=st.floats(-2.0, 2.0),
        log_pmax=st.floats(-2.0, 2.0),
        data=st.data(),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_matches_the_scalar_mechanisms(self, n, rows, log_lam, log_pmax, data):
        params = SystemParams(lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax)
        log_z = st.lists(st.floats(-6.0, 6.0), min_size=rows * (n + 1), max_size=rows * (n + 1))
        z = 10.0 ** np.array(data.draw(log_z)).reshape(rows, n + 1)
        log_alpha = st.lists(st.floats(-2.0, 2.0), min_size=rows * n, max_size=rows * n)
        alpha = 10.0 ** np.array(data.draw(log_alpha)).reshape(rows, n)
        profiles, insts = [], []
        for i in range(rows):
            bids = []
            for j in range(n + 1):
                kind = data.draw(st.sampled_from(self.KINDS))
                u = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
                bids.append(self._bid(kind, float(z[i, j]), params, j, bids[-1] if bids else None, u))
            profiles.append(StrategyProfile(tuple(bids)))
            insts.append(ScenarioInstance(
                candidate_positions_m=np.ones((n, 2)), h_s=1.0, h_i=np.ones(n), h_si=np.ones(n),
                alpha_tilde=alpha[i], z0_w=float(z[i, 0]), z_w=z[i, 1:],
            ))
        t = np.array([[b.t_s for b in prof.bids] for prof in profiles])
        p = np.array([[b.p_tot_w for b in prof.bids] for prof in profiles])
        for mech, rule in self.RULES.items():
            expected = [_outcome_or_error(rule, prof, inst, params) for prof, inst in zip(profiles, insts)]
            failed = [e for e in expected if not isinstance(e, AuctionOutcome)]
            got = _outcome_or_error(settle, (mech,), t, p, z, alpha, params)
            if failed:
                # The batch fails as one of its rows does; settle the rest.
                assert isinstance(got[0], type) and got in failed
                ok = [i for i, e in enumerate(expected) if isinstance(e, AuctionOutcome)]
                if not ok:
                    continue
                got = settle((mech,), t[ok], p[ok], z[ok], alpha[ok], params)
                expected = [expected[i] for i in ok]
                rows_z, rows_alpha = z[ok], alpha[ok]
            else:
                rows_z, rows_alpha = z, alpha
            winner, [(paid_t, paid_p, net)] = got
            for i, out in enumerate(expected):
                assert winner[i] == out.winner
                assert (paid_t[i], paid_p[i]) == (out.payment_t_s, out.payment_p_w)
                if out.winner == SOURCE:
                    assert net[i] == out.winner_net_energy_j == 0.0
                    continue
                p_even = min_total_power(out.payment_t_s, float(rows_z[i, out.winner]), params)
                scale = out.payment_t_s * rows_alpha[i, out.winner - 1] * max(out.payment_p_w, p_even)
                assert abs(net[i] - out.winner_net_energy_j) <= self.ULPS * np.spacing(scale)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            settle(("english",), np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 1)), SystemParams())


def _instance(n: int, z_w=None, h_i=None, alpha_tilde=None) -> ScenarioInstance:
    return ScenarioInstance(
        candidate_positions_m=np.ones((n, 2)), h_s=1.0,
        h_i=np.ones(n) if h_i is None else np.asarray(h_i, float), h_si=np.ones(n),
        alpha_tilde=np.full(n, 0.5) if alpha_tilde is None else np.asarray(alpha_tilde, float),
        z0_w=10.0, z_w=np.ones(n) if z_w is None else np.asarray(z_w, float),
    )


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ConvergenceError, OverflowError) as exc:
        return type(exc), str(exc)


class TestOnePassWinnerRule:
    """``_winner_and_runner`` against the sort it replaced: validate every
    bid in order, then the two lowest (score, bidder)."""

    @staticmethod
    def _sorted_rule(profile, inst, params):
        n = inst.n_candidates
        for b in profile.bids:
            if b.bidder > n:
                raise ValueError(f"bid from bidder {b.bidder} but instance has {n} candidates")
            if b.p_tot_w > params.p_max_w:
                raise ValueError(
                    f"bid power {b.p_tot_w!r} from bidder {b.bidder} exceeds the cap {params.p_max_w!r}"
                )
        if len(profile.bids) < 2:
            raise ValueError("an auction needs at least two bids (no runner-up exists)")
        ranked = sorted(profile.bids, key=lambda b: (score(b, params), b.bidder))
        return ranked[0], ranked[1]

    # Few distinct durations and powers, so that bidders tie on score
    # exactly; inf durations score +inf.
    DURATIONS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, math.inf]), st.floats(1e-3, 1e3))
    POWERS = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 1.0))

    @given(
        n=st.integers(1, 8),
        data=st.data(),
        lam=st.sampled_from([0.5, 1.0, 3.0]),
        # Now and then one bid exceeds the cap of 1, or comes from bidder
        # n + 1, who is not in the instance.
        over_cap=st.integers(0, 30),
        stranger=st.integers(0, 30),
    )
    @settings(max_examples=examples(400), deadline=None)
    def test_matches_the_sort(self, n, data, lam, over_cap, stranger):
        params = SystemParams(lambda_w=lam, p_max_w=1.0)
        inst = _instance(n)
        # No candidate bids at all leaves the reservation bid without a runner-up.
        candidates = data.draw(st.lists(st.integers(1, n), unique=True, max_size=8))
        if stranger < len(candidates):
            candidates[stranger] = n + 1
        bidders = data.draw(st.permutations([SOURCE] + candidates))
        bids = [Bid(data.draw(self.DURATIONS), data.draw(self.POWERS), i) for i in bidders]
        if over_cap < len(bids):
            bids[over_cap] = Bid(bids[over_cap].t_s, 1.5, bids[over_cap].bidder)
        profile = StrategyProfile(tuple(bids))
        expected = _outcome_or_error(self._sorted_rule, profile, inst, params)
        got = _outcome_or_error(mechanisms._winner_and_runner, profile, inst, params)
        if isinstance(expected[0], type):
            assert got == expected
            return
        best, s_best, runner, s_runner = got
        assert (best, runner) == expected
        assert s_best == score(best, params) and s_runner == score(runner, params)

    def test_exact_ties_and_inf_scores_break_to_the_lowest_index(self, golden_params):
        inst = _instance(4)
        bids = (Bid(math.inf, 1.0, 3), Bid(2.0, 1.0, 2), Bid(math.inf, 1.0, 0), Bid(2.0, 1.0, 1))
        best, _, runner, _ = mechanisms._winner_and_runner(StrategyProfile(bids), inst, golden_params)
        assert (best.bidder, runner.bidder) == (1, 2)
        bids = (Bid(math.inf, 1.0, 3), Bid(math.inf, 1.0, 0))
        best, s_best, runner, s_runner = mechanisms._winner_and_runner(StrategyProfile(bids), inst, golden_params)
        assert (best.bidder, runner.bidder, s_best, s_runner) == (0, 3, math.inf, math.inf)


class TestOutcomeBuilder:
    """The winner's net energy and relay power against two
    ``min_total_power`` evaluations, exactly."""

    @staticmethod
    def _two_evaluations(best, runner, t, p, cost, inst, params):
        if best.bidder == SOURCE:
            return AuctionOutcome(SOURCE, runner.bidder, t, p, cost, 0.0, 0.0, True)
        i = best.bidder - 1
        z_relay = params.sigma2_w / float(inst.h_i[i])
        if not z_relay < math.inf:
            relay = (math.inf, False)
        else:
            try:
                p_relay = min_total_power(t, z_relay, params)
                relay = (p_relay, p_relay <= params.p_max_w)
            except OverflowError:
                relay = (math.inf, False)
        p_even = min_total_power(t, float(inst.z_w[i]), params)
        e = mechanisms._gain(t, float(inst.alpha_tilde[i]), p, p_even)
        if not math.isfinite(e):
            raise ConvergenceError(f"winner {best.bidder}'s net energy overflows a double")
        return AuctionOutcome(best.bidder, runner.bidder, t, p, cost, e, *relay)

    @given(
        log_z=st.floats(-12.0, 12.0),
        log_h_i=st.one_of(st.floats(-320.0, 3.0), st.floats(-318.5, -317.5)),
        # Up to efficiencies whose net energy overflows a double.
        log_alpha=st.one_of(st.floats(-3.0, 3.0), st.floats(300.0, 306.0)),
        log_lam=st.floats(-3.0, 3.0),
        log_pmax=st.floats(-3.0, 3.0),
        source_wins=st.booleans(),
        own_schedule=st.booleans(),
        log_t=st.floats(-4.0, 6.0),
        p_frac=st.floats(1e-6, 1.0),
    )
    # 2^(D/t) overflows at t = 10^-2.11 (D*ln2/t = 714), but times z = 1e-6
    # the break-even power is about 1.7e304: an outcome, not an error.
    @example(
        log_z=-6.0, log_h_i=0.0, log_alpha=0.0, log_lam=0.0, log_pmax=0.0,
        source_wins=False, own_schedule=False, log_t=-2.11, p_frac=0.5,
    )
    @settings(max_examples=examples(500), deadline=None)
    def test_matches_two_evaluations(
        self, log_z, log_h_i, log_alpha, log_lam, log_pmax, source_wins, own_schedule, log_t, p_frac
    ):
        params = SystemParams(lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax, sigma2_w=1e-9)
        z = 10.0**log_z
        inst = _instance(2, z_w=[z, 2.0 * z], h_i=[10.0**log_h_i, 1.0], alpha_tilde=[10.0**log_alpha, 1.0])
        if own_schedule:
            # Paid its own schedule: break-even, to the cap tie where the cap binds.
            sol = optimal_schedule(z, params)
            t, p = sol.t_star_s, sol.p_star_w
        else:
            t, p = 10.0**log_t, p_frac * params.p_max_w
        best = Bid(t, p, SOURCE if source_wins else 1)
        runner = Bid(1.0, params.p_max_w, 1 if source_wins else 2)
        args = (best, runner, t, p, t * (params.lambda_w + p), inst, params)
        expected = _outcome_or_error(self._two_evaluations, *args)
        got = _outcome_or_error(mechanisms._outcome, best.bidder, runner.bidder, *args[2:])
        assert got == expected
        if isinstance(got, AuctionOutcome):
            assert repr(got) == repr(expected)  # -0.0 and 0.0 compare equal
            assert ex_post_utility(got.winner, got, inst, params) == got.winner_net_energy_j

    def test_subnormal_rate_takes_min_powers_rule(self):
        # D*ln2/t = 6.9e-324 is subnormal: both powers are D*ln2*z/t, as in
        # min_total_power, not the one-bit rate times z.
        params = SystemParams(d_bits_per_hz=1e-17, sigma2_w=1e-9)
        inst = _instance(2, z_w=[1e300, 2e300], h_i=[1e-300, 1.0])
        t = 1e306
        args = (Bid(t, 1.0, 1), Bid(t, 1.0, 2), t, 1.0, t * 2.0, inst, params)
        out = mechanisms._outcome(1, 2, *args[2:])
        assert out == self._two_evaluations(*args)
        assert out.winner_relay_p_w == 1e-17 * LN2 * (1e-9 / 1e-300) / t


class TestSlottedRecords:
    @pytest.fixture
    def records(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        return (
            profile.bids[1],
            profile,
            run_mspoa(profile, golden_instance, golden_params),
            optimal_schedule(1.0, golden_params),
        )

    def test_they_have_slots_and_no_dict(self, records):
        for rec in records:
            assert not hasattr(rec, "__dict__") and type(rec).__slots__
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, dataclasses.fields(rec)[0].name, None)

    def test_assigning_or_deleting_any_name_is_a_frozen_error(self, records):
        for rec in records:
            names = [f.name for f in dataclasses.fields(rec)] + ["not_a_field", "_mspoa_payment"]
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                    setattr(rec, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                    delattr(rec, name)

    def test_pickle_and_replace_round_trip(self, records):
        for rec in records:
            back = pickle.loads(pickle.dumps(rec))
            assert back == rec and repr(back) == repr(rec)
            assert dataclasses.replace(rec) == rec
        bid, profile, outcome, sol = records
        assert dataclasses.replace(bid, bidder=2).bidder == 2
        assert dataclasses.replace(outcome, winner_relay_p_w=math.inf).winner_relay_p_w == math.inf
        with pytest.raises(ValueError, match="strictly positive"):
            dataclasses.replace(bid, t_s=0.0)  # replace re-runs the checks

    def test_records_round_trip(self, records):
        outcome = records[2]
        assert AuctionOutcome.from_record(outcome.to_record()) == outcome


class TestMspoaPaymentMemo:
    """A bid that set an MSPOA payment as runner-up keeps it for the same
    ``SystemParams`` object, as an incentive check's deviations share the
    opponents' bid objects; every outcome is the one fresh bids give."""

    CASES = {
        # (z0, the candidates' z, winner deviations' z): runner-up 2 pays.
        "interior": (10.0, (1.0, 2.0), np.linspace(0.5, 1.9, 100)),
        "cap-bound": (1e4, (100.0, 200.0), np.linspace(50.0, 190.0, 100)),
    }

    @staticmethod
    def _profiles(case, params):
        z0, z_w, deviations = TestMspoaPaymentMemo.CASES[case]
        inst = _instance(2, z_w=z_w)
        inst = dataclasses.replace(inst, z0_w=z0)
        profile = truthful_profile(inst, params)
        # One new bid of candidate 1 per profile, the others' bid objects
        # shared, as the fuzz workload's profiles are built.
        return inst, [
            StrategyProfile(tuple(truthful_bid(float(z), params, 1) if b.bidder == 1 else b for b in profile.bids))
            for z in deviations
        ]

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        real = getattr(mechanisms, name)
        monkeypatch.setattr(mechanisms, name, lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("case", CASES)
    def test_a_shared_runner_up_is_inverted_once(self, case, golden_params, monkeypatch):
        inst, profiles = self._profiles(case, golden_params)
        calls = self._counting(monkeypatch, "z_of_value")
        outcomes = [run_mspoa(profile, inst, golden_params) for profile in profiles]
        assert len(calls) == 1
        assert {(out.winner, out.runner_up) for out in outcomes} == {(1, 2)}
        capped = {out.payment_p_w == golden_params.p_max_w for out in outcomes}
        assert capped == {case == "cap-bound"}

    @pytest.mark.parametrize("case", CASES)
    def test_every_outcome_is_the_fresh_bids_one(self, case, golden_params):
        inst, profiles = self._profiles(case, golden_params)
        for profile in profiles:
            out = run_mspoa(profile, inst, golden_params)
            fresh = StrategyProfile(tuple(dataclasses.replace(b) for b in profile.bids))
            want = run_mspoa(fresh, inst, golden_params)
            assert [getattr(out, f.name) for f in dataclasses.fields(out)] == [
                getattr(want, f.name) for f in dataclasses.fields(want)
            ]
            assert repr(out) == repr(want)

    def test_other_params_pay_their_own_schedule(self, golden_params, monkeypatch):
        inst, profiles = self._profiles("interior", golden_params)
        profile = profiles[0]
        runner = profile.bids[2]
        calls = self._counting(monkeypatch, "z_of_value")
        # An equal but distinct object, and one with another delay power:
        # each pays its own inversion, and the first params' again after.
        for params in (golden_params, dataclasses.replace(golden_params),
                       dataclasses.replace(golden_params, lambda_w=3.0), golden_params):
            out = run_mspoa(profile, inst, params)
            sol = optimal_schedule(z_of_value(score(runner, params), params), params)
            assert (out.payment_t_s, out.payment_p_w, out.source_cost_ws) == (sol.t_star_s, sol.p_star_w, sol.cost_ws)
        assert len(calls) == 4

    def test_a_payment_that_raises_is_not_remembered(self, golden_params, monkeypatch):
        # The runner-up's score 1e-300 has no effective channel in the
        # normal doubles, so z_of_value raises on every call.
        inst = _instance(2)
        runner = Bid(1e-300, 1e-300, 2)
        profile = StrategyProfile((Bid(1.0, 1.0, SOURCE), Bid(1e-301, 1e-300, 1), runner))
        calls = self._counting(monkeypatch, "z_of_value")
        for _ in range(2):
            with pytest.raises(ValueError, match="no effective channel in the normal doubles"):
                run_mspoa(profile, inst, golden_params)
        assert len(calls) == 2
        assert getattr(runner, "_mspoa_payment", None) is None

    def test_copies_carry_no_memo(self, golden_instance, golden_params):
        profile = truthful_profile(golden_instance, golden_params)
        run_mspoa(profile, golden_instance, golden_params)
        runner = profile.bids[2]
        assert runner._mspoa_payment[0] is golden_params
        for twin in (pickle.loads(pickle.dumps(runner)), copy.copy(runner), copy.deepcopy(runner),
                     dataclasses.replace(runner)):
            assert twin == runner and hash(twin) == hash(runner) and repr(twin) == repr(runner)
            assert getattr(twin, "_mspoa_payment", None) is None
        assert [f.name for f in dataclasses.fields(runner)] == list(Bid.__match_args__) == ["t_s", "p_tot_w", "bidder"]


def _dataclass_twin(cls):
    # What dataclass(frozen=True, slots=True) alone makes of the record's
    # fields and __post_init__: the constructor frozen_record replaces. It
    # takes the record's module, whose names resolve the type hints that
    # check_fields reads.
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {"__module__": cls.__module__}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True, slots=True)


class TestRecordConstructors:
    """Each record built by ``jsonio.frozen_record`` takes the arguments of
    the constructor ``dataclass`` generates, and raises its errors."""

    RECORDS = (Bid, StrategyProfile, AuctionOutcome, ScheduleSolution)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_signature_is_the_dataclass_one(self, cls):
        got = inspect.signature(cls.__init__).parameters.values()
        want = inspect.signature(_dataclass_twin(cls).__init__).parameters.values()
        assert [(p.name, p.kind, p.default) for p in got] == [(p.name, p.kind, p.default) for p in want]
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"

    @pytest.mark.parametrize(
        "cls, args, kwargs",
        [
            (Bid, (1.0, 0.5, 1), {}),
            (Bid, (np.float64(2.0),), {"p_tot_w": np.float32(0.25), "bidder": np.int64(3)}),
            (StrategyProfile, ([Bid(1.0, 0.5, 0), Bid(2.0, 0.5, 1)],), {}),
            (AuctionOutcome, (1, 2, 1.0, 0.5, 1.5, 0.1), {}),
            (AuctionOutcome, (1, 2, 1.0, 0.5, 1.5, 0.1), {"winner_relay_feasible": False}),
            (ScheduleSolution, (1.0, 0.5, 1.5, True), {}),
        ],
    )
    def test_fields_are_the_dataclass_ones(self, cls, args, kwargs):
        def typed_fields(rec):
            return [(type(getattr(rec, f.name)), getattr(rec, f.name)) for f in dataclasses.fields(rec)]

        assert typed_fields(cls(*args, **kwargs)) == typed_fields(_dataclass_twin(cls)(*args, **kwargs))

    @pytest.mark.parametrize(
        "cls, args",
        [
            (Bid, (0.0, 1.0, 1)),
            (Bid, (1.0, math.inf, 1)),
            (Bid, (1.0, 0.5, -1)),
            (Bid, (1.0, 0.5, True)),
            (Bid, ("1", None, 1.5)),
            (Bid, (math.nan, 0.5, 1)),
            (StrategyProfile, ((Bid(1.0, 0.5, 1),),)),
            (StrategyProfile, ((Bid(1.0, 0.5, 0), Bid(1.0, 0.5, 0)),)),
            (StrategyProfile, ((Bid(1.0, 0.5, 0), Bid(1.0, 0.5, 1), Bid(2.0, 0.5, 1)),)),
        ],
    )
    def test_errors_are_the_dataclass_ones(self, cls, args):
        with pytest.raises(ValueError) as want:
            _dataclass_twin(cls)(*args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            cls(*args)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_wrong_arguments_are_type_errors(self, cls):
        n = len(dataclasses.fields(cls))
        with pytest.raises(TypeError):
            cls(*[1.0] * (n + 1))
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*[1.0] * n, no_such_field=1)
