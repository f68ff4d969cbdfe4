"""Release criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output); the same checks back the ``relayauction verify --level
full`` command. The trend criterion runs the complete default sweep (5000
trials per cell) and is the slow one.
"""

import pytest

from relayauction import verify


def _report(number: int, res: verify.CheckResult) -> None:
    status = "PASS" if res.passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {res.name}: {res.detail}")
    assert res.passed, f"criterion {number} failed: {res.detail}"


def test_criterion_1_oracle_equivalence():
    # Closed form vs golden-section minimization: 200-point z-grid x
    # lambda {0.1, 1, 10, 100} x power cap {1, 10}, rel cost error <= 1e-6,
    # in under 10 seconds.
    _report(1, verify.check_oracle_equivalence(n_z=200))


def test_criterion_2_lambert_residuals():
    # 1000 samples spanning the domain plus the branch-point neighborhood;
    # residual |w e^w - x| <= 1e-9 * max(1, |x|).
    _report(2, verify.check_lambert_residuals(n=1000))


def test_criterion_3_monotonicity_suites():
    # Duration strictly increasing, power non-decreasing and continuous at
    # cap activation (jump <= 1e-6), value strictly increasing, and the
    # value inverse round-trips to rel 1e-6.
    _report(3, verify.check_monotonicity(n_grid=200, n_roundtrip=100))


def test_criterion_4_mspoa_incentive_compatibility():
    # 1000 instances x 200 own-deviations (witness family included) against
    # arbitrary opponents; zero gains beyond 1e-9 J; under 2 minutes.
    _report(4, verify.check_mspoa_ic_fuzz(instances=1000, deviations=200))


def test_criterion_5_spoa_nash_equilibrium():
    # Same scale with truthful opponents: no profitable unilateral deviation.
    _report(5, verify.check_spoa_ne_fuzz(instances=1000, deviations=200))


def test_criterion_6_spoa_non_ic_witness():
    # Sign-level: the witness profile makes the truthful SPOA winner lose
    # energy while MSPOA keeps the winner non-negative.
    _report(6, verify.check_non_ic_demo())


def test_criterion_7_trend_reproduction():
    # Full default sweep at 5000 trials/cell; duration cut >= 30% (n=1 to 3,
    # largest lambda), energy cut >= 40% (n=1 to 2, smallest lambda), shrinking
    # gaps to the cooperative baseline, harvest trends; under 5 minutes.
    _report(7, verify.check_trends(trials=5000))


def test_criterion_8_reproducibility():
    # Identical seeds must give byte-identical sweep CSVs across reruns and
    # across worker counts.
    _report(8, verify.check_reproducibility(trials=200))


def test_criterion_9_tie_break():
    # Exact ties go to the lower bidder index: the source beats a candidate
    # bidding the reservation bid, the lower of two tied candidates wins.
    _report(9, verify.check_tie_break())


def test_criterion_10_net_energy():
    # 1000 fuzz instances plus the tied profiles: every SPOA and MSPOA
    # candidate win, from the scalar rules and from settle, nets
    # t*alpha_tilde*(p - (2^(D/t) - 1)*z_w) recomputed to 4 ulps of
    # t*alpha_tilde*max(p, p_even), and exactly 0 J within the cap tie.
    _report(10, verify.check_net_energy(instances=1000))
