"""Auction-based relay selection with wireless-power-transfer payments.

A source offloads data to an access point through a deep fade; battery
powered candidates can relay in exchange for energy. The package provides
the closed-form transmit-schedule optimizer, the SPOA and MSPOA auction
mechanisms with a cooperative baseline, scenario sampling, and a seeded
Monte Carlo sweep harness.
"""

__version__ = "0.1.0"

# The benchmark's tracer (perfbench/tracing.py) patches the kernel's
# _lambert_core and value under this old name; ROADMAP item 1 removes it.
from . import kernel as _kernel_py  # noqa: F401
from .kernel import backend_name, lambert_w0
from .mechanisms import (
    AuctionOutcome,
    Bid,
    StrategyProfile,
    cooperative_baseline,
    ex_post_utility,
    non_ic_witness,
    run_mspoa,
    run_spoa,
    sample_deviations,
    score,
    truthful_bid,
    truthful_profile,
)
from .montecarlo import CellStats, SweepConfig, aggregate, run_sweep
from .numerics import (
    ConvergenceError,
    ToleranceSpec,
    minimize_unimodal,
    solve_increasing,
)
from .scenario import (
    ChannelConfig,
    GeometryConfig,
    ScenarioInstance,
    build_instance,
    has_los,
    sample_instance,
)
from .schedule import (
    ScheduleSolution,
    SystemParams,
    cost_function,
    min_total_power,
    optimal_schedule,
    value_of_z,
    z_of_value,
)

__all__ = [
    "__version__",
    "backend_name",
    "AuctionOutcome",
    "Bid",
    "StrategyProfile",
    "cooperative_baseline",
    "ex_post_utility",
    "non_ic_witness",
    "run_mspoa",
    "run_spoa",
    "sample_deviations",
    "score",
    "truthful_bid",
    "truthful_profile",
    "CellStats",
    "SweepConfig",
    "aggregate",
    "run_sweep",
    "ConvergenceError",
    "ToleranceSpec",
    "lambert_w0",
    "minimize_unimodal",
    "solve_increasing",
    "ChannelConfig",
    "GeometryConfig",
    "ScenarioInstance",
    "build_instance",
    "has_los",
    "sample_instance",
    "ScheduleSolution",
    "SystemParams",
    "cost_function",
    "min_total_power",
    "optimal_schedule",
    "value_of_z",
    "z_of_value",
]
