"""Zero-rating market simulator.

Computes user allocations, provider payoffs, pure-strategy zero-rating
equilibria, zero-rating pressure, ISP discount equilibria, and Herfindahl
competitiveness metrics for two-sided ISP/CP markets, plus grid sweeps
comparing markets with and without zero-rating.
"""

from .analysis import (
    SignSummary,
    SweepRecord,
    aggregate_signs,
    compare_worlds,
    grid_sweep,
    hhi_variance_identity,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .equilibrium import (
    BestResponseTrace,
    DiscountOutcome,
    DynamicsOutcome,
    ZreResult,
    best_response_dynamics,
    detect_pressure,
    discount_equilibrium,
    enumerate_zre,
    is_zre,
)
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    InvalidArgument,
    ZrsimError,
)
from .market import (
    AllocationTable,
    MarketConfig,
    StrategyMatrix,
    allocate,
)
from .oracle import (
    Violation,
    elastic_choice_set,
    find_zre_violation,
    oracle_allocate,
    oracle_verify_zre,
    sticky_choice_set,
)
from .payoff import PayoffVector, payoffs

__all__ = [
    "AllocationTable",
    "BestResponseTrace",
    "CapacityError",
    "ConfigError",
    "DiscountOutcome",
    "DomainError",
    "DynamicsOutcome",
    "InvalidArgument",
    "MarketConfig",
    "PayoffVector",
    "Scenario",
    "ScenarioError",
    "SignSummary",
    "StrategyMatrix",
    "SweepRecord",
    "Violation",
    "ZreResult",
    "ZrsimError",
    "aggregate_signs",
    "allocate",
    "best_response_dynamics",
    "compare_worlds",
    "detect_pressure",
    "discount_equilibrium",
    "elastic_choice_set",
    "enumerate_zre",
    "find_zre_violation",
    "grid_sweep",
    "hhi_variance_identity",
    "is_zre",
    "load_scenario",
    "oracle_allocate",
    "oracle_verify_zre",
    "payoffs",
    "sticky_choice_set",
]
