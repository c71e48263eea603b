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
    hhi,
    hhi_variance_identity,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .equilibrium import (
    BestResponseTrace,
    DiscountOutcome,
    DynamicsOutcome,
    ZreResult,
    ZreStatus,
    best_response_dynamics,
    detect_pressure,
    discount_equilibrium,
    enumerate_zre,
    forced_cells,
    is_zre,
    select_zre,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolation,
    DomainError,
    InvalidArgument,
    ZrsimError,
)
from .market import (
    AllocationTable,
    MarketConfig,
    StrategyMatrix,
    allocate,
    aux_members,
    merge_providers,
)
from .oracle import (
    ChoiceSet,
    Violation,
    choice_probability,
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
    "ChoiceSet",
    "ConfigError",
    "ContractViolation",
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
    "ZreStatus",
    "ZrsimError",
    "aggregate_signs",
    "allocate",
    "aux_members",
    "best_response_dynamics",
    "choice_probability",
    "compare_worlds",
    "detect_pressure",
    "discount_equilibrium",
    "elastic_choice_set",
    "enumerate_zre",
    "find_zre_violation",
    "forced_cells",
    "grid_sweep",
    "hhi",
    "hhi_variance_identity",
    "is_zre",
    "load_scenario",
    "merge_providers",
    "oracle_allocate",
    "oracle_verify_zre",
    "payoffs",
    "select_zre",
    "sticky_choice_set",
]
