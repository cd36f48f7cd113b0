"""Truthful approximation mechanisms for interdependent-value auctions.

Single-item auctions where each bidder's value depends on everyone's discrete
signal.  The package measures how far an instance is from single-crossing,
runs the monotone allocation mechanisms whose welfare guarantees scale with
that distance, settles critical-signal payments, reduces welfare to revenue
through conditional monopoly reserves, and verifies all of it against
brute-force oracles.
"""

from .model import (
    INFINITE,
    CapExceeded,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    check_value_monotone,
    compute_c,
    compute_d,
    concavity_report,
    instance_from_json,
    instance_to_json,
    single_crossing_report,
)
from .mechanisms import (
    AllocationTable,
    IncompatibleMechanism,
    Outcome,
    check_allocation_monotone,
    check_expost_truthful,
    critical_signal,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    lazy_winners,
    outcome,
    random_hypergrid_outcome,
    random_permutation,
    two_bidder_coloring,
    welfare_ratio,
)
from .oracle import (
    SearchReport,
    best_monotone_ratio,
    exact_random_hypergrid_counts,
    exact_random_hypergrid_stats,
    monte_carlo_random_hypergrid,
    optimal_welfare,
)

__version__ = "0.1.0"
