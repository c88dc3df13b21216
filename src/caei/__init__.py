"""Competitive allocation from equal incomes for single-minded agents.

Three resource models share one solution shape: divisible goods, a
cake on [0, 1], and discrete items in limited copies.  Solvers return
priced allocations in which every served agent affords its demand and
everyone else is priced out; ``verify`` re-checks any solution from
scratch and brute-force oracles cross-check the optimizers on small
instances.
"""

from caei.cake import (
    allocation_for_price_curve,
    greedy_contiguous,
    max_welfare_fixed_agents,
    price_curve_for_allocation,
    refine_partition,
    solve_existence,
)
from caei.discrete import caei_exists, max_welfare_relaxed, solve_caei
from caei.divisible import (
    SearchGuardError,
    allocation_for_prices,
    max_welfare_caei,
    prices_for_allocation,
    solve_eg,
    subset_caei_lp,
)
from caei.model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    PriceCurve,
)
from caei.verify import (
    CaeiReport,
    OracleGuardError,
    is_envy_free,
    oracle_caei_search,
    oracle_max_satisfiable,
    verify_caei,
)

__all__ = [
    "CaeiReport",
    "CaeiSolution",
    "CakeInstance",
    "DiscreteInstance",
    "DivisibleInstance",
    "OracleGuardError",
    "PriceCurve",
    "SearchGuardError",
    "allocation_for_price_curve",
    "allocation_for_prices",
    "caei_exists",
    "greedy_contiguous",
    "is_envy_free",
    "max_welfare_caei",
    "max_welfare_fixed_agents",
    "max_welfare_relaxed",
    "oracle_caei_search",
    "oracle_max_satisfiable",
    "price_curve_for_allocation",
    "prices_for_allocation",
    "refine_partition",
    "solve_caei",
    "solve_eg",
    "solve_existence",
    "subset_caei_lp",
    "verify_caei",
]
