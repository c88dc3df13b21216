"""Discrete items: existence, a constructive solver, relaxed welfare.

With identical copies of each item type, a competitive allocation from
equal incomes exists exactly when no item type is demanded by more
singleton agents than it has copies.  The constructive solver prices
scarce types at the full budget and everything else at a uniform sliver
price; welfare maximization works on a relaxed market where items may
go unsold, via the divisible-goods machinery and exact floor rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .divisible import _eps_prices, max_welfare_caei
from .model import (
    CaeiSolution,
    DiscreteInstance,
    DivisibleInstance,
    compute_served,
)


def caei_exists(instance: DiscreteInstance) -> bool:
    """No item type may have more single-minded-on-it agents than copies.

    One pass over the demands counts the singletons of every type:
    O(n + m) for n agents and m item types.
    """
    singletons = [0] * instance.num_items
    for demand in instance.demands:
        if len(demand) == 1:
            (j,) = demand
            singletons[j] += 1
    return all(s <= q for s, q in zip(singletons, instance.quantities))


def solve_caei(instance: DiscreteInstance) -> CaeiSolution | None:
    """Construct a competitive allocation, or None when none exists.

    Scarce item types are resolved first: repeatedly find the lowest-
    indexed type whose active demanders outnumber its copies, price it
    at the whole budget, hand its copies to the first such demanders
    (fewest-demands-first order) and retire them.  Everything left is
    priced at a uniform sliver; leftover copies pile onto the last
    active demander so the market clears.

    Each item's demanders are listed once, in that order, with a count
    of the active ones that falls as agents retire.  Counts only fall,
    so a type that is not over-demanded never becomes so, and one
    forward scan over the types finds every scarce one.  The pricing
    costs O(n log n + D) for D the total size of the demands, plus the
    n x m allocation it returns.
    """
    if not caei_exists(instance):
        return None
    n, m = instance.num_agents, instance.num_items
    demands, quantities = instance.demands, instance.quantities
    order = sorted(range(n), key=lambda i: (len(demands[i]), i))
    demanders: list[list[int]] = [[] for _ in range(m)]
    for i in order:
        for j in demands[i]:
            demanders[j].append(i)
    live = [len(agents) for agents in demanders]
    retired = [False] * n
    counts = [[0] * m for _ in range(n)]
    prices: list[Fraction | None] = [None] * m
    remainder = []
    trace: list[tuple] = []

    for j in range(m):
        if live[j] <= quantities[j]:
            remainder.append(j)
            continue
        receivers = [i for i in demanders[j] if not retired[i]][: quantities[j]]
        prices[j] = Fraction(1)
        for i in receivers:
            counts[i][j] += 1
            retired[i] = True
            for k in demands[i]:
                live[k] -= 1
        trace.append(("unit_price", j, tuple(receivers)))

    sliver = Fraction(1, 1 + sum(quantities))
    # the last agent in order is never a receiver: it comes last among
    # the demanders of any type, and a scarce type has more of them
    # than copies, so it is still active here
    last = order[-1]
    for j in remainder:
        prices[j] = sliver
        takers = [i for i in demanders[j] if not retired[i]]
        for i in takers:
            counts[i][j] += 1
        leftover = quantities[j] - len(takers)
        if leftover:
            counts[takers[-1] if takers else last][j] += leftover
    if remainder:
        trace.append(("remainder", tuple(remainder), sliver))

    allocation = tuple(tuple(row) for row in counts)
    served = compute_served(instance, allocation)
    return CaeiSolution(
        allocation,
        tuple(prices),
        served,
        len(served),
        provenance="solve_caei",
        trace=tuple(trace),
    )


def max_welfare_relaxed(instance: DiscreteInstance) -> CaeiSolution:
    """Welfare-maximizing competitive outcome when items may go unsold.

    Each item type becomes one divisible good of which a single-minded
    agent needs a 1/quantity share per copy; the divisible search over
    agent types runs without the everything-must-sell requirement, and
    the fractional optimum rounds down to whole copies without changing
    anyone's satisfaction or any price verdict.
    """
    quantities = instance.quantities
    reduced = DivisibleInstance(
        [
            [
                Fraction(1, quantities[j]) if j in demand else Fraction(0)
                for j in range(instance.num_items)
            ]
            for demand in instance.demands
        ]
    )
    fractional = max_welfare_caei(reduced, require_full_clearing=False)
    assert fractional is not None, "a relaxed market can always price everyone out"
    allocation = tuple(
        tuple(
            _exact_floor(share * quantities[j]) for j, share in enumerate(row)
        )
        for row in fractional.allocation
    )
    copy_prices = tuple(
        price / quantities[j] for j, price in enumerate(fractional.prices)
    )
    served = compute_served(instance, allocation)
    assert served == fractional.served, "rounding must preserve satisfaction"
    return CaeiSolution(
        allocation,
        copy_prices,
        served,
        len(served),
        provenance="max_welfare_relaxed (relaxed clearing)",
    )


def _exact_floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def prices_for_allocation_discrete(instance: DiscreteInstance, allocation):
    """Prices making a given clearing allocation competitive, or None.

    The allocation must hand out every copy of every item type.  The
    returned per-copy prices let every agent afford the bundle it
    holds while pricing every unsatisfied agent's demand strictly out
    of reach; None means no such prices exist.
    """
    n, m = instance.num_agents, instance.num_items
    if len(allocation) != n:
        raise ValueError(f"allocation covers {len(allocation)} of {n} agents")
    for i, row in enumerate(allocation):
        if len(row) != m:
            raise ValueError(f"agent {i} has {len(row)} of {m} item counts")
        if any(c < 0 or c != int(c) for c in row):
            raise ValueError(f"agent {i} has a bad copy count")
    for j, quantity in enumerate(instance.quantities):
        total = sum(row[j] for row in allocation)
        if total != quantity:
            raise ValueError(
                f"item {j}: allocated {total} of {quantity} copies"
            )

    served = compute_served(instance, allocation)
    wanted = [
        None if i in served else [int(j in demand) for j in range(m)]
        for i, demand in enumerate(instance.demands)
    ]
    return _eps_prices(m, allocation, wanted)
