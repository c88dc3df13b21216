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
    """No item type may have more single-minded-on-it agents than copies."""
    for j, quantity in enumerate(instance.quantities):
        singletons = sum(1 for d in instance.demands if d == {j})
        if singletons > quantity:
            return False
    return True


def solve_caei(instance: DiscreteInstance) -> CaeiSolution | None:
    """Construct a competitive allocation, or None when none exists.

    Scarce item types are resolved first: repeatedly find the lowest-
    indexed type whose active demanders outnumber its copies, price it
    at the whole budget, hand its copies to the first such demanders
    (fewest-demands-first order) and retire them.  Everything left is
    priced at a uniform sliver; leftover copies pile onto the last
    active demander so the market clears.
    """
    if not caei_exists(instance):
        return None
    n, m = instance.num_agents, instance.num_items
    demands = instance.demands
    order = sorted(range(n), key=lambda i: (len(demands[i]), i))
    active = list(order)
    counts = [[0] * m for _ in range(n)]
    prices: list[Fraction | None] = [None] * m
    allocated: set[int] = set()
    trace: list[tuple] = []

    while True:
        round_info = None
        for j in range(m):
            if j in allocated:
                continue
            demanders = [i for i in active if j in demands[i]]
            if len(demanders) > instance.quantities[j]:
                round_info = (j, demanders)
                break
        if round_info is None:
            break
        j, demanders = round_info
        receivers = demanders[: instance.quantities[j]]
        prices[j] = Fraction(1)
        for i in receivers:
            counts[i][j] += 1
        allocated.add(j)
        active = [i for i in active if i not in receivers]
        trace.append(("unit_price", j, tuple(receivers)))

    sliver = Fraction(1, 1 + sum(instance.quantities))
    remainder = [j for j in range(m) if j not in allocated]
    for j in remainder:
        prices[j] = sliver
        demanders = [i for i in active if j in demands[i]]
        for i in demanders:
            counts[i][j] += 1
        leftover = instance.quantities[j] - len(demanders)
        if leftover:
            if demanders:
                target = demanders[-1]
            elif active:
                target = active[-1]
            else:
                target = n - 1
            counts[target][j] += leftover
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
