"""Verification and ground-truth oracles.

`verify_caei` re-derives everything from the instance and the priced
allocation: it trusts nothing in the solution record beyond the raw
numbers.  The oracles are deliberately brute-force and kept on
desk-scale guards; they exist to give the solvers something
independent to be measured against.

On cake, `verify_caei` and `is_envy_free` canonicalize every piece on
one integer grid (`model.canonical_grid`), a refinement of the one the
instance keeps its demands on, and rescale the demands' ints to it:
the overlap sweep, the coverage sum, spends and demand costs (through
the curve's `model.CurveGrid`), containment and the envy sweep all
compare ints.  `verify_with_envy` gives both verdicts from one such
grid.  A bound such as ``1 + tolerance`` is taken exactly, a float
included, and rounded down to the grid; magnitudes leave the grid as
exact Fractions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .exactmath import GREATER_EQUAL, LESS_EQUAL, LinearProgram, OPTIMAL, simplex_solve
from .model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    Instance,
    PriceCurve,
    bundle_price,
    canonical_grid,
    carve_cells,
    cell_curve,
    cell_goods,
    demand_bundle,
    piece_contains,
    piece_intersection,
    piece_length,
    rescale,
    single_minded_utility,
)


class OracleGuardError(ValueError):
    """Instance too large for a brute-force oracle."""


@dataclass(frozen=True)
class Violation:
    subject: str
    condition: str
    magnitude: object = None


@dataclass(frozen=True)
class CaeiReport:
    partition_ok: bool
    budgets_ok: bool
    optimal_bundles_ok: bool
    is_caei: bool
    is_ceei: bool
    violations: tuple[Violation, ...]


def verify_caei(
    instance: Instance, solution: CaeiSolution, tolerance=0, relaxed: bool = False
) -> CaeiReport:
    """Check a priced allocation against the competitive conditions.

    The three conditions: (a) the allocation is a partition of the
    resources (with ``relaxed=True``, goods may go partly unsold but
    never over-sold); (b) nobody spends more than the unit budget;
    (c) every unsatisfied agent is genuinely priced out, i.e. its
    demand costs more than 1.  ``is_ceei`` additionally requires every
    agent to spend the budget exactly.  ``tolerance`` loosens every
    numeric comparison for inexact solutions; leave it 0 for exact ones.

    On cake the pieces are canonicalized first (a malformed interval
    raises ValueError) and the checks then run on one integer grid:
    lengths over the common denominator of every endpoint, money over
    that times the curve's rate denominator, and each bound
    ``tolerance``, ``1 + tolerance`` or ``1 - tolerance``, taken
    exactly, rounded down to the grid.
    """
    return _verify(instance, solution, tolerance, relaxed, envy=False)[0]


def verify_with_envy(
    instance: Instance, solution: CaeiSolution, tolerance=0, relaxed: bool = False
) -> tuple[CaeiReport, bool]:
    """``verify_caei``'s report and ``is_envy_free``'s verdict on the
    solution's allocation, from one pass: on cake both read the one
    canonicalization and integer grid of the pieces."""
    return _verify(instance, solution, tolerance, relaxed, envy=True)


def _verify(instance, solution, tolerance, relaxed, envy):
    violations: list[Violation] = []
    allocation = solution.allocation
    prices = solution.prices
    n = instance.num_agents
    if len(allocation) != n:
        raise ValueError(f"allocation covers {len(allocation)} of {n} agents")
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")

    if isinstance(instance, CakeInstance):
        partition_ok, spends, covered, cost, one, grid = _cake_terms(
            instance, solution, tolerance, relaxed, violations
        )
        bound = lambda x: _grid_floor(x, one)
        magnitude = lambda x: Fraction(x, one)
        envy_free = lambda: _envy_sweep(*grid)
    else:
        partition_ok = _check_partition(instance, allocation, tolerance, relaxed, violations)
        spends = [bundle_price(prices, bundle) for bundle in allocation]
        covered = lambda i: _covers_demand(instance, i, allocation[i], tolerance)
        cost = lambda i: bundle_price(prices, demand_bundle(instance, i))
        one = 1
        bound = magnitude = lambda x: x
        envy_free = lambda: is_envy_free(instance, allocation)

    budgets_ok = True
    budget = bound(1 + tolerance)
    for i, spend in enumerate(spends):
        if spend > budget:
            budgets_ok = False
            violations.append(Violation(f"agent {i}", "overspends", magnitude(spend - one)))

    optimal_bundles_ok = True
    label_ok = True
    priced_out = bound(1 - tolerance)
    for i in range(n):
        held = covered(i)
        if (i in solution.served) != held:
            label_ok = False
            violations.append(Violation(f"agent {i}", "served label mismatch"))
        if i not in solution.served and not held:
            price = cost(i)
            if not price > priced_out:
                optimal_bundles_ok = False
                violations.append(
                    Violation(f"agent {i}", "affordable unserved demand", magnitude(one - price))
                )
    for i in sorted(i for i in solution.served if not 0 <= i < n):
        label_ok = False
        violations.append(Violation(f"agent {i}", "served index out of range"))

    is_caei = partition_ok and budgets_ok and optimal_bundles_ok and label_ok
    slack = bound(tolerance)
    is_ceei = is_caei and all(abs(s - one) <= slack for s in spends)
    report = CaeiReport(
        partition_ok, budgets_ok, optimal_bundles_ok, is_caei, is_ceei, tuple(violations)
    )
    return report, envy_free() if envy else None


def _grid_floor(value, unit: int) -> int:
    """floor(value * unit), for an int, Fraction or float ``value`` taken
    exactly.  For an int x, x / unit > value exactly when x is greater
    than this floor, so a bound compares on the grid as it would in
    Fractions."""
    value = Fraction(value)
    return value.numerator * unit // value.denominator


def _cake_terms(instance, solution, tolerance, relaxed, violations):
    """The cake's partition check, spends, coverage and demand costs, on
    the grid of the demands, the canonical pieces and the curve.

    Returns partition_ok, the spends, covered(i), cost(i), the money
    unit that spends and costs are ints over, and the demands and
    pieces on the grid.
    """
    curve = solution.prices
    unit, bundles = canonical_grid(solution.allocation, instance.unit)
    bundles = list(bundles)
    if not isinstance(curve, PriceCurve):
        raise TypeError("cake prices must be a PriceCurve")
    grid = curve.grid
    common = lcm(unit, grid.unit)
    demands = rescale(instance.spans, common // instance.unit)
    pieces = rescale(bundles, common // unit)
    unit = common
    scale = unit // grid.unit
    slack = _grid_floor(tolerance, unit)

    ok = True
    for (i, j), overlap in sorted(_overlaps(pieces).items()):
        if overlap > slack:
            ok = False
            violations.append(
                Violation(f"agents {i},{j}", "overlapping pieces", Fraction(overlap, unit))
            )
    covered = sum(hi - lo for piece in pieces for lo, hi in piece)
    short = unit - covered if not relaxed else 0
    if covered > _grid_floor(1 + tolerance, unit) or short > slack:
        ok = False
        violations.append(Violation("cake", "not fully allocated", Fraction(covered - unit, unit)))

    spends = [grid.price(piece, scale) for piece in pieces]
    held = [_missing(piece, demand) <= slack for piece, demand in zip(pieces, demands)]
    cost = lambda i: grid.price(demands[i], scale)
    return ok, spends, held.__getitem__, cost, grid.rate_unit * unit, (demands, pieces)


def _missing(bundle, demand) -> int:
    """Length of the part of ``demand`` outside ``bundle``, both sorted
    disjoint int spans: one merge walk over the two."""
    missing = 0
    k = 0
    for lo, hi in demand:
        missing += hi - lo
        while k < len(bundle) and bundle[k][1] <= lo:
            k += 1
        t = k
        while t < len(bundle) and bundle[t][0] < hi:
            missing -= min(hi, bundle[t][1]) - max(lo, bundle[t][0])
            t += 1
    return missing


def _covers_demand(instance, agent: int, bundle, tolerance) -> bool:
    """Does the bundle contain the agent's demand, up to the tolerance?"""
    if tolerance == 0 or isinstance(instance, DiscreteInstance):
        # copy counts are whole: a tolerance loosens nothing
        return single_minded_utility(instance, agent, bundle) == 1
    return all(x >= v - tolerance for x, v in zip(bundle, instance.demands[agent]))


def _check_partition(instance, allocation, tolerance, relaxed, violations):
    ok = True
    if isinstance(instance, DivisibleInstance):
        for i, row in enumerate(allocation):
            for j, x in enumerate(row):
                if x < -tolerance:
                    ok = False
                    violations.append(Violation(f"agent {i}", "negative quantity", -x))
        for j in range(instance.num_goods):
            total = sum(row[j] for row in allocation)
            short = 1 - total if not relaxed else 0
            if total > 1 + tolerance or short > tolerance:
                ok = False
                violations.append(Violation(f"good {j}", "not cleared", total - 1))
    elif isinstance(instance, DiscreteInstance):
        for i, row in enumerate(allocation):
            for j, c in enumerate(row):
                if c != int(c) or c < 0:
                    ok = False
                    violations.append(Violation(f"agent {i}", "bad copy count", c))
        for j, q in enumerate(instance.quantities):
            total = sum(row[j] for row in allocation)
            if total > q or (not relaxed and total != q):
                ok = False
                violations.append(Violation(f"item {j}", "not cleared", total - q))
    else:
        raise TypeError(f"unknown instance type {type(instance).__name__}")
    return ok


def _overlaps(pieces):
    """Overlap length of each pair of canonical pieces that overlap,
    keyed (i, j) with i < j.

    One sweep over all intervals sorted by start: an interval can only
    overlap the earlier-starting ones that are still open at its start.
    """
    overlaps = {}
    open_ends = []  # (end, owner) of the intervals started so far
    for lo, hi, k in sorted((lo, hi, k) for k, piece in enumerate(pieces) for lo, hi in piece):
        open_ends = [(end, owner) for end, owner in open_ends if end > lo]
        for end, owner in open_ends:
            pair = (owner, k) if owner < k else (k, owner)
            overlaps[pair] = overlaps.get(pair, 0) + min(hi, end) - lo
        open_ends.append((hi, k))
    return overlaps


def is_envy_free(instance: Instance, allocation) -> bool:
    """No unsatisfied agent sees its full demand sitting in someone
    else's bundle.  Satisfied agents never envy: utility is 0/1.

    On cake the bundles are canonicalized first (a malformed interval
    raises ValueError) and put with the demands on one integer grid,
    and an unsatisfied agent is checked only against the bundles that
    cover the left end of its demand.
    """
    if isinstance(instance, CakeInstance):
        return _cake_envy_free(instance, allocation)
    for i in range(instance.num_agents):
        if single_minded_utility(instance, i, allocation[i]) == 1:
            continue
        for k in range(instance.num_agents):
            if k != i and single_minded_utility(instance, i, allocation[k]) == 1:
                return False
    return True


def _cake_envy_free(instance: CakeInstance, allocation) -> bool:
    unit, bundles = canonical_grid(
        (allocation[k] for k in range(instance.num_agents)), instance.unit
    )
    bundles = list(bundles)
    return _envy_sweep(rescale(instance.spans, unit // instance.unit), bundles)


def _envy_sweep(demands, bundles) -> bool:
    """Is no agent without its demand looking at a bundle that holds
    it?  Demands and canonical bundles as int spans on one grid.

    A bundle holding agent i's demand covers its left end, so one sweep
    over the bundle intervals in order of start, with the open ones in
    a heap by end, finds every candidate owner.
    """
    envious = sorted(
        (demand[0][0], i)
        for i, demand in enumerate(demands)
        if not piece_contains(bundles[i], demand)
    )
    starts = sorted((lo, hi, k) for k, bundle in enumerate(bundles) for lo, hi in bundle)
    open_ends: list = []  # heap of (end, owner)
    t = 0
    for point, i in envious:
        while t < len(starts) and starts[t][0] <= point:
            heapq.heappush(open_ends, starts[t][1:])
            t += 1
        while open_ends and open_ends[0][0] <= point:
            heapq.heappop(open_ends)
        for _, k in open_ends:
            if k != i and piece_contains(bundles[k], demands[i]):
                return False
    return True


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_max_satisfiable(instance: Instance) -> tuple[int, tuple[int, ...]]:
    """Largest set of agents whose demands fit simultaneously, ignoring
    prices entirely.  Returns (size, lexicographically smallest witness).
    """
    n = instance.num_agents
    if n > 20:
        raise OracleGuardError(f"max-satisfiable oracle capped at 20 agents, got {n}")

    if isinstance(instance, CakeInstance):
        conflict = [0] * n
        for i, k in itertools.combinations(range(n), 2):
            overlap = piece_length(
                piece_intersection(instance.demands[i], instance.demands[k])
            )
            if overlap > 0:
                conflict[i] |= 1 << k
                conflict[k] |= 1 << i

        def feasible(subset):
            mask = 0
            for i in subset:
                mask |= 1 << i
            return all(conflict[i] & mask == 0 for i in subset)

    elif isinstance(instance, DivisibleInstance):

        def feasible(subset):
            return all(
                sum(instance.demands[i][j] for i in subset) <= 1
                for j in range(instance.num_goods)
            )

    elif isinstance(instance, DiscreteInstance):

        def feasible(subset):
            return all(
                sum(1 for i in subset if j in instance.demands[i]) <= q
                for j, q in enumerate(instance.quantities)
            )

    else:
        raise TypeError(f"unknown instance type {type(instance).__name__}")

    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if feasible(subset):
                return size, subset
    return 0, ()


def oracle_caei_search(instance: Instance) -> CaeiSolution | None:
    """Maximum-welfare price-supportable outcome, by brute force.

    Works from first principles in a formulation independent of the
    production solvers: agent subsets with a price-space LP for the
    continuous models, full allocation enumeration for discrete items.
    Returns None when no priced allocation satisfies the definition.

    The discrete search walks every allocation in a fixed order and
    keeps the first one of greatest welfare whose price LP is feasible.
    It pays for an LP only when it must: each item column carries agent
    masks, so an allocation's unserved agents and envy are bit
    operations; an allocation that cannot raise the welfare, or leaves an
    agent unserved while another holds its whole demand, is dropped
    before its rows are built; and an LP whose set of rows has already
    proved infeasible is not solved again.
    """
    if isinstance(instance, DivisibleInstance):
        _guard_continuous(instance)
        return _search_divisible(instance)
    if isinstance(instance, CakeInstance):
        _guard_continuous(instance)
        return _search_cake(instance)
    if isinstance(instance, DiscreteInstance):
        if (
            instance.num_agents > 4
            or instance.num_items > 3
            or max(instance.quantities) > 2
        ):
            raise OracleGuardError(
                "discrete search oracle capped at 4 agents, 3 item types, 2 copies"
            )
        return _search_discrete(instance)
    raise TypeError(f"unknown instance type {type(instance).__name__}")


def _guard_continuous(instance):
    if instance.num_agents > 6:
        raise OracleGuardError(
            f"search oracle capped at 6 agents, got {instance.num_agents}"
        )


def _subsets_by_welfare(n):
    for size in range(n, -1, -1):
        yield from itertools.combinations(range(n), size)


def _supporting_prices(afford, priced_out, num_prices, cap=None):
    """Shared LP core: price vectors under which every agent affords
    its ``afford`` bundle and is priced out of its ``priced_out`` one.

    Each entry maps price-variable name -> coefficient such that
    sum(c * p) is the cost of that bundle; an empty ``afford`` entry or
    a ``priced_out`` entry of None adds no row.  Returns the price
    list, or None.  ``cap`` bounds the total price of all resources
    (full clearing against unit budgets makes more money than the
    agents hold impossible to collect).
    """
    lp = LinearProgram()
    for k in range(num_prices):
        lp.add_variable(f"p{k}")
    lp.add_variable("eps", upper=1)
    lp.set_objective({"eps": 1})
    for held, wanted in zip(afford, priced_out):
        if held:
            lp.add_constraint(held, LESS_EQUAL, 1)
        if wanted is not None:
            if not wanted:
                # a free demand can never be priced out
                return None
            lp.add_constraint({**wanted, "eps": -1}, GREATER_EQUAL, 1)
    if cap is not None:
        lp.add_constraint({f"p{k}": 1 for k in range(num_prices)}, LESS_EQUAL, cap)
    out = simplex_solve(lp)
    if out.status != OPTIMAL or out.objective_value <= 0:
        return None
    return [out.assignment[f"p{k}"] for k in range(num_prices)]


def _served_rows(costs, served):
    """Afford rows for the served agents, priced-out rows for the rest."""
    afford = [cost if i in served else {} for i, cost in enumerate(costs)]
    priced_out = [None if i in served else cost for i, cost in enumerate(costs)]
    return afford, priced_out


def _search_divisible(instance):
    n, m = instance.num_agents, instance.num_goods
    v = instance.demands
    for subset in _subsets_by_welfare(n):
        served = set(subset)
        leftovers = [1 - sum(v[i][j] for i in served) for j in range(m)]
        if any(r < 0 for r in leftovers):
            continue
        costs = [
            {f"p{j}": v[i][j] for j in range(m) if v[i][j]} for i in range(n)
        ]
        prices = _supporting_prices(*_served_rows(costs, served), m, cap=n)
        if prices is None:
            continue
        allocation = [
            [v[i][j] if i in served else Fraction(0) for j in range(m)]
            for i in range(n)
        ]
        spends = [
            sum(prices[j] * allocation[i][j] for j in range(m)) for i in range(n)
        ]
        for j in range(m):
            remaining = leftovers[j]
            if not remaining:
                continue
            if prices[j] == 0:
                allocation[0][j] += remaining
                continue
            for i in range(n):
                if remaining == 0:
                    break
                take = min(remaining, (1 - spends[i]) / prices[j])
                if take > 0:
                    allocation[i][j] += take
                    spends[i] += take * prices[j]
                    remaining -= take
            assert remaining == 0, "budget water-fill must absorb all leftovers"
        allocation = tuple(tuple(row) for row in allocation)
        return CaeiSolution(
            allocation,
            tuple(prices),
            frozenset(served),
            len(served),
            provenance="oracle_caei_search",
        )
    return None


def _search_cake(instance):
    # the cells between demand endpoints are divisible goods each agent
    # wants whole or not at all
    points = sorted(
        {Fraction(0), Fraction(1)}
        | {p for piece in instance.demands for lo, hi in piece for p in (lo, hi)}
    )
    found = _search_divisible(cell_goods(instance, points))
    if found is None:
        return None
    return replace(
        found,
        allocation=carve_cells(points, found.allocation),
        prices=cell_curve(points, found.prices),
    )


def _search_discrete(instance):
    """The first allocation, in product order over the item columns, of
    the greatest welfare that some prices support.  Its LP rows go in
    agent order, which fixes the prices returned."""
    n, m = instance.num_agents, instance.num_items
    demands = instance.demands

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    # Each item column comes with two agent masks: the agents that demand
    # the item and hold no copy of it, and the holders of a copy.  An
    # allocation's unserved agents are the union of its columns' first
    # masks.
    per_item = [
        [
            (
                sum(1 << i for i in range(n) if j in demands[i] and not column[i]),
                sum(1 << i for i in range(n) if column[i]),
                column,
            )
            for column in compositions(q, n)
        ]
        for j, q in enumerate(instance.quantities)
    ]

    def envied(unserved, choice):
        for i, demand in enumerate(demands):
            if unserved >> i & 1:
                holders = -1
                for j in demand:
                    holders &= choice[j][1]
                if holders:
                    return True
        return False

    best: CaeiSolution | None = None
    infeasible = set()
    for choice in itertools.product(*per_item):
        unserved = 0
        for missing, _, _ in choice:
            unserved |= missing
        welfare = n - unserved.bit_count()
        if best is not None and welfare <= best.welfare:
            continue
        # An unserved agent whose whole demand another agent holds is
        # never priced out: that bundle contains its demand and costs at
        # most 1.  (A singleton demand always has such a holder.)
        if envied(unserved, choice):
            continue
        allocation = tuple(zip(*(column for _, _, column in choice)))
        # The LP's feasibility depends only on its set of rows.  Past the
        # envy check the unserved agents are exactly those whose demand
        # no bundle holds, so the set of bundles fixes every row.
        bundles = frozenset(row for row in allocation if any(row))
        if bundles in infeasible:
            continue
        afford = [{f"p{j}": c for j, c in enumerate(row) if c} for row in allocation]
        priced_out = [
            {f"p{j}": 1 for j in demands[i]} if unserved >> i & 1 else None for i in range(n)
        ]
        prices = _supporting_prices(afford, priced_out, m)
        if prices is None:
            infeasible.add(bundles)
            continue
        best = CaeiSolution(
            allocation,
            tuple(prices),
            frozenset(i for i in range(n) if not unserved >> i & 1),
            welfare,
            provenance="oracle_caei_search",
        )
        if welfare == n:
            break
    return best
