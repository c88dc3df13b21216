"""Acceptance gate: the ten headline behaviors, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is exact (Fraction comparisons) except where a stated
numeric tolerance applies to the EG path.
"""

import functools
import itertools
import random
from fractions import Fraction as F

from caei.cake import (
    greedy_contiguous,
    max_welfare_fixed_agents,
    price_curve_for_allocation,
    solve_existence,
)
from caei.discrete import (
    caei_exists,
    max_welfare_relaxed,
    prices_for_allocation_discrete,
    solve_caei,
)
from caei.divisible import max_welfare_caei, prices_for_allocation, solve_eg
from caei.model import (
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    bundle_price,
)
from caei.verify import is_envy_free, oracle_caei_search, verify_caei

EG_TOL = 1e-6


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            print(f"criterion {number:2d}: PASS  {description}")

        return run

    return wrap


# --- seeded generators (local RNGs, nothing global) ------------------------


def typed_demands(rng, n, count, draw):
    """n demands over ``count`` distinct draws: the first agents pin one
    type each, the rest pick from the pool."""
    pool = []
    while len(pool) < count:
        drawn = draw()
        if drawn not in pool:
            pool.append(drawn)
    return [pool[i] if i < count else rng.choice(pool) for i in range(n)]


def random_divisible(rng, max_agents, max_goods, max_types=None):
    n, m = rng.randint(1, max_agents), rng.randint(1, max_goods)

    def draw():
        while True:
            row = tuple(F(rng.randint(0, 6), 6) for _ in range(m))
            if any(row):
                return row

    if max_types is None:
        return DivisibleInstance([draw() for _ in range(n)])
    count = min(rng.randint(1, max_types), n)
    return DivisibleInstance(typed_demands(rng, n, count, draw))


def random_contiguous_cake(rng, max_agents):
    n = rng.randint(1, max_agents)
    spans = set()
    while len(spans) < n:
        cuts = sorted(rng.sample(range(0, 13), 2))
        spans.add((F(cuts[0], 12), F(cuts[1], 12)))
    return CakeInstance(tuple((s,) for s in sorted(spans)))


def random_typed_cake(rng, max_agents, max_intervals, max_types):
    n = rng.randint(1, max_agents)

    def draw():
        k = rng.randint(1, max_intervals)
        cuts = sorted(rng.sample(range(0, 13), 2 * k))
        return tuple((F(cuts[2 * t], 12), F(cuts[2 * t + 1], 12)) for t in range(k))

    count = min(rng.randint(1, max_types), n)
    return CakeInstance(typed_demands(rng, n, count, draw))


def random_discrete(rng, max_agents, max_items, max_types=None):
    while True:
        n, m = rng.randint(1, max_agents), rng.randint(1, max_items)
        quantities = [rng.randint(1, 3) for _ in range(m)]
        if max_types is None:
            demands = [
                frozenset(j for j in range(m) if mask >> j & 1)
                for mask in (rng.randrange(1, 2**m) for _ in range(n))
            ]
        else:
            count = min(rng.randint(1, max_types), 2**m - 1, n)

            def draw():
                mask = rng.randrange(1, 2**m)
                return frozenset(j for j in range(m) if mask >> j & 1)

            demands = typed_demands(rng, n, count, draw)
        if frozenset().union(*demands) == frozenset(range(m)):
            return DiscreteInstance(quantities, demands)


def interval_scheduling_optimum(spans):
    """Max pairwise-disjoint intervals by the classic finish-time DP."""
    jobs = sorted(spans, key=lambda s: (s[1], s[0]))
    best = [0] * (len(jobs) + 1)
    for t, (start, _) in enumerate(jobs):
        compatible = 0
        for r in range(t, 0, -1):
            if jobs[r - 1][1] <= start:
                compatible = r
                break
        best[t + 1] = max(best[t], best[compatible] + 1)
    return best[-1]


# --- the ten criteria ------------------------------------------------------


@criterion(1, "two-agent divisible: EG prices and exact max-welfare prices")
def test_criterion_01():
    instance = DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))
    numeric = solve_eg(instance)
    assert abs(numeric.prices[0] - 0) <= EG_TOL
    assert abs(numeric.prices[1] - 2) <= EG_TOL
    assert numeric.welfare == 1
    best = max_welfare_caei(instance)
    assert best.welfare == 2
    assert bundle_price(best.prices, instance.demands[1]) == 1
    assert bundle_price(best.prices, instance.demands[0]) <= 1


@criterion(2, "five-agent discrete run: prices, welfare, and full trace")
def test_criterion_02():
    instance = DiscreteInstance(
        (2, 4, 2, 3, 2),
        ({0}, {0, 1}, {0, 2}, {1, 2, 3}, {1, 2, 3, 4}),
    )
    solution = solve_caei(instance)
    assert solution.prices == (F(1), F(1, 14), F(1), F(1, 14), F(1, 14))
    assert solution.welfare == 1
    assert solution.trace == (
        ("unit_price", 0, (0, 1)),
        ("unit_price", 2, (2, 3)),
        ("remainder", (1, 3, 4), F(1, 14)),
    )


@criterion(3, "over-demanded unit-priced item admits no competitive outcome")
def test_criterion_03():
    instance = DiscreteInstance((2, 4), ({0}, {0}, {0}, {0, 1}))
    assert solve_caei(instance) is None
    assert caei_exists(instance) is False


@criterion(4, "four-agent discrete instance is competitive but never CEEI")
def test_criterion_04():
    instance = DiscreteInstance((3, 3), ({1}, {0, 1}, {0, 1}, {0}))
    solution = solve_caei(instance)
    assert solution.welfare == 4
    report = verify_caei(instance, solution)
    assert report.is_caei is True
    assert report.is_ceei is False


@criterion(5, "three-agent cake: both welfare routes serve two, price out one")
def test_criterion_05():
    instance = CakeInstance(
        (((F(0), F(1, 2)),), ((F(1, 2), F(1)),), ((F(0), F(1)),))
    )
    for solution in (greedy_contiguous(instance), max_welfare_fixed_agents(instance)):
        assert solution.welfare == 2
        assert 2 not in solution.served
        assert bundle_price(solution.prices, instance.demands[2]) > 1


@criterion(6, "envy-free fixtures that no price system can support")
def test_criterion_06():
    divisible = DivisibleInstance(((F(1, 5), F(1, 5)), (F(4, 5), F(4, 5))))
    allocation = ((F(1), F(0)), (F(0), F(1)))
    assert is_envy_free(divisible, allocation) is True
    assert prices_for_allocation(divisible, allocation) is None

    cake = CakeInstance((((F(0), F(2, 5)),), ((F(2, 5), F(1)),)))
    pieces = (
        ((F(0), F(1, 5)), (F(2, 5), F(7, 10))),
        ((F(1, 5), F(2, 5)), (F(7, 10), F(1))),
    )
    assert is_envy_free(cake, pieces) is True
    assert price_curve_for_allocation(cake, pieces) is None

    discrete = DiscreteInstance((1, 1, 1, 1), ({0, 1}, {2, 3}))
    counts = ((1, 0, 1, 0), (0, 1, 0, 1))
    assert is_envy_free(discrete, counts) is True
    assert prices_for_allocation_discrete(discrete, counts) is None


@criterion(7, "welfare optimizers agree with brute-force and scheduling oracles")
def test_criterion_07():
    rng = random.Random(70707)
    for _ in range(200):
        instance = random_divisible(rng, max_agents=5, max_goods=3)
        best = max_welfare_caei(instance)
        reference = oracle_caei_search(instance)
        assert best is not None and reference is not None
        assert best.served == reference.served

    # duplicate agent types: the search over types must find the same
    # served set as the oracle's search over agent subsets
    rng = random.Random(70709)
    for _ in range(100):
        instance = random_divisible(rng, max_agents=5, max_goods=3, max_types=3)
        assert max_welfare_caei(instance).served == oracle_caei_search(instance).served

    rng = random.Random(70710)
    for intervals in (1, 3):
        for _ in range(30):
            instance = random_typed_cake(rng, 6, intervals, max_types=3)
            reference = oracle_caei_search(instance)
            assert max_welfare_fixed_agents(instance).served == reference.served

    rng = random.Random(70708)
    for _ in range(200):
        instance = random_contiguous_cake(rng, max_agents=6)
        spans = [piece[0] for piece in instance.demands]
        assert greedy_contiguous(instance).welfare == interval_scheduling_optimum(spans)


@criterion(8, "existence test matches exhaustive search on all small instances")
def test_criterion_08():
    checked = 0
    for m in (1, 2, 3):
        subsets = [
            frozenset(s)
            for r in range(1, m + 1)
            for s in itertools.combinations(range(m), r)
        ]
        for quantities in itertools.product((1, 2), repeat=m):
            for n in (1, 2, 3, 4):
                # existence is symmetric in the agents: one order per multiset
                for combo in itertools.combinations_with_replacement(subsets, n):
                    if frozenset().union(*combo) != frozenset(range(m)):
                        continue
                    instance = DiscreteInstance(quantities, combo)
                    verdict = caei_exists(instance)
                    witness = oracle_caei_search(instance)
                    assert verdict == (witness is not None), (quantities, combo)
                    checked += 1
    assert checked > 2000


@criterion(9, "every solver output verifies competitive and envy-free")
def test_criterion_09():
    # 500 instances: 170 divisible, 170 cake, 160 discrete
    rng = random.Random(90909)
    for _ in range(170):
        instance = random_divisible(rng, max_agents=4, max_goods=3)
        numeric = solve_eg(instance)
        assert verify_caei(instance, numeric, tolerance=EG_TOL).is_caei
        assert is_envy_free(instance, numeric.allocation)
        exact = max_welfare_caei(instance)
        assert verify_caei(instance, exact).is_caei
        assert is_envy_free(instance, exact.allocation)

    rng = random.Random(91919)
    for _ in range(170):
        instance = random_contiguous_cake(rng, max_agents=5)
        for solution in (greedy_contiguous(instance), solve_existence(instance)):
            assert verify_caei(instance, solution).is_caei
            assert is_envy_free(instance, solution.allocation)

    rng = random.Random(92929)
    for _ in range(160):
        instance = random_discrete(rng, max_agents=5, max_items=3)
        solution = solve_caei(instance)
        if solution is not None:
            assert verify_caei(instance, solution).is_caei
            assert is_envy_free(instance, solution.allocation)
        relaxed = max_welfare_relaxed(instance)
        assert verify_caei(instance, relaxed, relaxed=True).is_caei
        assert is_envy_free(instance, relaxed.allocation)


@criterion(10, "relaxed discrete rounding never changes the fractional welfare")
def test_criterion_10():
    rng = random.Random(101010)
    for _ in range(100):
        instance = random_discrete(rng, max_agents=6, max_items=4, max_types=3)
        quantities = instance.quantities
        rounded = max_welfare_relaxed(instance)
        reduced = DivisibleInstance(
            [
                [
                    F(1, quantities[j]) if j in demand else F(0)
                    for j in range(instance.num_items)
                ]
                for demand in instance.demands
            ]
        )
        fractional = max_welfare_caei(reduced, require_full_clearing=False)
        assert fractional is not None
        assert rounded.welfare == fractional.welfare
