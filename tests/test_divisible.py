"""Divisible goods: equilibrium, subset LP, welfare maximization."""

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from caei import divisible
from caei.cake import allocation_for_price_curve, refine_partition, solve_existence
from caei.cli import instance_from_json, main
from caei.divisible import (
    EgConvergenceError,
    SearchGuardError,
    _served_unions,
    allocation_for_prices,
    max_welfare_caei,
    prices_for_allocation,
    solve_eg,
    solve_reduced_program,
    subset_caei_lp,
)
from caei.exactmath import EQUAL, GREATER_EQUAL, LESS_EQUAL, OPTIMAL, LinearProgram, simplex_solve
from caei.model import (
    CaeiSolution,
    CakeInstance,
    DivisibleInstance,
    PriceCurve,
    bundle_price,
    cell_goods,
    compute_served,
    group_types,
)
from caei.verify import OracleGuardError, is_envy_free, oracle_caei_search, verify_caei


@pytest.fixture
def two_agents():
    # D1 = <1/2, 2/5>, D2 = <0, 3/5>: equilibrium serves only agent 0,
    # max welfare serves both
    return DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))


# --- numeric equilibrium ---------------------------------------------------


def test_eg_two_agent_prices(two_agents):
    sol = solve_eg(two_agents)
    assert sol.prices[0] == 0
    assert sol.prices[1] == pytest.approx(2, abs=1e-6)
    assert sol.served == {0}
    assert sol.welfare == 1
    assert not sol.exact


def test_eg_two_agent_is_competitive(two_agents):
    sol = solve_eg(two_agents)
    report = verify_caei(two_agents, sol, tolerance=1e-6)
    assert report.is_caei
    # the convex program exhausts every budget
    assert report.is_ceei


def test_eg_reduced_program_values(two_agents):
    program = solve_reduced_program(two_agents)
    assert program.utilities[0] == pytest.approx(5 / 4, abs=1e-6)
    assert program.utilities[1] == pytest.approx(5 / 6, abs=1e-6)
    assert program.residual < 1e-9
    assert program.iterations >= 1


def test_eg_single_agent():
    inst = DivisibleInstance(((F(1, 4), F(1, 2)),))
    sol = solve_eg(inst)
    assert sol.served == {0}
    assert verify_caei(inst, sol, tolerance=1e-6).is_caei


def test_eg_identical_agents_share():
    # three agents each wanting 60% of one good: nobody affordable at
    # the clearing price
    inst = DivisibleInstance(((F(3, 5),), (F(3, 5),), (F(3, 5),)))
    sol = solve_eg(inst)
    assert sol.welfare == 0
    assert sol.prices[0] == pytest.approx(3, abs=1e-6)
    assert verify_caei(inst, sol, tolerance=1e-6).is_caei


def test_eg_random_instances_verify():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        demands = tuple(
            tuple(F(rng.randint(0, 4), 8) for _ in range(m)) for _ in range(n)
        )
        try:
            inst = DivisibleInstance(demands)
        except ValueError:
            continue
        sol = solve_eg(inst)
        assert verify_caei(inst, sol, tolerance=1e-6).is_caei


# --- exact subset LP -------------------------------------------------------


def test_subset_lp_full_set(two_agents):
    sol = subset_caei_lp(two_agents, {0, 1})
    assert sol.prices == (F(1, 3), F(5, 3))
    assert sol.allocation == ((F(1), F(2, 5)), (F(0), F(3, 5)))
    # the priced-out margin is tight: agent 1's demand costs exactly 1
    assert bundle_price(sol.prices, two_agents.demands[1]) == 1
    assert sol.exact


def test_subset_lp_matches_equilibrium_route(two_agents):
    # serving only agent 0 forces the same prices the convex program finds
    sol = subset_caei_lp(two_agents, {0})
    assert sol.prices == (F(0), F(2))
    assert sol.served == frozenset({0})


def test_subset_lp_unsupportable_set(two_agents):
    # pricing agent 0 out while agent 1 stays affordable is impossible:
    # total money caps cost(D_0) at 1
    assert subset_caei_lp(two_agents, {1}) is None


def test_subset_lp_oversupplied_set():
    inst = DivisibleInstance(((F(3, 5),), (F(3, 5),)))
    assert subset_caei_lp(inst, {0, 1}) is None


def test_subset_lp_empty_set():
    inst = DivisibleInstance(((F(3, 5),), (F(3, 5),), (F(3, 5),)))
    sol = subset_caei_lp(inst, frozenset())
    assert sol is not None
    assert sol.welfare == 0
    assert verify_caei(inst, sol).is_caei


def test_subset_lp_range_check(two_agents):
    with pytest.raises(ValueError):
        subset_caei_lp(two_agents, {0, 2})


def test_subset_lp_relaxed_leaves_goods_unsold():
    inst = DivisibleInstance(((F(1, 2), F(0)), (F(1, 2), F(0))))
    sol = subset_caei_lp(inst, {0, 1}, require_full_clearing=False)
    assert sol is not None
    assert verify_caei(inst, sol, relaxed=True).is_caei


# --- welfare maximization --------------------------------------------------


def test_max_welfare_two_agents(two_agents):
    sol = max_welfare_caei(two_agents)
    assert sol.welfare == 2
    assert sol.prices == (F(1, 3), F(5, 3))


def test_max_welfare_identical_agents():
    inst = DivisibleInstance(((F(3, 5),), (F(3, 5),), (F(3, 5),)))
    sol = max_welfare_caei(inst)
    assert sol.welfare == 0
    assert verify_caei(inst, sol).is_caei


def test_max_welfare_matches_oracle():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        demands = tuple(
            tuple(F(rng.randint(0, 3), 4) for _ in range(m)) for _ in range(n)
        )
        try:
            inst = DivisibleInstance(demands)
        except ValueError:
            continue
        sol = max_welfare_caei(inst)
        oracle = oracle_caei_search(inst)
        assert sol is not None and oracle is not None
        assert sol.welfare == oracle.welfare


def _gen(tmp_path, *argv):
    path = tmp_path / "instance.json"
    assert main(["gen", "--model", "divisible", *argv, "--out", str(path)]) == 0
    return instance_from_json(json.loads(path.read_text()))[1]


def _type_unions(instance):
    """Every union of agent types, as a sorted tuple of agents."""
    types = group_types(instance)
    return [
        tuple(sorted(i for k, members in enumerate(types) if mask >> k & 1 for i in members))
        for mask in range(1 << len(types))
    ]


def _max_welfare_by_every_union(instance, require_full_clearing):
    # the search before pruning: all 2^types unions, most agents first,
    # ties in lexicographic order of the agents
    for agents in sorted(_type_unions(instance), key=lambda agents: (-len(agents), agents)):
        solution = subset_caei_lp(instance, agents, require_full_clearing)
        if solution is not None:
            return solution
    return None


def _pruning_sweep(tmp_path):
    """Seeded `caei gen` instances of at most 6 types, half with duplicates."""
    rng = random.Random(18)
    for case in range(40):
        goods = str(rng.randint(1, 3))
        if case % 2:
            n = rng.randint(3, 10)
            argv = ["--agents", str(n), "--types", str(rng.randint(1, min(6, n - 1)))]
        else:
            argv = ["--agents", str(rng.randint(1, 6))]
        yield _gen(tmp_path, *argv, "--goods", goods, "--seed", str(case))


@pytest.mark.parametrize("require_full_clearing", [True, False])
def test_pruned_search_matches_every_union_search(tmp_path, require_full_clearing):
    skipped_fitting = 0
    for instance in _pruning_sweep(tmp_path):
        listed = {agents for size in _served_unions(instance) for agents in size}
        for agents in _type_unions(instance):
            if agents in listed:
                continue
            assert subset_caei_lp(instance, agents, require_full_clearing) is None
            v = instance.demands
            if all(sum(v[i][j] for i in agents) <= 1 for j in range(instance.num_goods)):
                skipped_fitting += 1  # skipped for containment, not capacity
        assert max_welfare_caei(
            instance, require_full_clearing
        ) == _max_welfare_by_every_union(instance, require_full_clearing)
    assert skipped_fitting > 0


def test_search_guard_raises_a_typed_error(tmp_path, monkeypatch):
    instance = _gen(tmp_path, "--agents", "12", "--goods", "3", "--seed", "0")
    assert max_welfare_caei(instance) is not None
    monkeypatch.setattr(divisible, "SEARCH_GUARD", 50)
    with pytest.raises(SearchGuardError) as raised:
        max_welfare_caei(instance)
    assert isinstance(raised.value, OracleGuardError)


def test_max_welfare_on_18_distinct_types_takes_few_subset_lps(tmp_path, monkeypatch):
    instance = _gen(tmp_path, "--agents", "18", "--goods", "3", "--seed", "0")
    assert len(group_types(instance)) == 18
    calls = []

    def counted(*args):
        calls.append(args[1])
        return subset_caei_lp(*args)

    monkeypatch.setattr(divisible, "subset_caei_lp", counted)
    solution = max_welfare_caei(instance)
    assert verify_caei(instance, solution, tolerance=0).is_caei
    assert solution.welfare == 4
    # every union of 5 or more agents, 258,096 of them, came first before
    # the search was pruned
    assert len(calls) <= 44


# --- completion problems ---------------------------------------------------


def test_prices_for_allocation_recovers_support(two_agents):
    # the equilibrium allocation: agent 1 holds half a unit short of
    # its demand, so supporting prices exist
    allocation = ((F(1), F(1, 2)), (F(0), F(1, 2)))
    prices = prices_for_allocation(two_agents, allocation)
    assert prices == (F(0), F(2))


def test_prices_for_allocation_all_served_is_free(two_agents):
    allocation = ((F(1), F(2, 5)), (F(0), F(3, 5)))
    prices = prices_for_allocation(two_agents, allocation)
    assert prices == (F(0), F(0))
    sol_served = compute_served(two_agents, allocation)
    assert sol_served == frozenset({0, 1})


def test_prices_for_allocation_envy_free_but_unsupportable():
    # swap-symmetric split: envy-free, yet no prices make it competitive
    inst = DivisibleInstance(((F(1, 5), F(1, 5)), (F(4, 5), F(4, 5))))
    allocation = ((F(1), F(0)), (F(0), F(1)))
    assert is_envy_free(inst, allocation)
    assert prices_for_allocation(inst, allocation) is None


def test_prices_for_allocation_rejects_non_partition(two_agents):
    with pytest.raises(ValueError):
        prices_for_allocation(two_agents, ((F(1), F(1)), (F(0), F(1))))
    with pytest.raises(ValueError):
        prices_for_allocation(two_agents, ((F(1), F(1)),))


def test_allocation_for_prices_roundtrip(two_agents):
    allocation = allocation_for_prices(two_agents, (F(1, 3), F(5, 3)))
    assert allocation is not None
    assert compute_served(two_agents, allocation) == frozenset({0, 1})
    sol_prices = prices_for_allocation(two_agents, allocation)
    assert sol_prices is not None


def test_allocation_for_prices_infeasible_budget(two_agents):
    # total price 6 exceeds the two budgets: no partition is affordable
    assert allocation_for_prices(two_agents, (F(3), F(3))) is None


def test_allocation_for_prices_serves_affordable(two_agents):
    allocation = allocation_for_prices(two_agents, (F(0), F(2)))
    assert allocation is not None
    assert 0 in compute_served(two_agents, allocation)


def lp_completion_exists(instance, prices):
    """Reference verdict: the n*m feasibility LP that fixed-price
    completion once solved.  Each agent spends at most 1, each agent
    whose demand costs at most 1 holds it, and every good is handed
    out fully."""
    n, m = instance.num_agents, instance.num_goods
    lp = LinearProgram()
    for i in range(n):
        for j in range(m):
            lp.add_variable(f"x{i}_{j}")
    lp.set_objective({})
    for i, demand in enumerate(instance.demands):
        if spend := {f"x{i}_{j}": prices[j] for j in range(m) if prices[j]}:
            lp.add_constraint(spend, LESS_EQUAL, 1)
        if bundle_price(prices, demand) <= 1:
            for j, d in enumerate(demand):
                if d:
                    lp.add_constraint({f"x{i}_{j}": 1}, GREATER_EQUAL, d)
    for j in range(m):
        lp.add_constraint({f"x{i}_{j}": 1 for i in range(n)}, EQUAL, 1)
    return simplex_solve(lp).status == OPTIMAL


def assert_completes(instance, prices, allocation):
    """The allocation clears at these prices with tolerance 0, serving
    exactly the agents who can afford their demands."""
    affordable = frozenset(
        i for i in range(instance.num_agents) if bundle_price(prices, instance.demands[i]) <= 1
    )
    solution = CaeiSolution(allocation, prices, affordable, len(affordable))
    report = verify_caei(instance, solution, tolerance=0)
    assert report.is_caei, report.violations


def test_allocation_for_prices_matches_the_lp():
    # seeded markets of 1-8 agents and 1-4 goods, priced with zeros,
    # small fractions and prices above n
    rng = random.Random(2026)
    feasible = 0
    for _ in range(400):
        n, m = rng.randint(1, 8), rng.randint(1, 4)
        rows = []
        while len(rows) < n:
            row = [F(rng.randint(0, 6), 6) for _ in range(m)]
            if any(row):
                rows.append(row)
        instance = DivisibleInstance(rows)
        prices = tuple(
            rng.choices((F(0), F(rng.randint(1, 6), rng.randint(1, 3)), F(n + 1)), (3, 6, 1))[0]
            for _ in range(m)
        )
        allocation = allocation_for_prices(instance, prices)
        assert (allocation is not None) == lp_completion_exists(instance, prices)
        if allocation is not None:
            feasible += 1
            assert_completes(instance, prices, allocation)
    assert feasible == 91


def test_allocation_for_price_curve_matches_the_lp(capsys):
    # seeded gen cakes priced by solve_existence's curve, which always
    # completes, and by that curve halved and doubled, which may not
    outcomes = Counter()
    for seed in range(12):
        argv = ["gen", "--model", "cake", "--agents", str(2 + seed % 6), "--goods", "3"]
        assert main([*argv, "--seed", str(seed)]) == 0
        _, cake = instance_from_json(json.loads(capsys.readouterr().out))
        curve = solve_existence(cake).prices
        for factor in (1, F(1, 2), 2):
            priced = PriceCurve(curve.breakpoints, tuple(d * factor for d in curve.densities))
            allocation = allocation_for_price_curve(cake, priced)
            breakpoints = refine_partition(cake, priced.breakpoints).breakpoints
            cells = [priced.piece_price(((lo, hi),)) for lo, hi in zip(breakpoints, breakpoints[1:])]
            assert (allocation is not None) == lp_completion_exists(cell_goods(cake, breakpoints), cells)
            outcomes[factor, allocation is not None] += 1
            if allocation is not None:
                assert_completes(cake, priced, allocation)
    assert outcomes[1, True] == 12
    assert outcomes[F(1, 2), False] and outcomes[2, False]


def test_fixed_price_completion_builds_no_lp(monkeypatch, two_agents):
    def refuse(lp):
        raise AssertionError("fixed-price completion solved an LP")

    monkeypatch.setattr(divisible, "simplex_solve", refuse)
    assert allocation_for_prices(two_agents, (F(1, 3), F(5, 3))) is not None
    assert allocation_for_prices(two_agents, (F(3), F(3))) is None
    cake = CakeInstance((((F(0), F(1, 2)),), ((F(1, 2), F(1)),)))
    assert allocation_for_price_curve(cake, PriceCurve((F(0), F(1)), (F(2),))) is not None
