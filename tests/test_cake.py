"""Cake cutting: partitions, existence, greedy scheduling, welfare."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from caei.cake import (
    Partition,
    ScheduledJob,
    allocation_for_price_curve,
    greedy_contiguous,
    max_welfare_fixed_agents,
    price_curve_for_allocation,
    refine_partition,
    solve_existence,
)
from caei.cli import instance_from_json, main
from caei.model import CakeInstance, PriceCurve, bundle_price, piece_length
from caei.verify import oracle_caei_search, verify_caei


def interval_instance(*spans):
    return CakeInstance(tuple(((F(a), F(b)),) for a, b in spans))


@pytest.fixture
def schedule_demo():
    # two abutting demands plus one spanning the whole cake
    return interval_instance((0, F(1, 2)), (F(1, 2), 1), (0, 1))


# --- partitions ------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((F(0), F(1, 2)))
    with pytest.raises(ValueError):
        Partition((F(0), F(1, 2), F(1, 2), F(1)))
    assert Partition((F(0), F(1))).cells == ((F(0), F(1)),)


def test_refine_none_keeps_endpoints():
    part = refine_partition(interval_instance((F(1, 4), F(3, 4))))
    assert part.breakpoints == (F(0), F(1, 4), F(3, 4), F(1))


def test_refine_rejects_bad_input():
    with pytest.raises(ValueError):
        refine_partition(interval_instance((0, 1)), (F(3, 2),))


def test_refine_accepts_extra_points():
    part = refine_partition(interval_instance((0, 1)), (F(1, 3),))
    assert F(1, 3) in part.breakpoints


# --- existence -------------------------------------------------------------


def test_existence_curve_breaks_at_every_demand_midpoint():
    for demands in (
        [[(0, 1)]],
        [[(0, F(1, 2))], [(F(1, 2), 1)], [(0, 1)]],
        [[(F(1, 8), F(1, 4)), (F(1, 2), F(7, 8))], [(F(1, 4), F(3, 4))], [(F(1, 4), F(3, 4))]],
    ):
        inst = CakeInstance(demands)
        intervals = [interval for piece in inst.demands for interval in piece]
        # the cells are cut at the endpoints and midpoints, nowhere else
        expected = {F(0), F(1)} | {p for lo, hi in intervals for p in (lo, (lo + hi) / 2, hi)}
        assert solve_existence(inst).prices.breakpoints == tuple(sorted(expected))


def test_existence_single_agent_gets_everything():
    sol = solve_existence(CakeInstance((((F(1, 5), F(2, 5)),),)))
    assert sol.welfare == 1
    assert piece_length(sol.allocation[0]) == 1


def test_existence_identical_twins_split_the_cells():
    sol = solve_existence(interval_instance((0, 1), (0, 1)))
    assert sol.welfare == 0
    assert sol.allocation == (
        ((F(0), F(1, 2)),),
        ((F(1, 2), F(1)),),
    )


def test_existence_is_always_a_full_partition(schedule_demo):
    sol = solve_existence(schedule_demo)
    assert verify_caei(schedule_demo, sol).is_caei
    total = sum(piece_length(piece) for piece in sol.allocation)
    assert total == 1


def test_existence_random_sweep():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(1, 4)
        demands = []
        for _ in range(n):
            cuts = sorted(rng.sample(range(1, 12), 2))
            demands.append(((F(cuts[0], 12), F(cuts[1], 12)),))
        inst = CakeInstance(tuple(demands))
        sol = solve_existence(inst)
        assert verify_caei(inst, sol).is_caei


# --- greedy scheduling -----------------------------------------------------


def test_greedy_three_agent_run(schedule_demo):
    sol = greedy_contiguous(schedule_demo)
    assert sol.welfare == 2
    assert sol.served == frozenset({0, 1})
    assert sol.provenance == "greedy_contiguous"
    assert sol.trace == (
        ScheduledJob(0, F(0), F(1, 2), 1),
        ScheduledJob(1, F(1, 2), F(1), 2),
    )
    # the spanning agent is priced out exactly
    assert bundle_price(sol.prices, schedule_demo.demands[2]) == 2


def test_greedy_budgets_close_exactly(schedule_demo):
    sol = greedy_contiguous(schedule_demo)
    for i in sol.served:
        assert bundle_price(sol.prices, sol.allocation[i]) == 1


def test_greedy_latest_start_tie_rule():
    # both finish at 1/2; the later start wins, the earlier is a loser
    inst = interval_instance((0, F(1, 2)), (F(1, 4), F(1, 2)))
    sol = greedy_contiguous(inst)
    assert sol.served == frozenset({1})


def test_greedy_identical_pair_steps_aside():
    inst = interval_instance((0, F(1, 2)), (0, F(1, 2)), (F(1, 2), 1))
    sol = greedy_contiguous(inst)
    assert sol.welfare == 1
    assert sol.served == frozenset({2})
    assert sol.provenance == "greedy_contiguous"
    # the identical pair exhausts its budgets on consolation slivers
    for i in (0, 1):
        assert bundle_price(sol.prices, sol.allocation[i]) == 1
    oracle = oracle_caei_search(inst)
    assert oracle.welfare == 1


def test_greedy_prices_out_twins_without_fallback():
    # the identical pair is never scheduled: each takes a price-1 sliver
    # inside its own demand, so the demand costs 2
    inst = interval_instance((F(1, 2), 1), (F(1, 2), 1), (0, F(1, 4)))
    sol = greedy_contiguous(inst)
    assert sol.provenance == "greedy_contiguous"
    assert sol.welfare == 1
    assert verify_caei(inst, sol).is_caei


def test_greedy_rejects_noncontiguous():
    inst = CakeInstance((((F(0), F(1, 4)), (F(1, 2), F(3, 4))),))
    with pytest.raises(ValueError):
        greedy_contiguous(inst)


def _seeded_distinct_cakes():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 5)
        spans = set()
        while len(spans) < n:
            cuts = sorted(rng.sample(range(0, 13), 2))
            spans.add((F(cuts[0], 12), F(cuts[1], 12)))
        yield interval_instance(*sorted(spans))


@pytest.mark.parametrize(
    "cakes, welfare",
    [
        pytest.param(list(_seeded_distinct_cakes()), None, id="seeded"),
        pytest.param(
            [interval_instance((F(5, 12), F(23, 24)), (F(5, 12), F(23, 24)))], 0, id="twins"
        ),
        pytest.param(
            [interval_instance((0, F(1, 4)), (0, F(1, 4)), (0, F(1, 2)))],
            0,
            id="twins-and-container",
        ),
        pytest.param(
            [
                interval_instance(
                    (F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)), (F(1, 8), F(3, 4)), (F(3, 4), 1)
                )
            ],
            1,
            id="twins-container-and-neighbour",
        ),
    ],
)
def test_greedy_unserved_strictly_priced_out(cakes, welfare):
    for inst in cakes:
        sol = greedy_contiguous(inst)
        assert sol.provenance == "greedy_contiguous"
        assert verify_caei(inst, sol, tolerance=0).is_caei
        assert welfare is None or sol.welfare == welfare
        for i in range(inst.num_agents):
            if i not in sol.served:
                assert bundle_price(sol.prices, inst.demands[i]) > 1


def _scheduling_reference(spans):
    """Intervals held by exactly one agent that contain no shared
    interval, scheduled earliest finish first."""
    copies = Counter(spans)
    shared = [span for span, count in copies.items() if count > 1]
    servable = sorted(
        (hi, lo)
        for (lo, hi), count in copies.items()
        if count == 1 and not any(lo <= a and b <= hi for a, b in shared)
    )
    welfare, reach = 0, 0
    for hi, lo in servable:
        if lo >= reach:
            welfare, reach = welfare + 1, hi
    return welfare


# (agents, types): without --types every demand is drawn afresh, so
# twins appear by chance on the 24-point grid as n grows
GEN_SWEEP = (
    (2, None), (4, None), (6, None), (60, None), (200, None),
    (4, 2), (7, 3), (8, 6), (10, 4), (30, 6), (40, 30), (200, 20), (200, 150),
)


def test_greedy_matches_references_on_gen_cakes(capsys):
    for seed in range(5):
        for agents, types in GEN_SWEEP:
            argv = ["gen", "--model", "cake", "--contiguous", "--agents", str(agents),
                    "--goods", "1", "--seed", str(seed)]
            assert main(argv + (["--types", str(types)] if types else [])) == 0
            _, inst = instance_from_json(json.loads(capsys.readouterr().out))
            sol = greedy_contiguous(inst)
            assert sol.provenance == "greedy_contiguous"
            assert verify_caei(inst, sol, tolerance=0).is_caei
            spans = [piece[0] for piece in inst.demands]
            assert sol.welfare == _scheduling_reference(spans), (seed, agents, types)
            if len(set(spans)) <= 6:
                assert sol.welfare == max_welfare_fixed_agents(inst).welfare


def test_greedy_names_no_exponential_search():
    # the scheduling route must stay polynomial: no served-set search
    # may come back behind it as a fallback
    names = set(greedy_contiguous.__code__.co_names)
    assert not names & {"max_welfare_fixed_agents", "max_welfare_caei", "subset_caei_lp"}


def test_greedy_outputs_are_pinned():
    # 300 seeded contiguous cakes with pairwise distinct demands: the
    # allocation, prices, served set, schedule and provenance stay the same
    rng = random.Random(1515)
    outputs = []
    for _ in range(300):
        n = rng.randint(1, 30)
        grid = rng.choice((12, 24, 35, 60))
        spans = []
        while len(spans) < n:
            cuts = sorted(rng.sample(range(grid + 1), 2))
            span = (F(cuts[0], grid), F(cuts[1], grid))
            if span not in spans:
                spans.append(span)
        sol = greedy_contiguous(interval_instance(*spans))
        outputs.append(repr((sol.allocation, sol.prices, sol.served, sol.trace, sol.provenance)))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "469cc5a2ab62838c181528b71ac8fa2e059aecfb6e4c37a0a4d6425444cd4219"


def test_greedy_outputs_with_twins_are_pinned():
    # 300 seeded contiguous cakes drawing their demands from a small pool,
    # so twins and containers are common: the drop rule and the slivers
    # of unserved twins stay the same
    rng = random.Random(3030)
    outputs = []
    for _ in range(300):
        grid = rng.choice((7, 12, 60, 1000))
        pool = []
        for _ in range(rng.randint(1, 5)):
            cuts = sorted(rng.sample(range(grid + 1), 2))
            pool.append((F(cuts[0], grid), F(cuts[1], grid)))
        spans = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        sol = greedy_contiguous(interval_instance(*spans))
        outputs.append(repr((sol.allocation, sol.prices, sol.served, sol.trace, sol.provenance)))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "f3a8e3e8d179016c99c40c3ce87dc186cd8f37a7273705caf3ec2a15f5263430"


def test_greedy_at_two_thousand_intervals():
    # 2000 distinct short intervals on a 10^6 grid: hundreds of winners
    # and well over a thousand unserved agents taking slivers
    rng = random.Random(2000)
    spans = set()
    while len(spans) < 2000:
        lo = rng.randrange(10**6)
        spans.add((lo, min(10**6, lo + rng.randint(1, 5000))))
    spans = rng.sample(sorted(spans), len(spans))
    inst = interval_instance(*((F(lo, 10**6), F(hi, 10**6)) for lo, hi in spans))
    sol = greedy_contiguous(inst)
    assert verify_caei(inst, sol, tolerance=0).is_caei
    assert sol.welfare == _scheduling_reference([piece[0] for piece in inst.demands])
    assert sum(1 for i, piece in enumerate(sol.allocation) if piece and i not in sol.served) > 1000


# --- welfare maximization --------------------------------------------------


def test_fixed_agents_three_agent_run(schedule_demo):
    sol = max_welfare_fixed_agents(schedule_demo)
    assert sol.welfare == 2
    assert sol.served == frozenset({0, 1})
    assert bundle_price(sol.prices, schedule_demo.demands[2]) == 2


def test_fixed_agents_disjoint_demands_all_served():
    inst = interval_instance((0, F(3, 10)), (F(1, 2), F(9, 10)))
    sol = max_welfare_fixed_agents(inst)
    assert sol.welfare == 2


def test_fixed_agents_noncontiguous_overlap():
    inst = CakeInstance(
        (
            ((F(0), F(3, 5)), (F(4, 5), F(1))),
            ((F(2, 5), F(9, 10)),),
        )
    )
    sol = max_welfare_fixed_agents(inst)
    assert sol.welfare == 1


def test_fixed_agents_cuts_only_at_endpoints():
    # the doubly demanded middle cell stays whole: its two demanders are
    # priced alike, so splitting it could not change a verdict
    inst = interval_instance((0, F(3, 5)), (F(3, 10), 1))
    sol = max_welfare_fixed_agents(inst)
    assert sol.prices.breakpoints == (F(0), F(3, 10), F(3, 5), F(1))
    assert verify_caei(inst, sol, tolerance=0).is_caei


def test_fixed_agents_matches_greedy_on_contiguous():
    rng = random.Random(61)
    for _ in range(6):
        n = rng.randint(2, 4)
        spans = set()
        while len(spans) < n:
            cuts = sorted(rng.sample(range(0, 5), 2))
            spans.add((F(cuts[0], 4), F(cuts[1], 4)))
        inst = interval_instance(*sorted(spans))
        greedy = greedy_contiguous(inst)
        exact = max_welfare_fixed_agents(inst)
        assert greedy.welfare == exact.welfare


# --- completion problems ---------------------------------------------------


def test_curve_for_allocation_recovers_uniform_two(schedule_demo):
    allocation = (((F(0), F(1, 2)),), ((F(1, 2), F(1)),), ())
    curve = price_curve_for_allocation(schedule_demo, allocation)
    assert curve == PriceCurve((F(0), F(1, 2), F(1)), (F(2), F(2)))


def test_curve_for_allocation_envy_free_but_unsupportable():
    inst = interval_instance((0, F(2, 5)), (F(2, 5), 1))
    allocation = (
        ((F(0), F(1, 5)), (F(2, 5), F(7, 10))),
        ((F(1, 5), F(2, 5)), (F(7, 10), F(1))),
    )
    assert price_curve_for_allocation(inst, allocation) is None


def test_curve_for_allocation_rejects_bad_input(schedule_demo):
    with pytest.raises(ValueError):
        price_curve_for_allocation(schedule_demo, ((), ()))
    with pytest.raises(ValueError):
        # overlapping pieces are not a partition
        price_curve_for_allocation(
            schedule_demo,
            (((F(0), F(3, 5)),), ((F(1, 2), F(1)),), ()),
        )


def test_curve_for_allocation_outputs_are_pinned(capsys):
    # 24 seeded gen cakes (1-12 agents): the curve, or None, that
    # supports the solve_existence allocation (multi-interval cakes) or
    # the greedy_contiguous allocation (contiguous, pairwise distinct
    # demands), and the same allocation handed out in reverse agent
    # order, which is mostly unsupportable
    rng = random.Random(26)
    outputs = []
    for k in range(24):
        agents = rng.randint(1, 12)
        if k % 2:
            flags = ["--goods", "1", "--contiguous", "--types", str(agents)]
        else:
            flags = ["--goods", str(rng.randint(1, 4))]
            if k % 4 == 2:
                flags += ["--types", str(rng.randint(1, agents))]
        argv = ["gen", "--model", "cake", "--agents", str(agents), *flags, "--seed", str(k)]
        assert main(argv) == 0
        _, inst = instance_from_json(json.loads(capsys.readouterr().out))
        allocation = (greedy_contiguous if k % 2 else solve_existence)(inst).allocation
        for pieces in (allocation, allocation[::-1]):
            outputs.append(repr(price_curve_for_allocation(inst, pieces)))
    assert outputs.count("None") == 12
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "c8ba910ddb5e082071b4d8f6242444772fead8b0b5326444a0a724cf2b43003e"


def test_allocation_for_curve_uniform_two(schedule_demo):
    curve = PriceCurve((F(0), F(1)), (F(2),))
    allocation = allocation_for_price_curve(schedule_demo, curve)
    assert allocation == (((F(0), F(1, 2)),), ((F(1, 2), F(1)),), ())


def test_allocation_for_curve_zero_prices():
    overlapping = interval_instance((0, F(3, 5)), (F(2, 5), 1))
    free = PriceCurve((F(0), F(1)), (F(0),))
    assert allocation_for_price_curve(overlapping, free) is None
    disjoint = interval_instance((0, F(2, 5)), (F(3, 5), 1))
    assert allocation_for_price_curve(disjoint, free) is not None


def test_completion_roundtrip(schedule_demo):
    sol = greedy_contiguous(schedule_demo)
    curve = price_curve_for_allocation(schedule_demo, sol.allocation)
    assert curve is not None
    back = allocation_for_price_curve(schedule_demo, curve)
    assert back is not None
