"""Outcome verification, envy-freeness, and the brute-force oracles."""

import ast
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from caei.cake import greedy_contiguous, max_welfare_fixed_agents, solve_existence
from caei.model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    PriceCurve,
    canonicalize_piece,
    piece_intersection,
    piece_length,
)
from caei.verify import (
    OracleGuardError,
    Violation,
    is_envy_free,
    oracle_caei_search,
    oracle_max_satisfiable,
    verify_caei,
    verify_with_envy,
)

# cake pieces on a coarse grid, so that overlaps of three or more
# pieces, shared endpoints and exact containment are all common
eighths = st.integers(0, 8).map(lambda k: F(k, 8))
cake_pieces = st.lists(st.tuples(eighths, eighths).map(sorted), max_size=3)


def held(bundle, demand):
    """Containment by its definition: the overlap is as long as the demand."""
    return piece_length(piece_intersection(bundle, demand)) == piece_length(demand)


@pytest.fixture
def divisible_solution():
    inst = DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))
    sol = CaeiSolution(
        ((F(1), F(2, 5)), (F(0), F(3, 5))),
        (F(1, 3), F(5, 3)),
        frozenset({0, 1}),
        2,
    )
    return inst, sol


# --- the report ------------------------------------------------------------


def test_valid_solution_passes(divisible_solution):
    inst, sol = divisible_solution
    report = verify_caei(inst, sol)
    assert report.is_caei
    assert report.partition_ok and report.budgets_ok and report.optimal_bundles_ok
    assert report.violations == ()


def test_exact_ceei_detection(divisible_solution):
    inst, sol = divisible_solution
    # agent 0 spends 1/3 + 2/3 = 1, agent 1 spends 1: a CEEI
    assert verify_caei(inst, sol).is_ceei


def test_partition_violation_reported(divisible_solution):
    inst, sol = divisible_solution
    bad = replace(sol, allocation=((F(1), F(2, 5)), (F(1, 2), F(3, 5))))
    report = verify_caei(inst, bad)
    assert not report.partition_ok
    assert not report.is_caei
    assert any(v.condition == "not cleared" for v in report.violations)


def test_budget_violation_reported(divisible_solution):
    inst, sol = divisible_solution
    bad = replace(sol, prices=(F(3), F(5, 3)))
    report = verify_caei(inst, bad)
    assert not report.budgets_ok
    assert any(v.condition == "overspends" for v in report.violations)


def test_affordable_demand_left_unserved():
    inst = DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))
    # prices leave agent 1's demand affordable, yet it holds nothing
    sol = CaeiSolution(
        ((F(1), F(1)), (F(0), F(0))),
        (F(1, 2), F(1, 2)),
        frozenset({0}),
        1,
    )
    report = verify_caei(inst, sol)
    assert not report.optimal_bundles_ok
    assert not report.is_caei


def test_served_labels_must_match_allocation(divisible_solution):
    inst, sol = divisible_solution
    mislabeled = replace(sol, served=frozenset({0}), welfare=1)
    report = verify_caei(inst, mislabeled)
    assert not report.is_caei
    assert any(v.condition == "served label mismatch" for v in report.violations)


def test_tolerance_absorbs_float_error():
    inst = DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))
    sol = CaeiSolution(
        ((1.0, 0.4 + 2e-8), (0.0, 0.6 - 2e-8)),
        (0.0, 2.0 + 1e-8),
        frozenset({0, 1}),
        2,
        exact=False,
    )
    # at zero tolerance the tiny drift counts as a violation
    assert not verify_caei(inst, sol).is_caei
    assert verify_caei(inst, sol, tolerance=1e-6).partition_ok


def test_relaxed_clearing_mode():
    inst = DivisibleInstance(((F(1, 2),), (F(1, 2),)))
    sol = CaeiSolution(
        ((F(1, 2),), (F(1, 4),)),
        (F(2),),
        frozenset({0}),
        1,
    )
    # half of the good stays unsold: fine relaxed, a violation strict
    assert not verify_caei(inst, sol).partition_ok
    assert verify_caei(inst, sol, relaxed=True).partition_ok


def test_discrete_solution_checks():
    inst = DiscreteInstance(
        (3, 3),
        (frozenset({1}), frozenset({0, 1}), frozenset({0, 1}), frozenset({0})),
    )
    eps = F(1, 7)
    sol = CaeiSolution(
        ((0, 1), (1, 1), (1, 1), (1, 0)),
        (eps, eps),
        frozenset({0, 1, 2, 3}),
        4,
    )
    report = verify_caei(inst, sol)
    assert report.is_caei
    assert not report.is_ceei
    over = replace(sol, allocation=((0, 1), (2, 1), (1, 1), (1, 0)))
    assert not verify_caei(inst, over).partition_ok


def test_cake_solution_checks():
    inst = CakeInstance((((F(0), F(1, 2)),), ((F(1, 2), F(1)),)))
    curve = PriceCurve((F(0), F(1, 2), F(1)), (F(2), F(2)))
    sol = CaeiSolution(
        (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)),
        curve,
        frozenset({0, 1}),
        2,
    )
    report = verify_caei(inst, sol)
    assert report.is_caei
    assert report.is_ceei
    # stealing a slice of agent 1's piece breaks the partition
    overlap = replace(
        sol,
        allocation=(((F(0), F(3, 5)),), ((F(1, 2), F(1)),)),
    )
    assert not verify_caei(inst, overlap).partition_ok


@pytest.mark.parametrize("extra", [7, -1])
def test_out_of_range_served_is_a_violation(divisible_solution, extra):
    inst, sol = divisible_solution
    bad = replace(sol, served=sol.served | {extra}, welfare=3)
    report = verify_caei(inst, bad)
    assert not report.is_caei
    assert Violation(f"agent {extra}", "served index out of range") in report.violations


def test_negative_tolerance_rejected(divisible_solution):
    inst, sol = divisible_solution
    with pytest.raises(ValueError):
        verify_caei(inst, sol, tolerance=F(-1, 10))


@given(st.lists(cake_pieces, min_size=1, max_size=6), st.sampled_from([F(0), F(1, 16)]))
@example([[(F(0), F(1, 2))], [(F(1, 4), F(3, 4))], [(F(0), F(1))], [(F(3, 8), F(5, 8))]], F(0))
def test_cake_overlaps_match_pairwise_loop(raw, tolerance):
    pieces = [canonicalize_piece(p) for p in raw]
    inst = CakeInstance([((F(0), F(1)),)] * len(pieces))
    sol = CaeiSolution(tuple(pieces), PriceCurve([0, 1], [0]), frozenset(), 0)
    found = [
        v for v in verify_caei(inst, sol, tolerance).violations
        if v.condition == "overlapping pieces"
    ]
    expected = []
    for i, j in itertools.combinations(range(len(pieces)), 2):
        overlap = piece_length(piece_intersection(pieces[i], pieces[j]))
        if overlap > tolerance:
            expected.append(Violation(f"agents {i},{j}", "overlapping pieces", overlap))
    assert found == expected


def test_cake_unserved_must_be_priced_out():
    inst = CakeInstance((((F(0), F(1, 2)),), ((F(0), F(1)),)))
    curve = PriceCurve((F(0), F(1, 2), F(1)), (F(2), F(0)))
    sol = CaeiSolution(
        (((F(0), F(1, 2)),), ((F(1, 2), F(1)),)),
        curve,
        frozenset({0}),
        1,
    )
    # agent 1 wants all of the cake at cost 1: affordable, so not a CAEI
    report = verify_caei(inst, sol)
    assert not report.optimal_bundles_ok


# --- cake reports pinned ---------------------------------------------------


def _report_lines(inst, sol):
    """The reports on a cake solution and six tampered copies of it, each
    at tolerance 0, at 1/100 and relaxed, then its envy verdict; an
    error is recorded by its type and message."""
    n = inst.num_agents
    rng = random.Random(repr(sol.allocation))
    pieces = [list(p) for p in sol.allocation]
    i, j = rng.randrange(n), rng.randrange(n)
    moved = [list(p) for p in pieces]
    if moved[i]:
        t = rng.randrange(len(moved[i]))
        lo, hi = moved[i][t]
        # mostly inward or outward within the cake; now and then reversed
        step = F(rng.choice((-1, 1)), rng.choice((5, 48, 97)))
        if rng.random() < 0.5:
            moved[i][t] = (lo + step if 0 <= lo + step else lo - step, hi)
        else:
            moved[i][t] = (lo, hi + step if hi + step <= 1 else hi - step)
    k = rng.randrange(len(sol.prices.densities))
    densities = list(sol.prices.densities)
    densities[k] = abs(densities[k] + F(rng.choice((-1, 1)), rng.randint(2, 9)))
    swapped = list(pieces)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    emptied = list(pieces)
    emptied[i] = []
    a, b = sorted(rng.sample(range(121), 2))
    extra = list(pieces)
    extra[j] = pieces[j] + [(F(a, 120), F(b, 120))]
    flipped = sol.served ^ {i}
    variants = [
        sol,
        replace(sol, allocation=tuple(map(tuple, moved))),
        replace(sol, prices=PriceCurve(sol.prices.breakpoints, densities)),
        replace(sol, served=flipped, welfare=len(flipped)),
        replace(sol, allocation=tuple(map(tuple, swapped))),
        replace(sol, allocation=tuple(map(tuple, emptied))),
        replace(sol, allocation=tuple(map(tuple, extra))),
    ]
    lines = []
    for variant in variants:
        for check in (
            lambda: verify_caei(inst, variant),
            lambda: verify_caei(inst, variant, F(1, 100)),
            lambda: verify_caei(inst, variant, relaxed=True),
            lambda: is_envy_free(inst, variant.allocation),
        ):
            try:
                lines.append(repr(check()))
            except (TypeError, ValueError) as err:
                lines.append(f"{type(err).__name__}: {err}")
    return lines


def _report_cake(rng):
    """Up to seven agents over at most as many demand types, each demand
    one to three intervals (a third of the cakes contiguous) on a grid
    of 12, 35 or 60."""
    n = rng.randint(1, 7)
    types = rng.randint(1, n)
    grid = rng.choice((12, 35, 60))
    top = 1 if rng.random() < 1 / 3 else 3
    pool = []
    while len(pool) < types:
        count = rng.randint(1, top)
        cuts = sorted(rng.sample(range(grid + 1), 2 * count))
        piece = tuple((F(cuts[2 * t], grid), F(cuts[2 * t + 1], grid)) for t in range(count))
        if piece not in pool:
            pool.append(piece)
    return CakeInstance([pool[i] if i < types else rng.choice(pool) for i in range(n)])


def test_cake_verify_reports_are_pinned():
    # Pins every report verify_caei and is_envy_free give on 200 seeded
    # cakes: the solvers' outputs and copies with a moved endpoint, a
    # changed density, a flipped served entry, swapped pieces, an
    # emptied piece and an extra interval.
    rng = random.Random(12)
    lines = []
    for k in range(200):
        inst = _report_cake(rng)
        if inst.is_contiguous() and k % 2:
            sol = greedy_contiguous(inst)
        elif len(set(inst.demands)) <= 4 and k % 3 == 0:
            sol = max_welfare_fixed_agents(inst)
        else:
            sol = solve_existence(inst)
        lines += _report_lines(inst, sol)
    assert len(lines) == 200 * 7 * 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bc93573176183dcc4b9a3fa5e440a8ac1553bc52727e3078e9ac7e6c62a963ce"


def _one_curve_cake(demands, pieces, breakpoints, densities, served):
    inst = CakeInstance(demands)
    sol = CaeiSolution(pieces, PriceCurve(breakpoints, densities), frozenset(served), len(served))
    return inst, sol


def test_float_tolerance_bounds_are_exact():
    # With tolerance=1e-6 the bounds are the floats 1 + 1e-6, 1 - 1e-6
    # and 1e-6, each compared exactly: every figure below sits between
    # one of them and the decimal value it rounds.
    tol = 1e-6
    whole = ((F(0), F(1)),)
    over = (F(1 + tol) + 1 + F(1, 10**6)) / 2  # above the float 1 + 1e-6
    inst, sol = _one_curve_cake([whole], (whole,), (0, 1), (over,), {0})
    report = verify_caei(inst, sol, tolerance=tol)
    assert not report.budgets_ok
    assert report.violations == (Violation("agent 0", "overspends", over - 1),)
    short = 1 - (F(tol) + F(1, 10**6)) / 2  # 1 - spend is above the float 1e-6
    inst, sol = _one_curve_cake([whole], (whole,), (0, 1), (short,), {0})
    report = verify_caei(inst, sol, tolerance=tol)
    assert report.is_caei and not report.is_ceei
    cost = (F(1 - tol) + 1 - F(1, 10**6)) / 2  # above the float 1 - 1e-6
    half = ((F(0), F(1, 2)),)
    inst, sol = _one_curve_cake(
        [half, whole], (half, ((F(1, 2), F(1)),)), (0, F(1, 2), 1), (2 * cost, 0), {0}
    )
    report = verify_caei(inst, sol, tolerance=tol)
    assert report.is_caei and report.violations == ()


def _primes(count, start=5):
    out, k = [], start
    while len(out) < count:
        if all(k % p for p in range(2, int(k**0.5) + 1)):
            out.append(k)
        k += 1
    return out


def test_wide_denominator_cake_verifies():
    # 50 demands whose 100 endpoints have 100 distinct prime
    # denominators, so the common denominator runs to hundreds of bits
    primes = _primes(100)
    rng = random.Random(100)
    demands = []
    for p, q in zip(primes[::2], primes[1::2]):
        lo = F(rng.randrange(1, p), p)
        hi = F(min(q, int(lo * q) + rng.randint(1, 3)), q)
        demands.append([(lo, hi)] if lo < hi else [(hi, lo)])
    inst = CakeInstance(demands)
    sol = solve_existence(inst)
    report = verify_caei(inst, sol)
    assert report.is_caei and is_envy_free(inst, sol.allocation)
    digest = hashlib.sha256("\n".join(_report_lines(inst, sol)).encode()).hexdigest()
    assert digest == "57bb6ad6d0683292e0c880b09fdac42a772e51cf99dedc34918ec92fd0b5665d"


# --- envy-freeness ---------------------------------------------------------


def test_envy_detected_when_somebody_holds_your_demand():
    inst = DivisibleInstance(((F(1, 2), F(0)), (F(1, 4), F(0))))
    allocation = ((F(0), F(1)), (F(1), F(0)))
    # agent 0 has utility zero while agent 1's bundle covers D_0
    assert not is_envy_free(inst, allocation)


def test_envy_rejects_ragged_bundle():
    inst = DivisibleInstance(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    with pytest.raises(ValueError):
        is_envy_free(inst, ((F(0), F(0)), (F(1),)))


@given(st.data())
def test_cake_envy_matches_pairwise_definition(data):
    demands = data.draw(
        st.lists(cake_pieces.filter(lambda p: canonicalize_piece(p)), min_size=1, max_size=6)
    )
    inst = CakeInstance(demands)
    n = inst.num_agents
    # bundles mix random pieces with copies of demands, so that envy
    # and overlapping (invalid) allocations both occur
    allocation = tuple(
        data.draw(cake_pieces) + data.draw(st.sampled_from([[], *map(list, inst.demands)]))
        for _ in range(n)
    )
    bundles = [canonicalize_piece(p) for p in allocation]
    envious = [i for i in range(n) if not held(bundles[i], inst.demands[i])]
    expected = not any(
        k != i and held(bundles[k], inst.demands[i]) for i in envious for k in range(n)
    )
    assert is_envy_free(inst, allocation) == expected


def _outcome(check):
    try:
        return check()
    except (TypeError, ValueError, IndexError) as err:
        return f"{type(err).__name__}: {err}"


def test_verify_with_envy_is_the_two_checks(divisible_solution):
    # verify_with_envy shares one canonicalization and grid between the
    # report and the envy verdict: on 60 seeded cakes and malformed
    # copies of their solutions it must give what verify_caei and then
    # is_envy_free give, errors included
    rng = random.Random(31)
    cases = [divisible_solution]
    for _ in range(60):
        inst = _report_cake(rng)
        sol = solve_existence(inst)
        pieces = [list(p) for p in sol.allocation]
        i = rng.randrange(inst.num_agents)
        junk = rng.choice([(F(2, 3), F(1, 3)), (F(-1, 5), F(1, 2)), (0.5, F(1)), ("x", 1), (F(1, 2),)])
        broken = [list(p) for p in pieces]
        broken[i].insert(rng.randrange(len(broken[i]) + 1), junk)
        short = pieces[:-1] + [pieces[-1] + [(F(0), F(1, 7))]]
        cases += [
            (inst, sol),
            (inst, replace(sol, allocation=tuple(map(tuple, broken)))),
            (inst, replace(sol, allocation=tuple(map(tuple, short)))),
            (inst, replace(sol, allocation=tuple(map(tuple, broken)), prices=(F(1),))),
            (inst, replace(sol, prices=(F(1),))),
        ]
    kinds = set()
    for inst, sol in cases:
        for tolerance, relaxed in ((0, False), (F(1, 100), False), (0, True)):
            report = _outcome(lambda: verify_caei(inst, sol, tolerance, relaxed))
            expected = report if isinstance(report, str) else (
                report, _outcome(lambda: is_envy_free(inst, sol.allocation))
            )
            assert _outcome(lambda: verify_with_envy(inst, sol, tolerance, relaxed)) == expected
            kinds.add(expected.split(":")[0] if isinstance(expected, str) else expected[1])
    assert kinds == {True, False, "ValueError", "LpError", "TypeError"}


def test_envy_free_when_nobody_covets(divisible_solution):
    inst, sol = divisible_solution
    assert is_envy_free(inst, sol.allocation)


def test_envy_discrete_and_cake():
    disc = DiscreteInstance((1, 1), (frozenset({0, 1}), frozenset({0})))
    assert not is_envy_free(disc, ((0, 0), (1, 1)))
    assert is_envy_free(disc, ((0, 1), (1, 0)))
    cake = CakeInstance((((F(0), F(1, 2)),), ((F(1, 4), F(3, 4)),)))
    grabbed = ((), ((F(0), F(1)),))
    assert not is_envy_free(cake, grabbed)


# --- brute-force oracles ---------------------------------------------------


def test_max_satisfiable_divisible():
    inst = DivisibleInstance(((F(3, 5),), (F(3, 5),), (F(2, 5),)))
    size, witness = oracle_max_satisfiable(inst)
    assert size == 2
    assert witness == (0, 2)


def test_max_satisfiable_cake_overlaps():
    inst = CakeInstance(
        (
            ((F(0), F(1, 2)),),
            ((F(1, 4), F(3, 4)),),
            ((F(3, 4), F(1)),),
        )
    )
    size, witness = oracle_max_satisfiable(inst)
    assert size == 2
    assert witness == (0, 2)


def test_max_satisfiable_discrete():
    inst = DiscreteInstance(
        (1,), (frozenset({0}), frozenset({0}), frozenset({0}))
    )
    assert oracle_max_satisfiable(inst) == (1, (0,))


def test_max_satisfiable_guard():
    inst = DivisibleInstance(tuple((F(1, 2),) for _ in range(21)))
    with pytest.raises(OracleGuardError):
        oracle_max_satisfiable(inst)


def test_oracle_search_divisible_agrees_with_demand_cost():
    inst = DivisibleInstance(((F(1, 2), F(2, 5)), (F(0), F(3, 5))))
    sol = oracle_caei_search(inst)
    assert sol.welfare == 2
    assert verify_caei(inst, sol).is_caei


def test_oracle_search_cake():
    inst = CakeInstance((((F(0), F(3, 5)),), ((F(2, 5), F(1)),)))
    sol = oracle_caei_search(inst)
    assert sol is not None
    assert sol.welfare == 1
    assert verify_caei(inst, sol).is_caei


def _seeded_cake(rng):
    """Up to six agents over at most as many demand types, each demand
    one to three intervals on the twelfths grid."""
    n = rng.randint(1, 6)
    types = rng.randint(1, n)
    pool = []
    while len(pool) < types:
        count = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(13), 2 * count))
        piece = tuple((F(cuts[2 * t], 12), F(cuts[2 * t + 1], 12)) for t in range(count))
        if piece not in pool:
            pool.append(piece)
    return CakeInstance([pool[i] if i < types else rng.choice(pool) for i in range(n)])


def test_oracle_search_cake_outputs_are_pinned():
    # Pins the served set, pieces and price curve the cake oracle finds
    # on 300 seeded instances with duplicate types and multi-interval
    # demands: a change to its cells, LP or carving changes the digest.
    rng = random.Random(10)
    lines = []
    for _ in range(300):
        sol = oracle_caei_search(_seeded_cake(rng))
        curve = sol.prices
        lines.append(f"{sorted(sol.served)} {sol.allocation} {curve.breakpoints} {curve.densities}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ec3cca81314bc199e0e1a9ac9e84c0d41a50bacfb93c24bac5042d8adffa0c3f"


def _discrete_family():
    """Every instance criterion 08 enumerates (up to 4 agents, 3 item
    types, 2 copies, every item demanded), each multiset of demands in
    its sorted order and, when that differs, reversed."""
    for m in (1, 2, 3):
        subsets = [
            frozenset(s) for r in range(1, m + 1) for s in itertools.combinations(range(m), r)
        ]
        for quantities in itertools.product((1, 2), repeat=m):
            for n in (1, 2, 3, 4):
                for combo in itertools.combinations_with_replacement(subsets, n):
                    if frozenset().union(*combo) != frozenset(range(m)):
                        continue
                    yield DiscreteInstance(quantities, combo)
                    if combo != combo[::-1]:
                        yield DiscreteInstance(quantities, combo[::-1])


def test_oracle_search_discrete_outputs_are_pinned():
    # Pins the served set, allocation and prices the discrete oracle
    # finds on the whole criterion-08 family in two agent orders: a
    # change to its enumeration order, pruning or LP changes the digest.
    lines = []
    for instance in _discrete_family():
        sol = oracle_caei_search(instance)
        lines.append("None" if sol is None else f"{sorted(sol.served)} {sol.allocation} {sol.prices}")
    assert len(lines) == 3992
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "402fb20f0cef30112f3f3f7b2eba522bb0bafd460da1681fb490dbdda46eba3a"


def test_oracle_search_discrete_none_when_impossible():
    inst = DiscreteInstance((1,), (frozenset({0}), frozenset({0})))
    assert oracle_caei_search(inst) is None


def test_oracle_search_guards():
    big = DivisibleInstance(tuple((F(1, 2),) for _ in range(7)))
    with pytest.raises(OracleGuardError):
        oracle_caei_search(big)
    wide = DiscreteInstance(
        (1, 1, 1, 1),
        (frozenset({0, 1, 2, 3}),),
    )
    with pytest.raises(OracleGuardError):
        oracle_caei_search(wide)


def _imported_modules(tree):
    """Every module name an import in the tree can bind, relative
    imports resolved against the caei package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["caei", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_verify_imports_no_solver_module():
    # the oracles are the referee the solvers are measured against, so
    # they must not share the solvers' code
    source = Path(__file__).resolve().parent.parent / "src" / "caei" / "verify.py"
    names = set(_imported_modules(ast.parse(source.read_text())))
    assert "caei.model" in names
    for solver in ("caei.divisible", "caei.cake", "caei.discrete"):
        assert not {name for name in names if name == solver or name.startswith(solver + ".")}
