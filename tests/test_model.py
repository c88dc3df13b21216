"""Data model: validation, piece algebra, utilities, prices, types."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from caei.exactmath import as_fraction
from caei.model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    PriceCurve,
    bundle_price,
    canonicalize_piece,
    cells_within,
    compute_served,
    demand_bundle,
    group_types,
    piece_contains,
    piece_intersection,
    piece_length,
    single_minded_utility,
)

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=16)
raw_intervals = st.lists(
    st.tuples(fractions_01, fractions_01).map(lambda p: (min(p), max(p))),
    max_size=6,
)
# endpoints on a coarse grid reaching past [0, 1], so that unsorted,
# overlapping, touching, zero-length and escaping intervals all occur
grid = st.integers(-3, 15).map(lambda k: F(k, 12))
messy_intervals = st.lists(st.tuples(grid, grid), max_size=6)


@st.composite
def price_curves(draw):
    inner = draw(st.lists(st.integers(1, 23), unique=True, max_size=8))
    breakpoints = [F(0), *sorted(F(k, 24) for k in inner), F(1)]
    density = st.one_of(st.just(F(0)), st.fractions(0, 5, max_denominator=7))
    densities = draw(st.lists(density, min_size=len(breakpoints) - 1, max_size=len(breakpoints) - 1))
    return PriceCurve(breakpoints, densities)


def reference_contains(outer, inner):
    """Containment by its definition: the overlap is as long as ``inner``."""
    return piece_length(piece_intersection(outer, inner)) == piece_length(inner)


def reference_price(curve, piece):
    """Price by its definition: each cell's density times its overlap."""
    cells = zip(curve.breakpoints, curve.breakpoints[1:])
    return sum(
        (d * piece_length(piece_intersection(piece, (cell,))) for d, cell in zip(curve.densities, cells)),
        F(0),
    )


# -- validation --------------------------------------------------------------


def test_divisible_rejects_empty_demand_row():
    with pytest.raises(ValueError):
        DivisibleInstance([[0, 0]])


def test_divisible_rejects_out_of_range():
    with pytest.raises(ValueError):
        DivisibleInstance([["3/2", 0]])


def test_divisible_rejects_ragged_rows():
    with pytest.raises(ValueError):
        DivisibleInstance([["1/2", 0], ["1/2"]])


def test_cake_rejects_null_demand():
    with pytest.raises(ValueError):
        CakeInstance([[("1/2", "1/2")]])


def test_cake_rejects_escaping_interval():
    with pytest.raises(ValueError):
        CakeInstance([[(0, "3/2")]])


def test_discrete_rejects_zero_quantity():
    with pytest.raises(ValueError):
        DiscreteInstance([0], [{0}])


def test_discrete_rejects_empty_demand():
    with pytest.raises(ValueError):
        DiscreteInstance([1], [set()])


def test_discrete_rejects_unknown_item():
    with pytest.raises(ValueError):
        DiscreteInstance([1], [{3}])


def test_discrete_rejects_undemanded_item():
    with pytest.raises(ValueError):
        DiscreteInstance([1, 1], [{0}])


def per_piece_canonical(intervals):
    """canonicalize_piece by its definition, one interval at a time in
    Fractions: convert, validate, then sort and merge."""
    cleaned = []
    for lo, hi in intervals:
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"interval [{lo}, {hi}] has negative length")
        if not (0 <= lo and hi <= 1):
            raise ValueError(f"interval [{lo}, {hi}] leaves the cake [0, 1]")
        if lo < hi:
            cleaned.append((lo, hi))
    merged = []
    for lo, hi in sorted(cleaned):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def per_agent_demands(demands):
    """CakeInstance's demands by their definition: each agent's piece
    canonicalized in turn, its errors prefixed with the agent."""
    pieces = []
    for i, raw in enumerate(demands):
        try:
            piece = per_piece_canonical(raw)
        except ValueError as err:
            raise ValueError(f"agent {i}: {err}") from None
        if not piece:
            raise ValueError(f"agent {i} demands a null piece")
        pieces.append(piece)
    if not pieces:
        raise ValueError("instance needs at least one agent")
    return tuple(pieces)


def result(fn, *args):
    try:
        return fn(*args)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def test_grid_canonicalization_matches_per_piece_definition():
    # 3000 seeded cakes of up to four agents: valid pieces mixed with
    # reversed, escaping and zero-length intervals, floats, junk
    # strings, zero denominators and malformed pairs, so that errors of
    # every kind meet in one instance and the first one must win
    rng = random.Random(5)
    good = [F(0), F(1), F(1, 3), F(1, 2), "2/3", 1, 0, "1/4", F(5, 7)]
    bad = [F(-1, 3), F(4, 3), "x", "1/0", 0.5, None]

    def interval():
        if rng.random() < 0.1:
            return rng.choice([(F(1, 2),), (0, 1, 1), "ab", 7])
        pick = lambda: rng.choice(good) if rng.random() < 0.93 else rng.choice(bad)
        lo, hi = pick(), pick()
        return (lo, hi)

    outcomes = set()
    for _ in range(3000):
        demands = [[interval() for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 4))]
        expected = result(per_agent_demands, demands)
        got = result(lambda d: CakeInstance(d).demands, demands)
        assert got == expected, demands
        for piece in demands:
            one = result(per_piece_canonical, piece)
            assert result(canonicalize_piece, piece) == one, piece
            outcomes.add(one.split(":")[0] if isinstance(one, str) else "ok")
    assert {"ok", "ValueError", "TypeError", "ZeroDivisionError", "LpError"} <= outcomes


def test_cake_instance_keeps_its_integer_grid():
    # the zero-length (1/5, 1/5) and the merged-away 7/8 leave no trace
    inst = CakeInstance([[("1/3", "1/2"), (0, "1/6"), ("1/5", "1/5")], [("3/4", "7/8"), ("7/8", 1)]])
    assert inst.unit == 12
    assert inst.spans == (((0, 2), (4, 6)), ((9, 12),))
    assert CakeInstance(inst.demands).spans == inst.spans
    assert inst.demands == (((F(0), F(1, 6)), (F(1, 3), F(1, 2))), ((F(3, 4), F(1)),))
    assert inst == CakeInstance(inst.demands) and "spans" not in repr(inst)


# -- piece algebra -----------------------------------------------------------


def test_canonicalize_merges_and_sorts():
    piece = canonicalize_piece([("1/2", 1), (0, "1/4"), ("1/4", "1/2")])
    assert piece == (((F(0), F(1))),)


def test_canonicalize_drops_degenerate():
    assert canonicalize_piece([("1/3", "1/3")]) == ()


@given(raw_intervals)
def test_canonicalize_idempotent(raw):
    once = canonicalize_piece(raw)
    assert canonicalize_piece(once) == once


@given(raw_intervals, raw_intervals)
def test_intersection_lies_inside_both(a_raw, b_raw):
    a = canonicalize_piece(a_raw)
    b = canonicalize_piece(b_raw)
    inter = piece_intersection(a, b)
    assert piece_contains(a, inter) and piece_contains(b, inter)
    assert piece_length(inter) <= min(piece_length(a), piece_length(b))


@given(messy_intervals, raw_intervals)
def test_containment_matches_intersection_length(outer, inner_raw):
    inner = canonicalize_piece(inner_raw)
    assert piece_contains(outer, inner) == reference_contains(outer, inner)
    assert piece_contains(canonicalize_piece(inner_raw + [(F(0), F(1, 3))]), inner)


@given(price_curves(), raw_intervals)
def test_cells_within_matches_containment(curve, raw):
    piece = canonicalize_piece(raw)
    bps = curve.breakpoints
    expected = [
        k for k in range(len(bps) - 1) if reference_contains(piece, ((bps[k], bps[k + 1]),))
    ]
    assert cells_within(bps, piece) == expected


def test_containment_ignores_endpoints():
    outer = canonicalize_piece([(0, "1/2"), ("1/2", 1)])
    assert piece_contains(outer, ((F(0), F(1)),))


# -- utilities and prices ----------------------------------------------------


def test_divisible_utility_threshold():
    inst = DivisibleInstance([["1/2", "2/5"], [0, "3/5"]])
    assert single_minded_utility(inst, 0, (F(5, 8), F(1, 2))) == 1
    assert single_minded_utility(inst, 0, (F(1), F(3, 10))) == 0
    assert single_minded_utility(inst, 1, (F(0), F(3, 5))) == 1


def test_discrete_utility_needs_every_item():
    inst = DiscreteInstance(
        [2, 4, 2, 3, 2],
        [{0}, {0, 1}, {0, 2}, {1, 2, 3}, {1, 2, 3, 4}],
    )
    assert single_minded_utility(inst, 4, (0, 1, 0, 1, 1)) == 0
    assert single_minded_utility(inst, 4, (0, 1, 1, 1, 1)) == 1
    assert single_minded_utility(inst, 0, (2, 0, 0, 0, 0)) == 1


def test_cake_utility_up_to_measure_zero():
    inst = CakeInstance([[(0, "1/2")]])
    bundle = canonicalize_piece([(0, "1/4"), ("1/4", "1/2")])
    assert single_minded_utility(inst, 0, bundle) == 1
    assert single_minded_utility(inst, 0, ((F(0), F(1, 4)),)) == 0


def test_bundle_price_vector():
    prices = (F(1, 3), F(5, 3))
    assert bundle_price(prices, (F(1, 2), F(2, 5))) == F(5, 6)
    assert bundle_price(prices, (F(0), F(3, 5))) == 1


def test_bundle_price_additive():
    prices = (F(2), F(1, 2), F(0))
    a = (F(1, 2), F(1), F(3))
    b = (F(1, 4), F(0), F(1))
    total = tuple(x + y for x, y in zip(a, b))
    assert bundle_price(prices, a) + bundle_price(prices, b) == bundle_price(prices, total)


def test_price_curve():
    curve = PriceCurve([0, "1/2", 1], [2, 4])
    assert curve.piece_price(((F(0), F(1, 2)),)) == 1
    assert curve.piece_price(((F(1, 2), F(1)),)) == 2
    assert curve.piece_price(((F(0), F(1)),)) == 3
    flat = PriceCurve([0, 1], [2])
    assert flat.piece_price(((F(0), F(1)),)) == 2


@given(price_curves(), messy_intervals)
def test_piece_price_matches_per_cell_reference(curve, piece):
    assert curve.piece_price(piece) == reference_price(curve, piece)


# endpoints with denominators 7, 9 and 11, which miss the curves' grid of
# 24ths, so pricing scales the piece onto a finer grid
off_grid = st.builds(F, st.integers(-2, 13), st.sampled_from([7, 9, 11]))


@settings(max_examples=50)
@given(price_curves(), st.lists(st.tuples(off_grid, off_grid), max_size=4))
def test_piece_price_off_the_curve_grid_matches_reference(curve, piece):
    assert curve.piece_price(piece) == reference_price(curve, piece)


def test_price_curve_cache_is_invisible():
    curve = PriceCurve([0, "1/2", 1], [2, 4])
    fresh = PriceCurve([0, "1/2", 1], [2, 4])
    shown = repr(curve)
    assert curve.piece_price(((F(1, 4), F(3, 4)),)) == F(3, 2)
    assert curve == fresh and hash(curve) == hash(fresh) and repr(curve) == shown


def test_price_curve_validation():
    with pytest.raises(ValueError):
        PriceCurve([0, "1/2"], [1])
    with pytest.raises(ValueError):
        PriceCurve([0, "1/2", "1/2", 1], [1, 1, 1])
    with pytest.raises(ValueError):
        PriceCurve([0, 1], [-1])


def test_demand_bundle_discrete():
    inst = DiscreteInstance([1, 2, 1], [{0, 1}, {1, 2}])
    assert demand_bundle(inst, 0) == (1, 1, 0)
    assert bundle_price((F(1, 2), F(1, 2), F(1, 2)), demand_bundle(inst, 1)) == 1


# -- types and solutions -----------------------------------------------------


def test_group_types_first_appearance_order():
    inst = DivisibleInstance([["1/2"], ["1/3"], ["1/2"], ["1/3"], ["1/4"]])
    assert group_types(inst) == ((0, 2), (1, 3), (4,))


def test_group_types_cake_and_discrete():
    cake = CakeInstance([[(0, "1/2")], [(0, "1/2")], [("1/2", 1)]])
    assert group_types(cake) == ((0, 1), (2,))
    disc = DiscreteInstance([3, 3], [{1}, {0, 1}, {0, 1}, {0}])
    assert group_types(disc) == ((0,), (1, 2), (3,))


def test_solution_welfare_consistency():
    with pytest.raises(ValueError):
        CaeiSolution(((F(1),),), (F(1),), frozenset({0}), welfare=2)


def test_compute_served():
    inst = DivisibleInstance([["1/2", "2/5"], [0, "3/5"]])
    allocation = ((F(1), F(1, 2)), (F(0), F(1, 2)))
    assert compute_served(inst, allocation) == {0}
