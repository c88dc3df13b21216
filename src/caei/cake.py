"""Cake cutting with single-minded agents.

The cake [0,1] is priced by a piecewise-constant density curve.  Four
routes produce competitive outcomes:

* ``solve_existence`` discretizes the cake at demand midpoints and
  runs the discrete-goods pricing algorithm on the resulting cells.
  Always succeeds, but makes no welfare promise.  It cuts on the
  instance's integer grid (``CakeInstance.unit`` and ``spans``) at
  half the unit, so every midpoint is an exact int; the breakpoints
  become Fractions once, for the curve and the pieces it returns.

* ``greedy_contiguous`` handles single-interval demands in polynomial
  time: it drops every agent whose interval contains another agent's
  interval (an identical twin's included), schedules the rest
  earliest finish first, and prices each scheduled interval with a
  cheap prefix and an expensive suffix so that every budget closes at
  exactly 1.  It runs on the instance's integer grid with the unit
  quartered, keeps the free cake as a sorted list of int gaps and
  cuts each price-1 sliver off the first gap its agent reaches, found
  by a bisect; breakpoints become Fractions once, at the output.  The
  pricing certificate is re-verified; there is no fallback search.

* ``max_welfare_fixed_agents`` searches unions of agent types over
  the cells between demand endpoints and lets the exact price-only
  subset LP decide supportability.  Only unions that fit into every
  cell and serve every demand contained in a served one are tried;
  their number can still grow exponentially with the distinct
  demands, so the search stops at ``divisible.SEARCH_GUARD`` steps.

* completion: ``price_curve_for_allocation`` / ``allocation_for_price_curve``
  recover the missing half of an outcome through the divisible-goods
  completions on the cells cut at every piece endpoint or curve
  breakpoint, where a piece's shares are its cell rows (``model.cell_rows``).

The cells come from one reduction: ``refine_partition`` cuts the cake
at every demand endpoint (plus any extra points), sorting ints on the
instance's grid, so each cell lies inside a demand or outside it, and
``model.cell_goods``, ``model.carve_cells`` and ``model.cell_curve``
carry the cells to divisible goods and back.  The cake oracle in ``verify`` runs the
divisible oracle through the same mapping.

Piece queries cost O(|piece| log cells) steps: the cells inside a
demand come from ``model.cells_within`` (a bisected run of breakpoints
per interval, ints in ``solve_existence``), and a piece is priced by
the curve's integer kernel (``model.CurveGrid``: int breakpoints over
the lcm of their denominators, bisected, and a running total of int
rates).  ``verify_caei`` puts the pieces and the curve on the
instance's integer grid, refined where they need it, and checks
overlaps, coverage, spends and containment there with sorted sweeps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .discrete import solve_caei
from .divisible import allocation_for_prices, max_welfare_caei, prices_for_allocation
from .model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    PriceCurve,
    canonicalize_piece,
    carve_cells,
    cell_curve,
    cell_goods,
    cell_rows,
    cells_within,
)
from .verify import verify_caei


@dataclass(frozen=True)
class Partition:
    """Sorted breakpoints 0 = q_0 < ... < q_K = 1 delimiting cake cells."""

    breakpoints: tuple[Fraction, ...]

    def __post_init__(self):
        b = self.breakpoints
        if len(b) < 2 or b[0] != 0 or b[-1] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        if any(x >= y for x, y in zip(b, b[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def cells(self) -> tuple[tuple[Fraction, Fraction], ...]:
        b = self.breakpoints
        return tuple((b[k], b[k + 1]) for k in range(len(b) - 1))


@dataclass(frozen=True)
class ScheduledJob:
    """One agent's interval in the greedy schedule, 1-based order."""

    agent: int
    start: Fraction
    finish: Fraction
    order: int


def refine_partition(instance: CakeInstance, extra_points=()) -> Partition:
    """The cells cut by every demand endpoint and the ``extra_points``.

    Every demand is a union of cells, so the cells can stand in for the
    cake as goods (``model.cell_goods``).
    """
    extra = [Fraction(p) for p in extra_points]
    unit = lcm(instance.unit, *(p.denominator for p in extra))
    ticks = _cut_ticks(
        instance, unit // instance.unit, (p.numerator * (unit // p.denominator) for p in extra)
    )
    # demand endpoints lie in the cake, so only an extra point can leave it
    if ticks[0] < 0 or ticks[-1] > unit:
        raise ValueError("extra points must lie in the cake [0, 1]")
    return Partition(tuple(Fraction(t, unit) for t in ticks))


def _cut_ticks(instance: CakeInstance, scale: int, extra=()) -> list[int]:
    """The sorted distinct ints, over ``instance.unit * scale``, of 0, 1,
    every demand endpoint and the ``extra`` ints."""
    points = {0, instance.unit * scale, *extra}
    for piece in instance.spans:
        for lo, hi in piece:
            points.add(lo * scale)
            points.add(hi * scale)
    return sorted(points)


def solve_existence(instance: CakeInstance) -> CaeiSolution:
    """A competitive outcome for any demand structure.

    Splitting every demanded interval at its midpoint leaves no agent
    demanding a single cell, which is exactly the regime where the
    discrete pricing algorithm always succeeds on unit-quantity cells.
    Cell prices spread uniformly over their interval; undemanded cells
    are free and go to agent 0.

    The cut runs on the instance's integer grid with the unit halved,
    so every midpoint is exact: endpoints ``2 * lo`` and ``2 * hi`` and
    midpoints ``lo + hi`` over ``2 * instance.unit``.  Breakpoints
    become Fractions once, for the output.
    """
    unit = 2 * instance.unit
    ticks = _cut_ticks(instance, 2, (lo + hi for piece in instance.spans for lo, hi in piece))
    wanted = [
        cells_within(ticks, [(2 * lo, 2 * hi) for lo, hi in piece]) for piece in instance.spans
    ]
    items = sorted(set().union(*wanted))
    item_of = {k: t for t, k in enumerate(items)}
    reduced = DiscreteInstance(
        (1,) * len(items),
        tuple(frozenset(item_of[k] for k in row) for row in wanted),
    )
    inner = solve_caei(reduced)
    assert inner is not None, "midpoint split leaves no singleton demands"

    n = instance.num_agents
    owned = [[] for _ in range(n)]
    prices = [Fraction(0)] * (len(ticks) - 1)
    # each cell is one copy, so its column holds a single 1: the owner
    for t, (k, column) in enumerate(zip(items, zip(*inner.allocation))):
        prices[k] = inner.prices[t]
        owned[column.index(1)].append(k)
    owned[0].extend(k for k in range(len(prices)) if k not in item_of)

    breakpoints = [Fraction(t, unit) for t in ticks]
    densities = [
        Fraction(price.numerator * unit, price.denominator * (hi - lo))
        for price, lo, hi in zip(prices, ticks, ticks[1:])
    ]
    solution = CaeiSolution(
        tuple(_cell_runs(sorted(cells), breakpoints) for cells in owned),
        PriceCurve(breakpoints, densities),
        inner.served,
        inner.welfare,
        provenance="solve_existence",
    )
    report = verify_caei(instance, solution)
    assert report.is_caei, f"existence construction broke: {report.violations}"
    return solution


def _cell_runs(cells, breakpoints) -> tuple:
    """The canonical piece made of the sorted cells: one interval per
    run of adjacent cells."""
    runs: list[list[int]] = []
    for k in cells:
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    return tuple((breakpoints[a], breakpoints[b]) for a, b in runs)


def greedy_contiguous(instance: CakeInstance) -> CaeiSolution:
    """Welfare-maximizing outcome for single-interval demands.

    An agent whose interval contains another agent's interval is never
    served: the contained agent would go unserved with a demand costing
    at most 1.  An identical twin counts as contained, so twins are
    never served.  No interval left contains another, and earliest
    finish first over them reaches the interval-scheduling optimum.
    The k-th scheduled agent pays k*eps for a prefix sliver and
    1 - k*eps for a suffix sliver of its interval; every other agent
    with free cake in its demand gets a sliver there priced at 1.  An
    unserved agent whose interval contains no other starts inside the
    winner that knocked it out and ends after it, so its demand holds
    that suffix plus the next prefix or a price-1 sliver and costs
    more than 1.  A demand that contains another costs at least as
    much, and twins whose cake no winner covers each take a sliver in
    it.  The certificate is checked exactly.

    Runs in O(n log n) steps plus the re-verification, on the
    instance's integer grid with the unit quartered, so a sliver (a
    quarter of the shortest cell between demand endpoints) is an int.
    The free cake is the sorted list of gaps between the winners, and
    each sliver comes off the first gap that ends after its agent's
    start, found by a bisect.
    """
    if not instance.is_contiguous():
        raise ValueError("greedy scheduling needs single-interval demands")
    n = instance.num_agents
    unit = 4 * instance.unit
    spans = [(4 * lo, 4 * hi) for ((lo, hi),) in instance.spans]
    ticks = _cut_ticks(instance, 4)
    delta = min(b - a for a, b in zip(ticks, ticks[1:])) // 4
    eps = Fraction(1, 2 * n + 2)

    # In finish order, latest starts first on a tie, an interval contains
    # another exactly when an earlier one starts no sooner (or it has a twin).
    copies = Counter(spans)
    minimal, latest = [], -1
    for i in sorted(range(n), key=lambda i: (spans[i][1], -spans[i][0])):
        if copies[spans[i]] == 1 and spans[i][0] > latest:
            minimal.append(i)
        latest = max(latest, spans[i][0])
    # no minimal interval contains another, so finish order is start order
    winners, reach = [], 0
    for i in minimal:
        if spans[i][0] >= reach:
            winners.append(i)
            reach = spans[i][1]

    pieces = [[] for _ in range(n)]
    regions, free, reach = [], [], 0
    for order, w in enumerate(winners, start=1):
        s, f = spans[w]
        pieces[w].append((s, f))
        regions.append((s, s + delta, order * eps))
        regions.append((s + delta, f - delta, Fraction(0)))
        regions.append((f - delta, f, 1 - order * eps))
        if reach < s:
            free.append((reach, s))
        reach = f
    if reach < unit:
        free.append((reach, unit))
    served = frozenset(winners)
    for i in sorted(set(range(n)) - served):
        start, finish = spans[i]
        k = bisect_right(free, start, key=lambda run: run[1])
        if k == len(free) or free[k][0] >= finish:
            continue
        run_lo, run_hi = free[k]
        lo = max(start, run_lo)
        hi = lo + min(delta, run_hi - lo, ticks[bisect_right(ticks, lo)] - lo)
        pieces[i].append((lo, hi))
        regions.append((lo, hi, Fraction(1)))
        free[k : k + 1] = [run for run in ((run_lo, lo), (hi, run_hi)) if run[0] < run[1]]
    for lo, hi in free:
        pieces[0].append((lo, hi))
        regions.append((lo, hi, Fraction(0)))

    regions.sort()
    assert regions[0][0] == 0 and regions[-1][1] == unit
    assert all(a[1] == b[0] for a, b in zip(regions, regions[1:]))
    solution = CaeiSolution(
        tuple(
            canonicalize_piece(tuple((Fraction(lo, unit), Fraction(hi, unit)) for lo, hi in p))
            for p in pieces
        ),
        PriceCurve(
            (Fraction(0),) + tuple(Fraction(hi, unit) for _, hi, _ in regions),
            tuple(price * unit / (hi - lo) for lo, hi, price in regions),
        ),
        served,
        len(winners),
        provenance="greedy_contiguous",
        trace=tuple(
            ScheduledJob(w, *instance.demands[w][0], k) for k, w in enumerate(winners, start=1)
        ),
    )
    report = verify_caei(instance, solution)
    assert report.is_caei, f"slivers failed to price out: {report.violations}"
    return solution


def max_welfare_fixed_agents(instance: CakeInstance) -> CaeiSolution:
    """Exact maximum-satisfaction outcome by served-set enumeration.

    The cells between demand endpoints act as divisible goods, and
    ``max_welfare_caei`` searches the unions of their agent types:
    a served set is supportable iff some cell prices let its members
    afford their cells while pricing everyone else out, at a total of
    at most n.  Candidates run from largest to smallest, ties
    lexicographic, so the first hit is optimal.  Unions that overfill a
    cell or price out a demand inside a served one are never tried.
    Raises ``divisible.SearchGuardError`` when the search outgrows its
    step guard.
    """
    breakpoints = refine_partition(instance).breakpoints
    inner = max_welfare_caei(cell_goods(instance, breakpoints))
    assert inner is not None, "the empty served set is always supportable on cake"
    solution = CaeiSolution(
        carve_cells(breakpoints, inner.allocation),
        cell_curve(breakpoints, inner.prices),
        inner.served,
        inner.welfare,
        provenance="max_welfare_fixed_agents",
    )
    report = verify_caei(instance, solution)
    assert report.is_caei, f"cell LP mapped badly: {report.violations}"
    return solution


def price_curve_for_allocation(instance: CakeInstance, allocation):
    """A supporting price curve for a fixed partition of the cake.

    None when every curve either overcharges an owner or leaves an
    unserved agent able to afford its demand.
    """
    if len(allocation) != instance.num_agents:
        raise ValueError(
            f"allocation covers {len(allocation)} of {instance.num_agents} agents"
        )
    pieces = tuple(canonicalize_piece(tuple(piece)) for piece in allocation)
    endpoints = [point for piece in pieces for pair in piece for point in pair]
    # every piece endpoint is a breakpoint: a piece holds each cell whole or not at all
    points = refine_partition(instance, endpoints).breakpoints
    prices = prices_for_allocation(cell_goods(instance, points), cell_rows(points, pieces))
    if prices is None:
        return None
    return cell_curve(points, prices)


def allocation_for_price_curve(instance: CakeInstance, curve: PriceCurve):
    """A partition of the cake compatible with fixed prices, or None."""
    partition = refine_partition(instance, curve.breakpoints)
    cell_prices = [curve.piece_price((cell,)) for cell in partition.cells]
    shares = allocation_for_prices(cell_goods(instance, partition.breakpoints), cell_prices)
    if shares is None:
        return None
    return carve_cells(partition.breakpoints, shares)
