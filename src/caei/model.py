"""Shared data model: instances, bundles, price systems, solutions.

Three resource models share one story.  Agents are single-minded:
agent i is satisfied (utility 1) exactly when its bundle contains its
demand, and gets utility 0 otherwise.  Everyone has the same unit
budget, so a price system decides who can afford what.

Conventions: agents and items are 0-indexed everywhere; the cake is
the interval [0, 1]; all exact quantities are `fractions.Fraction`
(the numeric EG path hands back floats and is flagged inexact).

Cake arithmetic runs on an integer grid: ``canonical_grid`` converts
raw pieces once, writes every endpoint as an int over one common
denominator and validates and merges the pieces there, and a price
curve's ``CurveGrid`` prices int spans with int rates, so sweeps, sums
and comparisons touch no Fraction.  A ``CakeInstance`` keeps its
demands on that grid (``unit`` and ``spans``) beside the Fraction
pieces it exposes as ``demands``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exactmath import as_fraction

ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# pieces of cake

Interval = tuple[Fraction, Fraction]
Piece = tuple[Interval, ...]


def _merged_spans(intervals) -> list[list]:
    """The union of raw intervals as sorted, disjoint [lo, hi] spans.

    Touching intervals merge and empty or reversed ones are dropped;
    nothing is validated or converted.
    """
    merged: list[list] = []
    for lo, hi in sorted(interval for interval in intervals if interval[0] < interval[1]):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def canonicalize_piece(intervals) -> Piece:
    """Sort, merge and validate a list of intervals into a canonical piece.

    Overlapping or touching intervals are merged, zero-length ones are
    dropped, and the result is a tuple of disjoint intervals in
    increasing order inside [0, 1].
    """
    unit, (spans,) = canonical_grid([intervals])
    return _fraction_pieces([spans], unit)[0]


def piece_length(piece: Piece) -> Fraction:
    return sum((hi - lo for lo, hi in piece), ZERO)


def piece_intersection(a: Piece, b: Piece) -> Piece:
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return canonicalize_piece(out)


def piece_difference(a: Piece, b: Piece) -> Piece:
    """The part of `a` not covered by `b`."""
    out = []
    for lo, hi in a:
        segments = [(lo, hi)]
        for blo, bhi in b:
            next_segments = []
            for slo, shi in segments:
                if bhi <= slo or blo >= shi:
                    next_segments.append((slo, shi))
                    continue
                if slo < blo:
                    next_segments.append((slo, blo))
                if bhi < shi:
                    next_segments.append((bhi, shi))
            segments = next_segments
        out.extend(segments)
    return canonicalize_piece(out)


def piece_contains(outer, inner: Piece) -> bool:
    """Containment up to measure zero (shared endpoints don't matter).

    ``inner`` is canonical; ``outer`` may be any list of intervals.
    Each inner interval must lie inside one merged span of ``outer``;
    both run in increasing order, so one walk finds the spans.
    """
    spans = _merged_spans(outer)
    k = 0
    for lo, hi in inner:
        while k < len(spans) and spans[k][1] < hi:
            k += 1
        if k == len(spans) or spans[k][0] > lo:
            return False
    return True


def grid_pieces(groups, base: int = 1):
    """Every endpoint of ``groups`` (lists of pieces) as an int over one
    common denominator: the lcm of ``base`` and the endpoint
    denominators.  Returns that unit and the groups with int endpoints.
    """
    denominators = {x.denominator for group in groups for piece in group for pair in piece for x in pair}
    unit = lcm(base, *denominators)
    factor = {d: unit // d for d in denominators}
    return unit, [
        [
            tuple(
                (lo.numerator * factor[lo.denominator], hi.numerator * factor[hi.denominator])
                for lo, hi in piece
            )
            for piece in group
        ]
        for group in groups
    ]


def canonical_grid(pieces, base: int = 1):
    """Canonicalize raw pieces on one integer grid.

    Every endpoint is converted once; the unit is the lcm of ``base``
    and their denominators.  Returns that unit and an iterator over the
    pieces in order, each as ``canonicalize_piece`` would make it but
    with int endpoints over the unit: validated, merged and sorted with
    int comparisons only.  The iterator raises where and what
    ``canonicalize_piece`` would, had it been called on each piece in
    turn.
    """
    converted = []
    done = 0
    failure = None
    try:
        for raw in pieces:
            pairs = []
            converted.append(pairs)
            for lo, hi in raw:
                pairs.append((as_fraction(lo), as_fraction(hi)))
            done += 1
    except Exception as err:  # raised in turn, after the pieces before it
        failure = err
    unit, (scaled,) = grid_pieces([converted], base)
    return unit, _canonical_spans(converted, scaled, unit, done, failure)


def _canonical_spans(converted, scaled, unit, done, failure):
    for k, (pairs, ints) in enumerate(zip(converted, scaled)):
        for (lo, hi), (a, b) in zip(pairs, ints):
            if a > b:
                raise ValueError(f"interval [{lo}, {hi}] has negative length")
            if a < 0 or b > unit:
                raise ValueError(f"interval [{lo}, {hi}] leaves the cake [0, 1]")
        if k < done:
            yield tuple((lo, hi) for lo, hi in _merged_spans(ints))
    if failure is not None:
        raise failure


def _fraction_pieces(pieces, unit: int):
    """Int pieces over ``unit`` back as Fraction pieces, each distinct
    endpoint made a Fraction once."""
    value: dict = {}
    out = []
    for spans in pieces:
        piece = []
        for lo, hi in spans:
            if lo not in value:
                value[lo] = Fraction(lo, unit)
            if hi not in value:
                value[hi] = Fraction(hi, unit)
            piece.append((value[lo], value[hi]))
        out.append(tuple(piece))
    return out


def rescale(pieces, factor: int):
    """Int pieces with every endpoint multiplied by ``factor``."""
    if factor == 1:
        return pieces
    return [tuple((lo * factor, hi * factor) for lo, hi in piece) for piece in pieces]


def cells_within(breakpoints, piece: Piece) -> list[int]:
    """Indices k of the cells [breakpoints[k], breakpoints[k+1]] that lie
    inside the canonical piece, in increasing order.

    Each interval of the piece covers a run of cells found by bisecting
    the sorted ``breakpoints``: O(|piece| log cells + cells returned).
    """
    out: list[int] = []
    for lo, hi in piece:
        out.extend(range(bisect_left(breakpoints, lo), bisect_right(breakpoints, hi) - 1))
    return out


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class DivisibleInstance:
    """n agents, m divisible goods, one unit of each on offer.

    ``demands[i][j]`` is the fraction of good j that agent i needs;
    the agent is satisfied only by a bundle carrying at least that
    much of every good.
    """

    demands: tuple[tuple[Fraction, ...], ...]

    def __init__(self, demands):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in demands)
        if not rows:
            raise ValueError("instance needs at least one agent")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"agent {i} demands {len(row)} goods, agent 0 demands {width}")
            if not row or all(v == 0 for v in row):
                raise ValueError(f"agent {i} demands nothing")
            for j, v in enumerate(row):
                if not (0 <= v <= 1):
                    raise ValueError(f"agent {i} demands {v} of good {j}, outside [0, 1]")
        object.__setattr__(self, "demands", rows)

    @property
    def num_agents(self) -> int:
        return len(self.demands)

    @property
    def num_goods(self) -> int:
        return len(self.demands[0])


@dataclass(frozen=True)
class CakeInstance:
    """n agents demanding pieces of the cake [0, 1].

    The demands are canonicalized once, on one integer grid: demand i
    is ``spans[i]``, sorted disjoint int intervals over ``unit``, the
    lcm of the endpoint denominators.  ``demands`` holds the same
    pieces in Fractions.
    """

    demands: tuple[Piece, ...]
    unit: int = field(init=False, repr=False, compare=False)
    spans: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, demands):
        unit, canonical = canonical_grid(demands)
        spans = []
        while True:
            try:
                piece = next(canonical)
            except StopIteration:
                break
            except ValueError as err:
                raise ValueError(f"agent {len(spans)}: {err}") from None
            if not piece:
                raise ValueError(f"agent {len(spans)} demands a null piece")
            spans.append(piece)
        if not spans:
            raise ValueError("instance needs at least one agent")
        # endpoints dropped or merged away may have refined the grid
        coarser = gcd(unit, *(x for piece in spans for pair in piece for x in pair))
        if coarser > 1:
            unit //= coarser
            spans = [tuple((lo // coarser, hi // coarser) for lo, hi in piece) for piece in spans]
        object.__setattr__(self, "demands", tuple(_fraction_pieces(spans, unit)))
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "spans", tuple(spans))

    @property
    def num_agents(self) -> int:
        return len(self.demands)

    def is_contiguous(self) -> bool:
        return all(len(piece) == 1 for piece in self.demands)


@dataclass(frozen=True)
class DiscreteInstance:
    """n agents, m item types with ``quantities[j]`` identical copies each."""

    quantities: tuple[int, ...]
    demands: tuple[frozenset[int], ...]

    def __init__(self, quantities, demands):
        qs = tuple(int(q) for q in quantities)
        if not qs:
            raise ValueError("instance needs at least one item type")
        for j, q in enumerate(qs):
            if q < 1:
                raise ValueError(f"item {j} needs at least one copy, got {q}")
        sets = []
        for i, d in enumerate(demands):
            items = frozenset(map(int, d))
            if not items:
                raise ValueError(f"agent {i} demands no items")
            if min(items) < 0 or max(items) >= len(qs):
                raise ValueError(f"agent {i} demands an unknown item")
            sets.append(items)
        if not sets:
            raise ValueError("instance needs at least one agent")
        undemanded = set(range(len(qs))) - set().union(*sets)
        if undemanded:
            raise ValueError(f"items {sorted(undemanded)} are demanded by no agent")
        object.__setattr__(self, "quantities", qs)
        object.__setattr__(self, "demands", tuple(sets))

    @property
    def num_agents(self) -> int:
        return len(self.demands)

    @property
    def num_items(self) -> int:
        return len(self.quantities)


Instance = DivisibleInstance | CakeInstance | DiscreteInstance

# ---------------------------------------------------------------------------
# price systems


@dataclass(frozen=True)
class PriceCurve:
    """Piecewise-constant price density on the cake.

    ``breakpoints`` runs from 0 to 1; cell k spans
    [breakpoints[k], breakpoints[k+1]] and costs
    ``densities[k]`` per unit of length.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __init__(self, breakpoints, densities):
        bps = tuple(as_fraction(b) for b in breakpoints)
        dens = tuple(as_fraction(d) for d in densities)
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(dens) != len(bps) - 1:
            raise ValueError("need one density per cell")
        for k, d in enumerate(dens):
            if d < 0:
                raise ValueError(f"negative price density {d} in cell {k}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)

    @cached_property
    def grid(self) -> CurveGrid:
        return CurveGrid(self)

    def piece_price(self, piece) -> Fraction:
        """Price of the union of the piece's intervals clipped to [0, 1].

        The merged spans are put on the curve's grid, refined to the lcm
        of its unit and the piece's denominators, and priced there by the
        curve's ``CurveGrid`` in ints: no Fraction arithmetic per cell.
        """
        spans = _merged_spans((max(lo, ZERO), min(hi, 1)) for lo, hi in piece)
        grid = self.grid
        unit, ((scaled,),) = grid_pieces([[spans]], grid.unit)
        return Fraction(grid.price(scaled, unit // grid.unit), grid.rate_unit * unit)


class CurveGrid:
    """A price curve in integers: breakpoint k is ``points[k] / unit`` and
    cell k costs ``rates[k] / rate_unit`` per unit of length.

    ``cumulative[k]`` is the price of [0, breakpoint k] times
    ``rate_unit * unit``, so a run of whole cells costs one difference.
    """

    def __init__(self, curve: PriceCurve):
        unit = lcm(*(b.denominator for b in curve.breakpoints))
        points = [b.numerator * (unit // b.denominator) for b in curve.breakpoints]
        rate_unit = lcm(*(d.denominator for d in curve.densities))
        rates = [d.numerator * (rate_unit // d.denominator) for d in curve.densities]
        cumulative = [0]
        for k, rate in enumerate(rates):
            cumulative.append(cumulative[-1] + rate * (points[k + 1] - points[k]))
        self.unit, self.rate_unit = unit, rate_unit
        self.points, self.rates, self.cumulative = points, rates, cumulative

    def price(self, spans, scale: int) -> int:
        """Price of sorted disjoint spans inside [0, 1] whose endpoints are
        ints over ``unit * scale``, times ``rate_unit * unit * scale``.

        Each span meets a run of cells found by bisecting ``points``: the
        two end cells pro rata, the whole cells between them from
        ``cumulative``.
        """
        points, rates, cumulative = self.points, self.rates, self.cumulative
        total = 0
        for lo, hi in spans:
            first = bisect_right(points, lo // scale) - 1
            last = bisect_left(points, -(-hi // scale)) - 1
            if first == last:
                total += rates[first] * (hi - lo)
                continue
            total += rates[first] * (points[first + 1] * scale - lo)
            total += scale * (cumulative[last] - cumulative[first + 1])
            total += rates[last] * (hi - points[last] * scale)
        return total


# ---------------------------------------------------------------------------
# cake cells as divisible goods
#
# Breakpoints that include every demand endpoint cut the cake into cells
# each agent wants whole or not at all, so cell k is one divisible good.


def cell_goods(instance: CakeInstance, breakpoints) -> DivisibleInstance:
    """The divisible instance whose good k is the cell
    [breakpoints[k], breakpoints[k+1]]: an agent needs all of the cells
    inside its demand and none of the others."""
    width = len(breakpoints) - 1
    rows = []
    for piece in instance.demands:
        inside = set(cells_within(breakpoints, piece))
        rows.append(tuple(Fraction(1) if k in inside else ZERO for k in range(width)))
    return DivisibleInstance(rows)


def carve_cells(breakpoints, shares) -> tuple[Piece, ...]:
    """Agent i's piece holds ``shares[i][k]`` of each cell k, the cell
    cut left to right in agent-index order."""
    pieces = [[] for _ in shares]
    for k, (lo, hi) in enumerate(zip(breakpoints, breakpoints[1:])):
        cursor = lo
        for i, row in enumerate(shares):
            width = row[k] * (hi - lo)
            if width > 0:
                pieces[i].append((cursor, cursor + width))
                cursor += width
        assert cursor <= hi, "cell shares exceed the cell"
    return tuple(canonicalize_piece(tuple(p)) for p in pieces)


def cell_curve(breakpoints, cell_prices) -> PriceCurve:
    """The curve that charges ``cell_prices[k]`` for cell k, spread evenly."""
    densities = tuple(
        price / (hi - lo)
        for price, lo, hi in zip(cell_prices, breakpoints, breakpoints[1:])
    )
    return PriceCurve(breakpoints, densities)


def validate_price_vector(prices, length: int) -> tuple:
    prices = tuple(prices)
    if len(prices) != length:
        raise ValueError(f"expected {length} prices, got {len(prices)}")
    if any(p < 0 for p in prices):
        raise ValueError("negative price")
    return prices


# ---------------------------------------------------------------------------
# bundles, utilities, prices


def single_minded_utility(instance: Instance, agent: int, bundle) -> int:
    """1 if the bundle contains the agent's demand, else 0."""
    if isinstance(instance, DivisibleInstance):
        demand = instance.demands[agent]
        if len(bundle) != instance.num_goods:
            raise ValueError("bundle has the wrong number of goods")
        return int(all(x >= d for x, d in zip(bundle, demand)))
    if isinstance(instance, CakeInstance):
        return int(piece_contains(bundle, instance.demands[agent]))
    if isinstance(instance, DiscreteInstance):
        if len(bundle) != instance.num_items:
            raise ValueError("bundle has the wrong number of item types")
        return int(all(bundle[j] >= 1 for j in instance.demands[agent]))
    raise TypeError(f"unknown instance type {type(instance).__name__}")


def bundle_price(prices, bundle):
    """Price of a bundle under a price vector or price curve.

    For divisible goods the bundle is a quantity vector and prices are
    per unit; for discrete items the bundle is a copy-count vector and
    prices are per copy; for cake the bundle is a piece.
    """
    if isinstance(prices, PriceCurve):
        return prices.piece_price(bundle)
    if len(bundle) != len(prices):
        raise ValueError("bundle and price vector differ in length")
    return sum((p * x for p, x in zip(prices, bundle)), ZERO)


def demand_bundle(instance: Instance, agent: int):
    """The agent's demand in bundle form (for pricing queries)."""
    if isinstance(instance, (DivisibleInstance, CakeInstance)):
        return instance.demands[agent]
    if isinstance(instance, DiscreteInstance):
        return tuple(
            1 if j in instance.demands[agent] else 0 for j in range(instance.num_items)
        )
    raise TypeError(f"unknown instance type {type(instance).__name__}")


# ---------------------------------------------------------------------------
# agent types


def group_types(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Agents grouped by identical demands, in order of first appearance."""
    members: dict = {}
    for i, demand in enumerate(instance.demands):
        members.setdefault(demand, []).append(i)
    return tuple(tuple(group) for group in members.values())


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class CaeiSolution:
    """A priced allocation: who got what, at what prices, who is satisfied.

    ``allocation`` is model-specific: a quantity matrix (divisible), a
    tuple of pieces (cake), or a copy-count matrix (discrete).
    ``exact`` is False only for the numeric EG path, whose output is
    validated to a tolerance rather than exactly.  ``provenance`` names
    the code path that produced the solution; discrete solves attach
    their round-by-round ``trace``.
    """

    allocation: tuple
    prices: tuple | PriceCurve
    served: frozenset[int]
    welfare: int
    exact: bool = True
    provenance: str = ""
    trace: tuple = ()

    def __post_init__(self):
        if self.welfare != len(self.served):
            raise ValueError("welfare must equal the number of served agents")


def compute_served(instance: Instance, allocation) -> frozenset[int]:
    return frozenset(
        i
        for i in range(instance.num_agents)
        if single_minded_utility(instance, i, allocation[i]) == 1
    )
