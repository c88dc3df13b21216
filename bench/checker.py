"""Independent checks of the files the caei command line writes.

Nothing here imports caei.  Every function reads decoded JSON (an
instance file and a solution file) and re-derives the competitive
conditions with ``fractions.Fraction``:

* the allocation partitions the resources: divisible goods clear
  exactly, discrete copies are whole numbers that clear exactly, and
  cake pieces are disjoint and cover [0, 1];
* no agent spends more than its unit budget;
* every agent listed as served holds its whole demand, and the served
  list is exactly the set of agents who hold their demand;
* every unserved agent's demand costs strictly more than 1.

The welfare references at the bottom rest on properties any correct
solver must have, not on a stored copy of some solver's output.

Each check returns a list of problems; an empty list means the file
passed.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _num(token) -> Fraction:
    # the CLI writes exact values as integers or fraction strings
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ValueError(f"not an exact number: {token!r}")
    return Fraction(token)


def check_solution(instance: dict, solution: dict) -> list[str]:
    """All competitive conditions for one solution file."""
    model = instance["model"]
    if solution.get("model") != model:
        return [f"solution model {solution.get('model')!r} != {model!r}"]
    if solution.get("exact") is not True:
        return ["solution is not flagged exact"]
    try:
        checker = {
            "divisible": _check_divisible,
            "discrete": _check_discrete,
            "cake": _check_cake,
        }[model]
        problems, covers = checker(instance, solution)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        return [f"malformed solution: {err!r}"]
    served = solution["served"]
    if sorted(set(served)) != sorted(served):
        problems.append("served list repeats an agent")
    if set(served) != {i for i, ok in enumerate(covers) if ok}:
        problems.append("served list differs from the agents holding their demand")
    if solution["welfare"] != len(served):
        problems.append("welfare differs from the number of served agents")
    return problems


def _budget_and_pricing(problems, spends, demand_costs, served):
    for i, spend in enumerate(spends):
        if spend > 1:
            problems.append(f"agent {i} spends {spend} > 1")
    for i, cost in enumerate(demand_costs):
        if i not in served and not cost > 1:
            problems.append(f"unserved agent {i} can afford its demand at {cost}")


def _check_divisible(instance, solution):
    demands = [[_num(v) for v in row] for row in instance["demands"]]
    n, m = len(demands), len(demands[0])
    prices = [_num(p) for p in solution["prices"]]
    alloc = [[_num(v) for v in row] for row in solution["allocation"]]
    problems = []
    if len(prices) != m or len(alloc) != n or any(len(r) != m for r in alloc):
        return ["allocation or prices have the wrong shape"], [False] * n
    if any(p < 0 for p in prices):
        problems.append("negative price")
    if any(x < 0 for row in alloc for x in row):
        problems.append("negative quantity")
    for j in range(m):
        total = sum((row[j] for row in alloc), ZERO)
        if total != 1:
            problems.append(f"good {j} allocates {total}, not 1")
    covers = [all(x >= d for x, d in zip(alloc[i], demands[i])) for i in range(n)]
    spends = [sum((p * x for p, x in zip(prices, row)), ZERO) for row in alloc]
    costs = [sum((p * d for p, d in zip(prices, row)), ZERO) for row in demands]
    _budget_and_pricing(problems, spends, costs, set(solution["served"]))
    return problems, covers


def _check_discrete(instance, solution):
    quantities = instance["quantities"]
    demands = [set(d) for d in instance["demands"]]
    n, m = len(demands), len(quantities)
    prices = [_num(p) for p in solution["prices"]]
    alloc = solution["allocation"]
    problems = []
    if len(prices) != m or len(alloc) != n or any(len(r) != m for r in alloc):
        return ["allocation or prices have the wrong shape"], [False] * n
    if any(p < 0 for p in prices):
        problems.append("negative price")
    for row in alloc:
        for c in row:
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                problems.append(f"copy count {c!r} is not a whole number")
    if problems:
        return problems, [False] * n
    for j, q in enumerate(quantities):
        total = sum(row[j] for row in alloc)
        if total != q:
            problems.append(f"item {j} hands out {total} of {q} copies")
    covers = [all(alloc[i][j] >= 1 for j in demands[i]) for i in range(n)]
    spends = [sum((p * c for p, c in zip(prices, row)), ZERO) for row in alloc]
    costs = [sum((prices[j] for j in d), ZERO) for d in demands]
    _budget_and_pricing(problems, spends, costs, set(solution["served"]))
    return problems, covers


class _Curve:
    """Piecewise-constant density with exact prefix integrals."""

    def __init__(self, raw):
        self.points = [_num(b) for b in raw["breakpoints"]]
        self.densities = [_num(d) for d in raw["densities"]]
        pts = self.points
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
            raise ValueError("price breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("price breakpoints must increase strictly")
        if len(self.densities) != len(pts) - 1 or any(d < 0 for d in self.densities):
            raise ValueError("need one nonnegative density per cell")
        self.prefix = [ZERO]
        for k, d in enumerate(self.densities):
            self.prefix.append(self.prefix[-1] + d * (pts[k + 1] - pts[k]))

    def cumulative(self, x: Fraction) -> Fraction:
        k = min(bisect.bisect_right(self.points, x) - 1, len(self.densities) - 1)
        return self.prefix[k] + self.densities[k] * (x - self.points[k])

    def price(self, intervals) -> Fraction:
        return sum((self.cumulative(hi) - self.cumulative(lo) for lo, hi in intervals), ZERO)


def _merged(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _holds(held, demand) -> bool:
    # up to measure zero: each demanded interval sits inside one maximal
    # run of held cake
    runs = _merged(held)
    starts = [lo for lo, _ in runs]
    for lo, hi in demand:
        k = bisect.bisect_right(starts, lo) - 1
        if k < 0 or runs[k][1] < hi:
            return False
    return True


def _check_cake(instance, solution):
    demands = [[(_num(lo), _num(hi)) for lo, hi in piece] for piece in instance["demands"]]
    n = len(demands)
    curve = _Curve(solution["prices"])
    pieces = [[(_num(lo), _num(hi)) for lo, hi in piece] for piece in solution["allocation"]]
    if len(pieces) != n:
        return ["allocation has the wrong number of agents"], [False] * n
    problems = []
    cuts = []
    for i, piece in enumerate(pieces):
        for lo, hi in piece:
            if not 0 <= lo < hi <= 1:
                problems.append(f"agent {i} holds a bad interval [{lo}, {hi}]")
            cuts.append((lo, hi, i))
    cuts.sort()
    # disjoint and covering: sorted by start, each interval begins
    # exactly where the previous one ends, from 0 to 1
    reach = ZERO
    for lo, hi, i in cuts:
        if lo < reach:
            problems.append(f"agent {i}'s interval [{lo}, {hi}] overlaps another piece")
        elif lo > reach:
            problems.append(f"cake [{reach}, {lo}] is allocated to nobody")
        reach = max(reach, hi)
    if reach != 1:
        problems.append(f"cake [{reach}, 1] is allocated to nobody")
    covers = [_holds(pieces[i], demands[i]) for i in range(n)]
    spends = [curve.price(piece) for piece in pieces]
    costs = [curve.price(demand) for demand in demands]
    _budget_and_pricing(problems, spends, costs, set(solution["served"]))
    return problems, covers


# ---------------------------------------------------------------------------
# welfare references


def discrete_caei_exists(instance: dict) -> bool:
    """No item type has more single-item demanders than copies."""
    for j, q in enumerate(instance["quantities"]):
        if sum(1 for d in instance["demands"] if list(d) == [j]) > q:
            return False
    return True


def _type_groups(demands):
    groups: dict = {}
    for i, d in enumerate(demands):
        groups.setdefault(repr(d), []).append(i)
    return list(groups.values())


def divisible_welfare_problems(instance: dict, solution: dict) -> list[str]:
    """Identical agents are served all or none, and welfare is at most
    the largest type-closed set whose demands fit in one unit of every
    good."""
    demands = [[_num(v) for v in row] for row in instance["demands"]]
    m = len(demands[0])
    served = set(solution["served"])
    groups = _type_groups(instance["demands"])
    problems = []
    for members in groups:
        if 0 < len(served & set(members)) < len(members):
            problems.append(f"identical agents {members} split between served and not")
    best = 0
    for r in range(len(groups), 0, -1):
        for chosen in itertools.combinations(groups, r):
            agents = [i for g in chosen for i in g]
            if len(agents) > best and all(
                sum((demands[i][j] for i in agents), ZERO) <= 1 for j in range(m)
            ):
                best = len(agents)
    if solution["welfare"] > best:
        problems.append(f"welfare {solution['welfare']} beats the capacity bound {best}")
    return problems


def contiguous_cake_welfare(instance: dict) -> int:
    """Interval-scheduling optimum over the servable intervals.

    An interval demanded by two or more agents cannot be served (the
    agents are interchangeable and their demands overlap), so it must
    cost more than 1, and so must every interval containing it.  The
    rest are scheduled earliest finish first.
    """
    spans = [(_num(p[0][0]), _num(p[0][1])) for p in instance["demands"]]
    count: dict = {}
    for span in spans:
        count[span] = count.get(span, 0) + 1
    shared = [s for s, c in count.items() if c > 1]
    servable = [
        (hi, lo)
        for (lo, hi), c in count.items()
        if c == 1 and not any(lo <= a and b <= hi for a, b in shared)
    ]
    welfare, reach = 0, ZERO
    for hi, lo in sorted(servable):
        if lo >= reach:
            welfare, reach = welfare + 1, hi
    return welfare
