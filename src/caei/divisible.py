"""Divisible goods: equilibrium computation and welfare maximization.

Two routes to a competitive allocation from equal incomes:

* ``solve_eg`` reduces the market to the Eisenberg-Gale convex program
  for Leontief-style buyers (utility = how many times over a bundle
  covers the demand vector, capped at need) and solves it numerically;
  competitive prices are the multipliers on the goods constraints.
  Fast, but floating point: results carry ``exact=False``.

* ``subset_caei_lp`` fixes who is to be satisfied and asks an exact
  rational LP over the prices alone whether the served agents can
  afford their demands while everyone else is priced out; leftover
  goods are then water-filled into the unspent budgets.  Trying unions
  of agent types from large to small (``max_welfare_caei``) maximizes
  the number of satisfied agents exactly.  Only the unions that fit
  into every good, and that serve each type whose demand a served
  type's demand contains, are listed, one size at a time and behind a
  step guard (``SearchGuardError``).

``prices_for_allocation`` (the eps-price LP) and ``allocation_for_prices``
(a capacity and a budget check, then the same water-fill, no LP) complete
a half-specified outcome: given one side, find the other or report that
none exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    OPTIMAL,
    as_fraction,
    simplex_solve,
    solve_linear_system,
)
from .model import (
    CaeiSolution,
    DivisibleInstance,
    bundle_price,
    compute_served,
    group_types,
    validate_price_vector,
)
from .verify import OracleGuardError, verify_caei

# steps of the served-set search in max_welfare_caei before it gives up
SEARCH_GUARD = 2**16


class SearchGuardError(OracleGuardError):
    """The served-set search of ``max_welfare_caei`` outgrew its guard."""


class EgConvergenceError(RuntimeError):
    """The numeric equilibrium search did not reach the tolerance."""


@dataclass(frozen=True)
class EgProgram:
    """Solved reduced program: utilities and good multipliers."""

    utilities: tuple[float, ...]
    duals: tuple[float, ...]
    iterations: int
    residual: float


def solve_eg(instance: DivisibleInstance, tolerance: float = 1e-9) -> CaeiSolution:
    """Numeric competitive equilibrium via the reduced convex program.

    Maximizes sum(log u_i) subject to the goods constraints
    sum_i u_i * demand[i][j] <= 1; the duals of those constraints are
    the prices.  The search runs projected gradient on the duals
    (whose gradient is exactly the excess demand) with backtracking,
    plus Newton refinement on the binding set through the exact linear
    solver.  Raises EgConvergenceError instead of returning a bad
    answer.
    """
    program = solve_reduced_program(instance, tolerance)
    n, m = instance.num_agents, instance.num_goods
    v = [[float(x) for x in row] for row in instance.demands]
    snap = max(tolerance * 100, 1e-7)
    utilities = [1.0 if abs(u - 1) <= snap else u for u in program.utilities]
    served = frozenset(i for i in range(n) if utilities[i] >= 1)

    # agents sitting exactly at utility 1 get their demand row verbatim
    # (exact rationals), so containment checks cannot lose to rounding
    allocation = [
        list(instance.demands[i])
        if utilities[i] == 1.0
        else [utilities[i] * v[i][j] if v[i][j] else 0.0 for j in range(m)]
        for i in range(n)
    ]
    loose = [i for i in range(n) if utilities[i] != 1.0]
    for j in range(m):
        if loose:
            residual = 1.0 - math.fsum(float(allocation[i][j]) for i in range(n))
            if residual > 0:
                allocation[loose[0]][j] += residual
        else:
            residual = 1 - sum(allocation[i][j] for i in range(n))
            if residual > 0:
                allocation[0][j] += residual
    return CaeiSolution(
        tuple(tuple(row) for row in allocation),
        program.duals,
        served,
        len(served),
        exact=False,
        provenance="solve_eg (numeric)",
    )


def solve_reduced_program(
    instance: DivisibleInstance, tolerance: float = 1e-9, max_iterations: int = 10**6
) -> EgProgram:
    n, m = instance.num_agents, instance.num_goods
    v = [[float(x) for x in row] for row in instance.demands]
    target = tolerance / 10

    def dual_value(lam):
        total = math.fsum(lam)
        for row in v:
            s = math.fsum(lam[j] * row[j] for j in range(m))
            if s <= 0:
                return math.inf
            total -= math.log(s)
        return total

    def excess_demand(lam):
        inverse_costs = []
        for row in v:
            s = math.fsum(lam[j] * row[j] for j in range(m))
            inverse_costs.append(1.0 / s)
        return [
            math.fsum(v[i][j] * inverse_costs[i] for i in range(n)) - 1.0
            for j in range(m)
        ], inverse_costs

    def residual_of(lam, excess):
        res = 0.0
        for j in range(m):
            res = max(res, excess[j], lam[j] * abs(excess[j]))
        return res

    lam = [float(n) / m] * m
    value = dual_value(lam)
    step = 1.0
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        excess, _ = excess_demand(lam)
        res = residual_of(lam, excess)
        if res < target:
            break
        if res < 1e-2:
            polished = _newton_polish(v, lam, target)
            if polished is not None:
                lam = polished
                break
        # projected gradient ascent on prices: raise over-demanded,
        # cut under-demanded, clip at zero, backtrack on the dual value
        moved = False
        while step > 1e-18:
            candidate = [max(0.0, lam[j] + step * excess[j]) for j in range(m)]
            drop = math.fsum((candidate[j] - lam[j]) ** 2 for j in range(m))
            cand_value = dual_value(candidate)
            if cand_value <= value - 1e-4 * drop / max(step, 1e-18):
                lam, value = candidate, cand_value
                step *= 1.5
                moved = True
                break
            step *= 0.5
        if not moved:
            polished = _newton_polish(v, lam, target)
            if polished is not None:
                lam = polished
                break
            raise EgConvergenceError(
                f"stalled at residual {res:.3e} after {iterations} iterations"
            )
    else:
        raise EgConvergenceError(
            f"no convergence within {max_iterations} iterations"
        )

    lam = [x if x > 1e-12 else 0.0 for x in lam]
    excess, inverse_costs = excess_demand(lam)
    res = residual_of(lam, excess)
    if not res < target * 10:
        raise EgConvergenceError(f"final residual {res:.3e} above tolerance")
    return EgProgram(
        tuple(inverse_costs),
        tuple(lam),
        iterations,
        res,
    )


def _newton_polish(v, lam, target, rounds: int = 60):
    """Solve market clearing on the binding goods by Newton steps.

    The clearing system and its Jacobian are evaluated in floats but
    each step's linear system is solved exactly, which keeps the
    refinement deterministic.
    """
    n, m = len(v), len(lam)
    lam = list(lam)
    for _ in range(rounds):
        costs = [math.fsum(lam[j] * v[i][j] for j in range(m)) for i in range(n)]
        if any(c <= 0 for c in costs):
            return None
        excess = [
            math.fsum(v[i][j] / costs[i] for i in range(n)) - 1.0 for j in range(m)
        ]
        support = [j for j in range(m) if lam[j] > 1e-10 or excess[j] > 0]
        res = max(
            [abs(excess[j]) for j in support]
            + [max(excess[j], 0.0) for j in range(m)]
            + [0.0]
        )
        if res < target:
            return lam
        if not support:
            return lam
        jacobian = [
            [
                Fraction(
                    math.fsum(
                        -v[i][a] * v[i][b] / (costs[i] * costs[i]) for i in range(n)
                    )
                )
                for b in support
            ]
            for a in support
        ]
        rhs = [Fraction(-excess[j]) for j in support]
        delta = solve_linear_system(jacobian, rhs)
        if delta is None:
            return None
        scale = 1.0
        for k, j in enumerate(support):
            move = float(delta[k])
            if lam[j] + move < 0 and move < 0:
                scale = min(scale, -lam[j] / move * 0.9 if move else 1.0)
        for k, j in enumerate(support):
            lam[j] = max(0.0, lam[j] + scale * float(delta[k]))
    return None


# ---------------------------------------------------------------------------
# exact LP route


def _eps_prices(num_goods, afford, priced_out, cap=None, tiebreak=None):
    """The eps-price LP behind every exact pricing question.

    Variables p0..p{m-1} and a slack eps <= 1, maximized.  For each
    agent in index order: the bundle ``afford[i]`` must cost at most 1
    (no row when it is empty), then the bundle ``priced_out[i]`` must
    cost at least 1 + eps (no row when it is None).  ``cap`` bounds the
    total price.  Bundles are quantity vectors.
    Returns the prices when the optimal eps is positive, else None.
    With ``tiebreak``, a second solve at the optimal eps maximizes
    those price weights, which pins one vertex among the many the
    slack stage usually has.
    """

    def cost(bundle):
        return {f"p{j}": q for j, q in enumerate(bundle) if q}

    lp = LinearProgram()
    for j in range(num_goods):
        lp.add_variable(f"p{j}")
    lp.add_variable("eps", upper=1)
    lp.set_objective({"eps": 1})
    for held, wanted in zip(afford, priced_out):
        if row := cost(held):
            lp.add_constraint(row, LESS_EQUAL, 1)
        if wanted is not None:
            lp.add_constraint({**cost(wanted), "eps": -1}, GREATER_EQUAL, 1)
    if cap is not None:
        lp.add_constraint({f"p{j}": 1 for j in range(num_goods)}, LESS_EQUAL, cap)
    out = simplex_solve(lp)
    if out.status != OPTIMAL or out.objective_value <= 0:
        return None
    if tiebreak is not None:
        lp.add_constraint({"eps": 1}, EQUAL, out.objective_value)
        lp.set_objective(cost(tiebreak))
        out = simplex_solve(lp)
        assert out.status == OPTIMAL, "the tiebreak restricts a nonempty bounded region"
    return tuple(out.assignment[f"p{j}"] for j in range(num_goods))


def _fill_leftovers(allocation, prices, taken) -> None:
    """Hand out the rest of each good j beyond ``taken[j]``, in place:
    a free good to agent 0, a priced one into the unspent budgets in
    agent order.  It all fits when the prices sum to at most n."""
    spends = [bundle_price(prices, row) for row in allocation]
    for j, price in enumerate(prices):
        left = 1 - taken[j]
        if price == 0:
            allocation[0][j] += left
            continue
        for i, row in enumerate(allocation):
            take = min(left, (1 - spends[i]) / price)
            if take > 0:
                row[j] += take
                spends[i] += take * price
                left -= take


def subset_caei_lp(
    instance: DivisibleInstance,
    served,
    require_full_clearing: bool = True,
) -> CaeiSolution | None:
    """Exact supporting prices and allocation for a fixed served set.

    The served set is supportable exactly when some prices let every
    served agent afford its demand while every other agent's demand
    costs more than 1.  Under full clearing the total price must also
    stay at most n, so that the leftover goods fit into the unspent
    budgets.  A second solve at the optimal slack maximizes the total
    cost of the served demands, which pins the returned prices
    deterministically.  Served agents get their demands; under full
    clearing ``_fill_leftovers`` hands out the rest, otherwise it stays
    unsold.
    """
    n, m = instance.num_agents, instance.num_goods
    served = frozenset(served)
    if any(i < 0 or i >= n for i in served):
        raise ValueError(f"served set {sorted(served)} out of range")
    v = instance.demands
    taken = [sum((v[i][j] for i in served), Fraction(0)) for j in range(m)]
    if any(total > 1 for total in taken):
        return None

    prices = _eps_prices(
        m,
        [v[i] if i in served else () for i in range(n)],
        [None if i in served else v[i] for i in range(n)],
        cap=n if require_full_clearing else None,
        tiebreak=taken,
    )
    if prices is None:
        return None

    allocation = [list(v[i]) if i in served else [Fraction(0)] * m for i in range(n)]
    if require_full_clearing:
        _fill_leftovers(allocation, prices, taken)

    solution = CaeiSolution(
        tuple(tuple(row) for row in allocation),
        prices,
        served,
        len(served),
        provenance="subset_caei_lp",
    )
    report = verify_caei(instance, solution, relaxed=not require_full_clearing)
    assert report.is_caei, f"subset LP produced an invalid outcome: {report.violations}"
    return solution


def max_welfare_caei(
    instance: DivisibleInstance,
    require_full_clearing: bool = True,
) -> CaeiSolution | None:
    """Maximum-satisfaction competitive outcome by a search over agent types.

    Candidate served sets are the unions of types (agents with
    identical demands): a set that serves one agent and prices out its
    twin is never supportable, since the same demand cannot cost at
    most 1 and more than 1 at once.  The same argument drops every
    union that serves a type but not a type whose demand it contains
    componentwise, and capacity drops every union whose demands
    overfill a good; neither kind can pass ``subset_caei_lp``.  The
    rest are listed one size at a time, from most agents to fewest,
    and tried in lexicographic order of the agents within a size, so
    the first supportable one is the answer and smaller sizes are
    never listed.  Raises SearchGuardError once the search has taken
    ``SEARCH_GUARD`` steps.
    """
    for candidates in _served_unions(instance):
        for agents in candidates:
            solution = subset_caei_lp(instance, agents, require_full_clearing)
            if solution is not None:
                return solution
    return None


def _served_unions(instance: DivisibleInstance):
    """The candidates of ``max_welfare_caei``, one sorted list per size.

    Sizes that some union of types has run from n agents down to 0, and
    a size is listed only when the caller asks for it.  Types are taken in order of their total
    demand, so every type comes after the types whose demands it
    contains.  A depth-first search then decides each type in turn: it
    may be served only if all types it contains are, and only if its
    members' demands, as ints over the lcm of the denominators, still
    fit into every good.  A branch ends once even the agents who need
    least of some good cannot fill the size.  Each node counts one step
    against ``SEARCH_GUARD``, over all sizes.
    """
    v = instance.demands
    types = sorted(group_types(instance), key=lambda members: sum(v[members[0]]))
    scale = math.lcm(*(q.denominator for row in v for q in row))
    units = [[int(q * scale) for q in v[members[0]]] for members in types]
    weights = [[len(members) * u for u in row] for members, row in zip(types, units)]
    # bit a of contained[t]: type t's demand contains type a's
    contained = [
        sum(1 << a for a in range(t) if all(x <= y for x, y in zip(units[a], units[t])))
        for t in range(len(types))
    ]
    # per good, the types by the units that each of their agents needs
    by_need = [sorted(zip(column, range(len(types)))) for column in zip(*units)]

    def out_of_reach(t, room, left):
        # fewer than `left` agents are left in types t on, or the `left`
        # of them who need least of some good already overfill it
        for needs, r in zip(by_need, room):
            want = left
            for u, k in needs:
                if k >= t:
                    take = min(want, len(types[k]))
                    want -= take
                    r -= take * u
                    if not want:
                        break
            if want or r < 0:
                return True
        return False

    # bit s is set when some union of types has s agents
    sizes = 1
    for members in types:
        sizes |= sizes << len(members)
    steps = 0
    for size in range(instance.num_agents, -1, -1):
        if not sizes >> size & 1:
            continue
        found = []
        stack = [(0, [scale] * instance.num_goods, size, 0)]
        while stack:
            t, room, left, chosen = stack.pop()
            steps += 1
            if steps > SEARCH_GUARD:
                raise SearchGuardError(
                    f"served-set search passed {SEARCH_GUARD} steps "
                    f"over {len(types)} agent types"
                )
            if left == 0:
                served = (types[k] for k in range(t) if chosen >> k & 1)
                found.append(tuple(sorted(i for members in served for i in members)))
                continue
            if out_of_reach(t, room, left):
                continue
            stack.append((t + 1, room, left, chosen))
            if len(types[t]) > left or contained[t] & ~chosen:
                continue
            fitted = []
            for r, w in zip(room, weights[t]):
                if r < w:
                    break
                fitted.append(r - w)
            else:
                stack.append((t + 1, fitted, left - len(types[t]), chosen | 1 << t))
        yield sorted(found)


# ---------------------------------------------------------------------------
# completion problems


def prices_for_allocation(instance: DivisibleInstance, allocation):
    """Supporting prices for a fixed partition of the goods, or None.

    Prices must let everyone afford what they hold while every agent
    whose bundle misses its demand is strictly priced out of it.
    """
    n, m = instance.num_agents, instance.num_goods
    if len(allocation) != n:
        raise ValueError(f"allocation covers {len(allocation)} of {n} agents")
    rows = tuple(tuple(as_fraction(x) for x in row) for row in allocation)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError(f"agent {i} has {len(row)} of {m} quantities")
        if any(x < 0 for x in row):
            raise ValueError(f"agent {i} holds a negative quantity")
    for j in range(m):
        total = sum(row[j] for row in rows)
        if total != 1:
            raise ValueError(f"good {j} allocates {total}, not 1")

    served = compute_served(instance, rows)
    return _eps_prices(
        m, rows, [None if i in served else instance.demands[i] for i in range(n)]
    )


def allocation_for_prices(instance: DivisibleInstance, prices):
    """A partition compatible with fixed prices, or None.

    Whoever can afford its demand at these prices must be satisfied;
    everyone must afford its own bundle; every good must be handed
    out fully.  With S the agents whose demands cost at most 1, that is
    possible exactly when the demands of S fit into every good and the
    prices sum to at most n, which the n budgets must cover in all.
    Budgets are fungible across goods, so once S hold their demands
    ``_fill_leftovers`` pours the rest into the unspent budgets.  No
    one outside S ends up holding its demand: it costs more than 1.
    """
    n, m = instance.num_agents, instance.num_goods
    prices = validate_price_vector(tuple(as_fraction(p) for p in prices), m)
    v = instance.demands
    served = frozenset(i for i in range(n) if bundle_price(prices, v[i]) <= 1)
    taken = [sum((v[i][j] for i in served), Fraction(0)) for j in range(m)]
    if any(total > 1 for total in taken) or sum(prices) > n:
        return None
    allocation = [list(v[i]) if i in served else [Fraction(0)] * m for i in range(n)]
    _fill_leftovers(allocation, prices, taken)
    return tuple(tuple(row) for row in allocation)
