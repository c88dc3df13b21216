"""Exact rational linear programming and linear algebra.

Programs are built and solved over ``fractions.Fraction`` with
arbitrary-precision integers, so results are exact and reproducible.
The simplex tableau itself holds integers only: each row is a list of
int numerators over one positive row denominator, and the cost row is
carried the same way.  A pivot multiplies rows out and divides by their
gcd, the ratio test cross-multiplies numerators, and values leave the
tableau as Fractions.  Before they leave, the vertex is put over one
common denominator and re-checked in integers against every bound and
every source row, so each returned vertex is checked exactly.

The simplex solver uses Bland's lowest-index pivot rule, which both
prevents cycling and makes the returned vertex a deterministic
function of the program as built.  Bland's pivots follow the tableau
order, so that order is part of the result:

- rows: the constraints as added, then one ``x <= upper`` row per
  bounded variable in declaration order;
- columns: the variables in declaration order, one slack per
  inequality row in row order, then one artificial per row whose
  slack does not start the basis with coefficient +1 (phase 1 only).

Floats are rejected at the door.  Callers that start from decimal
text should pass strings ("0.4" parses exactly); callers that really
hold binary floats must convert explicitly before building a program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, EQUAL: EQUAL, GREATER_EQUAL: LESS_EQUAL}


class LpError(ValueError):
    """Malformed linear program (distinct from an infeasible one)."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and numeric strings to an exact Fraction.

    Floats are refused: silently accepting them would launder binary
    rounding error into an "exact" computation.
    """
    if isinstance(value, float):
        raise LpError(f"refusing inexact float {value!r}; pass a string or Fraction")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise LpError(f"cannot interpret {value!r} as an exact rational")


@dataclass
class LpOutcome:
    """Result of an exact LP solve.

    ``assignment`` and ``objective_value`` are populated only when
    ``status == OPTIMAL``; the assignment then satisfies every
    constraint of the source program exactly.
    """

    status: str
    assignment: dict[str, Fraction] | None = None
    objective_value: Fraction | None = None


@dataclass
class LinearProgram:
    """A small builder for exact LPs that maximize their objective.

    Variables have lower bound 0; ``upper=`` adds a finite upper bound.
    Constraints refer to declared variables by name only.
    """

    _variables: dict[str, Fraction | None] = field(default_factory=dict)
    _objective: dict[str, Fraction] = field(default_factory=dict)
    _constraints: list[tuple[dict[str, Fraction], str, Fraction]] = field(
        default_factory=list
    )

    def add_variable(self, name: str, *, upper=None):
        if name in self._variables:
            raise LpError(f"variable {name!r} declared twice")
        self._variables[name] = None if upper is None else as_fraction(upper)

    def set_objective(self, coefficients: dict):
        self._objective = {
            name: as_fraction(c) for name, c in coefficients.items()
        }
        self._check_known(self._objective, "objective")

    def add_constraint(self, coefficients: dict, relation: str, rhs):
        if relation not in _RELATIONS:
            raise LpError(f"unknown relation {relation!r}")
        coeffs = {name: as_fraction(c) for name, c in coefficients.items()}
        self._check_known(coeffs, "constraint")
        self._constraints.append((coeffs, relation, as_fraction(rhs)))

    def _check_known(self, coeffs, where):
        for name in coeffs:
            if name not in self._variables:
                raise LpError(f"{where} references undeclared variable {name!r}")


def simplex_solve(lp: LinearProgram) -> LpOutcome:
    """Maximize an exact LP by two-phase simplex with Bland's rule.

    Returns an LpOutcome with status OPTIMAL, INFEASIBLE or UNBOUNDED.
    Deterministic: identical programs yield identical assignments.
    """
    n = len(lp._variables)
    col = {name: j for j, name in enumerate(lp._variables)}
    source = _integer_rows(lp, col)
    # A "<=" row's slack (+d) starts the basis; every other row starts
    # with an artificial column.
    n_real = n + sum(rel != EQUAL for _, rel, _, _ in source)
    width = n_real + sum(rel != LESS_EQUAL for _, rel, _, _ in source)

    # Row i holds the values tableau[i][j] / denom[i], with denom[i] > 0.
    tableau: list[list[int]] = []
    denom: list[int] = []
    basis: list[int] = []
    slack, artificial = n, n_real
    for coeffs, rel, b, d in source:
        row = [0] * (width + 1)
        for j, a in coeffs:
            row[j] = a
        if rel != EQUAL:
            row[slack] = d if rel == LESS_EQUAL else -d
            slack += 1
        if rel == LESS_EQUAL:
            basis.append(slack - 1)
        else:
            row[artificial] = d
            basis.append(artificial)
            artificial += 1
        row[-1] = b
        tableau.append(row)
        denom.append(d)

    def pivot(r, c):
        prow = tableau[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            tableau[r] = prow = [a // g for a in prow]
        pd = denom[r] = prow[c]
        for i, row in enumerate(tableau):
            if i != r and row[c]:
                tableau[i], denom[i] = _eliminate(row, denom[i], row[c], prow, pd)
        basis[r] = c

    def run_phase(cost, cost_denom):
        """Minimize cost.x over the current tableau.

        `reduced` is the cost row carried along as one more tableau row,
        over its positive denominator `rd`: its last cell holds minus the
        numerator of the current objective value.  Returns the status
        and, when OPTIMAL, that numerator, which is 0 exactly when the
        optimum is.
        """
        reduced, rd = cost + [0], cost_denom
        for r, b in enumerate(basis):
            if reduced[b]:
                reduced, rd = _eliminate(reduced, rd, reduced[b], tableau[r], denom[r])
        while True:
            enter = -1
            for j in range(len(cost)):
                if reduced[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, -reduced[-1]
            # Ratio test on rhs / a: a row's denominator cancels, so two
            # ratios compare by cross-multiplying numerators.
            leave = -1
            for r, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_b, best_a = r, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_b, best_a = r, row[-1], a
            if leave < 0:
                return UNBOUNDED, None
            pivot(leave, enter)
            if reduced[enter]:
                reduced, rd = _eliminate(
                    reduced, rd, reduced[enter], tableau[leave], denom[leave]
                )

    # Phase 1: drive artificials to zero.
    if width > n_real:
        status, value = run_phase([0] * n_real + [1] * (width - n_real), 1)
        if status != OPTIMAL or value != 0:
            return LpOutcome(INFEASIBLE)
        # Pivot surviving artificials out of the basis.
        for r in range(len(tableau) - 1, -1, -1):
            if basis[r] >= n_real:
                target = -1
                for j in range(n_real):
                    if tableau[r][j] != 0:
                        target = j
                        break
                if target >= 0:
                    pivot(r, target)
                else:
                    del tableau[r]
                    del denom[r]
                    del basis[r]
        # No artificial is basic any more: drop their columns.
        tableau = [row[:n_real] + row[-1:] for row in tableau]

    # Phase 2: maximize the objective, i.e. minimize its negation.
    cost_denom = lcm(*(c.denominator for c in lp._objective.values()))
    cost = [0] * n_real
    for name, c in lp._objective.items():
        cost[col[name]] = -c.numerator * cost_denom // c.denominator
    status, _value = run_phase(cost, cost_denom)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    # the vertex over one common denominator: x_j = x[j] / common
    common = lcm(*(denom[r] for r, b in enumerate(basis) if b < n))
    x = [0] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][-1] * (common // denom[r])
    _check_vertex(source, x, common)
    assignment = {name: Fraction(x[j], common) for name, j in col.items()}
    objective_value = Fraction(-sum(c * v for c, v in zip(cost, x)), cost_denom * common)
    return LpOutcome(OPTIMAL, assignment, objective_value)


def _integer_rows(lp, col):
    """The constraints, then one ``x <= upper`` row per bounded variable,
    each as (coefficients, relation, rhs, d) in integers.

    d is the lcm of the row's denominators.  The row is multiplied by d,
    or by -d when its rhs is negative (which flips "<=" and ">="), so
    rhs >= 0; coefficients are (column, numerator) pairs.
    """
    bounds = [
        ({name: Fraction(1)}, LESS_EQUAL, upper)
        for name, upper in lp._variables.items()
        if upper is not None
    ]
    rows = []
    for coeffs, rel, b in lp._constraints + bounds:
        d = lcm(b.denominator, *(c.denominator for c in coeffs.values()))
        sign = d
        if b < 0:
            sign = -d
            rel = _FLIPPED[rel]
        ints = [(col[name], c.numerator * sign // c.denominator) for name, c in coeffs.items()]
        rows.append((ints, rel, b.numerator * sign // b.denominator, d))
    return rows


def _eliminate(row, d, f, prow, pd):
    """Subtract the pivot row prow/pd, scaled by f/d, from the row row/d.

    f is the row's numerator in the pivot column, where the pivot row
    holds pd, so the result is 0 there.  Returns the new numerators and
    positive denominator in lowest terms.
    """
    new = [a * pd - f * p if p else a * pd for a, p in zip(row, prow)]
    d *= pd
    g = gcd(d, *new)
    if g != 1:
        new = [a // g for a in new]
        d //= g
    return new, d


def _check_vertex(rows, x, common):
    """Exact check of the vertex x_j = x[j] / common, common > 0, against
    x >= 0 and every integer row of `_integer_rows`: row r holds when
    sum(a * x[j]) compares to rhs * common as its relation says."""
    for j, v in enumerate(x):
        if v < 0:
            raise AssertionError(f"simplex produced x{j} = {v}/{common} < 0")
    for r, (coeffs, rel, b, _) in enumerate(rows):
        lhs = sum(a * x[j] for j, a in coeffs)
        b *= common
        if not (lhs <= b if rel == LESS_EQUAL else lhs >= b if rel == GREATER_EQUAL else lhs == b):
            raise AssertionError(
                f"simplex vertex violates row {r}: {lhs}/{common} {rel} {b}/{common}"
            )


def solve_linear_system(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve ``matrix . x = rhs`` exactly by Gauss-Jordan elimination.

    Returns None when the system is inconsistent.  Underdetermined but
    consistent systems get their free variables pinned to 0, which keeps
    the result a deterministic function of the input ordering.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ValueError(f"{m} rows but {len(rhs)} right-hand sides")
    n = len(matrix[0]) if m else 0
    for row in matrix:
        if len(row) != n:
            raise ValueError("ragged coefficient matrix")
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]

    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = 1 / aug[r][c]
        if inv != 1:
            aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x
