"""Exact rational linear programming and linear algebra.

Everything in this module works over ``fractions.Fraction`` with
arbitrary-precision integers, so results are exact and reproducible:
the simplex solver uses Bland's lowest-index pivot rule, which both
prevents cycling and makes the returned vertex a deterministic
function of the program as built.

Floats are rejected at the door.  Callers that start from decimal
text should pass strings ("0.4" parses exactly); callers that really
hold binary floats must convert explicitly before building a program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


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
    """A small builder for exact LPs.

    Variables default to lower bound 0; ``free=True`` removes the lower
    bound and ``upper=`` adds a finite upper bound.  Constraints refer
    to declared variables by name only.
    """

    sense: str = "max"
    _variables: dict[str, tuple[bool, Fraction | None]] = field(default_factory=dict)
    _objective: dict[str, Fraction] = field(default_factory=dict)
    _constraints: list[tuple[dict[str, Fraction], str, Fraction]] = field(
        default_factory=list
    )

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LpError(f"sense must be 'max' or 'min', got {self.sense!r}")

    def add_variable(self, name: str, *, free: bool = False, upper=None):
        if name in self._variables:
            raise LpError(f"variable {name!r} declared twice")
        bound = None if upper is None else as_fraction(upper)
        self._variables[name] = (free, bound)

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
    """Solve an exact LP by two-phase simplex with Bland's rule.

    Returns an LpOutcome with status OPTIMAL, INFEASIBLE or UNBOUNDED.
    Deterministic: identical programs yield identical assignments.
    """
    # Structural columns: one per variable, two for free variables
    # (x = xplus - xminus).
    columns: list[tuple[str, int]] = []
    first_col: dict[str, int] = {}
    for name, (free, _upper) in lp._variables.items():
        first_col[name] = len(columns)
        columns.append((name, +1))
        if free:
            columns.append((name, -1))

    def dense(coeffs):
        row = [Fraction(0)] * len(columns)
        for name, c in coeffs.items():
            free, _ = lp._variables[name]
            j = first_col[name]
            row[j] += c
            if free:
                row[j + 1] -= c
        return row

    rows: list[list[Fraction]] = []
    relations: list[str] = []
    rhs: list[Fraction] = []
    for coeffs, rel, b in lp._constraints:
        rows.append(dense(coeffs))
        relations.append(rel)
        rhs.append(b)
    for name, (_free, upper) in lp._variables.items():
        if upper is not None:
            rows.append(dense({name: Fraction(1)}))
            relations.append(LESS_EQUAL)
            rhs.append(upper)

    n_struct = len(columns)
    # Slack / surplus columns turn every row into an equality.
    slack_col_of_row: dict[int, int] = {}
    for i, rel in enumerate(relations):
        if rel == EQUAL:
            continue
        slack_col_of_row[i] = len(columns)
        columns.append((f"_slack{i}", +1))
        coeff = Fraction(1) if rel == LESS_EQUAL else Fraction(-1)
        for r, row in enumerate(rows):
            row.append(coeff if r == i else Fraction(0))

    # Normalize to nonnegative right-hand sides.
    for i, row in enumerate(rows):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            rows[i] = [-a for a in row]

    n_real = len(columns)
    # Initial basis: reuse a slack column where it survived with +1,
    # otherwise add an artificial column (artificials come last).
    basis: list[int] = []
    for i, row in enumerate(rows):
        j = slack_col_of_row.get(i)
        if j is not None and row[j] == 1:
            basis.append(j)
        else:
            k = len(columns)
            columns.append((f"_artificial{i}", +1))
            for r, other in enumerate(rows):
                other.append(Fraction(1) if r == i else Fraction(0))
            basis.append(k)

    tableau = [rows[i] + [rhs[i]] for i in range(len(rows))]

    def pivot(r, c):
        prow = tableau[r]
        inv = 1 / prow[c]
        if inv != 1:
            tableau[r] = prow = [a * inv for a in prow]
        for i, row in enumerate(tableau):
            if i == r:
                continue
            factor = row[c]
            if factor:
                tableau[i] = [a - factor * b for a, b in zip(row, prow)]
        basis[r] = c

    def run_phase(cost):
        """Minimize cost.x over the current tableau; returns status.

        `reduced` is the cost row carried along as one more tableau row:
        its last cell holds minus the current objective value.
        """
        reduced = list(cost) + [Fraction(0)]
        for r, b in enumerate(basis):
            factor = reduced[b]
            if factor:
                prow = tableau[r]
                reduced = [a - factor * t for a, t in zip(reduced, prow)]
        while True:
            enter = -1
            for j in range(len(columns)):
                if reduced[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, -reduced[-1]
            leave = -1
            best = None
            for r, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return UNBOUNDED, None
            pivot(leave, enter)
            factor = reduced[enter]
            if factor:
                prow = tableau[leave]
                reduced = [a - factor * t for a, t in zip(reduced, prow)]

    # Phase 1: drive artificials to zero.
    if len(columns) > n_real:
        cost1 = [Fraction(0)] * n_real + [Fraction(1)] * (len(columns) - n_real)
        status, value = run_phase(cost1)
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
                    del basis[r]
        # No artificial is basic any more: drop their columns.
        tableau = [row[:n_real] + row[-1:] for row in tableau]
        del columns[n_real:]

    # Phase 2: the real objective.
    cost2 = [Fraction(0)] * len(columns)
    sign = Fraction(-1) if lp.sense == "max" else Fraction(1)
    for name, c in lp._objective.items():
        free, _ = lp._variables[name]
        j = first_col[name]
        cost2[j] += sign * c
        if free:
            cost2[j + 1] -= sign * c
    status, _value = run_phase(cost2)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    values = [Fraction(0)] * len(columns)
    for r, b in enumerate(basis):
        values[b] = tableau[r][-1]
    assignment = {}
    for name, (free, _upper) in lp._variables.items():
        j = first_col[name]
        assignment[name] = values[j] - values[j + 1] if free else values[j]
    objective_value = sum(
        (c * assignment[name] for name, c in lp._objective.items()), Fraction(0)
    )
    _check_assignment(lp, assignment)
    return LpOutcome(OPTIMAL, assignment, objective_value)


def _check_assignment(lp, assignment):
    """Defensive exactness check on the returned vertex."""
    for name, (free, upper) in lp._variables.items():
        x = assignment[name]
        if not free and x < 0:
            raise AssertionError(f"simplex produced {name}={x} < 0")
        if upper is not None and x > upper:
            raise AssertionError(f"simplex produced {name}={x} > {upper}")
    for coeffs, rel, b in lp._constraints:
        lhs = sum((c * assignment[n] for n, c in coeffs.items()), Fraction(0))
        ok = lhs <= b if rel == LESS_EQUAL else lhs >= b if rel == GREATER_EQUAL else lhs == b
        if not ok:
            raise AssertionError(f"simplex vertex violates {coeffs} {rel} {b} (lhs={lhs})")


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
