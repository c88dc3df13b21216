"""Exact LP layer: hand-checked programs, a vertex-enumeration oracle
and a Fraction-tableau reference simplex.

The oracle solves small LPs from first principles: every vertex of the
feasible region is the solution of some square subsystem of tight
constraints, so enumerating all of them and keeping the feasible best
gives the exact optimum independently of the simplex code path.  The
reference simplex makes the same pivots over Fractions, so the integer
tableau must return the very same vertex.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from caei.exactmath import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpOutcome,
    _check_vertex,
    _integer_rows,
    simplex_solve,
    solve_linear_system,
)


def vertex_oracle(lp):
    """(status, objective) for a bounded-feasible-region LP, by brute force."""
    names = list(lp._variables)
    k = len(names)
    rows = []
    for coeffs, rel, b in lp._constraints:
        rows.append(([coeffs.get(nm, F(0)) for nm in names], rel, b))
    for j, nm in enumerate(names):
        upper = lp._variables[nm]
        unit = [F(0)] * k
        unit[j] = F(1)
        rows.append((unit, ">=", F(0)))
        if upper is not None:
            rows.append((unit, "<=", upper))

    def feasible(x):
        for coeffs, rel, b in rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == "<=" and lhs > b:
                return False
            if rel == ">=" and lhs < b:
                return False
            if rel == "==" and lhs != b:
                return False
        return True

    objective = [lp._objective.get(nm, F(0)) for nm in names]
    best = None
    for subset in itertools.combinations(range(len(rows)), k):
        x = solve_linear_system([rows[i][0] for i in subset], [rows[i][2] for i in subset])
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(objective, x))
        if best is None or value > best:
            best = value
    if best is None:
        return INFEASIBLE, None
    return OPTIMAL, best


def reference_simplex(lp):
    """The Fraction-tableau simplex the integer-row one replaced.

    Same rows, columns, Bland's rule and tie-breaks; every cell is a
    Fraction.  Kept as the reference the integer tableau must match
    vertex for vertex.
    """
    n = len(lp._variables)
    col = {name: j for j, name in enumerate(lp._variables)}
    rows = lp._constraints + [
        ({name: F(1)}, "<=", upper) for name, upper in lp._variables.items() if upper is not None
    ]
    slack_basic = [rel != "==" and (rel == "<=") == (b >= 0) for _, rel, b in rows]
    n_real = n + sum(rel != "==" for _, rel, _ in rows)
    width = n_real + slack_basic.count(False)

    zero = F(0)
    tableau = []
    basis = []
    slack, artificial = n, n_real
    for (coeffs, rel, b), basic in zip(rows, slack_basic):
        sign = -1 if b < 0 else 1
        row = [zero] * (width + 1)
        for name, c in coeffs.items():
            row[col[name]] = sign * c
        if rel != "==":
            row[slack] = F(sign if rel == "<=" else -sign)
            slack += 1
        if basic:
            basis.append(slack - 1)
        else:
            row[artificial] = F(1)
            basis.append(artificial)
            artificial += 1
        row[-1] = sign * b
        tableau.append(row)

    def pivot(r, c):
        prow = tableau[r]
        inv = 1 / prow[c]
        if inv != 1:
            tableau[r] = prow = [a * inv for a in prow]
        for i, row in enumerate(tableau):
            if i != r and row[c]:
                factor = row[c]
                tableau[i] = [a - factor * b for a, b in zip(row, prow)]
        basis[r] = c

    def run_phase(cost):
        reduced = list(cost) + [zero]
        for r, b in enumerate(basis):
            factor = reduced[b]
            if factor:
                reduced = [a - factor * t for a, t in zip(reduced, tableau[r])]
        while True:
            enter = next((j for j in range(len(cost)) if reduced[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, -reduced[-1]
            leave = -1
            best = None
            for r, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return UNBOUNDED, None
            pivot(leave, enter)
            factor = reduced[enter]
            if factor:
                reduced = [a - factor * t for a, t in zip(reduced, tableau[leave])]

    if width > n_real:
        status, value = run_phase([zero] * n_real + [F(1)] * (width - n_real))
        if status != OPTIMAL or value != 0:
            return LpOutcome(INFEASIBLE)
        for r in range(len(tableau) - 1, -1, -1):
            if basis[r] >= n_real:
                target = next((j for j in range(n_real) if tableau[r][j] != 0), -1)
                if target >= 0:
                    pivot(r, target)
                else:
                    del tableau[r]
                    del basis[r]
        tableau = [row[:n_real] + row[-1:] for row in tableau]

    cost = [zero] * n_real
    for name, c in lp._objective.items():
        cost[col[name]] = -c
    status, _value = run_phase(cost)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    values = [zero] * n_real
    for r, b in enumerate(basis):
        values[b] = tableau[r][-1]
    assignment = {name: values[j] for name, j in col.items()}
    objective_value = sum((c * assignment[name] for name, c in lp._objective.items()), F(0))
    return LpOutcome(OPTIMAL, assignment, objective_value)


def test_single_variable_box():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": 1}, "<=", 1)
    out = simplex_solve(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == 1
    assert out.assignment["x"] == 1


def test_contradictory_bounds_infeasible():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": 1}, ">=", 2)
    lp.add_constraint({"x": 1}, "<=", 1)
    assert simplex_solve(lp).status == INFEASIBLE


def test_priced_out_slack_program():
    # max eps  s.t.  p/2 >= 1 + eps,  p <= 3: the optimum pushes p to its
    # cap, eps = 1/2.  Cross-checked against the vertex oracle.
    lp = LinearProgram()
    lp.add_variable("p", upper=3)
    lp.add_variable("eps")
    lp.set_objective({"eps": 1})
    lp.add_constraint({"p": F(1, 2), "eps": -1}, ">=", 1)
    out = simplex_solve(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == F(1, 2)
    assert out.assignment == {"p": F(3), "eps": F(1, 2)}
    assert vertex_oracle(lp) == (OPTIMAL, F(1, 2))
    # the bound row p <= 3 lives in the tableau only; the program is
    # re-solved by callers and counted by the benchmark tracer
    assert len(lp._constraints) == 1


def test_unbounded():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": 1}, ">=", 1)
    assert simplex_solve(lp).status == UNBOUNDED


def test_equalities_need_phase_one():
    # minimizing 2x + 3y is maximizing its negation
    lp = LinearProgram()
    for name in ("x", "y"):
        lp.add_variable(name)
    lp.set_objective({"x": -2, "y": -3})
    lp.add_constraint({"x": 1, "y": 1}, "==", 4)
    lp.add_constraint({"x": 1, "y": -1}, "==", 2)
    out = simplex_solve(lp)
    assert out.status == OPTIMAL
    assert out.assignment == {"x": F(3), "y": F(1)}
    assert out.objective_value == -9


def test_row_permutation_same_objective():
    rng = random.Random(7)
    constraints = []
    for _ in range(6):
        coeffs = {nm: rng.randint(-3, 3) for nm in "abc"}
        constraints.append((coeffs, rng.choice(["<=", ">="]), rng.randint(0, 5)))

    def build(order):
        lp = LinearProgram()
        for nm in "abc":
            lp.add_variable(nm, upper=4)
        lp.set_objective({"a": 1, "b": 2, "c": 1})
        for i in order:
            lp.add_constraint(*constraints[i])
        return simplex_solve(lp)

    base = build(range(6))
    for _ in range(5):
        order = list(range(6))
        rng.shuffle(order)
        out = build(order)
        assert out.status == base.status
        assert out.objective_value == base.objective_value


def test_deterministic_assignments():
    def build():
        lp = LinearProgram()
        lp.add_variable("x", upper=2)
        lp.add_variable("y", upper=2)
        lp.set_objective({"x": 1, "y": 1})
        lp.add_constraint({"x": 1, "y": 1}, "<=", 2)
        return simplex_solve(lp)

    first = build()
    for _ in range(3):
        again = build()
        assert again.assignment == first.assignment


def test_random_programs_match_vertex_oracle():
    rng = random.Random(20260822)
    for trial in range(120):
        k = rng.randint(1, 4)
        names = [f"x{j}" for j in range(k)]
        minimize = rng.choice([False, True])
        lp = LinearProgram()
        for nm in names:
            lp.add_variable(nm, upper=rng.randint(1, 5))
        sign = -1 if minimize else 1
        lp.set_objective({nm: sign * rng.randint(-3, 3) for nm in names})
        for _ in range(rng.randint(0, 5)):
            coeffs = {nm: rng.randint(-3, 3) for nm in names}
            rel = rng.choice(["<=", ">=", "=="]) if rng.random() < 0.2 else rng.choice(["<=", ">="])
            lp.add_constraint(coeffs, rel, rng.randint(-2, 6))
        expected = vertex_oracle(lp)
        out = simplex_solve(lp)
        assert out.status == expected[0], f"trial {trial}"
        if out.status == OPTIMAL:
            assert out.objective_value == expected[1], f"trial {trial}"


def _degenerate_program(rng):
    """A random LP with many optimal vertices: tied objective weights,
    zero right-hand sides, repeated rows, bounds and equalities."""
    names = [f"x{j}" for j in range(rng.randint(1, 6))]
    lp = LinearProgram()
    for nm in names:
        lp.add_variable(nm, upper=rng.choice([None, None, 1, 2, F(5, 2)]))
    lp.set_objective({nm: rng.choice([0, 1, 1, 1, 2]) for nm in names})
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
            continue
        coeffs = {nm: rng.choice([0, 1, 1, 2, -1]) for nm in names}
        rel = rng.choice(["<=", "<=", "<=", ">=", "=="])
        rows.append((coeffs, rel, rng.choice([0, 1, 1, 2])))
    for row in rows:
        lp.add_constraint(*row)
    return lp


def test_degenerate_vertices_are_pinned():
    # Pins the exact vertex of each program: a change to the pivot rule,
    # the tableau order or the arithmetic that moves one of them changes
    # the digest.
    rng = random.Random(8)
    lines = []
    for _ in range(300):
        out = simplex_solve(_degenerate_program(rng))
        assignment = None if out.assignment is None else sorted(out.assignment.items())
        lines.append(f"{out.status} {assignment} {out.objective_value}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "39d19998b291e61237d374027ce4e912036e2cac2e31b067060b71f51b279ec1"


def _wide_program(rng):
    """A random LP with wide rational data: numerators up to 10**6 over
    denominators up to 10**9, zero coefficients, negative right-hand
    sides and upper bounds, all three relations."""

    def wide():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))

    names = [f"x{j}" for j in range(rng.randint(1, 6))]
    lp = LinearProgram()
    for nm in names:
        lp.add_variable(nm, upper=rng.choice([None, None, abs(wide()), abs(wide()), wide()]))
    lp.set_objective({nm: rng.choice([abs, abs, F])(wide()) for nm in names})
    for _ in range(rng.randint(0, 8)):
        coeffs = {nm: wide() for nm in names if rng.random() < 0.8}
        rel = rng.choice(["<=", "<=", ">=", "=="])
        rhs = wide()
        if rng.random() < 0.8:  # mostly keep x = 0 feasible
            rhs = {"<=": abs(rhs), ">=": -abs(rhs), "==": F(0)}[rel]
        lp.add_constraint(coeffs, rel, rhs)
    return lp


def test_wide_programs_match_fraction_reference():
    rng = random.Random(9)
    for trial in range(1000):
        lp = _wide_program(rng)
        out, ref = simplex_solve(lp), reference_simplex(lp)
        assert out.status == ref.status, f"trial {trial}"
        assert repr(out.assignment) == repr(ref.assignment), f"trial {trial}"
        assert out.objective_value == ref.objective_value, f"trial {trial}"
        if out.status == OPTIMAL:
            assert all(type(v) is F for v in out.assignment.values()), f"trial {trial}"
            assert type(out.objective_value) is F, f"trial {trial}"


@pytest.mark.parametrize(
    "relation, rhs, upper, vertex, index, step",
    [
        ("<=", F(2, 3), None, (4, 0), 0, 1),  # x/2 + y <= 2/3, x up by 1/3
        (">=", F(2, 3), None, (0, 2), 1, -1),  # y down by 1/3
        ("==", F(2, 3), None, (0, 2), 1, 1),  # y up by 1/3
        ("==", F(2, 3), None, (0, 2), 1, -1),  # y down by 1/3
        (">=", F(-2, 3), None, (4, 0), 0, 1),  # -x/2 - y >= -2/3, flipped to "<="
        ("<=", 5, F(2, 3), (2, 0), 0, 1),  # the bound x <= 2/3
        ("<=", F(2, 3), None, (0, 0), 1, -1),  # y = -1/3
    ],
)
def test_vertex_check_catches_a_vertex_off_by_one_over_common(
    relation, rhs, upper, vertex, index, step
):
    lp = LinearProgram()
    lp.add_variable("x", upper=upper)
    lp.add_variable("y")
    sign = -1 if rhs < 0 else 1
    lp.add_constraint({"x": sign * F(1, 2), "y": sign}, relation, rhs)
    rows = _integer_rows(lp, {"x": 0, "y": 1})
    assert all(b >= 0 for _, _, b, _ in rows)
    _check_vertex(rows, list(vertex), 3)
    off = list(vertex)
    off[index] += step
    with pytest.raises(AssertionError):
        _check_vertex(rows, off, 3)


def test_undeclared_variable_is_an_input_error():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_constraint({"y": 1}, "<=", 1)
    with pytest.raises(LpError):
        lp.set_objective({"z": 1})


def test_floats_rejected():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_constraint({"x": 0.5}, "<=", 1)
    # decimal strings are exact and fine
    lp.add_constraint({"x": "0.5"}, "<=", 1)
    assert lp._constraints[0][0]["x"] == F(1, 2)


def test_builder_validation():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_constraint({"x": 1}, "<", 1)


def test_linear_system_unique():
    x = solve_linear_system([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert x == [F(2), F(1)]


def test_linear_system_inconsistent():
    assert solve_linear_system([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_linear_system_underdetermined_pins_free_variables():
    x = solve_linear_system([[F(1), F(1)]], [F(1)])
    assert x == [F(1), F(0)]


def test_linear_system_overdetermined_consistent():
    x = solve_linear_system([[F(1)], [F(2)]], [F(3), F(6)])
    assert x == [F(3)]


def test_linear_system_shape_errors():
    with pytest.raises(ValueError):
        solve_linear_system([[F(1)]], [F(1), F(2)])
    with pytest.raises(ValueError):
        solve_linear_system([[F(1), F(2)], [F(1)]], [F(1), F(2)])
