"""Command-line front end around the solvers.

Instances and solutions travel as JSON.  Exact values are written as
fraction strings ("5/3") or integers; the numeric EG path writes decimal
strings and tags the file ``"exact": false``.  Floating-point literals
are rejected on input so exact artifacts stay exact.

Exit codes: 0 success or verified, 1 usage or malformed input,
2 infeasible (NoCaei), 3 verification failure, 4 size guard: a
brute-force oracle (stderr ``oracle guard:``) or the served-set search
(stderr ``search guard:``), 5 the numeric equilibrium of
``solve --method eg`` missed its tolerance (stderr ``eg:``).

``python -m caei`` runs the same command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from caei import cake, discrete, divisible
from caei.model import (
    CaeiSolution,
    CakeInstance,
    DiscreteInstance,
    DivisibleInstance,
    PriceCurve,
)
from caei.verify import (
    OracleGuardError,
    oracle_caei_search,
    oracle_max_satisfiable,
    verify_with_envy,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_VERIFIED = 3
EXIT_ORACLE_GUARD = 4
EXIT_EG_CONVERGENCE = 5

MODELS = ("divisible", "cake", "discrete")

# endpoints and demand fractions drawn from this grid by `gen`
GEN_GRID = 24

# largest |exponent| of a number literal such as "1e-40": Fraction would
# build 10**exponent, so "1e-10000000" alone takes seconds.  4300 is
# Python's default limit on the digits of an int parsed from a string.
MAX_EXPONENT = 4300


class CliError(Exception):
    """Bad usage or malformed input; maps to exit code 1."""


# ---------------------------------------------------------------------------
# number and file codecs


def parse_number(token, where: str) -> Fraction:
    if isinstance(token, bool):
        raise CliError(f"{where}: expected a number, got {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        raise CliError(
            f"{where}: floating-point literal {token!r}; write fractions as strings"
        )
    if isinstance(token, str):
        # ASCII "n", "-n", "p/q" and "-p/q" go straight to int; anything
        # else (signs, blanks, underscores, other digits, decimals and
        # exponents) takes Fraction's own parser
        numerator, slash, denominator = token.partition("/")
        digits = numerator[1:] if numerator[:1] == "-" else numerator
        if (
            digits.isdigit()
            and digits.isascii()
            and (not slash or denominator.isdigit() and denominator.isascii())
        ):
            try:
                if slash:
                    return Fraction(int(numerator), int(denominator))
                return Fraction(int(numerator))
            except (ValueError, ZeroDivisionError):
                raise CliError(f"{where}: cannot parse number {token!r}") from None
        exponent = token.lower().partition("e")[2]
        try:
            if exponent and abs(int(exponent)) > MAX_EXPONENT:
                raise CliError(
                    f"{where}: exponent of {token!r} is outside -{MAX_EXPONENT}..{MAX_EXPONENT}"
                )
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"{where}: cannot parse number {token!r}") from None
    raise CliError(f"{where}: expected a number, got {type(token).__name__}")


def parse_count(token, where: str) -> int:
    value = parse_number(token, where)
    if value.denominator != 1:
        raise CliError(f"{where}: expected a whole number, got {token!r}")
    return value.numerator


def format_number(value, exact: bool, where: str) -> str:
    try:
        # exact values are ints and Fractions: "n" or "p/q"
        if exact:
            return str(value)
        return repr(float(value))
    except ValueError:
        # str() of an int past Python's digit limit (4300 by default)
        # raises; an exponent literal such as "1e-4300" parses to one
        raise CliError(
            f"{where}: the result has a number of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to write"
        ) from None


def _parse_list(value, where: str) -> list:
    """A JSON array; a string is not taken as the list of its characters."""
    if not isinstance(value, (list, tuple)):
        raise CliError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _parse_numbers(values, where: str, parse=parse_number) -> list:
    """A JSON array of numbers, the k-th located as ``where[k]``."""
    return [parse(v, f"{where}[{k}]") for k, v in enumerate(_parse_list(values, where))]


def _parse_pieces(values, where: str) -> list:
    """A JSON array of cake pieces, each a list of [lo, hi] pairs.

    Cakes repeat a few endpoints many times, so each distinct string is
    parsed once.  Only strings that parsed are remembered: a bool, equal
    to 0 or 1 as a key, still reaches ``parse_number`` and is refused,
    and a bad token fails again wherever it appears.
    """
    parsed = {}

    def number(token, at):
        if type(token) is not str:
            return parse_number(token, at)
        value = parsed.get(token)
        if value is None:
            value = parsed[token] = parse_number(token, at)
        return value

    pieces = []
    for i, piece in enumerate(_parse_list(values, where)):
        intervals = []
        for k, pair in enumerate(_parse_list(piece, f"{where}[{i}]")):
            at = f"{where}[{i}][{k}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise CliError(f"{at}: expected an [lo, hi] pair")
            intervals.append((number(pair[0], at), number(pair[1], at)))
        pieces.append(intervals)
    return pieces


def _parse_rows(values, where: str, parse=parse_number) -> list:
    """A JSON array of number arrays, the row i located as ``where[i]``."""
    return [
        _parse_numbers(row, f"{where}[{i}]", parse)
        for i, row in enumerate(_parse_list(values, where))
    ]


def load_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise CliError(f"{path}: {err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise CliError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None
    except ValueError as err:
        # bad UTF-8, or an integer literal past Python's int-digit limit
        raise CliError(f"{path}: {err}") from None


def instance_from_json(data):
    """Build a model instance from decoded JSON; returns (model, instance)."""
    if not isinstance(data, dict):
        raise CliError("instance file must hold a JSON object")
    model = data.get("model")
    if model not in MODELS:
        raise CliError(f"model: expected one of {', '.join(MODELS)}, got {model!r}")
    try:
        if model == "divisible":
            return model, DivisibleInstance(_parse_rows(data["demands"], "demands"))
        if model == "cake":
            return model, CakeInstance(_parse_pieces(data["demands"], "demands"))
        quantities = _parse_numbers(data["quantities"], "quantities", parse_count)
        demands = _parse_rows(data["demands"], "demands", parse_count)
        return model, DiscreteInstance(quantities, demands)
    except KeyError as err:
        raise CliError(f"missing field {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise CliError(str(err)) from None


def instance_to_json(model: str, instance) -> dict:
    if model == "divisible":
        return {
            "model": model,
            "demands": [[str(v) for v in row] for row in instance.demands],
        }
    if model == "cake":
        return {
            "model": model,
            "demands": [
                [[str(lo), str(hi)] for lo, hi in piece] for piece in instance.demands
            ],
        }
    return {
        "model": model,
        "quantities": list(instance.quantities),
        "demands": [sorted(d) for d in instance.demands],
    }


def solution_to_json(model: str, solution: CaeiSolution) -> dict:
    num = lambda v, where: format_number(v, solution.exact, where)
    if model == "cake":
        curve = solution.prices
        prices = {
            "breakpoints": [
                num(b, f"prices.breakpoints[{k}]") for k, b in enumerate(curve.breakpoints)
            ],
            "densities": [
                num(d, f"prices.densities[{k}]") for k, d in enumerate(curve.densities)
            ],
        }
        allocation = [
            [
                [num(lo, f"allocation[{i}][{k}]"), num(hi, f"allocation[{i}][{k}]")]
                for k, (lo, hi) in enumerate(piece)
            ]
            for i, piece in enumerate(solution.allocation)
        ]
    else:
        prices = [num(p, f"prices[{j}]") for j, p in enumerate(solution.prices)]
        if model == "discrete":
            allocation = [[int(c) for c in row] for row in solution.allocation]
        else:
            allocation = [
                [num(v, f"allocation[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(solution.allocation)
            ]
    return {
        "model": model,
        "prices": prices,
        "allocation": allocation,
        "served": sorted(solution.served),
        "welfare": solution.welfare,
        "exact": solution.exact,
        "provenance": solution.provenance,
    }


def solution_from_json(data, model: str) -> CaeiSolution:
    if not isinstance(data, dict):
        raise CliError("solution file must hold a JSON object")
    if data.get("model") != model:
        raise CliError(
            f"solution is for model {data.get('model')!r}, instance is {model!r}"
        )
    exact = data.get("exact", True)
    if not isinstance(exact, bool):
        raise CliError(f"exact: expected true or false, got {exact!r}")
    try:
        if model == "cake":
            raw = data["prices"]
            if not isinstance(raw, dict):
                raise CliError("prices: expected an object with breakpoints and densities")
            breakpoints = _parse_numbers(raw["breakpoints"], "prices.breakpoints")
            densities = _parse_numbers(raw["densities"], "prices.densities")
            try:
                prices = PriceCurve(breakpoints, densities)
            except ValueError as err:
                raise CliError(f"prices: {err}") from None
            rows = _parse_pieces(data["allocation"], "allocation")
        else:
            prices = tuple(_parse_numbers(data["prices"], "prices"))
            parse = parse_count if model == "discrete" else parse_number
            rows = _parse_rows(data["allocation"], "allocation", parse)
        return CaeiSolution(
            allocation=tuple(tuple(row) for row in rows),
            prices=prices,
            served=frozenset(_parse_numbers(data["served"], "served", parse_count)),
            welfare=parse_count(data["welfare"], "welfare"),
            exact=exact,
            provenance=str(data.get("provenance", "")),
        )
    except KeyError as err:
        raise CliError(f"missing field {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise CliError(str(err)) from None


def write_payload(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _write_solution(model: str, solution: CaeiSolution | None, out: str | None) -> int:
    """Write a solver's solution, or report NoCaei when it found none."""
    if solution is None:
        print("NoCaei: no competitive allocation exists", file=sys.stderr)
        return EXIT_INFEASIBLE
    write_payload(solution_to_json(model, solution), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    model, instance = instance_from_json(load_json_file(args.file))
    if args.method == "eg" and model != "divisible":
        raise CliError("--method eg applies to divisible instances only")
    if model == "divisible":
        if args.method == "eg":
            solution = divisible.solve_eg(instance)
        else:
            solution = divisible.max_welfare_caei(instance)
    elif model == "cake":
        solution = cake.solve_existence(instance)
    else:
        solution = discrete.solve_caei(instance)
    return _write_solution(model, solution, args.out)


def cmd_maxwelfare(args) -> int:
    model, instance = instance_from_json(load_json_file(args.file))
    if args.relaxed and model != "discrete":
        raise CliError("--relaxed applies to discrete instances only")
    if model == "divisible":
        solution = divisible.max_welfare_caei(instance)
    elif model == "cake":
        solution = cake.max_welfare_fixed_agents(instance)
    else:
        if not args.relaxed:
            raise CliError(
                "discrete welfare maximization is supported via --relaxed only"
            )
        solution = discrete.max_welfare_relaxed(instance)
    return _write_solution(model, solution, args.out)


def cmd_verify(args) -> int:
    model, instance = instance_from_json(load_json_file(args.instance))
    solution = solution_from_json(load_json_file(args.solution), model)
    tolerance = parse_number(args.tol, "--tol")
    if tolerance < 0:
        raise CliError("--tol: tolerance must be nonnegative")
    try:
        report, envy_free = verify_with_envy(
            instance, solution, tolerance=tolerance, relaxed=args.relaxed
        )
    except (TypeError, ValueError, IndexError) as err:
        raise CliError(f"solution does not fit the instance: {err}") from None
    payload = {
        "is_caei": report.is_caei,
        "is_ceei": report.is_ceei,
        "partition_ok": report.partition_ok,
        "budgets_ok": report.budgets_ok,
        "optimal_bundles_ok": report.optimal_bundles_ok,
        "envy_free": envy_free,
        "violations": [
            {
                "subject": v.subject,
                "condition": v.condition,
                "magnitude": None
                if v.magnitude is None
                else format_number(v.magnitude, True, f"violations[{k}].magnitude"),
            }
            for k, v in enumerate(report.violations)
        ],
    }
    write_payload(payload, args.out)
    return EXIT_OK if report.is_caei else EXIT_NOT_VERIFIED


def cmd_oracle(args) -> int:
    model, instance = instance_from_json(load_json_file(args.file))
    if args.kind == "satisfiable":
        welfare, served = oracle_max_satisfiable(instance)
        write_payload({"welfare": welfare, "served": list(served)}, args.out)
        return EXIT_OK
    solution = oracle_caei_search(instance)
    return _write_solution(model, solution, args.out)


def cmd_gen(args) -> int:
    if args.types is not None and not 1 <= args.types <= args.agents:
        raise CliError("--types must be between 1 and the number of agents")
    if args.contiguous and args.model != "cake":
        raise CliError("--contiguous applies to cake instances only")
    rng = random.Random(args.seed)
    if args.model == "divisible":
        instance = _gen_divisible(rng, args.agents, args.goods, args.types)
    elif args.model == "cake":
        instance = _gen_cake(rng, args.agents, args.goods, args.types, args.contiguous)
    else:
        instance = _gen_discrete(rng, args.agents, args.goods, args.types)
    write_payload(instance_to_json(args.model, instance), args.out)
    return EXIT_OK


def _draw_pool(rng, count: int, draw, attempts: int = 10000):
    """Draw ``count`` pairwise-distinct values from ``draw(rng)``."""
    pool = []
    for _ in range(attempts):
        value = draw(rng)
        if value not in pool:
            pool.append(value)
            if len(pool) == count:
                return pool
    raise CliError(f"could not draw {count} distinct demands")


def _spread_types(rng, pool, n: int):
    # first len(pool) agents pin one type each, the rest draw from the pool
    return [pool[i] if i < len(pool) else rng.choice(pool) for i in range(n)]


def _gen_divisible(rng, n: int, k: int, types) -> DivisibleInstance:
    spread = rng.choice((1, 2, 4))

    def draw(rng):
        while True:
            row = tuple(
                Fraction(rng.randint(0, GEN_GRID), GEN_GRID * spread) for _ in range(k)
            )
            if any(row):
                return row

    if types is None:
        return DivisibleInstance([draw(rng) for _ in range(n)])
    return DivisibleInstance(_spread_types(rng, _draw_pool(rng, types, draw), n))


def _gen_cake(rng, n: int, k: int, types, contiguous: bool) -> CakeInstance:
    # at most GRID/2 intervals fit on the endpoint grid
    top = 1 if contiguous else min(k, GEN_GRID // 2)

    def draw(rng):
        pieces = rng.randint(1, top)
        cuts = sorted(rng.sample(range(GEN_GRID + 1), 2 * pieces))
        return tuple(
            (Fraction(cuts[2 * t], GEN_GRID), Fraction(cuts[2 * t + 1], GEN_GRID))
            for t in range(pieces)
        )

    if types is None:
        return CakeInstance([draw(rng) for _ in range(n)])
    return CakeInstance(_spread_types(rng, _draw_pool(rng, types, draw), n))


def _gen_discrete(rng, n: int, k: int, types) -> DiscreteInstance:
    if types is not None and types > 2**k - 1:
        raise CliError(f"only {2**k - 1} distinct demand sets exist over {k} items")

    def draw(rng):
        mask = rng.randrange(1, 2**k)
        return frozenset(j for j in range(k) if mask >> j & 1)

    for _ in range(10000):
        quantities = [rng.randint(1, 3) for _ in range(k)]
        if types is None:
            demands = [draw(rng) for _ in range(n)]
            # route any unclaimed item to a random agent
            for j in range(k):
                if not any(j in d for d in demands):
                    i = rng.randrange(n)
                    demands[i] = demands[i] | {j}
        else:
            demands = _spread_types(rng, _draw_pool(rng, types, draw), n)
        if set().union(*demands) == set(range(k)):
            return DiscreteInstance(quantities, demands)
    raise CliError("could not cover every item with the requested demand types")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# built once per process: parse_args leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="caei", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a competitive allocation")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--method", choices=("exact", "eg"), default="exact")
    p.add_argument("--out", help="write the solution here instead of stdout")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("maxwelfare", help="maximize the number of satisfied agents")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--out", help="write the solution here instead of stdout")
    p.set_defaults(handler=cmd_maxwelfare)

    p = sub.add_parser("verify", help="check a solution against its instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--tol", default="0", help="numeric tolerance, e.g. 1e-6")
    p.add_argument("--relaxed", action="store_true", help="allow partly unsold goods")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oracle", help="run a brute-force reference solver")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--kind", choices=("satisfiable", "caei"), default="caei")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--goods", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--contiguous", action="store_true")
    p.add_argument("--types", type=int, help="number of distinct demand types")
    p.add_argument("--out", help="write the instance here instead of stdout")
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "agents", 1) < 1 or getattr(args, "goods", 1) < 1:
            raise CliError("--agents and --goods must be at least 1")
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except divisible.SearchGuardError as err:
        print(f"search guard: {err}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except OracleGuardError as err:
        print(f"oracle guard: {err}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except divisible.EgConvergenceError as err:
        print(f"eg: {err}", file=sys.stderr)
        return EXIT_EG_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
