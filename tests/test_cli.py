"""Command-line round trips, exit codes, and generator determinism."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from caei import discrete, divisible
from caei.cli import (
    EXIT_EG_CONVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_ORACLE_GUARD,
    EXIT_USAGE,
    MAX_EXPONENT,
    MODELS,
    CliError,
    instance_from_json,
    instance_to_json,
    main,
    parse_number,
    solution_from_json,
    solution_to_json,
)
from caei.model import group_types

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "instances"
DIVISIBLE = str(GOLDEN / "divisible_two_agent.json")
CAKE = str(GOLDEN / "cake_three_agent.json")
DISCRETE = str(GOLDEN / "discrete_five_agent.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- codecs ----------------------------------------------------------------


@pytest.mark.parametrize("path", [DIVISIBLE, CAKE, DISCRETE])
def test_instance_roundtrip_is_identity(path):
    data = json.loads(Path(path).read_text())
    model, instance = instance_from_json(data)
    assert instance_to_json(model, instance) == data


def test_solution_roundtrip_is_lossless():
    model, instance = instance_from_json(json.loads(Path(DIVISIBLE).read_text()))
    solution = divisible.max_welfare_caei(instance)
    payload = json.loads(json.dumps(solution_to_json(model, solution)))
    # the trace is not serialized; everything else must survive
    assert solution_from_json(payload, model) == replace(solution, trace=())


def test_solution_exact_is_a_json_boolean():
    model, instance = instance_from_json(json.loads(Path(DIVISIBLE).read_text()))
    payload = solution_to_json(model, divisible.max_welfare_caei(instance))
    assert solution_from_json({**payload, "exact": False}, model).exact is False
    del payload["exact"]
    assert solution_from_json(payload, model).exact is True


def test_float_literals_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "divisible", "demands": [[0.5]]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE
    assert "floating-point" in err


@pytest.mark.parametrize(
    "target,path,where",
    [
        ("instance", ("quantities", 0), "quantities[0]"),
        ("instance", ("demands", 1, 0), "demands[1][0]"),
        ("solution", ("allocation", 0, 0), "allocation[0][0]"),
        ("solution", ("served", 0), "served[0]"),
        ("solution", ("welfare",), "welfare"),
    ],
    ids=["quantity", "demand-index", "copy-count", "served", "welfare"],
)
def test_fractional_counts_rejected(capsys, tmp_path, target, path, where):
    files = {"instance": tmp_path / "instance.json", "solution": tmp_path / "solution.json"}
    files["instance"].write_text(Path(DISCRETE).read_text())
    run(capsys, "solve", DISCRETE, "--out", str(files["solution"]))
    data = json.loads(files[target].read_text())
    *outer, last = path
    node = data
    for key in outer:
        node = node[key]
    node[last] = "3/2"
    files[target].write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(files["instance"]), str(files["solution"]))
    assert code == EXIT_USAGE
    assert f"{where}: expected a whole number" in err


@pytest.mark.parametrize(
    "instance,where",
    [
        ({"model": "discrete", "quantities": "11", "demands": [[0, 1], [1]]}, "quantities"),
        ({"model": "discrete", "quantities": [1, 1], "demands": ["01", [1]]}, "demands[0]"),
        ({"model": "divisible", "demands": ["11", "1"]}, "demands[0]"),
        ({"model": "divisible", "demands": "1"}, "demands"),
        ({"model": "cake", "demands": [[["0", "1"]], "01"]}, "demands[1]"),
    ],
    ids=["quantities", "discrete-row", "divisible-row", "divisible-demands", "cake-piece"],
)
def test_instance_strings_are_not_lists(capsys, tmp_path, instance, where):
    # a string used to be read as the list of its characters
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(instance))
    code, out, err = run(capsys, "solve", str(bad))
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: {where}: expected a list, got str" in err


@pytest.mark.parametrize(
    "demands,message",
    [
        ([[["1/2", "1"]], [[True, "1"]]], "demands[1][0]: expected a number, got True"),
        ([[[0, 1]], [[True, 1]]], "demands[1][0]: expected a number, got True"),
        ([[["0", "1"]], [["0", True]]], "demands[1][0]: expected a number, got True"),
        ([[["x", "1"]], [["x", "1"]]], "demands[0][0]: cannot parse number 'x'"),
        ([[["0", "1"]], [["1e5000", "1"]], [["1e5000", "1"]]],
         f"demands[1][0]: exponent of '1e5000' is outside -{MAX_EXPONENT}..{MAX_EXPONENT}"),
    ],
    ids=["string-then-bool", "int-then-bool", "one-then-bool", "bad-twice", "exponent-twice"],
)
def test_cake_decoder_repeats_keep_their_errors(capsys, tmp_path, demands, message):
    # a token that parsed before does not let an equal-hashing bool
    # through, and a token that failed fails again where it first appears
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "cake", "demands": demands}))
    code, out, err = run(capsys, "solve", str(bad))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "allocation,message",
    [
        ([[["0", "1/2"]], [["1/2", True]]], "allocation[1][0]: expected a number, got True"),
        ([[[0, 1]], [[True, 1]]], "allocation[1][0]: expected a number, got True"),
        ([[["y", "1"]], [["0", "y"]]], "allocation[0][0]: cannot parse number 'y'"),
    ],
    ids=["string-then-bool", "int-then-bool", "bad-twice"],
)
def test_cake_solution_repeats_keep_their_errors(capsys, tmp_path, allocation, message):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", CAKE, "--out", str(solution))
    data = json.loads(solution.read_text())
    data["allocation"] = allocation
    solution.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", CAKE, str(solution))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "path,key,value,message",
    [
        (DIVISIBLE, ("prices",), "12", "prices: expected a list, got str"),
        (DIVISIBLE, ("served",), "01", "served: expected a list, got str"),
        (DIVISIBLE, ("allocation", 1), "10", "allocation[1]: expected a list, got str"),
        (DIVISIBLE, ("allocation", 1), 3, "allocation[1]: expected a list, got int"),
        (DIVISIBLE, ("allocation", 1, 0), "x", "allocation[1][0]: cannot parse number 'x'"),
        (DISCRETE, ("allocation",), "1", "allocation: expected a list, got str"),
        (CAKE, ("prices",), ["1"], "prices: expected an object with breakpoints and densities"),
        (CAKE, ("prices", "densities", 1), "zz", "prices.densities[1]: cannot parse number 'zz'"),
        (CAKE, ("prices", "breakpoints"), "01", "prices.breakpoints: expected a list, got str"),
        (CAKE, ("allocation", 0), "01", "allocation[0]: expected a list, got str"),
        (CAKE, ("allocation", 0, 0), ["0", "1/8", "1/4"], "allocation[0][0]: expected an [lo, hi] pair"),
        (CAKE, ("allocation", 2, 1, 0), "y", "allocation[2][1]: cannot parse number 'y'"),
        (DIVISIBLE, ("exact",), "false", "exact: expected true or false, got 'false'"),
        (DISCRETE, ("exact",), 0, "exact: expected true or false, got 0"),
        (CAKE, ("exact",), 1, "exact: expected true or false, got 1"),
        (DIVISIBLE, ("exact",), None, "exact: expected true or false, got None"),
    ],
    ids=[
        "prices", "served", "row-string", "row-int", "number", "discrete-allocation",
        "cake-prices", "density", "breakpoints", "piece", "triple", "endpoint",
        "exact-string", "exact-zero", "exact-one", "exact-null",
    ],
)
def test_solution_errors_are_located(capsys, tmp_path, path, key, value, message):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", path, "--out", str(solution))
    data = json.loads(solution.read_text())
    *outer, last = key
    node = data
    for step in outer:
        node = node[step]
    node[last] = value
    solution.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", path, str(solution))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"


def test_unknown_model_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "hybrid", "demands": []}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE


def test_malformed_json_diagnoses_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "divisible",\n  demands: []}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE
    assert ":2:" in err


@pytest.mark.parametrize("literal", ["1e-5000", "1E+4301", "-2.5e-100000"])
def test_huge_exponents_rejected(capsys, tmp_path, literal):
    # Fraction would build 10**exponent; the value 1e-5000 lies in [0, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "divisible", "demands": [[literal]]}))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE
    assert "demands[0][0]: exponent" in err


def fraction_parse(token, where):
    """parse_number's str path without the fast path: the exponent bound,
    then Fraction's own parser."""
    exponent = token.lower().partition("e")[2]
    try:
        if exponent and abs(int(exponent)) > MAX_EXPONENT:
            raise CliError(
                f"{where}: exponent of {token!r} is outside -{MAX_EXPONENT}..{MAX_EXPONENT}"
            )
        return F(token)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{where}: cannot parse number {token!r}") from None


def outcome(parse, token):
    try:
        return parse(token, "x")
    except CliError as err:
        return f"CliError: {err}"


def test_parse_number_fast_path_matches_fraction_parser():
    # the tokens the fast path takes or must leave alone, and 3000
    # seeded strings over digits, signs, slashes, blanks, underscores,
    # decimal points, exponents and non-ASCII digits
    tokens = [
        "0", "-0", "+0", "7", "-7", "1/2", "-1/2", "+1/2", " 1/2", "1/2 ", "1/0", "0/0",
        "-0/5", "007/014", "1_000", "1_000/3", "٣/٤", "٣", "1/٤", "²", "1/", "/2", "-",
        "--1", "1/-2", "1//2", "1/2/3", "", "1.5", "1e3", "1/2e3", "9" * 5000,
        "1/" + "9" * 5000, "-" + "9" * 4300, "1/" + "9" * 4300,
    ]
    rng = random.Random(7)
    alphabet = "0123456789" * 3 + "-+/ _.eE٣٤"
    for _ in range(3000):
        tokens.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
    fast = 0
    for token in tokens:
        expected = outcome(fraction_parse, token)
        assert outcome(parse_number, token) == expected, token
        fast += re.fullmatch(r"-?[0-9]+(/[0-9]+)?", token) is not None
    assert fast > 300


def test_exponent_bound_is_inclusive():
    # repr(float) output, as `solve --method eg` writes it, stays well inside
    assert parse_number("1e-4300", "x") == F(1, 10**4300)
    assert parse_number("1.5E+4300", "x") == 15 * 10**4299
    assert parse_number(repr(5e-324), "x") == F(5, 10**324)



@pytest.mark.parametrize("command", ["solve", "maxwelfare", "oracle"])
def test_overlong_result_number_is_an_input_error(capsys, tmp_path, command):
    # 1e-4300 parses, but the breakpoint 1/10**4300 has a 4301-digit
    # denominator, past the digits Python will print
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"model": "cake", "demands": [[["1e-4300", "1/2"]], [["0", "1"]]]}))
    code, out, err = run(capsys, command, str(big))
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: prices.breakpoints[1]: " in err


def test_overlong_violation_magnitude_is_an_input_error(capsys, tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"model": "divisible", "demands": [["1", "1"]]}))
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({
        "model": "divisible", "prices": ["1e-4300", "3e-4299"],
        "allocation": [["1e-4299", "7e-4300"]], "served": [0], "welfare": 1,
    }))
    code, out, err = run(capsys, "verify", str(instance), str(solution))
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: violations[1].magnitude: " in err

def test_deeply_nested_json_rejected(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000)
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE
    assert f"{bad}: JSON nested too deeply" in err


@pytest.mark.parametrize(
    "content",
    [b'{"model": "discrete", "quantities": [' + b"1" * 5000 + b"]}", b'{"model": "\xff"}'],
    ids=["int-past-digit-limit", "bad-utf8"],
)
def test_undecodable_json_rejected(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE
    assert f"error: {bad}: " in err


# --- solve and verify ------------------------------------------------------


def test_solve_five_agent_golden(capsys):
    code, out, _ = run(capsys, "solve", DISCRETE)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["prices"] == ["1", "1/14", "1", "1/14", "1/14"]
    assert payload["welfare"] == 1
    assert payload["served"] == [0]
    assert payload["exact"] is True


def test_maxwelfare_two_agent_golden(capsys):
    code, out, _ = run(capsys, "maxwelfare", DIVISIBLE)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["welfare"] == 2
    assert payload["prices"] == ["1/3", "5/3"]


@pytest.mark.parametrize(
    "path,args",
    [
        (DIVISIBLE, ()),
        (DIVISIBLE, ("--method", "eg")),
        (CAKE, ()),
        (DISCRETE, ()),
    ],
)
def test_solve_output_reverifies(capsys, tmp_path, path, args):
    out_file = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve", path, *args, "--out", str(out_file))
    assert code == EXIT_OK
    tol = "1e-6" if "eg" in args else "0"
    code, out, _ = run(capsys, "verify", path, str(out_file), "--tol", tol)
    assert code == EXIT_OK
    assert json.loads(out)["is_caei"] is True


def test_eg_solution_is_tagged_inexact(capsys, tmp_path):
    out_file = tmp_path / "eg.json"
    run(capsys, "solve", DIVISIBLE, "--method", "eg", "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    assert payload["exact"] is False
    assert payload["welfare"] == 1


def test_maxwelfare_output_reverifies(capsys, tmp_path):
    out_file = tmp_path / "solution.json"
    code, _, _ = run(capsys, "maxwelfare", CAKE, "--out", str(out_file))
    assert code == EXIT_OK
    assert json.loads(out_file.read_text())["welfare"] == 2
    code, _, _ = run(capsys, "verify", CAKE, str(out_file))
    assert code == EXIT_OK


def test_solve_nocaei_exits_infeasible(capsys, tmp_path):
    twins = tmp_path / "twins.json"
    twins.write_text(
        '{"model": "discrete", "quantities": [2, 4],'
        ' "demands": [[0], [0], [0], [0, 1]]}'
    )
    code, out, err = run(capsys, "solve", str(twins))
    assert code == EXIT_INFEASIBLE
    assert "NoCaei" in err


def test_verify_tampered_prices(capsys, tmp_path):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve", DIVISIBLE, "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["prices"] = ["2", "2"]
    out_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", DIVISIBLE, str(out_file))
    assert code == EXIT_NOT_VERIFIED
    report = json.loads(out)
    assert report["is_caei"] is False
    assert "overspends" in {v["condition"] for v in report["violations"]}


@pytest.mark.parametrize("served", [[0, 1, 7], [-1, 0, 1]])
def test_verify_out_of_range_served(capsys, tmp_path, served):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve", DIVISIBLE, "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["served"], payload["welfare"] = served, 3
    out_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", DIVISIBLE, str(out_file))
    assert code == EXIT_NOT_VERIFIED
    report = json.loads(out)
    assert report["is_caei"] is False
    assert "served index out of range" in {v["condition"] for v in report["violations"]}


def test_verify_rejects_mismatched_shapes(capsys, tmp_path):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve", DISCRETE, "--out", str(out_file))
    code, _, err = run(capsys, "verify", DIVISIBLE, str(out_file))
    assert code == EXIT_USAGE


def test_discrete_maxwelfare_requires_relaxed(capsys):
    code, _, err = run(capsys, "maxwelfare", DISCRETE)
    assert code == EXIT_USAGE
    assert "--relaxed" in err
    code, out, _ = run(capsys, "maxwelfare", DISCRETE, "--relaxed")
    assert code == EXIT_OK
    assert json.loads(out)["welfare"] == 4


def test_relaxed_invalid_elsewhere(capsys):
    code, _, _ = run(capsys, "maxwelfare", DIVISIBLE, "--relaxed")
    assert code == EXIT_USAGE


# --- oracles ---------------------------------------------------------------


def test_oracle_satisfiable(capsys):
    code, out, _ = run(capsys, "oracle", DIVISIBLE, "--kind", "satisfiable")
    assert code == EXIT_OK
    assert json.loads(out) == {"welfare": 2, "served": [0, 1]}


def test_oracle_caei(capsys):
    code, out, _ = run(capsys, "oracle", DIVISIBLE, "--kind", "caei")
    assert code == EXIT_OK
    assert json.loads(out)["welfare"] == 2


def test_oracle_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "model": "discrete",
                "quantities": [1] * 8,
                "demands": [[j] for j in range(8)],
            }
        )
    )
    code, _, err = run(capsys, "oracle", str(big))
    assert code == EXIT_ORACLE_GUARD
    assert "oracle guard" in err


@pytest.mark.parametrize("command", ["maxwelfare", "solve"])
def test_served_set_search_guard_exit_code(capsys, tmp_path, monkeypatch, command):
    instance, out = tmp_path / "instance.json", tmp_path / "solution.json"
    argv = ("--model", "divisible", "--agents", "12", "--goods", "3", "--seed", "0")
    assert run(capsys, "gen", *argv, "--out", str(instance))[0] == EXIT_OK
    assert run(capsys, command, str(instance), "--out", str(out))[0] == EXIT_OK
    out.unlink()
    monkeypatch.setattr(divisible, "SEARCH_GUARD", 50)
    code, stdout, err = run(capsys, command, str(instance), "--out", str(out))
    assert code == EXIT_ORACLE_GUARD
    assert stdout == ""
    assert err.count("\n") == 1 and "served-set search passed 50 steps" in err
    assert err.startswith("search guard: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--agents", "44", "--goods", "7", "--seed", "34"),
    ("--agents", "50", "--goods", "4", "--seed", "91", "--types", "12"),
    ("--agents", "35", "--goods", "4", "--seed", "127", "--types", "8"),
])
def test_eg_convergence_failure_exit_code(capsys, tmp_path, argv):
    # seeds whose numeric equilibrium ends just above its tolerance
    instance, out = tmp_path / "instance.json", tmp_path / "solution.json"
    assert run(capsys, "gen", "--model", "divisible", *argv, "--out", str(instance))[0] == EXIT_OK
    code, stdout, err = run(capsys, "solve", str(instance), "--method", "eg", "--out", str(out))
    assert (code, stdout) == (EXIT_EG_CONVERGENCE, "")
    assert err.startswith("eg: final residual ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# --- generation ------------------------------------------------------------


@pytest.mark.parametrize("model", ["divisible", "cake", "discrete"])
def test_gen_is_byte_deterministic(capsys, tmp_path, model):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ("gen", "--model", model, "--agents", "4", "--goods", "3", "--seed", "11")
    assert run(capsys, *argv, "--out", str(first))[0] == EXIT_OK
    assert run(capsys, *argv, "--out", str(second))[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("model", ["divisible", "cake", "discrete"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gen_types_count_is_exact(capsys, model, seed):
    code, out, _ = run(
        capsys,
        *("gen", "--model", model, "--agents", "5", "--goods", "2"),
        *("--seed", str(seed), "--types", "2"),
    )
    assert code == EXIT_OK
    _, instance = instance_from_json(json.loads(out))
    assert len(group_types(instance)) == 2


def test_gen_contiguous_single_intervals(capsys):
    code, out, _ = run(
        capsys,
        *("gen", "--model", "cake", "--agents", "6", "--goods", "3"),
        *("--seed", "5", "--contiguous"),
    )
    assert code == EXIT_OK
    _, instance = instance_from_json(json.loads(out))
    assert instance.is_contiguous()


# every model, with and without --types, and cake with and without
# --contiguous: (model, fewest agents, agents added per seed, goods, flags)
GEN_SWEEP = (
    ("divisible", 2, 1, 3, ()),
    ("divisible", 4, 1, 3, ("--types", "3")),
    ("discrete", 3, 1, 3, ()),
    ("discrete", 4, 2, 4, ("--types", "3")),
    ("cake", 10, 15, 3, ()),
    ("cake", 20, 15, 3, ("--types", "6")),
    ("cake", 10, 15, 1, ("--contiguous",)),
    ("cake", 20, 15, 1, ("--contiguous", "--types", "5")),
)


def test_gen_outputs_solve_and_reverify(capsys, tmp_path):
    # solve must write a file that verifies at --tol 0 and survives a
    # decode and encode unchanged, or exit 2 on a discrete instance
    # without a CAEI
    for seed in range(10):
        for model, fewest, step, goods, flags in GEN_SWEEP:
            name = f"{model}{seed}{''.join(flags)}"
            inst_file, sol_file = tmp_path / f"{name}.json", tmp_path / f"{name}_sol.json"
            agents = fewest + seed % 4 * step
            argv = ("gen", "--model", model, "--agents", str(agents), "--goods", str(goods))
            assert run(capsys, *argv, *flags, "--seed", str(seed), "--out", str(inst_file))[0] == EXIT_OK
            code = run(capsys, "solve", str(inst_file), "--out", str(sol_file))[0]
            if code == EXIT_INFEASIBLE:
                _, instance = instance_from_json(json.loads(inst_file.read_text()))
                assert model == "discrete" and not discrete.caei_exists(instance)
                continue
            assert code == EXIT_OK
            code, out, _ = run(capsys, "verify", str(inst_file), str(sol_file), "--tol", "0")
            assert code == EXIT_OK and json.loads(out)["is_caei"] is True, name
            text = sol_file.read_text()
            solution = solution_from_json(json.loads(text), model)
            assert json.dumps(solution_to_json(model, solution), indent=2) + "\n" == text


# endpoints over odd denominators, and a few halves: over their common
# denominator 630 the sums lo + hi are both odd and even, so a midpoint
# taken in ints over the endpoints' own grid would round
ODD_CAKE = {
    "model": "cake",
    "demands": [
        [["1/3", "5/7"]],
        [["1/9", "2/5"], ["3/5", "13/15"]],
        [["0", "1/3"]],
        [["2/7", "1"]],
        [["1/5", "1/3"], ["1/2", "5/7"]],
        [["1/2", "5/7"]],
        [["1/7", "3/7"], ["5/9", "7/9"]],
    ],
}


def test_cake_solve_outputs_are_pinned(capsys, tmp_path):
    # Pins the exit codes and stdout bytes of `caei solve` and then
    # `caei verify --tol 0` on 40 seeded gen cakes (1-140 agents, 1-6
    # goods, with and without --types and --contiguous), the golden
    # three-agent cake and ODD_CAKE.
    rng = random.Random(24)
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(ODD_CAKE))
    paths = [CAKE, str(odd)]
    for k in range(40):
        agents = rng.randint(1, 140)
        flags = ["--contiguous"] if k % 4 >= 2 else []
        if k % 2:
            flags += ["--types", str(rng.randint(1, min(agents, 40)))]
        path = tmp_path / f"cake{k}.json"
        argv = ("gen", "--model", "cake", "--agents", str(agents), "--goods", str(rng.randint(1, 6)))
        assert run(capsys, *argv, *flags, "--seed", str(k), "--out", str(path))[0] == EXIT_OK
        paths.append(str(path))
    digest = hashlib.sha256()
    for k, path in enumerate(paths):
        solution = tmp_path / f"solution{k}.json"
        code, out, _ = run(capsys, "solve", path)
        solution.write_text(out)
        digest.update(f"{code}\n{out}".encode())
        code, out, _ = run(capsys, "verify", path, str(solution), "--tol", "0")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "d7c6c69e8a2ec3f559608f01fde08fa79706b4c9d018cb8c7f968cbbf0c5cdb0"


def test_divisible_and_relaxed_outputs_are_pinned(capsys, tmp_path):
    # Pins the exit codes and stdout bytes of `caei maxwelfare` and
    # `caei solve` on 32 seeded divisible instances (3-10 agents, 1-4
    # goods) and of `caei maxwelfare --relaxed` on 16 seeded discrete
    # instances (3-10 agents, 3-4 items), with and without --types, so
    # the served-set search, the price-only LP and its water-fill of
    # leftovers keep their outputs.
    rng = random.Random(26)
    digest = hashlib.sha256()
    for model, count, fewest_goods, commands in (
        ("divisible", 32, 1, (("maxwelfare",), ("solve",))),
        ("discrete", 16, 3, (("maxwelfare", "--relaxed"),)),
    ):
        for k in range(count):
            agents = 3 + k * 8 // count
            flags = ["--types", str(rng.randint(1, agents - 1))] if k % 2 else []
            path = tmp_path / f"{model}{k}.json"
            argv = ("gen", "--model", model, "--agents", str(agents), "--goods", str(rng.randint(fewest_goods, 4)))
            assert run(capsys, *argv, *flags, "--seed", str(k), "--out", str(path))[0] == EXIT_OK
            for command in commands:
                code, out, _ = run(capsys, command[0], str(path), *command[1:])
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "adc1ceb8f4857315eb15ce5377172dcf5f8032482fa66dde7efda6c0eea20949"


def test_python_dash_m_runs_the_command_line(capsys, tmp_path):
    argv = ["gen", "--model", "cake", "--agents", "6", "--goods", "2", "--seed", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "caei", *argv], capture_output=True, env=env, check=False
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, out.encode(), b"")
    bad = subprocess.run(
        [sys.executable, "-m", "caei", "solve", str(tmp_path / "missing.json")],
        capture_output=True, env=env, check=False,
    )
    assert bad.returncode == EXIT_USAGE and bad.stderr.startswith(b"error: ")


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: importing the package and
    # its command line in a fresh interpreter loads nothing else
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import caei, caei.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "caei" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"caei"}


def test_gen_rejects_impossible_requests(capsys):
    base = ("gen", "--model", "cake", "--agents", "3", "--goods", "1", "--seed", "1")
    assert run(capsys, *base, "--types", "4")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--model", "divisible", "--agents", "2", "--goods", "1",
               "--seed", "1", "--contiguous")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--model", "discrete", "--agents", "3", "--goods", "1",
               "--seed", "1", "--types", "2")[0] == EXIT_USAGE


def test_usage_error_on_unknown_flag(capsys):
    assert run(capsys, "solve", DIVISIBLE, "--fast")[0] == EXIT_USAGE


# --- decoder fuzzing -------------------------------------------------------

# numbers as they appear in files: mostly fractions in and around
# [0, 1], now and then a zero denominator, a float, junk or a wrong type
fuzz_numbers = st.one_of(
    *[st.fractions(0, 1, max_denominator=9).map(str)] * 4,
    *[st.fractions(-1, 2, max_denominator=9).map(str)] * 2,
    st.integers(-2, 3),
    st.sampled_from(["1/0", "0.5", "1e-3", "1e5000", "x", "", True, None, 0.5, []]),
)
fuzz_pairs = st.one_of(
    *[st.lists(fuzz_numbers, min_size=2, max_size=2)] * 8,
    st.lists(fuzz_numbers, max_size=3),
    fuzz_numbers,
)
# reversed, out-of-cake and overlapping pairs come from the numbers
fuzz_pieces = st.one_of(*[st.lists(fuzz_pairs, max_size=4)] * 8, fuzz_numbers)
fuzz_lists = st.one_of(*[st.lists(fuzz_numbers, max_size=5)] * 8, fuzz_numbers)
fuzz_rows = st.one_of(*[st.lists(fuzz_lists, max_size=4)] * 8, fuzz_numbers)


def fuzz_objects(fields):
    """JSON objects with every field, or with each field present or
    absent, or not objects at all."""
    return st.one_of(
        *[st.fixed_dictionaries(fields)] * 8,
        st.fixed_dictionaries({}, optional=fields),
        fuzz_numbers,
    )


fuzz_instances = st.one_of(
    *[fuzz_objects({"model": st.just("cake"), "demands": st.lists(fuzz_pieces, max_size=5)})] * 4,
    fuzz_objects({"model": st.sampled_from(MODELS + ("bogus",)), "demands": fuzz_rows}),
    fuzz_objects({"model": st.just("discrete"), "quantities": fuzz_lists, "demands": fuzz_rows}),
)
# breakpoints run from 0 to 1 most of the time, unsorted or repeated
# now and then; densities go negative and miss or gain a cell
fuzz_breakpoints = st.one_of(
    *[st.lists(st.fractions(0, 1, max_denominator=9), max_size=4).map(lambda xs: ["0", *map(str, xs), "1"])] * 4,
    fuzz_lists,
)
fuzz_curves = st.one_of(
    *[fuzz_objects({"breakpoints": fuzz_breakpoints, "densities": fuzz_lists})] * 4,
    fuzz_lists,
)
fuzz_common = {
    "served": fuzz_lists,
    "welfare": st.one_of(*[st.integers(0, 5)] * 4, fuzz_numbers),
    "exact": st.one_of(*[st.just(True)] * 3, st.sampled_from([False, "false", 0, None])),
    "provenance": st.one_of(st.text(max_size=5), fuzz_numbers),
}
fuzz_solutions = st.one_of(
    *[
        fuzz_objects(
            {
                "model": st.just("cake"),
                "prices": fuzz_curves,
                "allocation": st.lists(fuzz_pieces, max_size=5),
                **fuzz_common,
            }
        )
    ]
    * 4,
    fuzz_objects(
        {"model": st.sampled_from(MODELS), "prices": fuzz_lists, "allocation": fuzz_rows, **fuzz_common}
    ),
)

# a located message names the file's shape, a field (with its JSON path
# when it has one), or the agent or item it is about
LOCATED = re.compile(
    r"(instance|solution) file must hold a JSON object$"
    r"|solution is for model "
    r"|missing field '"
    r"|(model|exact|quantities|demands|prices(\.\w+)?|allocation|served|welfare)(\[\d+\])*: "
    r"|(agent|item) \d+[ :]"
    r"|items \[[\d, ]*\] are demanded by no agent$"
    r"|instance needs at least one (agent|item type)$"
    r"|welfare must equal the number of served agents$"
)


def assert_decodes_or_locates(decode, *args):
    try:
        decode(*args)
    except CliError as err:
        assert LOCATED.match(str(err)), str(err)


@given(fuzz_instances)
@example({"model": "cake", "demands": [[["1", "0"]]]})
@example({"model": "cake", "demands": [[["0", "3/2"]]]})
@example({"model": "divisible", "demands": [["1/2"], ["1/2", "1/2"]]})
@example({"model": "divisible", "demands": [["3/2"]]})
@example({"model": "discrete", "quantities": [1, 0], "demands": [[0, 1]]})
def test_instance_decoder_fuzz(data):
    assert_decodes_or_locates(instance_from_json, data)


def cake_solution(breakpoints, densities):
    prices = {"breakpoints": breakpoints, "densities": densities}
    return {"model": "cake", "prices": prices, "allocation": [], "served": [], "welfare": 0}


@given(fuzz_solutions, st.sampled_from(MODELS))
@example(cake_solution(["0", "1/2"], ["1"]), "cake")
@example(cake_solution(["0", "1/2", "1/2", "1"], ["1", "1", "1"]), "cake")
@example(cake_solution(["0", "1"], []), "cake")
@example(cake_solution(["0", "1"], ["-1"]), "cake")
def test_solution_decoder_fuzz(data, model):
    # mostly decoded for the model the file names
    if isinstance(data, dict) and data.get("model") in MODELS:
        model = data["model"]
    assert_decodes_or_locates(solution_from_json, data, model)
