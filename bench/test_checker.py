"""The benchmark's checker accepts real solutions and rejects corrupted ones.

Run from the root of a checkout with ``python3 -m pytest bench/test_checker.py``
or ``python3 bench/test_checker.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
from caei import cli  # noqa: E402


def solve(model_args, command, seed):
    """(instance, solution) decoded from what ``caei gen`` and ``command`` wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = os.path.join(tmp, "i.json"), os.path.join(tmp, "s.json")
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["gen", *model_args, "--seed", str(seed), "--out", inst]) == 0
            code = cli.main([command, inst, "--out", sol])
        with open(inst) as handle:
            instance = json.load(handle)
        if code != 0:
            return instance, None
        with open(sol) as handle:
            return instance, json.load(handle)


def with_unserved(model_args, command):
    for seed in range(50):
        instance, solution = solve(model_args, command, seed)
        if solution and solution["welfare"] < len(instance["demands"]):
            return instance, solution
    raise AssertionError("no seed leaves an agent unserved")


DIVISIBLE = ["--model", "divisible", "--agents", "5", "--goods", "2"]
CAKE = ["--model", "cake", "--agents", "6", "--goods", "2"]
DISCRETE = ["--model", "discrete", "--agents", "4", "--goods", "3"]


def test_accepts_cli_solutions():
    for args, command in (
        (DIVISIBLE, "maxwelfare"),
        (CAKE, "solve"),
        (CAKE[:4] + ["--contiguous"] + CAKE[4:], "maxwelfare"),
        (DISCRETE, "solve"),
    ):
        for seed in range(3):
            instance, solution = solve(args, command, seed)
            if solution is not None:
                assert checker.check_solution(instance, solution) == [], (args, seed)


def test_rejects_divisible_price_lowered_into_reach():
    instance, solution = with_unserved(DIVISIBLE, "maxwelfare")
    agent = min(set(range(len(instance["demands"]))) - set(solution["served"]))
    demand = [Fraction(v) for v in instance["demands"][agent]]
    prices = [Fraction(p) for p in solution["prices"]]
    for j, d in enumerate(demand):
        excess = sum(p * q for p, q in zip(prices, demand)) - 1
        if excess <= 0:
            break
        if d:
            prices[j] -= min(prices[j], excess / d)
    solution["prices"] = [str(p) for p in prices]
    problems = checker.check_solution(instance, solution)
    assert any(f"unserved agent {agent} can afford" in p for p in problems), problems


def test_rejects_cake_price_lowered_into_reach():
    instance, solution = with_unserved(CAKE, "solve")
    agent = min(set(range(len(instance["demands"]))) - set(solution["served"]))
    demand = [(Fraction(lo), Fraction(hi)) for lo, hi in instance["demands"][agent]]
    points = [Fraction(b) for b in solution["prices"]["breakpoints"]]
    densities = solution["prices"]["densities"]
    for k in range(len(densities)):
        if any(lo < points[k + 1] and points[k] < hi for lo, hi in demand):
            densities[k] = "0"
    problems = checker.check_solution(instance, solution)
    assert any(f"unserved agent {agent} can afford" in p for p in problems), problems


def test_rejects_overlapping_cake_pieces():
    instance, solution = solve(CAKE, "solve", 0)
    assert checker.check_solution(instance, solution) == []
    cuts = sorted(
        (Fraction(lo), Fraction(hi), i, t)
        for i, piece in enumerate(solution["allocation"])
        for t, (lo, hi) in enumerate(piece)
    )
    # stretch an interval halfway into the next one, held by someone else
    for (lo, hi, i, t), (nlo, nhi, k, _) in zip(cuts, cuts[1:]):
        if i != k:
            solution["allocation"][i][t] = [str(lo), str((nlo + nhi) / 2)]
            break
    problems = checker.check_solution(instance, solution)
    assert any("overlaps another piece" in p for p in problems), problems


def test_contiguous_reference_matches_oracle():
    from caei import CakeInstance, oracle_caei_search

    for seed in range(6):
        for types in ([], ["--types", "2"]):
            args = ["--model", "cake", "--contiguous", "--agents", "4", "--goods", "1", *types]
            instance, solution = solve(args, "maxwelfare", seed)
            oracle = oracle_caei_search(CakeInstance(instance["demands"]))
            assert checker.contiguous_cake_welfare(instance) == oracle.welfare == solution["welfare"]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
