"""The benchmark's workloads: seeded instance pools and per-instance checks.

A round is one pass over a workload's pool of instances, always in the
same order and always with the same commands, so every round attempts
the same operations.  Instance files for three workloads come from
``caei gen``; the discrete-oracle pool comes from a generator of the
benchmark's own, because ``caei gen`` draws up to three copies per item
type and the brute-force oracle accepts at most two.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checker


@dataclass(frozen=True)
class Instance:
    path: str
    data: dict


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # instances per round
    # gen(rng, k, small) -> either caei gen arguments or an instance dict
    gen: Callable
    # each solving command with its options
    solvers: tuple
    # exit code every solving command must return for an instance
    expected_exit: Callable[[dict], int] = lambda instance: 0
    # welfare reference: (instance, {command: solution}) -> problems
    reference: Callable[[dict, dict], list] = lambda instance, solutions: []
    # accept(instance, k): does a generated instance fit slot k of the pool?
    accept: Callable[[dict, int], bool] = lambda instance, k: True

    @property
    def tail_pct(self) -> int:
        """Highest percentile with at least ten instances beyond it."""
        return 100 * (self.size - 10) // self.size


def _gen_divisible(rng, k, small):
    n = 3 if small else 6
    types = ["--types", str(n // 2)] if k // 3 % 2 else []
    return ["--model", "divisible", "--agents", str(n), "--goods", "3", *types]


def _divisible_scale(instance, k):
    # caei gen scales a divisible instance's demands by 1, 1/2 or 1/4 at
    # random, and the scale sets how many served sets fit and need an LP;
    # every pool holds each scale in equal parts
    top = max(Fraction(v) for row in instance["demands"] for v in row)
    low, high = ((Fraction(1, 2), 1), (Fraction(1, 4), Fraction(1, 2)), (0, Fraction(1, 4)))[k % 3]
    return low < top <= high


def _gen_cake(rng, k, small):
    n = 4 if small else 80 + 60 * k // (CAKE_EXISTENCE_SIZE - 1)
    return ["--model", "cake", "--agents", str(n), "--goods", "3"]


def _gen_contiguous(rng, k, small):
    n = 3 if small else 4
    types = ["--types", str(n - 2)] if k % 2 else []
    return ["--model", "cake", "--contiguous", "--agents", str(n), "--goods", "1", *types]


def _contiguous_welfare(instance, k):
    # the optimal welfare sets how far down the served-set search goes:
    # half the pool (no --types) has welfare 2, the --types half
    # alternates between welfare 0 and 1
    return checker.contiguous_cake_welfare(instance) == (2, 0, 2, 1)[k % 4]


def _gen_discrete(rng, k, small):
    # sweep the oracle guard: every 72 slots hold each number of agents
    # (2-4) with each number of item types (1-3) equally often, and each
    # of those pairs with every pattern of 1-2 copies per type equally
    # often; the demand sets are random
    n = 2 if small else 2 + k % 3
    m = 2 if small else 1 + k // 3 % 3
    pattern = k // 9 % 2**m
    quantities = [1 + (pattern >> j & 1) for j in range(m)]
    demands = [rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
    for j in range(m):
        if not any(j in d for d in demands):
            demands[rng.randrange(n)].append(j)
    return {
        "model": "discrete",
        "quantities": quantities,
        "demands": [sorted(d) for d in demands],
    }


def _divisible_reference(instance, solutions):
    return checker.divisible_welfare_problems(instance, solutions["maxwelfare"])


def _contiguous_reference(instance, solutions):
    want = checker.contiguous_cake_welfare(instance)
    got = solutions["maxwelfare"]["welfare"]
    return [] if got == want else [f"welfare {got}, interval-scheduling reference {want}"]


def _discrete_reference(instance, solutions):
    # the oracle maximizes welfare over every competitive allocation
    if not solutions:
        return []
    solve, oracle = solutions["solve"]["welfare"], solutions["oracle"]["welfare"]
    return [] if oracle >= solve else [f"oracle welfare {oracle} < solve welfare {solve}"]


def _discrete_exit(instance):
    return 0 if checker.discrete_caei_exists(instance) else 2


CAKE_EXISTENCE_SIZE = 33

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "divisible-maxwelfare",
            78,
            _gen_divisible,
            (("maxwelfare",),),
            reference=_divisible_reference,
            accept=_divisible_scale,
        ),
        Workload(
            "discrete-oracle",
            1800,
            _gen_discrete,
            (("solve",), ("oracle", "--kind", "caei")),
            expected_exit=_discrete_exit,
            reference=_discrete_reference,
        ),
        Workload("cake-existence", CAKE_EXISTENCE_SIZE, _gen_cake, (("solve",),)),
        Workload(
            "cake-contiguous-maxwelfare",
            88,
            _gen_contiguous,
            (("maxwelfare",),),
            reference=_contiguous_reference,
            accept=_contiguous_welfare,
        ),
    )
}


def make_instances(workload: Workload, seed: int, directory: str, run_cli, small=False):
    """Write the pool for ``seed`` (or one small warm-up instance)."""
    rng = random.Random(f"{workload.name}/{seed}/{'small' if small else 'pool'}")
    pool = []
    for k in range(1 if small else workload.size):
        path = f"{directory}/{'warm' if small else 'i'}{k}.json"
        for _ in range(1000):
            spec = workload.gen(rng, k, small)
            if isinstance(spec, dict):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(spec, handle)
            else:
                argv = ["gen", *spec, "--seed", str(rng.randrange(2**31)), "--out", path]
                code = run_cli(argv)
                if code != 0:
                    raise RuntimeError(f"caei {' '.join(argv)} exited {code}")
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if small or workload.accept(data, k):
                pool.append(Instance(path, data))
                break
        else:
            raise RuntimeError(f"{workload.name}: no instance fits slot {k}")
    return pool
