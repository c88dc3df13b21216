"""Benchmark of the caei command line on seeded workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports caei from ``src/`` of the checkout it sits in and calls
``caei.cli.main`` in-process with ``--out`` files, so interpreter start-up
does not drown the cheap commands.  It sets up five times (instance
generation plus a warm-up instance), then times as many whole rounds
over the instance pool as fit in ``--seconds`` (at least one).  Every
output is checked by ``checker.py``, which does not import caei.

With ``--trace 0`` the last line of stdout is the end-to-end result.
With ``--trace 1`` the run takes every instance of one round through
the pipeline twice, once plain and once under ``tracer.Tracer``, prints
the per-layer metrics of the traced passes and writes their spans to
``.bench_out/``.  Either way the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a caei source tree the run exits 2 and prints no
result.

``--workload all`` runs every workload in a process of its own and
prints each one's metrics by name with their units, and the operations
attempted and failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5


class Runner:
    """Runs caei commands in-process and tallies the operations."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict = {}
        self.mismatches: list[str] = []

    def command(self, argv, out=None):
        """(exit code or None if it raised, seconds) of ``caei argv``."""
        stdout, stderr = io.StringIO(), io.StringIO()
        if out is not None and os.path.exists(out):
            os.remove(out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            code = None
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code is not None:
            self._fingerprint(argv, code, stdout.getvalue(), stderr.getvalue(), out)
        return code, seconds

    def _fingerprint(self, argv, code, stdout, stderr, out):
        # stdout, stderr and the output file of a command that returned
        # must not change between rounds, traced or not
        digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}\0".encode())
        if code == 0 and out is not None:
            with open(out, "rb") as handle:
                digest.update(handle.read())
        key = tuple(argv)
        seen = self.fingerprints.setdefault(key, digest.hexdigest())
        if seen != digest.hexdigest():
            self.mismatches.append(" ".join(argv))

    def tally(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def run_instance(workload, instance, runner, checker):
    """Take one instance through the pipeline; returns (solve s, [verify s])."""
    stem = instance.path[: -len(".json")]
    expected = workload.expected_exit(instance.data)
    solve_s, problems, solutions = 0.0, {}, {}
    for command in workload.solvers:
        tag = command[0]
        out = f"{stem}.{tag}.json"
        code, seconds = runner.command([tag, instance.path, *command[1:], "--out", out], out)
        solve_s += seconds
        problems[tag] = [] if code == expected else [f"exit code {code}, expected {expected}"]
        if code == expected == 0:
            with open(out, encoding="utf-8") as handle:
                solutions[tag] = json.load(handle)
            problems[tag] += checker.check_solution(instance.data, solutions[tag])
    if not any(problems.values()):
        # a failed welfare reference rejects the last solving command's output
        problems[tag] += workload.reference(instance.data, solutions)
    verify_s = []
    for tag, found in problems.items():
        if not (runner.tally(f"caei {tag} {instance.path}", found) and tag in solutions):
            continue
        report = f"{stem}.{tag}.verify.json"
        argv = ["verify", instance.path, f"{stem}.{tag}.json", "--tol", "0", "--out", report]
        code, seconds = runner.command(argv, report)
        verify_s.append(seconds)
        found = [] if code == 0 else [f"exit code {code}, expected 0"]
        if code == 0:
            with open(report, encoding="utf-8") as handle:
                if not json.load(handle)["is_caei"]:
                    found.append("report says not a CAEI")
        runner.tally(f"caei verify {stem}.{tag}.json", found)
    return solve_s, verify_s


def run_round(workload, pool, runner, checker, samples):
    """One pass over the pool; per-instance times go into ``samples``."""
    cli_s = 0.0
    for k, instance in enumerate(pool):
        solve_s, verify_s = run_instance(workload, instance, runner, checker)
        samples["solve"][k].append(solve_s)
        for v, seconds in enumerate(verify_s):
            samples["verify"][(k, v)].append(seconds)
        cli_s += solve_s + sum(verify_s)
    return cli_s


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


E2E_UNITS = {
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "verify_ms_p50": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Run every workload in a process of its own and print its metrics."""
    worst = 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        worst = max(worst, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"{name}: exit code {child.returncode}, no result")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28} {entry['value']:14.6g} {entry['unit']}")
    return worst


def timed_rounds(workload, pool, runner, checker, seconds):
    """As many whole rounds as fit in ``seconds``, at least one."""
    samples = {"solve": defaultdict(list), "verify": defaultdict(list)}
    cli_s, rounds = 0.0, 0
    begin = time.perf_counter()
    while True:
        cli_s += run_round(workload, pool, runner, checker, samples)
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rounds > seconds:
            break
    solve = [statistics.median(v) for v in samples["solve"].values()]
    verify = [statistics.median(v) for v in samples["verify"].values()]
    print(
        f"bench: {workload.name}: {rounds} round(s) of {len(pool)} instances, "
        f"solve_ms_tail is p{workload.tail_pct}",
        file=sys.stderr,
    )
    return {
        "solve_ms_p50": 1000 * statistics.median(solve),
        "solve_ms_tail": 1000 * percentile(solve, workload.tail_pct),
        "verify_ms_p50": 1000 * statistics.median(verify),
        "instances_per_s": rounds * len(pool) / cli_s,
    }


def traced_round(caei, tracer, workload, pool, runner, checker, seed):
    """Each instance once untraced and once traced, in alternating order.

    Returns the per-layer metrics of the traced passes and, as
    ``trace.overhead_s``, their CLI time minus that of the untraced ones.
    """
    spans = tracer.Tracer()
    seconds = {False: 0.0, True: 0.0}
    for k, instance in enumerate(pool):
        for traced in (k % 2 == 1, k % 2 == 0):
            if traced:
                spans.install(caei)
            try:
                solve_s, verify_s = run_instance(workload, instance, runner, checker)
            finally:
                spans.uninstall()
            seconds[traced] += solve_s + sum(verify_s)
    spans.dump(
        os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json"),
        {"workload": workload.name, "seed": seed, "round_s": seconds[False], "traced_round_s": seconds[True]},
    )
    return {**spans.metrics(), "trace.overhead_s": seconds[True] - seconds[False]}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "caei", "cli.py")):
        print(f"bench: no caei source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import caei
    import caei.cli

    if os.path.dirname(os.path.abspath(caei.__file__)) != os.path.join(SRC, "caei"):
        print(f"bench: imported caei from {caei.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checker
    import tracer
    from workloads import WORKLOADS, make_instances

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - started

    runner = Runner(caei.cli)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            pool = make_instances(workload, args.seed, workdir, lambda a: runner.command(a)[0])
            warm = make_instances(workload, args.seed, workdir, lambda a: runner.command(a)[0], small=True)
            run_instance(workload, warm[0], runner, checker)
            setups.append(time.perf_counter() - begin)
        if args.trace:
            metrics = traced_round(caei, tracer, workload, pool, runner, checker, args.seed)
            units = {**tracer.METRIC_UNITS, "trace.overhead_s": "s"}
        else:
            metrics = timed_rounds(workload, pool, runner, checker, args.seconds)
            metrics["setup_s"] = import_s + statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    for argv in runner.mismatches[:20]:
        print(f"bench: output changed between rounds: caei {argv}", file=sys.stderr)
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
