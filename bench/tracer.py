"""Per-layer tracing of caei from outside its source.

``Tracer.install`` replaces every public function of the seven layer
modules (``cli``, ``model``, ``exactmath``, ``divisible``, ``cake``,
``discrete``, ``verify``) with a timing wrapper, at every name under
which a caei module holds it: ``simplex_solve`` is rebound in
``exactmath`` and again where ``divisible``, ``discrete`` and
``verify`` imported it.  ``PriceCurve.piece_price`` is wrapped on its
class.  ``uninstall`` puts the originals back.  No source file changes
and no wrapped call changes its arguments or result.

Calls between ``model``'s own functions are not wrapped: a piece
operation another layer asks for counts once, however ``model``
composes it.  Each wrapped call is a span.  Self time (a span's
duration minus the time of the wrapped calls it made) is summed per
layer.  Spans outside ``model`` are kept in memory with their parent
and written out by ``dump``; ``model`` calls, up to a million per
round, are only counted and timed.

Three per-number helpers (``as_fraction``, ``parse_number``,
``format_number``) stay unwrapped: wrapping them would cost more than
the work they do, and their time stays with their caller.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("cli", "model", "exactmath", "divisible", "cake", "discrete", "verify")
UNTRACED = {"as_fraction", "parse_number", "format_number"}

PIECE_OPS = {
    "model.canonicalize_piece",
    "model.piece_length",
    "model.piece_intersection",
    "model.piece_difference",
    "model.piece_union",
    "model.piece_contains",
    "model.PriceCurve.piece_price",
}

# inclusive time, counting only calls not nested in another call of the
# same group
GROUPS = {
    "exactmath.simplex_s": {"exactmath.simplex_solve"},
    "divisible.subset_lp_s": {"divisible.subset_caei_lp"},
    "cake.solver_s": {
        "cake.solve_existence",
        "cake.greedy_contiguous",
        "cake.max_welfare_fixed_agents",
    },
    "cake.refine_partition_s": {"cake.refine_partition"},
    "discrete.solve_caei_s": {"discrete.solve_caei"},
    "verify.verify_caei_s": {"verify.verify_caei"},
    "verify.envy_free_s": {"verify.is_envy_free"},
    "verify.oracle_s": {"verify.oracle_caei_search", "verify.oracle_max_satisfiable"},
    "model.piece_ops_s": PIECE_OPS,
    "cli.decode_s": {"cli.load_json_file", "cli.instance_from_json", "cli.solution_from_json"},
    "cli.encode_s": {"cli.instance_to_json", "cli.solution_to_json", "cli.write_payload"},
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

CALL_COUNTS = {
    "exactmath.simplex_calls": ["exactmath.simplex_solve"],
    "divisible.subset_lp_calls": ["divisible.subset_caei_lp"],
    "discrete.price_lp_calls": ["discrete.prices_for_allocation_discrete"],
    "verify.verify_caei_calls": ["verify.verify_caei"],
    "model.piece_ops_calls": sorted(PIECE_OPS),
}
HOOKED_COUNTS = (
    "exactmath.lp_cells",
    "exactmath.max_bits",
    "divisible.subset_lp_pruned",
    "cake.cells",
    "cli.solution_bytes",
)

# the per-layer metrics, in the order they are printed: name -> unit
METRIC_UNITS = {
    **{name: "count" for name in CALL_COUNTS},
    **{name: "count" for name in HOOKED_COUNTS},
    "exactmath.max_bits": "bits",
    "cli.solution_bytes": "bytes",
    **{name: "s" for name in GROUPS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Tracer:
    """Spans, self times and exact counts of the wrapped caei calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent span, start, end]
        self.stats: dict = {}  # name -> [calls, self seconds]
        self.groups: dict = {group: [0, 0.0] for group in GROUPS}  # [depth, seconds]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open calls: [child seconds, span]
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        import caei.model

        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        # model's own calls between its piece functions stay inside one
        # wrapped call: a piece operation another layer asks for counts once
        for module in (package, *(m for layer, m in modules.items() if layer != "model")):
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, value, hit[1])
        curve = caei.model.PriceCurve
        method = vars(curve)["piece_price"]
        self._rebind(curve, "piece_price", method, self._wrap("model.PriceCurve.piece_price", method))

    def _rebind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0])
        lps = self.stats.setdefault("exactmath.simplex_solve", [0, 0.0])
        group = self.groups.get(GROUP_OF.get(name))
        keep_span = not name.startswith("model.")
        hook = getattr(self, "_after_" + name.split(".")[-1], None)

        def traced(*args, **kwargs):
            span = stack[-1][1] if stack else -1
            if keep_span:
                spans.append([name, span, 0.0, 0.0])
                span = len(spans) - 1
            if group:
                group[0] += 1
            lps_before = lps[0]
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if keep_span:
                    spans[span][2:] = (start, end)
                if group:
                    group[0] -= 1
                    if not group[0]:
                        group[1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, lps_before)
            if stack:
                # the hook's cost is tracing overhead, not the caller's work
                stack[-1][0] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    # -- count hooks ------------------------------------------------------

    def _after_simplex_solve(self, args, kwargs, outcome, _):
        lp = args[0] if args else kwargs["lp"]
        self.counts["exactmath.lp_cells"] += len(lp._variables) * len(lp._constraints)
        if outcome.assignment:
            bits = max(
                max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in outcome.assignment.values()
            )
            self.counts["exactmath.max_bits"] = max(self.counts["exactmath.max_bits"], bits)

    def _after_subset_caei_lp(self, args, kwargs, solution, lps_before):
        # rejected by the capacity check: no LP was solved
        if solution is None and self.stats["exactmath.simplex_solve"][0] == lps_before:
            self.counts["divisible.subset_lp_pruned"] += 1

    def _after_refine_partition(self, args, kwargs, partition, _):
        self.counts["cake.cells"] += len(partition.breakpoints) - 1

    def _after_write_payload(self, args, kwargs, _result, _):
        payload, out = args
        if out is not None and "allocation" in payload:
            self.counts["cli.solution_bytes"] += os.path.getsize(out)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, summed over what was traced."""
        out = {}
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(self.stats[n][0] for n in names if n in self.stats)
        for metric in HOOKED_COUNTS:
            out[metric] = self.counts[metric]
        for metric, (_depth, seconds) in self.groups.items():
            out[metric] = seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                seconds for n, (_calls, seconds) in self.stats.items() if n.split(".")[0] == layer
            )
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write the metrics, per-function totals and spans as one JSON file."""
        payload = {
            **extra,
            "metrics": self.metrics(),
            "functions": {
                n: {"calls": c, "self_s": seconds}
                for n, (c, seconds) in sorted(self.stats.items())
                if c
            },
            "span_fields": ["name", "parent", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
