"""Span tracing around the package's public functions, from outside the package.

Each wrapped function records one span per call: name, start, end, parent
span and run id.  Spans stay in memory until the run ends.  A function is
wrapped in every module that looks it up, because a module that imported the
function by name holds its own reference (``identities`` imports
``verify_identity`` and ``parse_prefix``; ``quadfield`` imports
``reduce_form``).
"""

from __future__ import annotations

import functools
import math
import statistics
import time

# (module, attribute, span name); one row per place a caller looks the name up
WRAPPED = (
    ("arith", "factor", "arith.factor"),
    ("arith", "squarefree_part", "arith.squarefree_part"),
    ("arith", "is_probable_prime", "arith.is_probable_prime"),
    ("quadform", "class_number", "quadform.class_number"),
    ("quadform", "two_rank_genus", "quadform.two_rank_genus"),
    ("quadform", "form_pow", "quadform.form_pow"),
    ("quadform", "reduce_form", "quadform.reduce_form"),
    ("quadfield", "reduce_form", "quadform.reduce_form"),
    ("quadfield", "factor_principal", "quadfield.factor_principal"),
    ("quadfield", "valuation", "quadfield.valuation"),
    ("quadfield", "nth_root_ideal", "quadfield.nth_root_ideal"),
    ("quadfield", "primes_above", "quadfield.primes_above"),
    ("x16", "census_parameters", "x16.census_parameters"),
    ("x16", "point_from_t", "x16.point_from_t"),
    ("x16", "g_eval", "x16.g_eval"),
    ("x16", "cl5_pullback", "x16.cl5_pullback"),
    ("x16", "divisibility_check", "x16.divisibility_check"),
    ("ecq", "pi2_count", "ecq.pi2_count"),
    ("ecq", "section6_checks", "ecq.section6_checks"),
    ("identities", "verify_claim", "identities.verify_claim"),
    ("poly", "verify_identity", "poly.verify_identity"),
    ("identities", "verify_identity", "poly.verify_identity"),
    ("poly", "parse_prefix", "poly.parse_prefix"),
    ("identities", "parse_prefix", "poly.parse_prefix"),
    ("cli", "main", "cli.main"),
)

# what a span keeps of its call beyond the timing
_NOTES = {
    "arith.factor": lambda args, kwargs, result: None if result.complete else "incomplete",
    "quadform.class_number": lambda args, kwargs, result: [*args, *kwargs.values()][0],
    "ecq.pi2_count": lambda args, kwargs, result: [*args, *kwargs.values()][0],
}

# spans reported with call count and self time, then with self time only
CALLS_AND_SELF = (
    "arith.factor", "arith.squarefree_part", "arith.is_probable_prime",
    "quadform.class_number", "quadform.two_rank_genus", "quadform.form_pow",
    "quadfield.factor_principal", "quadfield.valuation",
    "quadfield.nth_root_ideal", "quadfield.primes_above",
    "x16.point_from_t", "x16.g_eval", "x16.cl5_pullback", "x16.divisibility_check",
    "identities.verify_claim",
)
SELF_ONLY = (
    "x16.census_parameters", "ecq.pi2_count", "ecq.section6_checks",
    "poly.verify_identity", "poly.parse_prefix", "cli.main",
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, note]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = "raised"
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Replace every WRAPPED attribute of the package's modules."""
        for module_name, attr, name in WRAPPED:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{self.run_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and self times; self time is the span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        notes: dict[str, list] = {}
        check_ms: list[float] = []
        for i, (name, start, end, parent, note) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            # no wrapped function calls itself, so durations of one name never overlap
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if note is not None:
                notes.setdefault(name, []).append(note)
            if name == "x16.divisibility_check":
                check_ms.append((end - start) * 1000)

        m: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in SELF_ONLY:
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        factor_notes = notes.get("arith.factor", [])
        m["arith.factor.incomplete"] = factor_notes.count("incomplete")
        m["arith.factor.raised"] = factor_notes.count("raised")
        discs = {d for d in notes.get("quadform.class_number", []) if d != "raised"}
        m["quadform.class_number.distinct"] = len(discs)
        work = sum(math.isqrt(-d // 3) for d in discs)
        m["quadform.class_number.work"] = work
        cn_self = self_s.get("quadform.class_number", 0.0)
        m["quadform.class_number.work_per_s"] = work / cn_self if cn_self else 0.0
        m["quadform.reduce_form.calls"] = calls.get("quadform.reduce_form", 0)
        m["ecq.pi2_count.bytes"] = 9 * sum(
            n for n in notes.get("ecq.pi2_count", []) if n != "raised"
        )
        p50, tail, pct = latency_summary(check_ms)
        m["x16.divisibility_check.p50_ms"] = p50
        m["x16.divisibility_check.tail_ms"] = tail
        m["x16.divisibility_check.tail_pct"] = pct
        share = {name: t / wall_s for name, t in inclusive.items()} if wall_s else {}
        return {"metrics": m, "share": share}


def latency_summary(samples_ms: list[float]) -> tuple[float, float, int]:
    """Median, and the highest whole percentile with at least ten samples
    beyond it together with that percentile; zeros when there are too few."""
    n = len(samples_ms)
    if n < 11:
        return 0.0, 0.0, 0
    pct = math.floor(100 * (n - 10) / n)
    cuts = statistics.quantiles(samples_ms, n=100, method="inclusive")
    return cuts[49], cuts[pct - 1], pct
