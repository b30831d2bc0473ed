"""Spans around the calls into each cloudcost layer, and the per-layer metrics.

The tracer replaces public callables in the module attributes the program
looks them up through (``engine.simulate``, ``pricing.price_breakdown``, ...)
with wrappers that record a span: name, start, end and parent. Spans stay in
memory; :func:`layer_metrics` turns one invocation batch's spans and counters
into the named per-layer metrics. Nothing in the program itself changes.

A layer's self time is its spans' duration minus the part covered by child
spans, so self times of all spans never sum to more than the traced run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name). A callable that one module imported by name
# from another is wrapped in both, so every call site goes through a wrapper.
LAYER_CALLS = (
    ("cloudcost.model", "parse_model", "model.parse"),
    ("cloudcost.model", "validate", "model.validate"),
    ("cloudcost.model", "parse_patterns", "elasticity.parse"),
    ("cloudcost.engine", "parse_patterns", "elasticity.parse"),
    ("cloudcost.engine", "monthly_series", "elasticity.replay"),
    ("cloudcost.engine", "simulate", "engine.simulate"),
    ("cloudcost.engine", "summarize", "engine.summary"),
    ("cloudcost.engine", "rollup", "engine.summary"),
    ("cloudcost.report", "rollup", "engine.summary"),
    ("cloudcost.engine", "compare", "engine.summary"),
    ("cloudcost.pricing", "load_catalog", "pricing.load"),
    ("cloudcost.pricing", "lookup_rate", "pricing.lookup"),
    ("cloudcost.pricing", "price_breakdown", "pricing.price"),
    ("cloudcost.pricing", "reservation_charges", "pricing.reservation"),
    ("cloudcost.report", "to_csv", "report.csv"),
    ("cloudcost.report", "to_html", "report.html"),
    ("cloudcost.cli", "write_atomic", "cli.write"),
    ("cloudcost.assess", "load_items_file", "assess.load"),
    ("cloudcost.assess", "parse_ratings_file", "assess.load"),
    ("cloudcost.assess", "validate_sheet", "assess.score"),
    ("cloudcost.assess", "radar", "assess.score"),
    ("cloudcost.assess", "important_items", "assess.score"),
)

# Per-layer metric -> unit, in report order. `better` is "lower" for all but
# distinct_series_ratio (see BENCHMARK.json).
METRIC_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.write_s": "s", "cli.write_bytes": "bytes",
    "model.parse_s": "s", "model.validate_s": "s", "model.validate_calls": "count",
    "elasticity.parse_s": "s", "elasticity.parse_calls": "count",
    "elasticity.replay_s": "s", "elasticity.series": "count",
    "elasticity.days_walked": "count", "elasticity.us_per_day": "us",
    "elasticity.distinct_series_ratio": "ratio",
    "pricing.load_s": "s", "pricing.price_s": "s", "pricing.price_calls": "count",
    "pricing.tiered_calls": "count", "pricing.lookup_calls": "count",
    "pricing.reservation_s": "s",
    "engine.simulate_s": "s", "engine.self_s": "s", "engine.lines": "count",
    "engine.warnings": "count", "engine.summary_s": "s",
    "report.csv_s": "s", "report.html_s": "s", "report.csv_bytes": "bytes",
    "report.html_bytes": "bytes",
    "assess.load_s": "s", "assess.score_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s",
}

# Self times that partition a traced batch: they sum to its run time.
SELF_TIMES = ("cli.self_s", "cli.write_s", "model.parse_s", "model.validate_s",
              "elasticity.parse_s", "elasticity.replay_s", "pricing.load_s",
              "pricing.price_s", "pricing.reservation_s", "engine.self_s",
              "engine.summary_s", "report.csv_s", "report.html_s", "assess.load_s",
              "assess.score_s")

# Counts that depend only on the inputs; they must repeat exactly.
EXACT_COUNTS = ("model.validate_calls", "elasticity.parse_calls", "elasticity.series",
                "elasticity.days_walked", "elasticity.distinct_series_ratio",
                "pricing.price_calls", "pricing.tiered_calls", "pricing.lookup_calls",
                "engine.lines", "engine.warnings", "report.csv_bytes",
                "report.html_bytes", "cli.write_bytes")


def _count(counts: Counter, replays: set, name: str, args: tuple, result) -> None:
    """Counters measured at the layer boundary, from arguments and results."""
    if name == "elasticity.replay":
        schedule, window = args[0], args[1]
        start = (args[2] if len(args) > 2 else None) or window.start
        counts["elasticity.series"] += 1
        counts["elasticity.days_walked"] += (
            window.end.last_day() - start.first_day()).days + 1
        replays.add((schedule, window, start))
    elif name == "elasticity.parse":
        counts["elasticity.parse_calls"] += 1
    elif name == "model.validate":
        counts["model.validate_calls"] += 1
    elif name == "pricing.price":
        counts["pricing.price_calls"] += 1
        counts["pricing.tiered_calls"] += bool(args[0].tiers)
    elif name == "pricing.lookup":
        counts["pricing.lookup_calls"] += 1
    elif name == "engine.simulate":
        counts["engine.lines"] += len(result.lines)
        counts["engine.warnings"] += len(result.warnings)
    elif name == "report.csv":
        counts["report.csv_bytes"] += len(result.encode("utf-8"))
    elif name == "report.html":
        counts["report.html_bytes"] += len(result.encode("utf-8"))
    elif name == "cli.write":
        counts["cli.write_bytes"] += len(args[1].encode("utf-8"))


class Tracer:
    """Installs the layer wrappers; ``close`` puts the originals back.

    Spans are ``[name, start_ns, end_ns, parent_index]``; parent -1 is the
    invocation itself.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.replays: set = set()
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        for module_name, attr, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
            _count(self.counts, self.replays, name, args, result)
            return result
        return traced

    def close(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name."""
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        total[name] += (end - start) / 1e9
        own[name] += (end - start - child) / 1e9
    return total, own


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch that took ``run_s`` seconds.

    Times are seconds. ``cli.import_s``, ``trace.run_s``, ``trace.overhead_s``
    and ``elasticity.us_per_day`` come from other measurements or from medians,
    and are filled in by the caller.
    """
    total, own = span_times(tracer.spans)
    counts = tracer.counts
    top_level = sum((end - start) / 1e9 for _, start, end, parent in tracer.spans
                    if parent < 0)
    series = counts["elasticity.series"]
    metrics = {
        "cli.self_s": run_s - top_level,
        "cli.write_s": total["cli.write"],
        "model.parse_s": own["model.parse"],
        "model.validate_s": own["model.validate"],
        "elasticity.parse_s": total["elasticity.parse"],
        "elasticity.replay_s": total["elasticity.replay"],
        "elasticity.distinct_series_ratio": len(tracer.replays) / series if series else 0.0,
        "pricing.load_s": total["pricing.load"],
        "pricing.price_s": total["pricing.price"] + total["pricing.lookup"],
        "pricing.reservation_s": total["pricing.reservation"],
        "engine.simulate_s": total["engine.simulate"],
        "engine.self_s": own["engine.simulate"],
        "engine.summary_s": total["engine.summary"],
        "report.csv_s": total["report.csv"],
        "report.html_s": own["report.html"],
        "assess.load_s": total["assess.load"],
        "assess.score_s": total["assess.score"],
    }
    for name in EXACT_COUNTS:
        metrics.setdefault(name, counts[name])
    return metrics
