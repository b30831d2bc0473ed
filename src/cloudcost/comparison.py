"""The ``compare`` and ``compare-providers`` commands.

Both price several scenarios over one window, print them side by side with
each one's difference from the cheapest, and with ``--out`` also write
comparison.json. Only these two commands import this module, so no other
command compiles it. The helpers every command shares stay in
:mod:`cloudcost.cli`, and comparison.json is written through ``cli.write_json``.
"""

from __future__ import annotations

import os

from . import cli, engine, model, schema
from .errors import CatalogError, UsageError
from .money import format_money, format_money_grouped


def _comparison_payload(table: engine.ComparisonTable, currency: str) -> dict:
    return {
        "currency": currency,
        "baseline": table.baseline_label,
        "rows": [
            {
                **cli._summary_payload(entry.row, currency),
                "difference": entry.difference,
                "delta": format_money(entry.delta),
                "baseline": entry.is_baseline,
            }
            for entry in table.entries
        ],
        "warnings": list(table.warnings),
    }


def _emit_comparison(table: engine.ComparisonTable, currency: str,
                     out: str | None) -> None:
    """Print the comparison table; with ``out``, also write comparison.json."""
    labels = [entry.row.label for entry in table.entries]
    header = [f"Cost ({currency})"]
    first = ["1st month"]
    avg = ["Monthly avg."]
    total = ["Total"]
    diff = [f"Difference with {table.baseline_label}"]
    for entry in table.entries:
        header.append(entry.row.label)
        first.append(format_money_grouped(entry.row.first_month))
        avg.append(format_money_grouped(entry.row.monthly_avg))
        total.append(format_money_grouped(entry.row.total))
        diff.append(entry.difference or "")
    widths = [max(len(row[i]) for row in (header, first, avg, total, diff))
              for i in range(len(labels) + 1)]
    for row in (header, first, avg, total, diff):
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        print("  ".join(cells))
    cli._warn(table.warnings)
    if out:
        cli.write_json(os.path.join(out, "comparison.json"), _comparison_payload(table, currency))


def cmd_compare(args: argparse.Namespace) -> int:
    model_paths = [p for p in args.models.split(",") if p]
    if len(model_paths) < 2:
        raise UsageError("compare needs at least two models")
    plan_paths: list[str | None] = [None] * len(model_paths)
    if args.plans:
        raw = args.plans.split(",")
        if len(raw) != len(model_paths):
            raise UsageError("--plans must list one entry per model ('-' for on-demand)")
        plan_paths = [None if p in ("", "-") else p for p in raw]
    catalog = cli._load_catalog(args)
    scenarios = []
    labels: set[str] = set()
    for path, plan_path in zip(model_paths, plan_paths):
        parsed = model.load_model(path)
        label, n = parsed.name, 1
        while label in labels:  # a later model may itself be named "x #2"
            n += 1
            label = f"{parsed.name} #{n}"
        labels.add(label)
        scenarios.append((label, parsed, cli._load_plan(plan_path)))
    table = engine.compare_scenarios(scenarios, catalog, cli._window(args))
    _emit_comparison(table, catalog.currency, args.out)
    return 0


def cmd_compare_providers(args: argparse.Namespace) -> int:
    parsed = model.load_model(args.model)
    catalog = cli._load_catalog(args)

    def placed(mapping: object) -> list[tuple[str, model.DeploymentModel]]:
        """The model moved to each map entry's provider and region, neither empty."""
        if not isinstance(mapping, dict) or len(mapping) < 2:
            raise schema.Defect(f"map file {args.map}",
                                "expected at least two entries label -> {provider, region}")
        models = []
        for label, target in mapping.items():
            where = f"map entry {label!r}"
            schema.fields(target, where, ("provider", "region"))
            provider, region = (schema.nonempty_string(target, key, where)
                                for key in ("provider", "region"))
            models.append((label, parsed.replaced(provider, region)))
        return models

    models = schema.read(schema.read_input(args.map), placed, CatalogError, args.map)
    plan = cli._load_plan(args.plan)
    scenarios = [(label, moved, plan) for label, moved in models]
    table = engine.compare_scenarios(scenarios, catalog, cli._window(args))
    _emit_comparison(table, catalog.currency, args.out)
    return 0
