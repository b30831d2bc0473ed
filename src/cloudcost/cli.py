"""Command-line interface.

Exit codes: 0 success, 1 validation/diagnostic failure, 2 usage error
(including a missing catalog, unreadable or non-UTF-8 input and unwritable
output paths), 3 missing rate. A stderr that cannot be written changes none
of them: every stderr line goes through :func:`to_stderr`.
All output files are written atomically (temp + rename), JSON ones through
:func:`write_json`; output paths are ``str`` paths joined with ``os.path``.
:func:`main` returns the exit code; the process entry,
:func:`cloudcost.__main__.run`, then exits without interpreter teardown.
Each command imports only the modules it runs and builds only its own
argument parser, so a short one starts fast; help, usage and errors read as
they do with every parser built. The handlers of validate, simulate and
export-csv live here. Those of compare and compare-providers live in
:mod:`cloudcost.comparison`, and that of assess in :mod:`cloudcost.assess`,
modules no other command imports, so no other command compiles them;
:data:`COMMANDS` names each handler by module and name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .errors import CloudCostError, MissingRateError, ModelError, UsageError

CATALOG_ENV = "CLOUDCOST_CATALOG"


def write_atomic(path: str, data: str) -> None:
    """Write ``data`` to ``path`` as UTF-8, whole or not at all: into a new
    temp file in the same directory, which is made first, then renamed over
    ``path`` with mode 0o644 whatever the umask."""
    folder, name = os.path.split(path)
    if folder:
        os.makedirs(folder, exist_ok=True)
    attempt = 0
    while True:  # each try takes a new name, so a clash with a stale file ends
        tmp = os.path.join(folder, f".{name}.{os.getpid()}.{attempt}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            break
        except FileExistsError:
            attempt += 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: object) -> None:
    """Write ``payload`` as JSON indented by 2, one line feed at the end."""
    write_atomic(path, json.dumps(payload, indent=2) + "\n")


def to_stderr(text: str) -> None:
    """Write ``text`` to stderr, the one way cloudcost writes there. A stderr
    closed at start (``None``) or that cannot take the text (``OSError``) is
    skipped, so it changes no exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:
            pass


def _warn(warnings: tuple[str, ...]) -> None:
    """The one way a command reports warnings: one stderr line each, in one
    write."""
    if warnings:
        to_stderr("".join(f"warning: {warning}\n" for warning in warnings))


def _load_catalog(args: argparse.Namespace) -> pricing.PriceCatalog:
    from . import pricing

    path = getattr(args, "catalog", None) or os.environ.get(CATALOG_ENV)
    if not path:
        raise UsageError(f"no catalog given: pass --catalog or set {CATALOG_ENV}")
    catalog = pricing.load_catalog_file(path)
    _warn(catalog.warnings)
    return catalog


def _load_plan(path: str | None) -> dict[str, engine.PlanChoice]:
    if path is None:
        return {}
    from . import engine, schema

    return engine.load_plan(schema.read_input(path), path)


def _month_arg(text: str) -> Month:
    """``--start``/``--end`` type; argparse prints an ArgumentTypeError's text."""
    from .months import Month

    try:
        return Month.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rating_arg(text: str) -> int:
    """``--threshold`` type, so the message reads the same on every Python
    version (3.13's ``choices`` check quotes the rejected value)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= 5:
        raise argparse.ArgumentTypeError(f"invalid choice: {value} (choose from 1, 2, 3, 4, 5)")
    return value


def _window(args: argparse.Namespace) -> SimulationWindow:
    from .months import SimulationWindow

    return SimulationWindow(args.start, args.end)


def _summary_payload(row: engine.SummaryRow, currency: str) -> dict:
    from .money import format_money

    return {
        "label": row.label,
        "months": row.months,
        "first_month": format_money(row.first_month),
        "monthly_avg": format_money(row.monthly_avg),
        "total": format_money(row.total),
        "currency": currency,
    }


# --- subcommands ---------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    from . import model

    try:
        model.load_model(args.model)
    except ModelError as exc:
        to_stderr(f"{exc}\n")
        return 1
    return 0


def _run_simulation(args: argparse.Namespace) -> tuple[model.DeploymentModel,
                                                       engine.CostReport]:
    from . import engine, model

    parsed = model.load_model(args.model)
    catalog = _load_catalog(args)
    plan = _load_plan(args.plan)
    cost_report = engine.simulate(parsed, catalog, _window(args), plan)
    return parsed, cost_report


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import engine, report

    parsed, cost_report = _run_simulation(args)
    totals = cost_report.monthly_totals()
    summary = engine.summarize(totals, parsed.name)
    write_atomic(os.path.join(args.out, "report.csv"), report.to_csv(cost_report))
    write_atomic(os.path.join(args.out, "report.html"),
                 report.to_html(cost_report, summary, model=parsed, totals=totals))
    write_json(os.path.join(args.out, "summary.json"),
               _summary_payload(summary, cost_report.currency))
    _warn(cost_report.warnings)
    return 0


def cmd_export_csv(args: argparse.Namespace) -> int:
    from . import report

    _, cost_report = _run_simulation(args)
    write_atomic(os.path.join(args.out, "report.csv"), report.to_csv(cost_report))
    _warn(cost_report.warnings)
    return 0


def _catalog_and_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", help=f"price catalog (default ${CATALOG_ENV})")
    p.add_argument("--start", required=True, type=_month_arg, metavar="YYYY-MM")
    p.add_argument("--end", required=True, type=_month_arg, metavar="YYYY-MM")


def _sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    _catalog_and_window_args(p)
    p.add_argument("--plan", help="purchase plan JSON (node id -> choice)")


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _sim_args(p)
    p.add_argument("--out", required=True)


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--models", required=True, help="comma-separated model files")
    p.add_argument("--plans", help="comma-separated plan files, one per model; '-' or an "
                   "empty entry for on-demand (on-demand first: --plans=-,... or --plans ,...)")
    _catalog_and_window_args(p)
    p.add_argument("--out")


def _compare_providers_args(p: argparse.ArgumentParser) -> None:
    _sim_args(p)
    p.add_argument("--map", required=True,
                   help="JSON file: label -> {provider, region}")
    p.add_argument("--out")


def _assess_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--items", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--threshold", type=_rating_arg, default=4, metavar="{1,2,3,4,5}",
                   help="shortlist items rated at or above this (default 4)")
    p.add_argument("--out")


# name -> (help, arguments, handler's module, handler), in the order help
# lists the commands; main imports the handler's module when its command runs
COMMANDS = {
    "validate": ("validate a deployment model file", _validate_args, "cli", "cmd_validate"),
    "simulate": ("simulate costs and write reports", _simulate_args, "cli", "cmd_simulate"),
    "export-csv": ("simulate and write only report.csv", _simulate_args,
                   "cli", "cmd_export_csv"),
    "compare": ("compare scenario models side by side", _compare_args,
                "comparison", "cmd_compare"),
    "compare-providers": ("re-place all nodes per provider map and compare",
                          _compare_providers_args, "comparison", "cmd_compare_providers"),
    "assess": ("score a Likert rating sheet", _assess_args, "assess", "cmd_assess"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``cloudcost`` parser, with only ``command``'s subparser when it
    names one of :data:`COMMANDS`, else with all of them.

    Help, usage and errors read the same either way. The one-command parser's
    usage line lists every command through a metavar, which the full parser
    must not set: it would rename ``argument command`` in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="cloudcost",
        description="Estimate IaaS deployment costs and score migration "
                    "benefits and risks.")
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        help_text, add_arguments, _, _ = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names; its exit code.
    A first argument that names a command builds only that command's parser."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, _, module, handler = COMMANDS[args.command]
    try:
        return getattr(import_module(f".{module}", __package__), handler)(args)
    except MissingRateError as exc:
        to_stderr(f"error: {exc}\n")
        return 3
    except (UsageError, OSError) as exc:
        to_stderr(f"error: {exc}\n")
        return 2
    except CloudCostError as exc:
        to_stderr(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
