"""Report rendering: RFC-4180 CSV and a self-contained static HTML page.

Both formats render the same underlying numbers (2-decimal money, months
as YYYY-MM) and are byte-deterministic for a given report. Charts are
inline SVG; the page makes no network fetches.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from decimal import Decimal
from itertools import accumulate

from . import engine, model as m
from .engine import CostReport, SummaryRow
# bench/tracing.py wraps this name too. Calls go through engine.rollup: a tracer
# that imports this module after wrapping engine's would wrap this copy twice.
from .engine import rollup  # noqa: F401
from .money import format_money
from .months import Month

CSV_HEADER = ("month", "group", "node", "provider", "region",
              "dimension", "quantity", "unit", "cost")

def _escape(text: str) -> str:
    """``text`` safe in HTML content and quoted attributes: ``html.escape``'s
    own five replacements, ``&`` first, without importing ``html``."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _format_quantity(quantity: float) -> str:
    # Daily-walk summation leaves ~1e-14 relative noise on round quantities;
    # snap for display only, never for pricing.
    snapped = round(quantity)
    if quantity == snapped:
        return str(int(snapped))
    if quantity != 0 and abs(quantity - snapped) / max(abs(quantity), 1.0) < 1e-12:
        return str(int(snapped))
    return repr(quantity)


def to_csv(report: CostReport) -> str:
    """Full costing detail, one row per cost line in (month, subject,
    dimension) order. The `node` column carries the line's subject, so
    transfer lines appear under their path id.

    Rows are written month by month, each month's series in report order.
    Each window month, distinct quantity and distinct cost is formatted once,
    and each series' constant fields once, as the text around its quantity:
    ``csv.writer`` writes them, so it alone decides what is quoted (or, on
    Python 3.10, refuses a NUL), and month, quantity and cost texts never
    need quoting. Zero costs are memoized by sign apart from the rest:
    ``-0.000000`` equals ``0`` but renders as ``-0.00``.
    """
    # per series, the text before its quantity and after it: each written as a
    # row with empty end fields, sliced by the characters writerow returns
    scratch = io.StringIO()
    quote = csv.writer(scratch).writerow
    ends = list(accumulate(quote(fields) for item in report.series for fields in (
        ("", item.group or "", item.subject, item.provider, item.region, item.dimension, ""),
        ("", item.unit, ""))))
    text = scratch.getvalue()
    pieces = [text[start:end - 2] for start, end in zip([0, *ends], ends)]  # less \r\n
    heads = list(zip(pieces[::2], pieces[1::2]))
    quantity_text: dict[float, str] = {}
    money_text: dict[Decimal, str] = {}
    zero_text: dict[bool, str] = {}  # a zero cost's sign -> its text
    buffer = io.StringIO()
    csv.writer(buffer).writerow(CSV_HEADER)
    write = buffer.write
    for month, quantities, costs in zip(report.window.months(),
                                        zip(*(item.quantities for item in report.series)),
                                        zip(*(item.costs for item in report.series))):
        month_str = str(month)
        for (before, after), quantity, cost in zip(heads, quantities, costs):
            if cost is None:
                continue
            quantity_str = quantity_text.get(quantity)
            if quantity_str is None:
                quantity_str = quantity_text[quantity] = _format_quantity(quantity)
            memo = money_text if cost else zero_text
            key = cost if cost else cost.is_signed()
            cost_str = memo.get(key)
            if cost_str is None:
                cost_str = memo[key] = format_money(cost)
            write(f"{month_str}{before}{quantity_str}{after}{cost_str}\r\n")
    return buffer.getvalue()


# --- HTML --------------------------------------------------------------------

_PAGE_STYLE = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1, h2 { color: #234; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
svg { background: #fafafa; border: 1px solid #ddd; }
.warn { color: #a40; }
"""


def _monthly_chart(months: Sequence[Month], totals: Sequence[Decimal]) -> str:
    width, height, pad = 720, 240, 40
    top = max(float(t) for t in totals) or 1.0
    n = len(totals)
    step = (width - 2 * pad) / max(n - 1, 1)
    points = []
    circles = []
    for i, (month, total) in enumerate(zip(months, totals)):
        x = pad + i * step
        y = height - pad - (float(total) / top) * (height - 2 * pad)
        points.append(f"{x:.2f},{y:.2f}")
        circles.append(
            f'<circle class="pt" cx="{x:.2f}" cy="{y:.2f}" r="3" '
            f'data-month="{month}" data-total="{format_money(total)}"/>')
    polyline = (f'<polyline fill="none" stroke="#36c" stroke-width="2" '
                f'points="{" ".join(points)}"/>') if n > 1 else ""
    labels = (
        f'<text x="{pad}" y="{height - 12}" font-size="11">{months[0]}</text>'
        f'<text x="{width - pad}" y="{height - 12}" font-size="11" '
        f'text-anchor="end">{months[-1]}</text>'
        f'<text x="{pad}" y="{pad - 8}" font-size="11">max {format_money(max(totals))}</text>'
    )
    return (f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
            f'role="img">{polyline}{"".join(circles)}{labels}</svg>')


def _rollup_table(report: CostReport, by: str, title: str) -> str:
    rows = "".join(
        f"<tr><td>{_escape(key) or '&mdash;'}</td>"
        f'<td class="num">{format_money(total)}</td></tr>'
        for key, total in engine.rollup(report, by)
    )
    return (f"<h2>{title}</h2><table data-rollup=\"{by}\">"
            f"<tr><th>{by}</th><th>cost</th></tr>{rows}</table>")


def _summary_table(row: SummaryRow, currency: str) -> str:
    return (f"<h2>Summary ({_escape(currency)})</h2><table data-summary=\"1\">"
            "<tr><th>scenario</th><th>1st month</th><th>monthly avg.</th>"
            "<th>total</th><th>months</th></tr>"
            f"<tr><td>{_escape(row.label)}</td>"
            f'<td class="num">{format_money(row.first_month)}</td>'
            f'<td class="num">{format_money(row.monthly_avg)}</td>'
            f'<td class="num">{format_money(row.total)}</td>'
            f'<td class="num">{row.months}</td></tr></table>')


def _topology_section(model: m.DeploymentModel) -> str:
    node_rows = "".join(
        f"<tr><td>{_escape(node.id)}</td><td>{node.kind}</td>"
        f"<td>{_escape(node.placement.provider + '/' + node.placement.region) if node.placement else '&mdash;'}</td>"
        f"<td>{_escape(', '.join(r.kind for r in node.requirements)) or '&mdash;'}</td></tr>"
        for node in model.nodes
    )
    path_rows = "".join(
        f"<tr><td>{_escape(path.id)}</td>"
        f"<td>{_escape(path.from_node)} &rarr; {_escape(path.to_node)}</td>"
        f"<td class=\"num\">{_format_quantity(path.volume.baseline)} GB/month</td></tr>"
        for path in model.paths
    )
    out = (f"<h2>Model topology: {_escape(model.name)}</h2>"
           f"<table data-topology=\"nodes\"><tr><th>node</th><th>kind</th>"
           f"<th>placement</th><th>resources</th></tr>{node_rows}</table>")
    if path_rows:
        out += (f"<table data-topology=\"paths\"><tr><th>path</th><th>direction</th>"
                f"<th>baseline volume</th></tr>{path_rows}</table>")
    return out


def to_html(report: CostReport, summary: SummaryRow,
            model: m.DeploymentModel, totals: Sequence[Decimal]) -> str:
    """Single self-contained page: summary, monthly chart, rollup tables,
    warnings and the model topology. ``totals`` is ``report.monthly_totals()``
    and ``summary`` their summary, which the caller has already computed."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        "<title>Cloud cost report</title>",
        f"<style>{_PAGE_STYLE}</style></head><body>",
        "<h1>Cloud cost report</h1>",
        f"<p>Window {report.window.start} to {report.window.end} "
        f"({report.window.count} months) &middot; grand total "
        f"<strong>{format_money(summary.total)} {_escape(report.currency)}</strong></p>",
    ]
    parts.append(_summary_table(summary, report.currency))
    parts.append("<h2>Monthly total</h2>")
    parts.append(_monthly_chart(report.window.months(), totals))
    parts.append(_rollup_table(report, "group", "Cost by group"))
    parts.append(_rollup_table(report, "dimension", "Cost by resource dimension"))
    if report.warnings:
        items = "".join(f'<li class="warn">{_escape(w)}</li>' for w in report.warnings)
        parts.append(f"<h2>Warnings</h2><ul data-warnings=\"1\">{items}</ul>")
    parts.append(_topology_section(model))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
