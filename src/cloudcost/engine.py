"""Month-by-month cost simulation of a deployment model, plus report math.

The engine evaluates every node requirement and communication path for
each month of the window, prices the quantities against the catalog, and
assembles a deterministic cost report. Path volumes are attributed as
data_out on the sending endpoint and data_in on the receiving endpoint,
with the transfer scope resolved from the two placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Mapping, Sequence

from . import model as m
from . import pricing
from .elasticity import UsageSchedule, monthly_series
from .elasticity import parse_patterns  # noqa: F401 -- bench/tracing.py wraps it by name
from .errors import EvaluationError, MissingRateError, ModelError, PlanError, _key_problem
from .money import CENT_EXP, MONEY_EXP, as_decimal, to_money
from .months import Month, SimulationWindow

RESERVATION_UPFRONT = "reservation_upfront"

# Requirement kind -> catalog dimension. Stocks bill in GB-months.
DIMENSION_FOR_KIND = {
    m.VM_HOURS: pricing.VM_HOURS,
    m.STORAGE_GB: pricing.STORAGE_GB_MONTH,
    m.IO_IN_REQUESTS: pricing.IO_IN_REQUESTS,
    m.IO_OUT_REQUESTS: pricing.IO_OUT_REQUESTS,
    m.IO_GB: pricing.IO_GB,
    m.DATA_IN_GB: pricing.DATA_IN_GB,
    m.DATA_OUT_GB: pricing.DATA_OUT_GB,
}

UNIT_FOR_KIND = {
    m.VM_HOURS: "hours",
    m.STORAGE_GB: "GB-month",
    m.IO_IN_REQUESTS: "requests",
    m.IO_OUT_REQUESTS: "requests",
    m.IO_GB: "GB",
    m.DATA_IN_GB: "GB",
    m.DATA_OUT_GB: "GB",
    m.DATA_LINK_GB: "GB",
}

ROLLUP_KEYS = ("group", "node", "dimension", "provider", "month")


@dataclass(frozen=True)
class PlanChoice:
    """Purchase choice for one node: on_demand (default) or reserved."""

    kind: str = pricing.ON_DEMAND
    term_months: int | None = None


ON_DEMAND_CHOICE = PlanChoice()


def parse_plan(data: Mapping) -> dict[str, PlanChoice]:
    """Plan document: node id -> "on_demand" | {kind, term_months?}.

    Unknown keys, a term that is not a positive integer and a term on an
    on_demand choice are PlanErrors.
    """
    plan: dict[str, PlanChoice] = {}
    for node_id, raw in data.items():
        if raw == pricing.ON_DEMAND:
            plan[node_id] = ON_DEMAND_CHOICE
            continue
        if not isinstance(raw, dict):
            raise PlanError(f"plan for {node_id!r}: expected 'on_demand' or an object")
        problem = _key_problem(raw, ("kind",), ("term_months",))
        if problem:
            raise PlanError(f"plan for {node_id!r}: {problem}")
        kind, term = raw["kind"], raw.get("term_months")
        if kind == pricing.ON_DEMAND:
            if "term_months" in raw:
                raise PlanError(f"plan for {node_id!r}: on_demand choices carry no term")
            plan[node_id] = ON_DEMAND_CHOICE
        elif kind == pricing.RESERVED:
            if term is not None and (isinstance(term, bool) or not isinstance(term, int)
                                     or term < 1):
                raise PlanError(f"plan for {node_id!r}: term_months must be a positive integer")
            plan[node_id] = PlanChoice(pricing.RESERVED, term)
        else:
            raise PlanError(f"plan for {node_id!r}: unknown purchase kind {kind!r}")
    return plan


@dataclass(frozen=True)
class CostLine:
    month: Month
    subject: str  # node id, or path id for transfer attribution lines
    node_id: str  # the endpoint whose placement priced the line
    dimension: str
    quantity: float
    unit: str
    cost: Decimal
    group: str | None
    provider: str
    region: str
    scope: str | None = None

    @property
    def sort_key(self) -> tuple:
        return (self.month, self.subject, self.dimension)


@dataclass(frozen=True)
class CostReport:
    window: SimulationWindow
    lines: tuple[CostLine, ...]
    warnings: tuple[str, ...] = ()
    currency: str = "USD"

    def __post_init__(self) -> None:
        seen = set()
        for line in self.lines:
            if line.month not in self.window:
                raise ValueError(f"line month {line.month} outside the window")
            if line.sort_key in seen:
                raise ValueError(f"duplicate cost line for {line.sort_key}")
            seen.add(line.sort_key)

    def grand_total(self) -> Decimal:
        total = Decimal(0)
        for line in self.lines:
            total += line.cost
        return to_money(total)

    def monthly_totals(self) -> list[tuple[Month, Decimal]]:
        totals = {month: Decimal(0) for month in self.window.months()}
        for line in self.lines:
            totals[line.month] += line.cost
        return [(month, to_money(totals[month])) for month in self.window.months()]


def _series(model: m.DeploymentModel, req: m.ResourceRequirement, window: SimulationWindow,
            usage_start: Month | None, subject: str, warn) -> list[tuple[Month, float]]:
    """Replay a requirement of a validated model (all its pattern texts parsed)."""
    specs = []
    for text in req.patterns:
        specs.extend(model.parsed_patterns[text])
    schedule = UsageSchedule(m.KIND_CLASS[req.kind], req.baseline, tuple(specs))
    sink = None if warn is None else (lambda msg: warn(f"{subject}/{req.kind}: {msg}"))
    try:
        return monthly_series(schedule, window, usage_start, sink)
    except EvaluationError as exc:
        raise _line_error(subject, req.kind, exc.month, exc) from exc


def _transfer_scope(a: m.Placement, b: m.Placement | None) -> str:
    if b is None:
        return pricing.INTERNET
    if a.provider == b.provider:
        return pricing.INTRA_REGION if a.region == b.region else pricing.INTER_REGION
    return pricing.INTERNET


def simulate(model: m.DeploymentModel, catalog: pricing.PriceCatalog,
             window: SimulationWindow,
             plan: Mapping[str, PlanChoice] | None = None,
             usage_start: Month | None = None) -> CostReport:
    """Price the model over the window.

    ``plan`` selects a purchase option per VM node (default on-demand);
    ``usage_start`` anchors pattern replay before the billing window so a
    window can be split without resetting permanent patterns.
    """
    diagnostics = m.validate(model)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ModelError("cannot simulate an invalid model", errors)
    plan = dict(plan or {})
    _check_plan(model, plan)

    warnings: list[str] = []
    lines: list[CostLine] = []
    group_of = {node_id: group.id for group in model.groups for node_id in group.node_ids}

    for node in model.nodes:
        if node.kind == m.REMOTE_NODE:
            continue  # outside the cloud: never priced
        assert node.placement is not None
        provider, region = node.placement.provider, node.placement.region
        group = group_of.get(node.id)
        choice = plan.get(node.id, ON_DEMAND_CHOICE)
        reserved = _resolve_reserved(catalog, node, choice) if choice.kind == pricing.RESERVED else None

        for req in node.requirements:
            series = _series(model, req, window, usage_start, node.id, warnings.append)
            if req.kind == m.VM_HOURS and reserved is not None:
                for month, quantity in series:
                    try:
                        cost = to_money(as_decimal(quantity) * reserved.hourly_rate)
                    except EvaluationError as exc:
                        raise _line_error(node.id, req.kind, month, exc) from exc
                    lines.append(CostLine(month, node.id, node.id, req.kind, quantity,
                                          UNIT_FOR_KIND[req.kind], cost,
                                          group, provider, region))
                continue
            sku, scope = _rate_key_for(node, req.kind)
            entry = _lookup(catalog, provider, region, DIMENSION_FOR_KIND[req.kind],
                            sku, scope, node.id, req.kind)
            for month, quantity in series:
                cost = _price(entry, quantity, node.id, req.kind, month)
                lines.append(CostLine(month, node.id, node.id, req.kind, quantity,
                                      UNIT_FOR_KIND[req.kind], cost,
                                      group, provider, region, scope))

        if reserved is not None:
            for month, fee in pricing.reservation_charges(reserved, window):
                lines.append(CostLine(month, node.id, node.id, RESERVATION_UPFRONT, 1.0,
                                      "fee", fee, group, provider, region))

    node_by_id = {node.id: node for node in model.nodes}
    for path in model.paths:
        from_node = node_by_id[path.from_node]
        to_node = node_by_id[path.to_node]
        if from_node.placement is None and to_node.placement is None:
            continue  # both endpoints outside the cloud: nothing is billed
        series = _series(model, path.volume, window, usage_start, path.id, warnings.append)
        for endpoint, dimension in ((from_node, m.DATA_OUT_GB), (to_node, m.DATA_IN_GB)):
            if endpoint.placement is None:
                continue  # only the cloud-side endpoint is billed
            other = to_node if endpoint is from_node else from_node
            scope = _transfer_scope(endpoint.placement, other.placement)
            entry = _lookup(catalog, endpoint.placement.provider, endpoint.placement.region,
                            DIMENSION_FOR_KIND[dimension], None, scope, path.id, dimension)
            for month, quantity in series:
                cost = _price(entry, quantity, path.id, dimension, month)
                lines.append(CostLine(month, path.id, endpoint.id, dimension, quantity,
                                      UNIT_FOR_KIND[dimension], cost,
                                      group_of.get(endpoint.id),
                                      endpoint.placement.provider,
                                      endpoint.placement.region, scope))

    lines.sort(key=lambda line: line.sort_key)
    deduped = tuple(dict.fromkeys(warnings))
    return CostReport(window, tuple(lines), deduped, catalog.currency)


def _rate_key_for(node: m.Node, kind: str) -> tuple[str | None, str | None]:
    """Catalog sku/scope for a node-level requirement.

    VM hours use the node's sku when present (raw-spec machines and hosted
    databases fall back to the provider's sku-less rate); storage-family
    dimensions use the storage type; node-level transfer is internet scope.
    """
    sku = None
    if kind == m.VM_HOURS and node.vm_spec is not None:
        sku = node.vm_spec.sku
    elif kind in (m.STORAGE_GB, m.IO_IN_REQUESTS, m.IO_OUT_REQUESTS, m.IO_GB):
        if node.storage_spec is not None:
            sku = node.storage_spec.storage_type
    scope = pricing.INTERNET if kind in (m.DATA_IN_GB, m.DATA_OUT_GB) else None
    return sku, scope


def _lookup(catalog: pricing.PriceCatalog, provider: str, region: str, dimension: str,
            sku: str | None, scope: str | None, subject: str, kind: str) -> pricing.RateEntry:
    try:
        return pricing.lookup_rate(catalog, provider, region, dimension, sku, scope)
    except MissingRateError as exc:
        raise MissingRateError(f"{subject}/{kind}: {exc}", exc.key) from exc


def _price(entry: pricing.RateEntry, quantity: float, subject: str, kind: str,
           month: Month) -> Decimal:
    try:
        return pricing.price_breakdown(entry, quantity)
    except EvaluationError as exc:
        raise _line_error(subject, kind, month, exc) from exc


def _line_error(subject: str, kind: str, month: Month,
                exc: EvaluationError) -> EvaluationError:
    return EvaluationError(f"{subject}/{kind} in {month}: {exc}")


def _check_plan(model: m.DeploymentModel, plan: Mapping[str, PlanChoice]) -> None:
    node_by_id = {node.id: node for node in model.nodes}
    for node_id, choice in plan.items():
        node = node_by_id.get(node_id)
        if node is None:
            raise PlanError(f"plan references unknown node {node_id!r}")
        if choice.kind == pricing.RESERVED and node.kind != m.VIRTUAL_MACHINE:
            raise PlanError(f"plan reserves {node_id!r}, which is not a virtual machine")


def _resolve_reserved(catalog: pricing.PriceCatalog, node: m.Node,
                      choice: PlanChoice) -> pricing.PurchaseOption:
    assert node.placement is not None
    if node.vm_spec is None or node.vm_spec.sku is None:
        raise PlanError(f"node {node.id!r} has no sku; raw-spec machines cannot be reserved")
    provider, region = node.placement.provider, node.placement.region
    sku = catalog.find_sku(provider, region, node.vm_spec.sku)
    if sku is None:
        key = f"{provider}/{region}/sku/{node.vm_spec.sku}"
        raise MissingRateError(f"{node.id}: no catalog sku for {key}", key)
    option = sku.reserved_option(choice.term_months)
    if option is None:
        term = "any term" if choice.term_months is None else f"{choice.term_months}m term"
        key = f"{provider}/{region}/sku/{node.vm_spec.sku}/reserved"
        raise MissingRateError(
            f"{node.id}: no unique reserved option ({term}) for {key}", key)
    return option


# --- rollups, summaries, comparisons ----------------------------------------

def rollup(report: CostReport, by: str) -> list[tuple[str, Decimal]]:
    """Totals per key; the key-sums always equal the grand total exactly."""
    if by not in ROLLUP_KEYS:
        raise ValueError(f"unknown rollup key {by!r}, expected one of {ROLLUP_KEYS}")
    totals: dict[str, Decimal] = {}
    for line in report.lines:
        if by == "group":
            key = line.group or ""
        elif by == "node":
            key = line.node_id
        elif by == "dimension":
            key = line.dimension
        elif by == "provider":
            key = line.provider
        else:
            key = str(line.month)
        totals[key] = totals.get(key, Decimal(0)) + line.cost
    return [(key, to_money(totals[key])) for key in sorted(totals)]


@dataclass(frozen=True)
class SummaryRow:
    """First month / monthly average / total, as printed in comparison tables.

    The monthly average excludes the first month — avg = (total - first)/(n-1)
    — and is kept as an exact fraction so the identity holds without rounding.
    """

    label: str
    first_month: Decimal
    monthly_avg: Fraction
    total: Decimal
    months: int

    def monthly_avg_money(self) -> Decimal:
        value = Decimal(self.monthly_avg.numerator) / Decimal(self.monthly_avg.denominator)
        return value.quantize(CENT_EXP, rounding=ROUND_HALF_EVEN)


def summarize(source: CostReport | Sequence, label: str) -> SummaryRow:
    """Summary of a report or of a plain monthly-totals series."""
    if isinstance(source, CostReport):
        series = [total for _, total in source.monthly_totals()]
    else:
        series = [to_money(value) for value in source]
    if not series:
        raise ValueError("cannot summarize an empty series")
    first = series[0]
    total = Decimal(0)
    for value in series:
        total += value
    total = to_money(total)
    n = len(series)
    if n == 1:
        avg = Fraction(total)
    else:
        avg = Fraction(total - first) / (n - 1)
    return SummaryRow(label, first, avg, total, n)


@dataclass(frozen=True)
class ComparisonEntry:
    row: SummaryRow
    is_baseline: bool
    difference: str | None  # "+Nx" vs the baseline; None on the baseline row
    delta: Decimal  # total - baseline total


@dataclass(frozen=True)
class ComparisonTable:
    entries: tuple[ComparisonEntry, ...]
    baseline_label: str
    warnings: tuple[str, ...] = ()

    def entry(self, label: str) -> ComparisonEntry:
        for entry in self.entries:
            if entry.row.label == label:
                return entry
        raise KeyError(label)


def compare(rows: Sequence[SummaryRow]) -> ComparisonTable:
    """Pick the cheapest total as baseline and express the rest as +Nx."""
    if len(rows) < 2:
        raise ValueError("comparison needs at least two rows")
    min_total = min(row.total for row in rows)
    tied = [row for row in rows if row.total == min_total]
    baseline = min(tied, key=lambda row: row.label)
    warnings = []
    if len(tied) > 1:
        others = ", ".join(sorted(row.label for row in tied if row is not baseline))
        warnings.append(f"total tie between {baseline.label} and {others}; "
                        f"baseline chosen by label order")
    entries = []
    base_total = Fraction(baseline.total)
    for row in rows:
        if row is baseline:
            entries.append(ComparisonEntry(row, True, None, Decimal(0).quantize(MONEY_EXP)))
            continue
        multiple = round(Fraction(row.total) / base_total) if base_total else 0
        entries.append(ComparisonEntry(row, False, f"+{multiple}x",
                                       to_money(row.total - baseline.total)))
    return ComparisonTable(tuple(entries), baseline.label, tuple(warnings))


def compare_scenarios(scenarios: Sequence[tuple[str, m.DeploymentModel, Mapping[str, PlanChoice] | None]],
                      catalog: pricing.PriceCatalog, window: SimulationWindow,
                      usage_start: Month | None = None) -> ComparisonTable:
    """Simulate each (label, model, plan), summarize and compare."""
    labels = [label for label, _, _ in scenarios]
    if len(set(labels)) != len(labels):
        raise ValueError("scenario labels must be unique")
    rows = [summarize(simulate(scenario_model, catalog, window, plan, usage_start), label)
            for label, scenario_model, plan in scenarios]
    return compare(rows)
