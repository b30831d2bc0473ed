"""Month-by-month cost simulation of a deployment model, plus report math.

The engine evaluates every node requirement and communication path for
each month of the window, prices the quantities against the catalog, and
assembles a deterministic cost report. Path volumes are attributed as
data_out on the sending endpoint and data_in on the receiving endpoint,
with the transfer scope resolved from the two placements.

A replay depends only on the requirement's kind class, baseline and pattern
texts once the window is fixed, not on its subject, placement or catalog. So
each replay's monthly quantities and raw clamp messages land in a memo keyed
by that triple, and an equal requirement reuses them, its clamp messages
re-sent under its own ``subject/kind:`` prefix. The memo is owned by one
command: :func:`simulate` makes a fresh one per call, and
:func:`compare_scenarios` shares one across its scenarios, which all use the
same window. Nothing is kept between commands.

Prices repeat the same way: many lines share a rate entry and a quantity. So
:func:`simulate` prices each distinct (rate entry, quantity) pair once, in a
memo local to the call, and lines that share one share its ``Decimal``. The
memo is keyed on the entry itself, not its rate key: a reserved node's flat
hours entry shares its key with the on-demand one but not its price. A float
key cannot merge differently priced zeros, because replay sums each month
from ``+0.0`` and so never yields ``-0.0``. Pricing still runs series by
series, month by month, so a cost too large to price names the same first
line and month as it would without the memo.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import groupby
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from . import model as m
from . import pricing, schema
from .elasticity import UsageSchedule, monthly_series
from .elasticity import parse_patterns  # noqa: F401 -- bench/tracing.py wraps it by name
from .errors import EvaluationError, MissingRateError, ModelError, PlanError
from .money import MONEY_EXP, round_half_even, to_money
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
}

# rollup key -> the line's value under it
_ROLLUP_KEY_OF = {
    "group": lambda line: line.group or "",
    "node": attrgetter("node_id"),
    "dimension": attrgetter("dimension"),
    "provider": attrgetter("provider"),
    "month": lambda line: str(line.month),
}
ROLLUP_KEYS = tuple(_ROLLUP_KEY_OF)

# A line's place in a report: (month, subject, dimension), read in C.
_line_order = attrgetter("month", "subject", "dimension")
_line_month = attrgetter("month")


class PlanChoice(NamedTuple):
    """Purchase choice for one node: on_demand (default) or reserved."""

    kind: str = pricing.ON_DEMAND
    term_months: int | None = None


ON_DEMAND_CHOICE = PlanChoice()


def load_plan(text: str, source: str) -> dict[str, PlanChoice]:
    """Parse a purchase plan (from file ``source``): node id -> "on_demand" |
    {kind, term_months?}. A document that is not an object, unknown keys, a
    term that is not a positive integer and a term on an on_demand choice
    raise PlanError."""
    return schema.read(text, lambda data: _build_plan(data, source), PlanError, source)


def _build_plan(data: object, source: str) -> dict[str, PlanChoice]:
    if not isinstance(data, dict):
        raise PlanError(f"plan file {source}: expected an object of node choices")
    plan: dict[str, PlanChoice] = {}
    for node_id, raw in data.items():
        if raw == pricing.ON_DEMAND:
            plan[node_id] = ON_DEMAND_CHOICE
            continue
        where = f"plan for {node_id!r}"
        if not isinstance(raw, dict):
            raise PlanError(f"{where}: expected 'on_demand' or an object")
        schema.fields(raw, where, ("kind",), ("term_months",))
        term = raw.get("term_months")
        if schema.choice(raw["kind"], where, (pricing.ON_DEMAND, pricing.RESERVED),
                         "purchase kind") == pricing.ON_DEMAND:
            if "term_months" in raw:
                raise PlanError(f"{where}: on_demand choices carry no term")
            plan[node_id] = ON_DEMAND_CHOICE
        else:
            if term is not None and (isinstance(term, bool) or not isinstance(term, int)
                                     or term < 1):
                raise PlanError(f"{where}: term_months must be a positive integer")
            plan[node_id] = PlanChoice(pricing.RESERVED, term)
    return plan


class CostLine(NamedTuple):
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


class _ReportFields(NamedTuple):
    window: SimulationWindow
    lines: tuple[CostLine, ...]
    warnings: tuple[str, ...] = ()
    currency: str = "USD"


class CostReport(_ReportFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, window: SimulationWindow, lines: tuple[CostLine, ...],
                warnings: tuple[str, ...] = (), currency: str = "USD") -> CostReport:
        """Sort keys strictly increase (sorted and unique) and the first and
        last months lie in the window, so renderers read lines as built."""
        keys = list(map(_line_order, lines))
        for prev, key in zip(keys, keys[1:]):
            if not prev < key:
                problem = "duplicate cost line for" if prev == key else "cost line out of order:"
                raise ValueError(f"{problem} {key}")
        for month, _, _ in keys[:1] + keys[-1:]:
            if month not in window:
                raise ValueError(f"line month {month} outside the window")
        return tuple.__new__(cls, (window, lines, warnings, currency))

    def grand_total(self) -> Decimal:
        total = Decimal(0)
        for line in self.lines:
            total += line.cost
        return to_money(total)

    def monthly_totals(self) -> list[tuple[Month, Decimal]]:
        """Each window month's total, summed over its run of the sorted lines."""
        totals = {}
        for month, group in groupby(self.lines, _line_month):
            total = Decimal(0)
            for line in group:
                total += line.cost
            totals[month] = total
        return [(month, to_money(totals.get(month, Decimal(0))))
                for month in self.window.months()]


# (kind class, baseline, pattern texts) -> (quantity per window month, raw clamp messages)
Replays = dict[tuple[str, float, tuple[str, ...]], tuple[tuple[float, ...], tuple[str, ...]]]


def _series(model: m.DeploymentModel, req: m.ResourceRequirement, window: SimulationWindow,
            subject: str, warn, replays: Replays) -> tuple[float, ...]:
    """Quantities of a requirement of a validated model (all its pattern texts
    parsed), replayed unless ``replays`` holds an equal one; either way its
    clamp messages go to ``warn`` under this subject's prefix."""
    key = (m.KIND_CLASS[req.kind], req.baseline, req.patterns)
    replayed = replays.get(key)
    if replayed is None:
        specs = []
        for text in req.patterns:
            specs.extend(model.parsed_patterns[text])
        schedule = UsageSchedule(key[0], req.baseline, tuple(specs))
        clamps: list[str] = []
        try:
            quantities = monthly_series(schedule, window, warn=clamps.append)
        except EvaluationError as exc:
            raise _line_error(subject, req.kind, exc.month, exc) from exc
        replayed = replays[key] = (quantities, tuple(clamps))
    quantities, clamps = replayed
    for msg in clamps:
        warn(f"{subject}/{req.kind}: {msg}")
    return quantities


def _transfer_scope(a: m.Placement, b: m.Placement | None) -> str:
    if b is None:
        return pricing.INTERNET
    if a.provider == b.provider:
        return pricing.INTRA_REGION if a.region == b.region else pricing.INTER_REGION
    return pricing.INTERNET


def simulate(model: m.DeploymentModel, catalog: pricing.PriceCatalog,
             window: SimulationWindow,
             plan: Mapping[str, PlanChoice] | None = None, *,
             replays: Replays | None = None) -> CostReport:
    """Price the model over the window; usage replay starts at its first day.

    ``plan`` selects a purchase option per VM node (default on-demand).
    ``replays`` is the replay memo (see the module docstring); only calls
    with the same window may share one. A fresh one is used by default.
    """
    diagnostics = m.validate(model)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ModelError("cannot simulate an invalid model", errors)
    plan = dict(plan or {})
    _check_plan(model, plan)

    replays = {} if replays is None else replays
    months = window.months()
    warnings: list[str] = []
    lines: list[CostLine] = []
    group_of = {node_id: group.id for group in model.groups for node_id in group.node_ids}
    # rate entry -> {quantity -> cost}; see the module docstring
    prices: dict[pricing.RateEntry, dict[float, Decimal]] = {}

    def emit(quantities: tuple[float, ...], subject: str, endpoint: m.Node, kind: str,
             entry: pricing.RateEntry, scope: str | None) -> None:
        node_id, group, unit = endpoint.id, group_of.get(endpoint.id), UNIT_FOR_KIND[kind]
        provider, region = endpoint.placement.provider, endpoint.placement.region
        costs = prices.setdefault(entry, {})
        for month, quantity in zip(months, quantities):
            cost = costs.get(quantity)
            if cost is None:
                cost = costs[quantity] = _price(entry, quantity, subject, kind, month)
            lines.append(CostLine(month, subject, node_id, kind, quantity, unit, cost,
                                  group, provider, region, scope))

    for node in model.nodes:
        if node.kind == m.REMOTE_NODE:
            continue  # outside the cloud: never priced
        assert node.placement is not None
        provider, region = node.placement.provider, node.placement.region
        choice = plan.get(node.id, ON_DEMAND_CHOICE)
        reserved = _resolve_reserved(catalog, node, choice) if choice.kind == pricing.RESERVED else None

        for req in node.requirements:
            quantities = _series(model, req, window, node.id, warnings.append, replays)
            sku, scope = _rate_key_for(node, req.kind)
            if req.kind == m.VM_HOURS and reserved is not None:
                entry = pricing.RateEntry(provider, region, pricing.VM_HOURS, sku,
                                          flat_price=reserved.hourly_rate)
            else:
                entry = _lookup(catalog, provider, region, DIMENSION_FOR_KIND[req.kind],
                                sku, scope, node.id, req.kind)
            emit(quantities, node.id, node, req.kind, entry, scope)

        if reserved is not None:
            try:
                charges = pricing.reservation_charges(reserved, window)
            except EvaluationError as exc:  # a fee too large fails at its first charge
                raise _line_error(node.id, RESERVATION_UPFRONT, window.start, exc) from exc
            for month, fee in charges:
                lines.append(CostLine(month, node.id, node.id, RESERVATION_UPFRONT, 1.0,
                                      "fee", fee, group_of.get(node.id), provider, region))

    node_by_id = {node.id: node for node in model.nodes}
    for path in model.paths:
        from_node = node_by_id[path.from_node]
        to_node = node_by_id[path.to_node]
        if from_node.placement is None and to_node.placement is None:
            continue  # both endpoints outside the cloud: nothing is billed
        quantities = _series(model, path.volume, window, path.id, warnings.append, replays)
        for endpoint, dimension in ((from_node, m.DATA_OUT_GB), (to_node, m.DATA_IN_GB)):
            if endpoint.placement is None:
                continue  # only the cloud-side endpoint is billed
            other = to_node if endpoint is from_node else from_node
            scope = _transfer_scope(endpoint.placement, other.placement)
            entry = _lookup(catalog, endpoint.placement.provider, endpoint.placement.region,
                            DIMENSION_FOR_KIND[dimension], None, scope, path.id, dimension)
            emit(quantities, path.id, endpoint, dimension, entry, scope)

    lines.sort(key=_line_order)
    return CostReport(window, tuple(lines), tuple(warnings), catalog.currency)


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
    keys = list(map(_ROLLUP_KEY_OF[by], report.lines))
    totals = dict.fromkeys(keys, Decimal(0))
    for key, line in zip(keys, report.lines):
        totals[key] += line.cost
    return [(key, to_money(totals[key])) for key in sorted(totals)]


class SummaryRow(NamedTuple):
    """First month / monthly average / total, as printed in comparison tables.

    The monthly average excludes the first month — avg = (total - first)/(n-1)
    — and is that exact ratio rounded once, half-even, to cents; with one
    month it is the total in cents. Every output prints it as it is.
    """

    label: str
    first_month: Decimal
    monthly_avg: Decimal
    total: Decimal
    months: int


def summarize(totals: Sequence, label: str) -> SummaryRow:
    """Summary of a series of monthly totals, such as the amounts of
    ``report.monthly_totals()``."""
    series = [to_money(value) for value in totals]
    if not series:
        raise ValueError("cannot summarize an empty series")
    first = series[0]
    total = Decimal(0)
    for value in series:
        total += value
    total = to_money(total)
    n = len(series)
    num, den = (total if n == 1 else total - first).as_integer_ratio()
    cents = round_half_even(100 * num, den * max(n - 1, 1))
    return SummaryRow(label, first, Decimal(cents).scaleb(-2), total, n)


class ComparisonEntry(NamedTuple):
    row: SummaryRow
    is_baseline: bool
    difference: str | None  # "+Nx" vs the baseline; None on the baseline row
    delta: Decimal  # total - baseline total


class ComparisonTable(NamedTuple):
    entries: tuple[ComparisonEntry, ...]
    baseline_label: str
    warnings: tuple[str, ...] = ()


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
    base_num, base_den = baseline.total.as_integer_ratio()
    for row in rows:
        if row is baseline:
            entries.append(ComparisonEntry(row, True, None, Decimal(0).quantize(MONEY_EXP)))
            continue
        num, den = row.total.as_integer_ratio()
        multiple = round_half_even(num * base_den, den * base_num) if base_num else 0
        entries.append(ComparisonEntry(row, False, f"+{multiple}x",
                                       to_money(row.total - baseline.total)))
    return ComparisonTable(tuple(entries), baseline.label, tuple(warnings))


def compare_scenarios(scenarios: Sequence[tuple[str, m.DeploymentModel, Mapping[str, PlanChoice] | None]],
                      catalog: pricing.PriceCatalog, window: SimulationWindow
                      ) -> ComparisonTable:
    """Simulate each (label, model, plan), summarize and compare.

    The scenarios share one replay memo, so a requirement that several of
    them carry is replayed once. Each scenario's warnings follow the
    table's own, as ``<label>: <warning>``.
    """
    labels = [label for label, _, _ in scenarios]
    if len(set(labels)) != len(labels):
        raise ValueError("scenario labels must be unique")
    replays: Replays = {}
    rows: list[SummaryRow] = []
    warnings: list[str] = []
    for label, scenario_model, plan in scenarios:
        report = simulate(scenario_model, catalog, window, plan, replays=replays)
        rows.append(summarize([total for _, total in report.monthly_totals()], label))
        warnings.extend(f"{label}: {warning}" for warning in report.warnings)
    table = compare(rows)
    return ComparisonTable(table.entries, table.baseline_label,
                           table.warnings + tuple(warnings))
