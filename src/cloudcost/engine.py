"""Month-by-month cost simulation of a deployment model, plus report math.

The engine evaluates every node requirement and communication path for
each month of the window, prices the quantities against the catalog, and
assembles a deterministic cost report. Path volumes are attributed as
data_out on the sending endpoint and data_in on the receiving endpoint,
with the transfer scope resolved from the two placements.

A replay depends only on the requirement's kind class, baseline and pattern
texts once the window is fixed, not on its subject, placement or catalog. So
the pair a replay returns, monthly quantities and raw clamp messages, lands
in a memo keyed by that triple, and an equal requirement reuses it; each
requirement reports the messages under its own ``subject/kind:`` prefix.
A replay's month plan (see :mod:`cloudcost.elasticity`) depends on the
pattern texts alone, so the same memo keeps it beside the texts'
concatenated specs, keyed by the texts, for every replay of them. A
pattern's firing masks depend on the pattern and the window's calendar
alone, so the memo keeps, keyed by the window, the window's calendar and
each pattern's column of firing masks, built once per command and read by
every plan that uses the pattern. And a month's day layout depends on its
length and firing masks alone, so the memo also holds the layouts every
plan shares, keyed by (days in the month, the OR of its perms' firing
masks, its temps' firing masks in order), with the store of month totals by
class value that each one-class layout keeps, so a one-run month is summed
once per (layout, value) in a command. The memo is owned by one command:
:func:`simulate` makes a fresh one per call, and :func:`compare_scenarios`
shares one across its scenarios, which all use the same window. Nothing is
kept between commands.

Prices repeat the same way: many lines share a rate entry and a quantity. So
:func:`simulate` prices each distinct (rate entry, quantity) pair once, in a
memo local to the call, and lines that share one share its ``Decimal``. The
memo is keyed on the entry itself, not its rate key: a reserved node's flat
hours entry shares its key with the on-demand one but not its price. A float
key cannot merge differently priced zeros, because replay sums each month
from ``+0.0`` and so never yields ``-0.0``. Pricing still runs series by
series, month by month, so a cost too large to price names the same first
line and month as it would without the memo.

A report is made of series, not lines. Each series (one requirement or path
endpoint, or a reserved node's fees) is a :class:`CostSeries`: the fields
that are constant over it once, then its quantities and costs aligned to the
window months; a fee series holds ``None`` in months without a fee, and always
has its first month, because fees start at the window start. The series are
sorted by (subject, dimension), which is unique per series in a validated
model. Walking them month by month gives the report's (month, subject,
dimension) line order, so totals, rollups and the CSV read the cost columns
month-major, while each key or constant text is computed once per series.
``report.lines`` builds the lines on demand.

Monthly totals and rollups add with built-in ``sum`` from ``Decimal(0)`` over
that line-order stream of costs, ``None`` skipped (not zeros). With a ``Decimal``
start, ``sum`` adds left to right with no compensation, so every ``Decimal``
is added in line order, exactly as a ``+=`` loop would; Python 3.12's
compensated summation is for floats alone, which is why replay never sums
floats with ``sum``. The grand total is the sum of the monthly totals
(:func:`summarize`); every cost is non-negative money with 6 decimal places,
so below 1E+22 every partial sum is exact, and the grand total equals the
line-order sum of the costs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from decimal import Decimal
from functools import partial
from itertools import chain
from operator import attrgetter, is_not

from . import model as m
from . import pricing, schema
from .elasticity import FLOW, STOCK, UsageSchedule, month_plan, monthly_series
from .errors import CloudCostError, EvaluationError, MissingRateError, ModelError, PlanError
from .money import MONEY_EXP, round_half_even, to_money
from .months import Month, SimulationWindow
from .patterns import parse_patterns  # noqa: F401 -- bench/tracing.py wraps it by name

RESERVATION_UPFRONT = "reservation_upfront"

# Requirement kind -> (catalog dimension, line unit). storage_gb is a held
# level, a stock billed by time-average in GB-months (see _series); every
# other kind is a flow, a consumed monthly quantity.
BILLING_FOR_KIND = {
    m.VM_HOURS: (pricing.VM_HOURS, "hours"),
    m.STORAGE_GB: (pricing.STORAGE_GB_MONTH, "GB-month"),
    m.IO_IN_REQUESTS: (pricing.IO_IN_REQUESTS, "requests"),
    m.IO_OUT_REQUESTS: (pricing.IO_OUT_REQUESTS, "requests"),
    m.IO_GB: (pricing.IO_GB, "GB"),
    m.DATA_IN_GB: (pricing.DATA_IN_GB, "GB"),
    m.DATA_OUT_GB: (pricing.DATA_OUT_GB, "GB"),
}

ROLLUP_KEYS = ("group", "dimension")  # the HTML report's two tables
# rollup key -> the series' value under it
_SERIES_KEY_OF = {"group": lambda series: series.group or "",
                  "dimension": attrgetter("dimension")}


PlanChoice = namedtuple("PlanChoice", "kind term_months", defaults=(pricing.ON_DEMAND, None))
PlanChoice.__doc__ = "Purchase choice for one node: on_demand (default) or reserved."


ON_DEMAND_CHOICE = PlanChoice()


def load_plan(text: str, source: str) -> dict[str, PlanChoice]:
    """Parse a purchase plan (from file ``source``): node id -> "on_demand" |
    {kind, term_months?}. A document that is not an object, unknown keys, a
    term that is not a positive integer and a term on an on_demand choice
    raise PlanError."""
    return schema.read(text, lambda data: _build_plan(data, source), PlanError, source)


def _build_plan(data: object, source: str) -> dict[str, PlanChoice]:
    if not isinstance(data, dict):
        raise schema.Defect(f"plan file {source}", "expected an object of node choices")
    plan: dict[str, PlanChoice] = {}
    for node_id, raw in data.items():
        if raw == pricing.ON_DEMAND:
            plan[node_id] = ON_DEMAND_CHOICE
            continue
        where = f"plan for {node_id!r}"
        if not isinstance(raw, dict):
            raise schema.Defect(where, "expected 'on_demand' or an object")
        schema.fields(raw, where, ("kind",), ("term_months",))
        term = raw.get("term_months")
        if schema.choice(raw["kind"], where, (pricing.ON_DEMAND, pricing.RESERVED),
                         "purchase kind") == pricing.ON_DEMAND:
            if "term_months" in raw:
                raise schema.Defect(where, "on_demand choices carry no term")
            plan[node_id] = ON_DEMAND_CHOICE
        else:
            if term is not None and (isinstance(term, bool) or not isinstance(term, int)
                                     or term < 1):
                raise schema.Defect(where, "term_months must be a positive integer")
            plan[node_id] = PlanChoice(pricing.RESERVED, term)
    return plan


# subject: the node id, or the path id for transfer attribution lines;
# node_id: the endpoint whose placement priced the line; group, scope: str | None
CostLine = namedtuple("CostLine", "month subject node_id dimension quantity unit cost group "
                      "provider region scope", defaults=(None,))

CostSeries = namedtuple("CostSeries", "subject node_id dimension unit group provider region "
                        "scope quantities costs")
CostSeries.__doc__ = """The cost lines of one requirement or path endpoint, or a reserved
node's fees: the fields a line repeats, then its quantities and costs,
one per window month. A month without a line holds ``None`` in both."""


_series_key = attrgetter("subject", "dimension")  # a series' place in a report
_ZERO = Decimal(0)
_is_cost = partial(is_not, None)  # a month with a line; a zero cost is one too


class CostReport(namedtuple("CostReport", "window series warnings currency",
                            defaults=((), "USD"))):
    """The priced window: its CostSeries in (subject, dimension) order, the
    run's warnings and the catalog's currency."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, window: SimulationWindow, series: tuple[CostSeries, ...],
                warnings: tuple[str, ...] = (), currency: str = "USD") -> CostReport:
        """Series keys (subject, dimension) strictly increase, and each series
        is as long as the window and has its first month, so the series read
        month by month give the lines sorted, unique and inside the window."""
        keys = list(map(_series_key, series))
        for prev, key in zip(keys, keys[1:]):
            if not prev < key:
                raise ValueError(f"duplicate cost series for {key}" if prev == key
                                 else f"cost series out of order: {key}")
        count = window.count
        for item in series:
            if not len(item.quantities) == len(item.costs) == count:
                raise ValueError(f"cost series {item.subject}/{item.dimension}: "
                                 f"{len(item.costs)} costs and {len(item.quantities)} "
                                 f"quantities for a {count}-month window")
            if item.costs[0] is None:
                raise ValueError(f"cost series {item.subject}/{item.dimension} has no line "
                                 f"in the window's first month {window.start}")
        return tuple.__new__(cls, (window, series, warnings, currency))

    @property
    def lines(self) -> tuple[CostLine, ...]:
        """The cost lines in (month, subject, dimension) order, built on demand."""
        return tuple(CostLine(month, item.subject, item.node_id, item.dimension,
                              item.quantities[index], item.unit, item.costs[index],
                              item.group, item.provider, item.region, item.scope)
                     for index, month in enumerate(self.window.months())
                     for item in self.series if item.costs[index] is not None)

    def monthly_totals(self) -> list[Decimal]:
        """Each window month's total, summed over its lines in line order;
        aligned to ``window.months()``."""
        columns = [item.costs for item in self.series] or [(None,) * self.window.count]
        return [to_money(sum(filter(_is_cost, costs), _ZERO)) for costs in zip(*columns)]


# The replay memo: pattern texts -> (their specs, their month plan),
# (kind class, baseline, pattern texts) -> (quantity per window month, raw
# clamp messages), the window -> (its calendar, each pattern's column of
# firing masks), and (days in the month, perm mask, temp masks) -> day
# layout. A key of texts holds strings only, a replay key starts with a
# string, a window key with a Month and a layout key with an int, so the four
# kinds of key never meet; and a column sits under its own window's key.
Replays = dict[tuple, tuple]


def _series(model: m.DeploymentModel, req: m.ResourceRequirement, window: SimulationWindow,
            subject: str, replays: Replays) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Quantities and raw clamp messages of a validated model's requirement,
    replayed unless ``replays`` holds an equal one."""
    key = (STOCK if req.kind == m.STORAGE_GB else FLOW, req.baseline, req.patterns)
    replayed = replays.get(key)
    if replayed is None:
        planned = replays.get(req.patterns)
        if planned is None:
            specs = tuple(spec for text in req.patterns for spec in model.parsed_patterns[text])
            planned = replays[req.patterns] = (specs, month_plan(specs, window, replays))
        specs, plan = planned
        try:
            replayed = replays[key] = monthly_series(
                UsageSchedule(key[0], req.baseline, specs), window, plan=plan)
        except EvaluationError as exc:
            raise _line_error(subject, req.kind, exc.month, exc) from exc
    return replayed


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
    if diagnostics:  # validation finds errors only
        raise ModelError("cannot simulate an invalid model", diagnostics)
    plan = dict(plan or {})
    node_by_id = {node.id: node for node in model.nodes}
    for node_id, choice in plan.items():
        if node_id not in node_by_id:
            raise PlanError(f"plan references unknown node {node_id!r}")
        if choice.kind == pricing.RESERVED and node_by_id[node_id].kind != m.VIRTUAL_MACHINE:
            raise PlanError(f"plan reserves {node_id!r}, which is not a virtual machine")

    replays = {} if replays is None else replays
    months = window.months()
    warnings: list[str] = []
    series: list[CostSeries] = []  # see the module docstring
    group_of = {node_id: group.id for group in model.groups for node_id in group.node_ids}
    # rate entry -> {quantity -> cost}; see the module docstring
    prices: dict[pricing.RateEntry, dict[float, Decimal]] = {}

    def emit(quantities: tuple[float, ...], subject: str, endpoint: m.Node, kind: str,
             sku: str | None, scope: str | None, hourly: Decimal | None = None) -> None:
        """Price one series at its rate key's entry, or at a reserved node's
        ``hourly`` rate; a missing rate or an unpriceable cost names the line."""
        node_id, group = endpoint.id, group_of.get(endpoint.id)
        provider, region = endpoint.placement.provider, endpoint.placement.region
        dimension, unit = BILLING_FOR_KIND[kind]
        costs: list[Decimal] = []
        try:
            if hourly is None:
                entry = pricing.lookup_rate(catalog, provider, region, dimension, sku, scope)
            else:
                entry = pricing.RateEntry(provider, region, dimension, sku, scope, hourly)
            memo = prices.setdefault(entry, {})
            for quantity in quantities:
                cost = memo.get(quantity)
                if cost is None:
                    cost = memo[quantity] = pricing.price_breakdown(entry, quantity)
                costs.append(cost)
        except MissingRateError as exc:
            raise MissingRateError(f"{subject}/{kind}: {exc}", exc.key) from exc
        except EvaluationError as exc:
            raise _line_error(subject, kind, months[len(costs)], exc) from exc
        series.append(CostSeries(subject, node_id, kind, unit, group, provider, region, scope,
                                 quantities, tuple(costs)))

    for node in model.nodes:
        if node.kind == m.REMOTE_NODE:
            continue  # outside the cloud: never priced
        assert node.placement is not None
        provider, region = node.placement.provider, node.placement.region
        choice = plan.get(node.id, ON_DEMAND_CHOICE)
        reserved = _resolve_reserved(catalog, node, choice) if choice.kind == pricing.RESERVED else None
        hourly = None if reserved is None else reserved.hourly_rate

        for req in node.requirements:
            quantities, clamps = _series(model, req, window, node.id, replays)
            if clamps:
                warnings.extend(f"{node.id}/{req.kind}: {msg}" for msg in clamps)
            sku, scope = _rate_key_for(node, req.kind)
            emit(quantities, node.id, node, req.kind, sku, scope,
                 hourly if req.kind == m.VM_HOURS else None)

        if reserved is not None:
            try:
                fees = pricing.reservation_charges(reserved, window)
            except EvaluationError as exc:  # a fee too large fails at its first charge
                raise _line_error(node.id, RESERVATION_UPFRONT, window.start, exc) from exc
            if fees:  # the first falls in window.start, so fees[0] is a line
                series.append(CostSeries(
                    node.id, node.id, RESERVATION_UPFRONT, "fee", group_of.get(node.id),
                    provider, region, None,
                    tuple(None if fee is None else 1.0 for fee in fees), fees))

    for path in model.paths:
        from_node = node_by_id[path.from_node]
        to_node = node_by_id[path.to_node]
        if from_node.placement is None and to_node.placement is None:
            continue  # both endpoints outside the cloud: nothing is billed
        quantities, clamps = _series(model, path.volume, window, path.id, replays)
        if clamps:
            warnings.extend(f"{path.id}/{path.volume.kind}: {msg}" for msg in clamps)
        for endpoint, kind in ((from_node, m.DATA_OUT_GB), (to_node, m.DATA_IN_GB)):
            if endpoint.placement is None:
                continue  # only the cloud-side endpoint is billed
            other = to_node if endpoint is from_node else from_node
            emit(quantities, path.id, endpoint, kind, None,
                 _transfer_scope(endpoint.placement, other.placement))

    series.sort(key=_series_key)
    return CostReport(window, tuple(series), tuple(warnings), catalog.currency)


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


def _line_error(subject: str, kind: str, month: Month,
                exc: EvaluationError) -> EvaluationError:
    return EvaluationError(f"{subject}/{kind} in {month}: {exc}")


def _resolve_reserved(catalog: pricing.PriceCatalog, node: m.Node,
                      choice: PlanChoice) -> pricing.PurchaseOption:
    assert node.placement is not None
    if node.vm_spec is None or node.vm_spec.sku is None:
        raise PlanError(f"node {node.id!r} has no sku; raw-spec machines cannot be reserved")
    provider, region = node.placement.provider, node.placement.region
    key = f"{provider}/{region}/sku/{node.vm_spec.sku}"
    options = catalog.reserved.get((provider, region, node.vm_spec.sku))
    if options is None:
        raise MissingRateError(f"{node.id}: no catalog sku for {key}", key)
    matching = [option for option in options
                if choice.term_months in (None, option.term_months)]
    if len(matching) != 1:
        term = "any term" if choice.term_months is None else f"{choice.term_months}m term"
        key += "/reserved"
        raise MissingRateError(f"{node.id}: no unique reserved option ({term}) for {key}", key)
    return matching[0]


# --- rollups, summaries, comparisons ----------------------------------------

def rollup(report: CostReport, by: str) -> list[tuple[str, Decimal]]:
    """Totals per key, each adding its lines' costs in line order. For a
    report :func:`simulate` builds, the key sums add up to the grand total
    exactly."""
    if by not in ROLLUP_KEYS:
        raise ValueError(f"unknown rollup key {by!r}, expected one of {ROLLUP_KEYS}")
    columns: dict[str, list[tuple[Decimal | None, ...]]] = {}  # key -> its series' costs
    for item in report.series:
        columns.setdefault(_SERIES_KEY_OF[by](item), []).append(item.costs)
    # zip(*...) reads a key's columns month by month: its lines in line order
    return [(key, to_money(sum(filter(_is_cost, chain.from_iterable(zip(*columns[key]))),
                               _ZERO)))
            for key in sorted(columns)]


SummaryRow = namedtuple("SummaryRow", "label first_month monthly_avg total months")
SummaryRow.__doc__ = """First month / monthly average / total, as printed in comparison tables.

The monthly average excludes the first month — avg = (total - first)/(n-1)
— and is that exact ratio rounded once, half-even, to cents; with one
month it is the total in cents. Every output prints it as it is.
"""


def summarize(totals: Sequence, label: str) -> SummaryRow:
    """Summary of a series of monthly totals, such as
    ``report.monthly_totals()``."""
    series = [to_money(value) for value in totals]
    if not series:
        raise ValueError("cannot summarize an empty series")
    first = series[0]
    total = to_money(sum(series, _ZERO))
    n = len(series)
    num, den = (total if n == 1 else total - first).as_integer_ratio()
    cents = round_half_even(100 * num, den * max(n - 1, 1))
    return SummaryRow(label, first, Decimal(cents).scaleb(-2), total, n)


# difference: "+Nx" or "n/a" vs the baseline, None on the baseline row;
# delta: total - baseline total
ComparisonEntry = namedtuple("ComparisonEntry", "row is_baseline difference delta")
ComparisonTable = namedtuple("ComparisonTable", "entries baseline_label warnings",
                             defaults=((),))


def compare(rows: Sequence[SummaryRow]) -> ComparisonTable:
    """Pick the cheapest total as baseline and express the rest as +Nx: the
    total over the baseline total, rounded half-even to an integer. Over a
    zero baseline an equal total reads +1x and a greater one n/a. A negative
    total raises ValueError."""
    if len(rows) < 2:
        raise ValueError("comparison needs at least two rows")
    for row in rows:
        if row.total < 0:
            raise ValueError(f"cannot compare {row.label!r}: its total {row.total} is negative")
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
        if base_num:
            difference = f"+{round_half_even(num * base_den, den * base_num)}x"
        else:  # a zero baseline: a tie is +1x, and any more has no finite multiple
            difference = "n/a" if num else "+1x"
        entries.append(ComparisonEntry(row, False, difference,
                                       to_money(row.total - baseline.total)))
    return ComparisonTable(tuple(entries), baseline.label, tuple(warnings))


def compare_scenarios(scenarios: Sequence[tuple[str, m.DeploymentModel, Mapping[str, PlanChoice] | None]],
                      catalog: pricing.PriceCatalog, window: SimulationWindow
                      ) -> ComparisonTable:
    """Simulate each (label, model, plan), summarize and compare.

    The scenarios share one replay memo, so a requirement that several of
    them carry is replayed once. Each scenario's warnings follow the
    table's own, as ``<label>: <warning>``; an error from a scenario's
    simulation reads the same way and keeps its class and attributes.
    """
    labels = [label for label, _, _ in scenarios]
    if len(set(labels)) != len(labels):
        raise ValueError("scenario labels must be unique")
    replays: Replays = {}
    rows: list[SummaryRow] = []
    warnings: list[str] = []
    for label, scenario_model, plan in scenarios:
        try:
            report = simulate(scenario_model, catalog, window, plan, replays=replays)
        except CloudCostError as exc:
            exc.args = (f"{label}: {exc.args[0]}",)
            raise
        rows.append(summarize(report.monthly_totals(), label))
        warnings.extend(f"{label}: {warning}" for warning in report.warnings)
    table = compare(rows)
    return ComparisonTable(table.entries, table.baseline_label,
                           table.warnings + tuple(warnings))
