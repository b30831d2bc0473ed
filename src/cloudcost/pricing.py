"""Provider price catalogs and the conversion of usage quantities to money.

Catalogs are strict JSON with all prices written as decimal strings.
Tiered rates are marginal (graduated): each tier charges only the portion
of the quantity falling inside it. Missing rates are hard errors; a
decision-support tool must never silently price a resource at zero.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation, Overflow, getcontext
from typing import Any, NamedTuple

from . import schema
from .errors import CatalogError, MissingRateError
from .money import as_decimal, to_money, too_large
from .months import Month, SimulationWindow

VM_HOURS = "vm_hours"
STORAGE_GB_MONTH = "storage_gb_month"
IO_IN_REQUESTS = "io_in_requests"
IO_OUT_REQUESTS = "io_out_requests"
IO_GB = "io_gb"
DATA_IN_GB = "data_in_gb"
DATA_OUT_GB = "data_out_gb"
DIMENSIONS = (VM_HOURS, STORAGE_GB_MONTH, IO_IN_REQUESTS, IO_OUT_REQUESTS,
              IO_GB, DATA_IN_GB, DATA_OUT_GB)

TRANSFER_DIMENSIONS = (DATA_IN_GB, DATA_OUT_GB)

INTERNET = "internet"
INTRA_REGION = "intra_region"
INTER_REGION = "inter_region"
SCOPES = (INTERNET, INTRA_REGION, INTER_REGION)

ON_DEMAND = "on_demand"
RESERVED = "reserved"


class Tier(NamedTuple):
    """One pricing tier; upper_bound None means unbounded (the last tier)."""

    upper_bound: Decimal | None
    unit_price: Decimal


class RateEntry(NamedTuple):
    provider: str
    region: str
    dimension: str
    sku: str | None = None
    scope: str | None = None
    flat_price: Decimal | None = None
    tiers: tuple[Tier, ...] = ()

    @property
    def key(self) -> tuple:
        return (self.provider, self.region, self.dimension, self.sku, self.scope)


class PurchaseOption(NamedTuple):
    kind: str  # on_demand or reserved
    hourly_rate: Decimal
    term_months: int | None = None
    upfront_fee: Decimal | None = None


class InstanceSku(NamedTuple):
    provider: str
    region: str
    name: str
    purchase_options: tuple[PurchaseOption, ...]

    def reserved_option(self, term_months: int | None) -> PurchaseOption | None:
        candidates = [o for o in self.purchase_options if o.kind == RESERVED]
        if term_months is not None:
            candidates = [o for o in candidates if o.term_months == term_months]
        if len(candidates) == 1:
            return candidates[0]
        return None


class PriceCatalog:
    """Validated, immutable rate lookup for one currency."""

    def __init__(self, currency: str, entries: tuple[RateEntry, ...],
                 skus: tuple[InstanceSku, ...], warnings: tuple[str, ...] = ()):
        self.currency = currency
        self.warnings = warnings
        self._rates = {entry.key: entry for entry in entries}
        self._skus = {(sku.provider, sku.region, sku.name): sku for sku in skus}

    def find_sku(self, provider: str, region: str, name: str) -> InstanceSku | None:
        return self._skus.get((provider, region, name))


def _key_text(provider: str, region: str, dimension: str,
              sku: str | None, scope: str | None) -> str:
    parts = [provider, region, dimension]
    if sku is not None:
        parts.append(sku)
    if scope is not None:
        parts.append(scope)
    return "/".join(parts)


# --- loading -----------------------------------------------------------------

def _finite_decimal(value: str, path: str, what: str) -> Decimal:
    """The finite decimal that ``value`` spells; ``what`` names it in errors."""
    try:
        number = Decimal(value)
    except InvalidOperation:
        raise schema.Defect(path, f"invalid decimal {value!r}") from None
    if not number.is_finite():
        raise schema.Defect(path, f"{what} must be finite")
    return number


def _price_at(obj: dict, key: str, path: str) -> Decimal:
    """The price ``obj[key]`` spells, which may not be negative. A zero is
    kept as +0 (its exponent unchanged): ``"-0"`` is not negative, but a cost
    it prices would print ``-0.00``."""
    value, path = obj[key], f"{path}.{key}"
    if not isinstance(value, str):
        raise schema.Defect(path, f"prices must be decimal strings, got {value!r}")
    price = _finite_decimal(value, path, "price")
    if price < 0:
        raise schema.Defect(path, "negative price")
    return price if price else price.copy_abs()


def _bound_at(value: Any, path: str) -> Decimal | None:
    if value is None:
        return None
    if isinstance(value, str):
        return _finite_decimal(value, path, "tier bound")
    if isinstance(value, bool) or not isinstance(value, int):
        raise schema.Defect(path, "tier bounds must be integers, strings or null")
    return Decimal(value)


def _parse_entry(value: Any, path: str) -> RateEntry:
    obj = schema.fields(value, path, ("provider", "region", "dimension", "pricing"),
                        ("sku", "scope"))
    provider, region = schema.string(obj, "provider", path), schema.string(obj, "region", path)
    sku = None if obj.get("sku") is None else schema.string(obj, "sku", path)
    dimension = schema.choice(obj["dimension"], f"{path}.dimension", DIMENSIONS, "dimension")
    scope = obj.get("scope")
    if dimension in TRANSFER_DIMENSIONS:
        if scope not in SCOPES:
            raise schema.Defect(f"{path}.scope", "transfer entries need a scope "
                                f"(internet, intra_region or inter_region), got {scope!r}")
    elif scope is not None:
        raise schema.Defect(f"{path}.scope", "scope is only valid on transfer dimensions")
    path = f"{path}.pricing"
    pricing = schema.fields(obj["pricing"], path, (), ("flat", "tiers"))
    if ("flat" in pricing) == ("tiers" in pricing):
        raise schema.Defect(path, "exactly one of 'flat' or 'tiers' is required")
    if "flat" in pricing:
        return RateEntry(provider, region, dimension, sku, scope, _price_at(pricing, "flat", path))
    tiers = []
    for i, raw in enumerate(schema.nonempty_array(pricing, "tiers", path)):
        where = f"{path}.tiers[{i}]"
        tier = schema.fields(raw, where, ("upper_bound", "unit_price"))
        bound = _bound_at(tier["upper_bound"], f"{where}.upper_bound")
        price = _price_at(tier, "unit_price", where)
        if bound is not None and bound <= 0:
            raise schema.Defect(f"{where}.upper_bound", "must be positive")
        tiers.append(Tier(bound, price))
    # Their order is checked once every tier has read: a later tier's own
    # defect is reported before an earlier tier's misplaced bound.
    for i, (prev, cur) in enumerate(zip(tiers, tiers[1:]), 1):
        if prev.upper_bound is None:
            raise schema.Defect(f"{path}.tiers[{i}]", "only the last tier may be unbounded")
        if cur.upper_bound is not None and cur.upper_bound <= prev.upper_bound:
            raise schema.Defect(f"{path}.tiers[{i}]", "bounds must be strictly increasing")
    if tiers[-1].upper_bound is not None:
        raise schema.Defect(f"{path}.tiers", "the last tier must be unbounded (null)")
    return RateEntry(provider, region, dimension, sku, scope, tiers=tuple(tiers))


def _parse_sku(value: Any, path: str, warnings: list[str]) -> InstanceSku:
    obj = schema.fields(value, path, ("provider", "region", "name", "purchase_options"))
    provider, region, name = (schema.string(obj, k, path) for k in ("provider", "region", "name"))
    options = []
    for i, raw in enumerate(schema.nonempty_array(obj, "purchase_options", path)):
        where = f"{path}.purchase_options[{i}]"
        option = schema.fields(raw, where, ("kind", "hourly_rate"), ("term_months", "upfront_fee"))
        rate = _price_at(option, "hourly_rate", where)
        if schema.choice(option["kind"], f"{where}.kind", (ON_DEMAND, RESERVED),
                         "purchase option kind") == ON_DEMAND:
            if "term_months" in option or "upfront_fee" in option:
                raise schema.Defect(where, "on_demand options carry no term or upfront fee")
            options.append(PurchaseOption(ON_DEMAND, rate))
            continue
        term = option.get("term_months")
        if not isinstance(term, int) or isinstance(term, bool) or term < 1:
            raise schema.Defect(f"{where}.term_months", "reserved options need a positive term")
        if "upfront_fee" not in option:
            raise schema.Defect(f"{where}.upfront_fee", "reserved options need an upfront fee")
        options.append(PurchaseOption(RESERVED, rate, term,
                                      _price_at(option, "upfront_fee", where)))
    on_demand = [option.hourly_rate for option in options if option.kind == ON_DEMAND]
    if not on_demand:
        raise schema.Defect(path, "at least one on_demand purchase option is required")
    cheapest = min(on_demand)
    for option in options:
        if option.kind == RESERVED and option.hourly_rate > cheapest:
            warnings.append(f"{provider}/{region}/{name}: reserved hourly rate "
                            f"{option.hourly_rate} exceeds the on-demand rate {cheapest}")
    return InstanceSku(provider, region, name, tuple(options))


def load_catalog(text: str, source: str | None = None) -> PriceCatalog:
    """Parse and validate a catalog (from file ``source``); raises CatalogError."""
    return schema.read(text, _build_catalog, CatalogError, source)


def _build_catalog(data: Any) -> PriceCatalog:
    top = schema.fields(data, "$", ("currency", "entries"), ("skus",))
    currency = schema.nonempty_string(top, "currency", "$")
    entries: dict[tuple, RateEntry] = {}
    for i, raw in enumerate(schema.array(top, "entries", "$")):
        entry = _parse_entry(raw, f"entries[{i}]")
        if entry.key in entries:
            raise schema.Defect(f"entries[{i}]", f"duplicate rate key {_key_text(*entry.key)}")
        entries[entry.key] = entry
    warnings: list[str] = []
    skus: dict[tuple, InstanceSku] = {}
    for i, raw in enumerate(schema.array(top, "skus", "$")):
        sku = _parse_sku(raw, f"skus[{i}]", warnings)
        key = (sku.provider, sku.region, sku.name)
        if key in skus:
            raise schema.Defect(f"skus[{i}]", f"duplicate sku {'/'.join(key)}")
        skus[key] = sku
    return PriceCatalog(currency, tuple(entries.values()), tuple(skus.values()), tuple(warnings))


def load_catalog_file(path: str) -> PriceCatalog:
    return load_catalog(schema.read_input(path), path)


# --- pricing ------------------------------------------------------------------

def lookup_rate(catalog: PriceCatalog, provider: str, region: str, dimension: str,
                sku: str | None = None, scope: str | None = None) -> RateEntry:
    """The unique entry for the key; MissingRateError names the full key."""
    entry = catalog._rates.get((provider, region, dimension, sku, scope))
    if entry is None:
        key = _key_text(provider, region, dimension, sku, scope)
        raise MissingRateError(f"no rate for {key}", key)
    return entry


def price_breakdown(entry: RateEntry, quantity: float | int | Decimal) -> Decimal:
    """Cost of ``quantity`` at the entry's flat rate or marginal tiers.

    Raises :class:`EvaluationError` when the cost does not fit the decimal
    context, also when its arithmetic overflows the context's exponent range.
    """
    q = as_decimal(quantity)
    if q < 0:
        raise ValueError(f"quantity must be >= 0, got {quantity}")
    try:
        if entry.flat_price is not None:
            return to_money(q * entry.flat_price)
        total = Decimal(0)
        lower = Decimal(0)
        for tier in entry.tiers:
            if tier.upper_bound is None:
                portion = q - lower
            else:
                portion = min(q, tier.upper_bound) - lower
                lower = tier.upper_bound
            if portion <= 0:
                continue
            total += portion * tier.unit_price
            if tier.upper_bound is not None and q <= tier.upper_bound:
                break
    except Overflow as exc:
        raise too_large(f"above 1E+{getcontext().Emax}") from exc
    return to_money(total)


def reservation_charges(option: PurchaseOption,
                        window: SimulationWindow) -> list[tuple[Month, Decimal]]:
    """Upfront fees inside the window: first month, then each term renewal."""
    if option.kind != RESERVED:
        raise ValueError("reservation charges apply to reserved options only")
    assert option.term_months is not None and option.upfront_fee is not None
    if option.upfront_fee == 0:
        return []
    fee = to_money(option.upfront_fee)
    charges = []
    month = window.start
    while month <= window.end:
        charges.append((month, fee))
        month = month.add(option.term_months)
    return charges
