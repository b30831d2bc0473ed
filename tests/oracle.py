"""Independent brute-force oracles used to check the library implementations.

These deliberately re-derive everything from first principles: calendar
arithmetic via datetime/timedelta, month lengths via date subtraction,
tier pricing via a unit-by-unit loop. They must not import the library's
evaluation or pricing code paths (parsed pattern ASTs are shared; the
semantics are not).
"""

from __future__ import annotations

from datetime import date, timedelta
from decimal import Decimal


def _days_in_month(year: int, month: int) -> int:
    first = date(year, month, 1)
    if month == 12:
        after = date(year + 1, 1, 1)
    else:
        after = date(year, month + 1, 1)
    return (after - first).days


def _month_matches(selector, month_number: int) -> bool:
    if selector.start is None:
        return True
    if selector.start <= selector.end:
        return selector.start <= month_number <= selector.end
    return month_number >= selector.start or month_number <= selector.end


def _day_matches(selector, day: date) -> bool:
    kind = selector.kind
    if kind == "everyday":
        return True
    if kind == "weekdays":
        return day.weekday() in (0, 1, 2, 3, 4)
    if kind == "weekends":
        return day.weekday() in (5, 6)
    if kind == "dom":
        return day.day == selector.a
    if kind == "dom_range":
        return selector.a <= day.day <= selector.b
    if kind == "dow":
        return day.weekday() == selector.a
    if kind == "dow_range":
        return selector.a <= day.weekday() <= selector.b
    raise AssertionError(kind)


def _apply(value: float, op: str, operand: float) -> float:
    """The operator's raw result; the replay clamps and records negatives."""
    if op == "+":
        return value + operand
    if op == "-":
        return value - operand
    if op == "*":
        return value * operand
    if op == "/":
        return value / operand
    if op == "^":
        return value ** operand
    raise AssertionError(op)


def oracle_replay(kind_class: str, baseline: float, patterns,
                  sim_start: tuple[int, int], month: tuple[int, int]
                  ) -> tuple[float, list[tuple[date, int]]]:
    """Day-by-day replay of the documented pattern semantics.

    Returns the target month's quantity and every clamp from the first
    simulated day through the target month's last day, in order, as
    (day, zero-based pattern index).
    """
    start_year, start_month = sim_start
    target_year, target_month = month
    level = float(baseline)
    day = date(start_year, start_month, 1)
    end = date(target_year, target_month, _days_in_month(target_year, target_month))
    total = 0.0
    clamps: list[tuple[date, int]] = []

    def clamped(value: float, index: int) -> float:
        if value >= 0:
            return value
        clamps.append((day, index))
        return 0.0

    while day <= end:
        in_first_month = (day.year, day.month) == (start_year, start_month)
        for index, p in enumerate(patterns):
            if p.mode != "perm" or not _month_matches(p.months, day.month):
                continue
            if p.days.kind == "empty":
                if day.day == 1 and not in_first_month:
                    level = clamped(_apply(level, p.op, p.operand), index)
            elif _day_matches(p.days, day):
                level = clamped(_apply(level, p.op, p.operand), index)
        if kind_class == "stock":
            value = level
        else:
            value = level / _days_in_month(day.year, day.month)
        for index, p in enumerate(patterns):
            if p.mode != "temp" or not _month_matches(p.months, day.month):
                continue
            if p.days.kind == "empty" or _day_matches(p.days, day):
                value = clamped(_apply(value, p.op, p.operand), index)
        if (day.year, day.month) == (target_year, target_month):
            total += value
        day += timedelta(days=1)
    if kind_class == "stock":
        return total / _days_in_month(target_year, target_month), clamps
    return total, clamps


def oracle_month_quantity(kind_class: str, baseline: float, patterns,
                          sim_start: tuple[int, int],
                          month: tuple[int, int]) -> float:
    """The target month's quantity from :func:`oracle_replay`."""
    return oracle_replay(kind_class, baseline, patterns, sim_start, month)[0]


def oracle_tiered_price(tiers: list[tuple[int | None, Decimal]], quantity: int) -> Decimal:
    """Unit-by-unit summation: each whole unit pays the price of its tier."""
    total = Decimal(0)
    for unit in range(1, quantity + 1):
        for upper, price in tiers:
            if upper is None or unit <= upper:
                total += price
                break
    return total


def oracle_radar(ratings: dict[str, int], items) -> tuple[tuple[str, str, float, int], ...]:
    """Each (kind, category, mean rating, rated count) by a full scan of the
    items per pair: benefits then risks, categories in the documented order,
    and a pair with no rated item left out."""
    rows = []
    for kind in ("benefit", "risk"):
        for category in ("organizational", "legal", "security", "technical", "financial"):
            values = [ratings[item.id] for item in items
                      if item.kind == kind and item.category == category
                      and item.id in ratings]
            if values:
                rows.append((kind, category, sum(values) / len(values), len(values)))
    return tuple(rows)
