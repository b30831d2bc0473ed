"""Independent brute-force oracles used to check the library implementations.

These deliberately re-derive everything from first principles: calendar
arithmetic via datetime/timedelta, month lengths via date subtraction,
tier pricing via a unit-by-unit loop, and pattern text read by a regex of
README's grammar. They import nothing from ``cloudcost``: a parsed pattern
is read only for its ``source`` text.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from decimal import Decimal


def _days_in_month(year: int, month: int) -> int:
    first = date(year, month, 1)
    if month == 12:
        after = date(year + 1, 1, 1)
    else:
        after = date(year, month + 1, 1)
    return (after - first).days


_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
           "jul", "aug", "sep", "oct", "nov", "dec")
_WEEKDAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
_PATTERN = re.compile(r"\s*(temp|perm)\s*:\s*every\s+([a-z]+(?:-[a-z]+)?)\s*"
                      r"(?:on\s*([0-9]+(?:-[0-9]+)?|[a-z]+(?:-[a-z]+)?)\s*)?"
                      r"([-+*/^])\s*(\S+)\s*", re.IGNORECASE)


def _name_range(names: tuple[str, ...], token: str) -> list[int]:
    """The 0-based indexes ``token`` names: one name, or an inclusive range
    of two that may wrap past the last name."""
    lo, _, hi = token.partition("-")
    a = names.index(lo)
    b = names.index(hi or lo)
    return [(a + k) % len(names) for k in range((b - a) % len(names) + 1)]


def _read_pattern(text: str) -> tuple[str, set[int], tuple[set[int], set[int]] | None, str, float]:
    """``(mode, month numbers, days, op, operand)`` of a valid pattern, read
    with README's grammar. ``days`` is None for a missing day clause, else the
    days of month and the weekdays (0 is Monday) it selects."""
    match = _PATTERN.fullmatch(text)
    assert match, text
    mode, months, days, op, operand = match.groups()
    months = months.lower()
    selected = set(range(1, 13)) if months == "month" else {
        index + 1 for index in _name_range(_MONTHS, months)}
    selects = None
    if days is not None:
        days = days.lower()
        if days[0].isdigit():
            lo, _, hi = days.partition("-")
            selects = set(range(int(lo), int(hi or lo) + 1)), set()
        else:
            keyword = {"everyday": range(7), "weekdays": range(5), "weekends": (5, 6)}.get(days)
            selects = set(), set(_name_range(_WEEKDAYS, days) if keyword is None else keyword)
    return mode.lower(), selected, selects, op, float(operand)


def _fires(pattern, day: date, in_first_month: bool) -> bool:
    """Whether a :func:`_read_pattern` result applies on ``day``. Without a day
    clause a temp applies on every day, a perm on day 1 after the first
    simulated month."""
    mode, months, days = pattern[:3]
    if day.month not in months:
        return False
    if days is None:
        return mode == "temp" or (day.day == 1 and not in_first_month)
    return day.day in days[0] or day.weekday() in days[1]


def oracle_firing_days(text: str, year: int, month: int, first: bool) -> set[int]:
    """The days of a month on which the pattern ``text`` applies; ``first``
    tells whether the month is the first simulated one."""
    pattern = _read_pattern(text)
    return {day for day in range(1, _days_in_month(year, month) + 1)
            if _fires(pattern, date(year, month, day), first)}


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


def oracle_replay_months(kind_class: str, baseline: float, patterns,
                         sim_start: tuple[int, int], last: tuple[int, int]
                         ) -> tuple[list[float], list[tuple[date, int]]]:
    """Day-by-day replay of the documented pattern semantics, in one pass
    from the first simulated day through the last day of month ``last``.

    Each pattern is read from its ``source`` text by :func:`_read_pattern`.
    Returns each month's quantity, in order, and every clamp, in order, as
    (day, zero-based pattern index).
    """
    read = [_read_pattern(p.source) for p in patterns]
    start_year, start_month = sim_start
    last_year, last_month = last
    level = float(baseline)
    day = date(start_year, start_month, 1)
    end = date(last_year, last_month, _days_in_month(last_year, last_month))
    quantities: list[float] = []
    clamps: list[tuple[date, int]] = []

    def clamped(value: float, index: int) -> float:
        if value >= 0:
            return value
        clamps.append((day, index))
        return 0.0

    while day <= end:
        days = _days_in_month(day.year, day.month)
        if day.day == 1:
            total = 0.0
        in_first_month = (day.year, day.month) == (start_year, start_month)
        for index, pattern in enumerate(read):
            if pattern[0] == "perm" and _fires(pattern, day, in_first_month):
                level = clamped(_apply(level, *pattern[3:]), index)
        if kind_class == "stock":
            value = level
        else:
            value = level / days
        for index, pattern in enumerate(read):
            if pattern[0] == "temp" and _fires(pattern, day, in_first_month):
                value = clamped(_apply(value, *pattern[3:]), index)
        total += value
        if day.day == days:
            quantities.append(total / days if kind_class == "stock" else total)
        day += timedelta(days=1)
    return quantities, clamps


def oracle_replay(kind_class: str, baseline: float, patterns,
                  sim_start: tuple[int, int], month: tuple[int, int]
                  ) -> tuple[float, list[tuple[date, int]]]:
    """The target month's quantity and every clamp from the first simulated
    day through the target month's last day, from
    :func:`oracle_replay_months`."""
    quantities, clamps = oracle_replay_months(kind_class, baseline, patterns, sim_start, month)
    return quantities[-1], clamps


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


def _next_month(year: int, month: int) -> tuple[int, int]:
    return (year + 1, 1) if month == 12 else (year, month + 1)


def oracle_fee_column(fee: Decimal, term: int, start: tuple[int, int],
                      end: tuple[int, int]) -> list[Decimal | None]:
    """The upfront fee of each month from ``start`` through ``end``, or None:
    charged in ``start``, and again whenever ``term`` more months have been
    stepped through, one at a time."""
    column: list[Decimal | None] = []
    month = renewal = start
    while month <= end:
        if month == renewal:
            column.append(fee)
            for _ in range(term):
                renewal = _next_month(*renewal)
        else:
            column.append(None)
        month = _next_month(*month)
    return column


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
