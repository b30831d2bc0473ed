"""Elasticity-pattern mini-language: parsing and monthly replay.

A pattern adjusts a resource's baseline usage on matching days::

    <mode>: every <months> [on <days>] <op><number>

``temp`` patterns rescale matching days and leave no trace afterwards;
``perm`` patterns mutate the running usage level, so they compound into
linear or exponential growth/decay. Keywords are case-insensitive and
whitespace-tolerant. Ranges (``jun-aug``, ``25-30``, ``mon-fri``) are
written without internal spaces so the dash can never be confused with
the subtraction operator.

Evaluation semantics:

* A perm pattern without a day clause fires once at the start of each
  matching month, except the first simulated month, which keeps the raw
  baseline. A perm pattern with a day clause fires at the start of each
  matching day.
* A temp pattern without a day clause applies to every day of matching
  months; with a day clause, to matching days only.
* All perm mutations for a day happen before temp transformations; within
  each class, declaration order rules.
* Flows contribute level/days-in-month per day and bill the monthly sum;
  stocks contribute the level itself and bill the time-average (GB-month).
* Every operator application clamps negative results to 0, recording a
  warning. ``/0`` and negative exponents are rejected at parse time;
  ``0^0`` evaluates to 1.

Replay walks the calendar month by month. Each month filters the patterns
by month selector once; days are matched on (day-of-month, weekday) ints,
and a ``date`` is built only for a clamp warning. In a month with no
active day clause, every day after the first repeats the first day's
value, which is reused unless that day's temps clamped (each clamped day
warns with its own date). A month's quantity adds its daily values one by
one from 0.0: the order of float operations is part of the output
contract, so no closed form, ``sum()`` (compensated since Python 3.12) or
``math.fsum`` stands in for the loop.
"""

from __future__ import annotations

import calendar
import math
import re
from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from .errors import EvaluationError, PatternError
from .months import Month, SimulationWindow

TEMP = "temp"
PERM = "perm"
MODES = (TEMP, PERM)

STOCK = "stock"
FLOW = "flow"

MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun",
               "jul", "aug", "sep", "oct", "nov", "dec")
DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
OPERATORS = "+-*/^"

# Day-selector kinds
EMPTY = "empty"
EVERYDAY = "everyday"
WEEKDAYS = "weekdays"
WEEKENDS = "weekends"
DOM = "dom"
DOM_RANGE = "dom_range"
DOW = "dow"
DOW_RANGE = "dow_range"

WarnFn = Callable[[str], None]


@dataclass(frozen=True)
class MonthSelector:
    """Selects calendar months; ranges may wrap the year end (nov-feb)."""

    start: int | None = None  # 1..12; None selects every month
    end: int | None = None

    def contains(self, month: int) -> bool:
        if self.start is None:
            return True
        assert self.end is not None
        if self.start <= self.end:
            return self.start <= month <= self.end
        return month >= self.start or month <= self.end  # wrapped range


@dataclass(frozen=True)
class DaySelector:
    """Selects days within a matching month.

    ``empty`` is mode-dependent: every day of the month for temp patterns,
    only the month's first day (the firing point) for perm patterns; that
    asymmetry lives in :func:`_fires`.
    """

    kind: str = EMPTY
    a: int | None = None  # day-of-month 1..31 or weekday index 0..6
    b: int | None = None

    def selects(self, dom: int, weekday: int) -> bool:
        """True for day ``dom`` of a month when that day is weekday ``weekday``
        (0 is Monday); replay calls this with plain ints, never a date."""
        k = self.kind
        if k == EVERYDAY:
            return True
        if k == WEEKDAYS:
            return weekday < 5
        if k == WEEKENDS:
            return weekday >= 5
        if k == DOM:
            return dom == self.a
        if k == DOM_RANGE:
            return self.a <= dom <= self.b
        if k == DOW:
            return weekday == self.a
        if k == DOW_RANGE:
            return self.a <= weekday <= self.b
        raise AssertionError(f"unhandled day selector {k!r}")


EMPTY_DAYS = DaySelector(EMPTY)


@dataclass(frozen=True)
class PatternSpec:
    """Parsed elasticity pattern."""

    mode: str
    months: MonthSelector
    days: DaySelector
    op: str
    operand: float
    source: str = field(default="", compare=False, repr=False)


class _Scanner:
    """Cursor over a pattern string that raises positioned errors."""

    _word_re = re.compile(r"[A-Za-z]+(?:-[A-Za-z]+)?")
    _dom_re = re.compile(r"\d{1,2}(?:-\d{1,2})?")
    _number_re = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> None:
        raise PatternError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str | None:
        return None if self.eof() else self.text[self.pos]

    def take(self, regex: re.Pattern[str]) -> tuple[str, int] | None:
        m = regex.match(self.text, self.pos)
        if not m:
            return None
        start = self.pos
        self.pos = m.end()
        return m.group(0), start

    def rest_token(self) -> str:
        m = re.match(r"\S+", self.text[self.pos:])
        return m.group(0) if m else ""


def _parse_months(s: _Scanner) -> MonthSelector:
    got = s.take(s._word_re)
    if got is None:
        s.fail("expected 'month' or a month name after 'every'")
    word, start = got
    token = word.lower()
    if token == "month":
        return MonthSelector()
    if "-" in token:
        lo, hi = token.split("-", 1)
        for part in (lo, hi):
            if part not in MONTH_NAMES:
                s.fail(f"unknown month {part!r}", start)
        return MonthSelector(MONTH_NAMES.index(lo) + 1, MONTH_NAMES.index(hi) + 1)
    if token not in MONTH_NAMES:
        s.fail(f"unknown month token {token!r}", start)
    month = MONTH_NAMES.index(token) + 1
    return MonthSelector(month, month)


def _parse_days(s: _Scanner) -> DaySelector:
    if s.eof():
        s.fail("expected a day selector after 'on'")
    ch = s.peek()
    if ch is not None and ch.isdigit():
        got = s.take(s._dom_re)
        assert got is not None
        token, start = got
        if "-" in token:
            lo_text, hi_text = token.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(token)
        for value in (lo, hi):
            if not 1 <= value <= 31:
                s.fail(f"day of month out of range: {value:02d}", start)
        if lo > hi:
            s.fail(f"decreasing day range {lo:02d}-{hi:02d}", start)
        if lo == hi and "-" not in token:
            return DaySelector(DOM, lo)
        return DaySelector(DOM_RANGE, lo, hi)
    got = s.take(s._word_re)
    if got is None:
        s.fail("expected a day selector after 'on'")
    word, start = got
    token = word.lower()
    if "-" in token:
        lo, hi = token.split("-", 1)
        for part in (lo, hi):
            if part not in DOW_NAMES:
                s.fail(f"unknown day token {part!r}", start)
        a, b = DOW_NAMES.index(lo), DOW_NAMES.index(hi)
        if a > b:
            s.fail(f"day-of-week range may not wrap: {lo}-{hi}", start)
        return DaySelector(DOW_RANGE, a, b)
    if token == EVERYDAY:
        return DaySelector(EVERYDAY)
    if token == WEEKDAYS:
        return DaySelector(WEEKDAYS)
    if token == WEEKENDS:
        return DaySelector(WEEKENDS)
    if token in DOW_NAMES:
        return DaySelector(DOW, DOW_NAMES.index(token))
    s.fail(f"unknown day token {token!r}", start)
    raise AssertionError("unreachable")


def parse_pattern(text: str) -> PatternSpec:
    """Parse one pattern string, raising :class:`PatternError` on any defect."""
    s = _Scanner(text)
    s.skip_ws()
    got = s.take(re.compile(r"[A-Za-z]+"))
    if got is None:
        s.fail("expected pattern mode 'temp' or 'perm'")
    word, start = got
    mode = word.lower()
    if mode not in MODES:
        s.fail(f"unknown mode {word!r}, expected 'temp' or 'perm'", start)
    s.skip_ws()
    if s.peek() != ":":
        s.fail("expected ':' after the mode keyword")
    s.pos += 1
    s.skip_ws()
    got = s.take(re.compile(r"[A-Za-z]+"))
    if got is None or got[0].lower() != "every":
        s.fail("expected 'every'", s.pos if got is None else got[1])
    s.skip_ws()
    months = _parse_months(s)
    s.skip_ws()
    days = EMPTY_DAYS
    mark = s.pos
    got = s.take(re.compile(r"[A-Za-z]+"))
    if got is not None and got[0].lower() == "on":
        s.skip_ws()
        days = _parse_days(s)
        s.skip_ws()
    else:
        s.pos = mark  # whatever follows must be the variation operator
    if s.eof():
        s.fail("missing variation operator")
    op = s.peek()
    if op not in OPERATORS:
        s.fail(f"unknown variation operator {op!r}")
    s.pos += 1
    s.skip_ws()
    if s.eof():
        s.fail("missing operand")
    num_pos = s.pos
    got = s.take(s._number_re)
    if got is None:
        s.fail(f"expected a numeric operand, got {s.rest_token()!r}")
    operand = float(got[0])
    s.skip_ws()
    if not s.eof():
        s.fail(f"unexpected trailing input {s.rest_token()!r}")
    if not math.isfinite(operand):
        s.fail("operand must be finite", num_pos)
    if op == "/" and operand == 0:
        s.fail("division by zero", num_pos)
    if op == "^" and operand < 0:
        s.fail("exponent must not be negative", num_pos)
    return PatternSpec(mode, months, days, op, operand, source=text.strip())


def parse_patterns(block: str) -> list[PatternSpec]:
    """Parse a comma- or newline-separated block of patterns."""
    specs = []
    for segment in re.split(r"[,\n]", block):
        if segment.strip():
            specs.append(parse_pattern(segment))
    return specs


def _fires(pattern: PatternSpec, dom: int, weekday: int) -> bool:
    """True when the pattern applies on day ``dom`` of a month it already
    selects, falling on ``weekday`` (0 is Monday). An absent day clause
    selects every day for temp patterns but only day 1 (the firing point)
    for perm patterns."""
    if pattern.days.kind == EMPTY:
        return dom == 1 or pattern.mode == TEMP
    return pattern.days.selects(dom, weekday)


@dataclass(frozen=True)
class UsageSchedule:
    """A resource's baseline plus its ordered elasticity patterns."""

    kind_class: str  # STOCK or FLOW
    baseline: float
    patterns: tuple[PatternSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.kind_class not in (STOCK, FLOW):
            raise ValueError(f"unknown kind class {self.kind_class!r}")
        if not math.isfinite(self.baseline) or self.baseline < 0:
            raise ValueError(f"baseline must be finite and >= 0, got {self.baseline}")


def _apply_op(value: float, op: str, operand: float) -> float:
    try:
        if op == "+":
            result = value + operand
        elif op == "-":
            result = value - operand
        elif op == "*":
            result = value * operand
        elif op == "/":
            result = value / operand
        else:
            result = value ** operand  # operand >= 0 by parse; 0**0 == 1.0
    except OverflowError:  # only ** raises; the other operators give inf
        result = math.inf
    if not math.isfinite(result):
        raise EvaluationError(f"value overflowed applying '{op}{operand:g}'")
    return result


def _clamped(pattern: PatternSpec, index: int, year: int, month: int, dom: int,
             warn: WarnFn | None) -> float:
    """The 0.0 that replaces a negative result, after warning with its date."""
    if warn is not None:
        label = pattern.source or f"{pattern.op}{pattern.operand:g}"
        day = date(year, month, dom)
        warn(f"clamped negative value to 0 on {day.isoformat()} (pattern {index + 1}: {label})")
    return 0.0


def _replay(schedule: UsageSchedule, sim_start: Month, last: Month,
            warn: WarnFn | None = None) -> list[float]:
    """Replay from sim_start's first day through the last day of ``last``;
    see the module docstring.

    Returns each month's billable quantity: the sequential sum of its daily
    values, divided by its length for stocks. The float operations run in
    the same order on every call, so results are bit-reproducible. An
    overflow raises EvaluationError with its ``month`` set.
    """
    stock = schedule.kind_class == STOCK
    level = float(schedule.baseline)
    quantities: list[float] = []
    first = sim_start.index()
    final = last.index()
    try:
        for index in range(first, final + 1):
            year, month = divmod(index, 12)
            month += 1
            weekday1, days_in_month = calendar.monthrange(year, month)
            perms: list[tuple[int, PatternSpec]] = []
            temps: list[tuple[int, PatternSpec]] = []
            for i, p in enumerate(schedule.patterns):
                if not p.months.contains(month):
                    continue
                if p.mode == TEMP:
                    temps.append((i, p))
                # a day-less perm leaves the first simulated month at the raw baseline
                elif p.days.kind != EMPTY or index != first:
                    perms.append((i, p))
            # Without an active day clause, perms fire on day 1 only, so every
            # later day repeats the value of the day before it.
            uniform = all(p.days.kind == EMPTY for _, p in perms + temps)
            total = 0.0
            for dom in range(1, days_in_month + 1):
                weekday = (weekday1 + dom - 1) % 7
                for i, p in perms:
                    if _fires(p, dom, weekday):
                        level = _apply_op(level, p.op, p.operand)
                        if level < 0:
                            level = _clamped(p, i, year, month, dom, warn)
                value = level if stock else level / days_in_month
                repeat = uniform
                for i, p in temps:
                    if _fires(p, dom, weekday):
                        value = _apply_op(value, p.op, p.operand)
                        if value < 0:
                            value = _clamped(p, i, year, month, dom, warn)
                            repeat = False  # each later day warns with its own date
                total += value
                if repeat:
                    for _ in range(dom, days_in_month):
                        total += value
                    break
            if total == math.inf:
                raise EvaluationError("value overflowed summing the month's days")
            quantities.append(total / days_in_month if stock else total)
    except EvaluationError as exc:
        exc.month = Month(year, month)
        raise
    return quantities


def monthly_series(schedule: UsageSchedule, window: SimulationWindow,
                   usage_start: Month | None = None,
                   warn: WarnFn | None = None) -> list[tuple[Month, float]]:
    """Billable quantities for every month of the window, in one replay pass;
    the only way into :func:`_replay`.

    ``usage_start`` anchors the pattern replay; it defaults to the window
    start and must not lie after it.
    """
    start = usage_start or window.start
    if start > window.start:
        raise ValueError(f"usage start {start} is after the window start {window.start}")
    quantities = _replay(schedule, start, window.end, warn)
    return list(zip(window.months(), quantities[window.start.diff(start):]))
