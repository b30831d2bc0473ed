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

Replay has two parts. :func:`month_plan` depends only on the patterns and
the window: for each month it keeps the active perms and temps, each with a
firing bitmask (bit ``dom`` set for each day it applies on, built with
integer arithmetic; weekday selectors rotate a 7-bit week by day 1's
weekday) and its operator as a function, plus a mask of the days that start
a run of identical days. A run starts on day 1, on every day a perm fires
and on every day the set of firing temps changes; the mask also holds day
n+1 of an n-day month, which ends the last run. :func:`monthly_series` then
walks the runs from the schedule's baseline, so one plan serves every
baseline and kind class. Perms fire only on a run's first day, so the run's
perms and then its temps are applied once, and each later day of the run
repeats its value. A temp that clamps ends its run after that day, so each
day that clamps is replayed on its own and warns under its own date, in pattern
order, as a day-by-day walk would. A month's quantity still adds its daily
values one by one from 0.0, once per day of each run: the order of float
operations is part of the output contract, so no ``value * n``, closed
form, ``sum()`` (compensated since Python 3.12) or ``math.fsum`` stands in
for the loop.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple, NoReturn, Sequence

from .errors import EvaluationError, PatternError
from .months import Month, SimulationWindow, month_calendar

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

class MonthSelector(NamedTuple):
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


class DaySelector(NamedTuple):
    """Selects days within a matching month.

    ``empty`` is mode-dependent: every day of the month for temp patterns,
    only the month's first day (the firing point) for perm patterns; that
    asymmetry lives in :func:`_firing_days`.
    """

    kind: str = EMPTY
    a: int | None = None  # day-of-month 1..31 or weekday index 0..6
    b: int | None = None


EMPTY_DAYS = DaySelector(EMPTY)


class PatternSpec(NamedTuple):
    """Parsed elasticity pattern."""

    mode: str
    months: MonthSelector
    days: DaySelector
    op: str
    operand: float
    source: str = ""


class _Scanner:
    """Cursor over a pattern string that raises positioned errors."""

    _alpha_re = re.compile(r"[A-Za-z]+")
    _word_re = re.compile(r"[A-Za-z]+(?:-[A-Za-z]+)?")
    _dom_re = re.compile(r"[0-9]{1,2}(?:-[0-9]{1,2})?")
    _number_re = re.compile(r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
    _colon_re = re.compile(":")
    _every_re = re.compile(r"(?i:every)(?![A-Za-z])")
    _on_re = re.compile(r"(?i:on)(?![A-Za-z])")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> NoReturn:
        raise PatternError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self, regex: re.Pattern[str]) -> tuple[str, int] | None:
        m = regex.match(self.text, self.pos)
        if not m:
            return None
        start = self.pos
        self.pos = m.end()
        return m.group(0), start

    def expect(self, regex: re.Pattern[str], message: str) -> tuple[str, int]:
        """The token ``regex`` matches at the cursor and its start; without
        a match, fails at the cursor with ``message``."""
        got = self.take(regex)
        if got is None:
            self.fail(message)
        return got

    def rest_token(self) -> str:
        m = re.match(r"\S+", self.text[self.pos:])
        return m.group(0) if m else ""


def _parse_months(s: _Scanner) -> MonthSelector:
    word, start = s.expect(s._word_re, "expected 'month' or a month name after 'every'")
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
    got = s.take(s._dom_re)
    if got is not None:
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
    word, start = s.expect(s._word_re, "expected a day selector after 'on'")
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
    if token in (EVERYDAY, WEEKDAYS, WEEKENDS):
        return DaySelector(token)
    if token not in DOW_NAMES:
        s.fail(f"unknown day token {token!r}", start)
    return DaySelector(DOW, DOW_NAMES.index(token))


def parse_pattern(text: str) -> PatternSpec:
    """Parse one pattern string, raising :class:`PatternError` on any defect."""
    s = _Scanner(text)
    s.skip_ws()
    word, start = s.expect(s._alpha_re, "expected pattern mode 'temp' or 'perm'")
    mode = word.lower()
    if mode not in MODES:
        s.fail(f"unknown mode {word!r}, expected 'temp' or 'perm'", start)
    s.skip_ws()
    s.expect(s._colon_re, "expected ':' after the mode keyword")
    s.skip_ws()
    s.expect(s._every_re, "expected 'every'")
    s.skip_ws()
    months = _parse_months(s)
    s.skip_ws()
    days = EMPTY_DAYS
    if s.take(s._on_re) is not None:
        s.skip_ws()
        days = _parse_days(s)
        s.skip_ws()
    op = s.peek()
    if op is None:
        s.fail("missing variation operator")
    if op not in OPERATORS:
        s.fail(f"unknown variation operator {op!r}")
    s.pos += 1
    s.skip_ws()
    if s.peek() is None:
        s.fail("missing operand")
    number, num_pos = s.expect(s._number_re,
                               f"expected a numeric operand, got {s.rest_token()!r}")
    operand = float(number)
    s.skip_ws()
    if s.peek() is not None:
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


class _ScheduleFields(NamedTuple):
    kind_class: str  # STOCK or FLOW
    baseline: float
    patterns: tuple[PatternSpec, ...] = ()


class UsageSchedule(_ScheduleFields):
    """A resource's baseline plus its ordered elasticity patterns."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind_class: str, baseline: float,
                patterns: tuple[PatternSpec, ...] = ()) -> UsageSchedule:
        if kind_class not in (STOCK, FLOW):
            raise ValueError(f"unknown kind class {kind_class!r}")
        if not math.isfinite(baseline) or baseline < 0:
            raise ValueError(f"baseline must be finite and >= 0, got {baseline}")
        return tuple.__new__(cls, (kind_class, baseline, patterns))


def _pow(value: float, operand: float) -> float:
    try:
        return value ** operand  # operand >= 0 by parse; 0**0 == 1.0
    except OverflowError:  # only ** raises; the other operators give inf
        return math.inf


# Each operator's function; a result that is not finite has overflowed.
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": _pow}


def _overflow(pattern: PatternSpec) -> EvaluationError:
    return EvaluationError(f"value overflowed applying '{pattern.op}{pattern.operand:g}'")


def _clamp_message(pattern: PatternSpec, index: int, year: int, month: int, dom: int) -> str:
    """The warning for a negative result clamped to 0, with its date."""
    label = pattern.source or f"{pattern.op}{pattern.operand:g}"
    return (f"clamped negative value to 0 on {year:04d}-{month:02d}-{dom:02d} "
            f"(pattern {index + 1}: {label})")


# Repeats a 7-bit week (bit j for the day j days after day 1) over the five
# weeks that cover any month.
_FIVE_WEEKS = sum(1 << (7 * week) for week in range(5))


def _firing_days(pattern: PatternSpec, weekday1: int, month_days: int) -> int:
    """Days on which ``pattern`` applies in a month it selects, as a bitmask
    with bit ``dom`` set per day. The month's day 1 falls on ``weekday1`` (0
    is Monday) and ``month_days`` has bits 1..n set for its n days. An
    absent day clause selects every day for temp patterns but only day 1
    (the firing point) for perm patterns."""
    days = pattern.days
    k = days.kind
    if k == EMPTY:
        return month_days if pattern.mode == TEMP else 2
    if k == EVERYDAY:
        return month_days
    if k == DOM:
        return (1 << days.a) & month_days
    if k == DOM_RANGE:
        return ((2 << days.b) - (1 << days.a)) & month_days
    if k == WEEKDAYS:
        week = 0b0011111
    elif k == WEEKENDS:
        week = 0b1100000
    elif k == DOW:
        week = 1 << days.a
    elif k == DOW_RANGE:
        week = (2 << days.b) - (1 << days.a)
    else:
        raise AssertionError(f"unhandled day selector {k!r}")
    # bit j of the month's first week is weekday (weekday1 + j) % 7
    week = ((week >> weekday1) | (week << (7 - weekday1))) & 0x7F
    return ((week * _FIVE_WEEKS) << 1) & month_days


# One pattern that applies in a month: its firing days, its operator's
# function and operand, its index in the schedule and the pattern itself.
PlannedPattern = tuple[int, Callable[[float, float], float], float, int, PatternSpec]
# One window month: year, month, days, the days after day 1 that start a run
# (day n+1 included), and its active perms and temps in declaration order.
PlannedMonth = tuple[int, int, int, int, tuple[PlannedPattern, ...], tuple[PlannedPattern, ...]]


def month_plan(patterns: Sequence[PatternSpec], window: SimulationWindow
               ) -> tuple[PlannedMonth, ...]:
    """What a replay of ``patterns`` over ``window`` does in each month,
    whatever the baseline and kind class; see the module docstring."""
    plan: list[PlannedMonth] = []
    for year, month, weekday1, days_in_month in month_calendar(window.start, window.end):
        month_days = (2 << days_in_month) - 2
        perms: list[PlannedPattern] = []
        temps: list[PlannedPattern] = []
        starts = 0
        for i, p in enumerate(patterns):
            if not p.months.contains(month):
                continue
            if p.mode == TEMP:
                fires = _firing_days(p, weekday1, month_days)
                temps.append((fires, _OPERATIONS[p.op], p.operand, i, p))
                starts |= fires ^ (fires << 1)  # the days it starts or stops firing
            # a day-less perm leaves the first month (no quantity yet) at the raw baseline
            elif p.days.kind != EMPTY or plan:
                fires = _firing_days(p, weekday1, month_days)
                perms.append((fires, _OPERATIONS[p.op], p.operand, i, p))
                starts |= fires
        # day 1 always starts a run, so it is left out; day n+1 ends the last
        plan.append((year, month, days_in_month, starts & month_days & ~2 | 2 << days_in_month,
                     tuple(perms), tuple(temps)))
    return tuple(plan)


def monthly_series(schedule: UsageSchedule, window: SimulationWindow, *,
                   plan: Sequence[PlannedMonth] | None = None
                   ) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Billable quantity of each window month, in order, from one replay from
    the window's first day through its last, and a message per clamp, in the
    order they happened; see the module docstring.

    ``plan`` is ``month_plan(schedule.patterns, window)``, built here when
    not given. A month's quantity is the sequential sum of its daily values,
    divided by its length for stocks, so results are bit-reproducible. An
    overflow raises EvaluationError with its ``month`` set.
    """
    if plan is None:
        plan = month_plan(schedule.patterns, window)
    stock = schedule.kind_class == STOCK
    level = float(schedule.baseline)
    quantities: list[float] = []
    clamps: list[str] = []
    inf = math.inf
    try:
        for year, month, days_in_month, starts, perms, temps in plan:
            total = 0.0
            dom = 1
            while starts:
                for fires, apply, operand, i, p in perms:
                    if (fires >> dom) & 1:
                        level = apply(level, operand)
                        if not -inf < level < inf:
                            raise _overflow(p)
                        if level < 0:
                            level = 0.0
                            clamps.append(_clamp_message(p, i, year, month, dom))
                value = level if stock else level / days_in_month
                for fires, apply, operand, i, p in temps:
                    if (fires >> dom) & 1:
                        value = apply(value, operand)
                        if not -inf < value < inf:
                            raise _overflow(p)
                        if value < 0:
                            value = 0.0
                            clamps.append(_clamp_message(p, i, year, month, dom))
                            starts |= 2 << dom  # the next day warns on its own
                first = starts & -starts  # the next run's first day, as a bit
                starts ^= first
                end = first.bit_length() - 1
                for _ in range(dom, end):
                    total += value
                dom = end
            if total == inf:
                raise EvaluationError("value overflowed summing the month's days")
            quantities.append(total / days_in_month if stock else total)
    except EvaluationError as exc:
        exc.month = Month(year, month)
        raise
    return tuple(quantities), tuple(clamps)
