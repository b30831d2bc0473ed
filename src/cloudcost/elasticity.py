"""Elasticity replay: the billable quantity of each month from a baseline
and its patterns.

The patterns themselves, their grammar and parser, are
:mod:`cloudcost.patterns`, which makes each pattern's month and day masks
once. This module replays parsed :class:`~cloudcost.patterns.PatternSpec`
records day by day. It still decides the calendar side: which days of each
month a weekday mask selects, and the two rules below for a pattern without
a day clause.

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
  warning. ``0^0`` evaluates to 1 (``/0`` and negative exponents never
  parse).

Replay has two parts. :func:`month_plan` depends only on the patterns and
the window: for each month it keeps the active perms and temps, each with a
firing bitmask (bit ``dom`` set for each day it applies on: the weekday
mask rotated to day 1's weekday and repeated over the month, or-ed with the
day-of-month mask) and its operator as a function, plus a mask of the days
that start a run of identical days. A run starts on day 1, on every day a perm fires
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
from typing import Callable, NamedTuple, Sequence

from .errors import EvaluationError
from .months import Month, SimulationWindow, month_calendar
from .patterns import TEMP, PatternSpec

STOCK = "stock"
FLOW = "flow"


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


def _firing_days(days: tuple[int, int], weekday1: int, month_days: int) -> int:
    """The days a (day-of-month mask, weekday mask) pair selects in a month,
    as a bitmask with bit ``dom`` set per day. The month's day 1 falls on
    ``weekday1`` (0 is Monday) and ``month_days`` has bits 1..n set for its
    n days."""
    dom, week = days
    # bit j of the month's first week is weekday (weekday1 + j) % 7
    week = ((week >> weekday1) | (week << (7 - weekday1))) & 0x7F
    return (dom | (week * _FIVE_WEEKS) << 1) & month_days


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
            if not p.months >> month & 1:
                continue
            if p.days is not None:
                fires = _firing_days(p.days, weekday1, month_days)
            elif p.mode == TEMP:
                fires = month_days  # a day-less temp applies every day
            elif plan:
                fires = 2  # a day-less perm fires on day 1 ...
            else:
                continue  # ... but leaves the first month (no quantity yet) at the raw baseline
            if p.mode == TEMP:
                temps.append((fires, _OPERATIONS[p.op], p.operand, i, p))
                starts |= fires ^ (fires << 1)  # the days it starts or stops firing
            else:
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
