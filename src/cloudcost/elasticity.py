"""Elasticity replay: the billable quantity of each month from a baseline
and its patterns.

The patterns themselves, their grammar and parser, are
:mod:`cloudcost.patterns`, which makes each pattern's month and day masks
once. This module replays parsed :class:`~cloudcost.patterns.PatternSpec`
records. It still decides the calendar side: which days of each
month a weekday mask selects, and the two rules below for a pattern without
a day clause.

Evaluation semantics:

* A perm pattern without a day clause fires once at the start of each
  matching month, except the first simulated month, which keeps the raw
  baseline. A perm pattern with a day clause fires at the start of each
  matching day.
* A temp pattern without a day clause applies to every day of matching
  months; with a day clause, to matching days only.
* All perm mutations for a day happen before temp transformations; among
  the perms and among the temps, declaration order rules.
* Flows contribute level/days-in-month per day and bill the monthly sum;
  stocks contribute the level itself and bill the time-average (GB-month).
* Every operator application clamps negative results to 0, recording a
  warning. ``0^0`` evaluates to 1 (``/0`` and negative exponents never
  parse).

Replay has two parts. :func:`month_plan` depends only on the patterns and
the window: for each month it keeps the active perms and temps, each with a
firing bitmask (bit ``dom`` set for each day it applies on: the weekday
mask rotated to day 1's weekday and repeated over the month, or-ed with the
day-of-month mask) and its operator as a function, plus the month's day
layout. The layout depends only on the month's length, the OR of the perm
masks and the tuple of temp masks, so months and pattern sets that share
those share one layout, kept in a memo the caller owns (the engine keeps
one per command) and built one step per run:

* a *run* is a stretch of days that starts on day 1, on every day a perm
  fires and on every day the set of firing temps changes;
* a *class* is a group of days that share one level and one set of firing
  temps: (the perm-firing day that starts it, or 0; the positions of its
  temps). A perm-firing day always starts a new class, whose later days
  are the following days with the same temps before the next perm fires;
* the layout's runs are (class, range of the run's days), in day order.

:func:`monthly_series` then values each class once per series, in the
order the classes first occur: the perms that fire on its day (if any) and
then its temps, each in declaration order, with the clamp and overflow
checks of a day-by-day walk. So one plan serves every baseline and kind
class. A month's quantity still adds its daily values one by one from 0.0,
the run's class value once per day of each run: the order of float
operations is part of the output contract, so no ``value * n``, closed
form, ``sum()`` (compensated since Python 3.12) or ``math.fsum`` stands in
for the loop. A layout of exactly one class (one run over days 1..n) keeps a
store of the month totals that loop gave, by class value, and a month of it
whose value is stored reuses that total: it is the result of the same n
additions from 0.0, so it has the loop's bits on every Python version.
``0.0`` and ``-0.0`` share a key, as a sum from +0.0 of either is +0.0. A
layout of two or more classes keeps no store and always loops.

A class that clamps warns on each of its days, in date order; on a
perm-firing day the day's perm clamps come before its temp clamps, each
group in pattern order: the sequence a day-by-day walk gives. Only a month
that clamped walks its days to build those messages.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence

from .errors import EvaluationError
from .months import Month, SimulationWindow, month_calendar
from .patterns import TEMP, PatternSpec

STOCK = "stock"
FLOW = "flow"


class UsageSchedule(namedtuple("UsageSchedule", "kind_class baseline patterns", defaults=((),))):
    """A resource's kind class (STOCK or FLOW) and baseline, plus its ordered
    elasticity patterns."""

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
# function and operand, its index in the schedule and the pattern itself,
# (int, (float, float) -> float, float, int, PatternSpec).
PlannedPattern = tuple
# A month's day layout: its classes, each (the perm-firing day that starts
# it or 0, the positions of its firing temps among the month's temps), its
# runs in day order, each (class index, range of its days), and for a
# one-class layout its store of month totals by class value, else None; see
# the module docstring.
DayLayout = tuple
# One window month: year, month, days, its active perms and temps in
# declaration order and its day layout,
# (int, int, int, tuple of PlannedPattern, tuple of PlannedPattern, DayLayout).
PlannedMonth = tuple


def _day_layout(days_in_month: int, perm_days: int, temp_days: tuple[int, ...]) -> DayLayout:
    """The classes and runs of a month of ``days_in_month`` days whose perms
    fire on the days in mask ``perm_days`` and whose temps each fire on the
    days in their mask in ``temp_days``, built one step per run, and an empty
    store of month totals when there is one class."""
    month_days = (2 << days_in_month) - 2
    starts = perm_days
    for fires in temp_days:
        starts |= fires ^ (fires << 1)  # the days it starts or stops firing
    # day 1 always starts a run, so it is left out; day n+1 ends the last
    starts = starts & month_days & ~2 | 2 << days_in_month
    index: dict[int, int] = {}  # (level day, firing temps as bits) -> class
    classes: list[tuple[int, tuple[int, ...]]] = []
    runs: list[tuple[int, range]] = []
    dom = 1
    level = 0  # the day a perm last fired on, 0 before it first does
    while starts:
        first = starts & -starts  # the next run's first day, as a bit
        starts ^= first
        end = first.bit_length() - 1
        if perm_days >> dom & 1:
            level = dom
        key = level
        for fires in temp_days:
            key = key << 1 | fires >> dom & 1
        c = index.get(key)
        if c is None:
            c = index[key] = len(classes)
            classes.append((level if level == dom else 0,
                            tuple(k for k, fires in enumerate(temp_days) if fires >> dom & 1)))
        runs.append((c, range(dom, end)))
        dom = end
    return tuple(classes), tuple(runs), {} if len(classes) == 1 else None


def month_plan(patterns: Sequence[PatternSpec], window: SimulationWindow,
               layouts: dict | None = None) -> tuple[PlannedMonth, ...]:
    """What a replay of ``patterns`` over ``window`` does in each month,
    whatever the baseline and kind class; see the module docstring.

    ``layouts`` is the day-layout memo, keyed by (days in the month, perm
    mask, temp masks); a fresh one is used by default."""
    if layouts is None:
        layouts = {}
    plan: list[PlannedMonth] = []
    for year, month, weekday1, days_in_month in month_calendar(window.start, window.end):
        month_days = (2 << days_in_month) - 2
        perms: list[PlannedPattern] = []
        temps: list[PlannedPattern] = []
        perm_days = 0
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
            else:
                perms.append((fires, _OPERATIONS[p.op], p.operand, i, p))
                perm_days |= fires
        key = (days_in_month, perm_days, tuple(t[0] for t in temps))
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _day_layout(*key)
        plan.append((year, month, days_in_month, tuple(perms), tuple(temps), layout))
    return tuple(plan)


def monthly_series(schedule: UsageSchedule, window: SimulationWindow, *,
                   plan: Sequence[PlannedMonth] | None = None
                   ) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Billable quantity of each window month, in order, from one replay from
    the window's first day through its last, and a message per clamp, in the
    order they happened; see the module docstring.

    ``plan`` is ``month_plan(schedule.patterns, window)``, built here when
    not given. A month's quantity is the sequential sum of its daily values,
    divided by its length for stocks, so results are bit-reproducible. A
    one-class month whose layout has summed its value before reuses that
    total, the bits of the same sum; a new total is stored only once it
    passes the overflow check. An overflow raises EvaluationError with its
    ``month`` set.
    """
    if plan is None:
        plan = month_plan(schedule.patterns, window)
    stock = schedule.kind_class == STOCK
    level = float(schedule.baseline)
    quantities: list[float] = []
    clamps: list[str] = []
    inf = math.inf
    try:
        for year, month, days_in_month, perms, temps, (classes, runs, totals) in plan:
            values: list[float] = []
            # (class, pattern index, pattern, the perm's day or 0 for a temp)
            clamped: list[tuple[int, int, PatternSpec, int]] = []
            for perm_day, fired in classes:
                if perm_day:
                    for fires, apply, operand, i, p in perms:
                        if fires >> perm_day & 1:
                            level = apply(level, operand)
                            if not -inf < level < inf:
                                raise _overflow(p)
                            if level < 0:
                                level = 0.0
                                clamped.append((len(values), i, p, perm_day))
                value = level if stock else level / days_in_month
                for k in fired:
                    _, apply, operand, i, p = temps[k]
                    value = apply(value, operand)
                    if not -inf < value < inf:
                        raise _overflow(p)
                    if value < 0:
                        value = 0.0
                        clamped.append((len(values), i, p, 0))
                values.append(value)
            # a one-class month's total, if this value was summed before
            total = totals.get(values[0]) if totals is not None else None
            if total is None:
                total = 0.0
                for c, days in runs:
                    value = values[c]
                    for _ in days:
                        total += value
                if total == inf:
                    raise EvaluationError("value overflowed summing the month's days")
                if totals is not None:
                    totals[values[0]] = total
            quantities.append(total / days_in_month if stock else total)
            if clamped:  # a perm's on its class's first day, a temp's on each day
                clamps += [_clamp_message(p, i, year, month, day)
                           for c, days in runs for day in days
                           for cls, i, p, on in clamped if cls == c and on in (0, day)]
    except EvaluationError as exc:
        exc.month = Month(year, month)
        raise
    return tuple(quantities), tuple(clamps)

