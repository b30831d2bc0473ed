"""A replay from a shared month plan equals a fresh replay and the oracle.

``elasticity.month_plan`` holds what a replay of some patterns does in each
window month, whatever the baseline and kind class, and
``elasticity.monthly_series`` walks it. These tests cross every day-selector
kind with every operator, next to a seeded extra pattern and a clamping temp,
over windows that start with a day-less perm's first month, cross a year end
or hold a leap February, and check the walk of one plan against a fresh call
and the day-loop oracle. Every day and month clause of the grammar also fires
on the days the oracle's own reader of the pattern text selects.
"""

import calendar
import random

import pytest

from cloudcost import elasticity as el, patterns as pt
from cloudcost.errors import EvaluationError
from cloudcost.months import Month, SimulationWindow

from builders import DOWS, MONTHS, add_months, random_pattern_text, random_schedule
from oracle import oracle_firing_days, oracle_replay
from test_elasticity import clamp_events

DAY_CLAUSES = ["", " on everyday", " on weekdays", " on weekends", " on 29", " on 27-31",
               " on sat", " on mon-wed"]
OPERATIONS = ["+4", "-30", "*1.05", "/1.5", "^1.02"]
WINDOWS = [
    SimulationWindow(Month(2011, 11), Month(2012, 3)),  # a year end, then a leap February
    SimulationWindow(Month(2016, 2), Month(2016, 3)),  # starts in a leap February
    SimulationWindow(Month(2099, 12), Month(2100, 3)),  # 2100 is not a leap year
]
CLAMPING = "temp: every dec-feb on weekends -1e4"
# Every day clause: none, each day of month and ordered day range, each weekday
# and ordered weekday range, and the three keywords.
EVERY_DAY_CLAUSE = ["", *(f" on {a}" for a in range(1, 32)),
                    *(f" on {a}-{b}" for a in range(1, 32) for b in range(a, 32)),
                    *(f" on {a}" for a in DOWS),
                    *(f" on {a}-{b}" for i, a in enumerate(DOWS) for b in DOWS[i:]),
                    " on everyday", " on weekdays", " on weekends"]
EVERY_MONTH_CLAUSE = ["month", *MONTHS, *(f"{a}-{b}" for a in MONTHS for b in MONTHS)]


def planned_days(plan, count: int) -> list[dict[int, set[int]]]:
    """Each planned month's firing days of each of ``count`` patterns, by
    pattern index; an inactive pattern fires on no day."""
    months = []
    for _, _, days_in_month, perms, temps, _ in plan:
        fired = {i: set() for i in range(count)}
        for fires, _, _, i, _ in perms + temps:
            fired[i] = {day for day in range(1, days_in_month + 1) if fires >> day & 1}
        months.append(fired)
    return months


def test_every_day_clause_fires_on_the_days_the_oracle_reads():
    texts = [f"{mode}: every month{clause} *2" for clause in EVERY_DAY_CLAUSE
             for mode in ("temp", "perm")]
    specs = tuple(map(pt.parse_pattern, texts))
    # one month per (weekday of day 1, month length): 28 years hold all 28 pairs
    shapes = {calendar.monthrange(year, month): (year, month)
              for year in range(2000, 2028) for month in range(1, 13)}
    assert len(shapes) == 28
    for year, month in shapes.values():
        # the month before is the first simulated one, where a day-less perm waits
        window = SimulationWindow(add_months(Month(year, month), -1), Month(year, month))
        first, second = planned_days(el.month_plan(specs, window), len(texts))
        before = window.start
        for i, text in enumerate(texts):
            assert first[i] == oracle_firing_days(text, before.year, before.month, True), text
            assert second[i] == oracle_firing_days(text, year, month, False), text


def test_every_month_clause_fires_in_the_months_the_oracle_reads():
    texts = [f"{mode}: every {clause}{days} *2" for clause in EVERY_MONTH_CLAUSE
             for mode in ("temp", "perm") for days in ("", " on 1")]
    specs = tuple(map(pt.parse_pattern, texts))
    window = SimulationWindow(Month(2011, 12), Month(2013, 1))  # a leap year and both year ends
    for month, fired in zip(window.months(), planned_days(el.month_plan(specs, window),
                                                          len(texts))):
        first = month == window.start
        for i, text in enumerate(texts):
            assert fired[i] == oracle_firing_days(text, month.year, month.month, first), text


def oracle_series(schedule, window):
    """Each window month's quantity and every clamp, from the day-loop oracle."""
    start = tuple(window.start)
    quantities = tuple(oracle_replay(schedule.kind_class, schedule.baseline, schedule.patterns,
                                     start, tuple(month))[0] for month in window.months())
    clamps = oracle_replay(schedule.kind_class, schedule.baseline, schedule.patterns,
                           start, tuple(window.end))[1]
    return quantities, clamps


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("clause", DAY_CLAUSES, ids=lambda clause: clause.strip() or "no_days")
def test_a_planned_replay_equals_the_fresh_call_and_the_oracle(clause, operation):
    rng = random.Random(f"{clause}{operation}")
    texts = [f"perm: every month{clause} {operation}", random_pattern_text(rng),
             f"temp: every month{clause} {operation}", CLAMPING]
    specs = tuple(map(pt.parse_pattern, texts))
    for window in WINDOWS:
        plan = el.month_plan(specs, window)
        for kind_class in (el.STOCK, el.FLOW):
            schedule = el.UsageSchedule(kind_class, 120.0, specs)
            quantities, messages = el.monthly_series(schedule, window, plan=plan)
            assert (quantities, messages) == el.monthly_series(schedule, window)
            assert (quantities, clamp_events(messages)) == oracle_series(schedule, window)


def test_one_plan_serves_stocks_and_flows_at_every_baseline():
    rng = random.Random(23)
    clamped = 0
    for _ in range(60):
        specs = random_schedule(rng).patterns + (pt.parse_pattern(CLAMPING),)
        start = Month(rng.randint(2010, 2013), rng.randint(1, 12))
        window = SimulationWindow(start, add_months(start, rng.randint(0, 14)))
        plan = el.month_plan(specs, window)
        for kind_class in (el.STOCK, el.FLOW):
            for baseline in (0.0, 1.0, 97.5, 1e6):
                schedule = el.UsageSchedule(kind_class, baseline, specs)
                replayed = el.monthly_series(schedule, window, plan=plan)
                assert replayed == el.monthly_series(schedule, window)
                clamped += bool(replayed[1])
    assert clamped >= 100  # the clamping temp fires in most windows


@pytest.mark.parametrize("kind_class, baseline, block, message, month", [
    (el.STOCK, 1e300, "perm: every month *1e9", "value overflowed applying '*1e+09'",
     Month(2011, 2)),
    (el.FLOW, 1e200, "perm: every month ^2", "value overflowed applying '^2'", Month(2011, 2)),
    (el.STOCK, 1e300, "temp: every mar on 15 *1e10", "value overflowed applying '*1e+10'",
     Month(2011, 3)),
    (el.STOCK, 1.7e308, "", "value overflowed summing the month's days", Month(2011, 1)),
], ids=["perm_mul", "perm_pow", "temp_mul", "month_sum"])
def test_an_overflow_from_a_plan_keeps_its_message_and_month(kind_class, baseline, block,
                                                             message, month):
    specs = tuple(pt.parse_patterns(block))
    window = SimulationWindow(Month(2011, 1), Month(2011, 6))
    schedule = el.UsageSchedule(kind_class, baseline, specs)
    for plan in (el.month_plan(specs, window), None):
        with pytest.raises(EvaluationError) as raised:
            el.monthly_series(schedule, window, plan=plan)
        assert str(raised.value) == message
        assert raised.value.month == month
