"""Replay in classes and runs of days, checked against the day-loop oracle.

``elasticity.monthly_series`` values each class of days of a month's layout
once and adds its value on every day of its runs; a class that clamps warns
on each of its days. These tests cross every day-selector kind with every
weekday of day 1 and every month length, and check that each clamping day
warns under its own date in the order a day-by-day walk gives.
"""

import calendar
import hashlib
import json
from datetime import date

import pytest

import cloudcost
from cloudcost import elasticity as el, patterns as pt
from cloudcost.cli import main
from cloudcost.months import Month, SimulationWindow

from builders import add_months, month_days
from oracle import oracle_replay
from test_elasticity import clamp_events, schedule


def _months_by_shape():
    """One month per (weekday of day 1, length) pair: 7 x 4 months."""
    found = {}
    for year in range(2000, 2040):
        for month in range(1, 13):
            found.setdefault(calendar.monthrange(year, month), Month(year, month))
    shapes = [(weekday, length) for weekday in range(7) for length in range(28, 32)]
    return [found[shape] for shape in shapes]


MONTHS = _months_by_shape()

DAY_CLAUSES = (
    [""]
    + [" on everyday", " on weekdays", " on weekends"]
    + [f" on {dom:02d}" for dom in range(1, 32)]
    + [f" on {a:02d}-{b:02d}" for a, b in ((1, 1), (1, 31), (2, 9), (12, 20), (25, 28),
                                           (27, 29), (28, 31), (29, 30), (30, 31), (31, 31))]
    + [f" on {day}" for day in pt.DOW_NAMES]
    + [f" on {pt.DOW_NAMES[a]}-{pt.DOW_NAMES[b]}"
       for a, b in ((0, 4), (0, 6), (1, 3), (2, 6), (4, 5), (5, 6), (6, 6))]
)


@pytest.mark.parametrize("first", [True, False], ids=["first_month", "later_month"])
@pytest.mark.parametrize("mode, op", [("perm", "+7"), ("perm", "-120"),
                                      ("temp", "*3"), ("temp", "-120")])
def test_every_day_clause_on_every_month_shape_matches_oracle(mode, op, first):
    for month in MONTHS:
        start = month if first else add_months(month, -1)
        for clause in DAY_CLAUSES:
            sched = schedule(el.FLOW, 100, f"{mode}: every month{clause} {op}")
            got, warnings = el.monthly_series(sched, SimulationWindow(start, month))
            quantity, clamps = oracle_replay(el.FLOW, 100, sched.patterns,
                                             tuple(start), tuple(month))
            assert got[-1] == quantity, (month, clause)
            assert clamp_events(warnings) == clamps, (month, clause)


CLAMP_ORDER = ("temp: every month on weekdays -50, perm: every month on fri -1000, "
               "temp: every month on weekdays -1000")


@pytest.mark.parametrize("month", [Month(2011, 2), Month(2011, 12)], ids=str)
def test_clamps_on_repeated_run_days_are_day_major_then_declared(month):
    sched = schedule(el.FLOW, 100, CLAMP_ORDER)
    got, warnings = el.monthly_series(sched, SimulationWindow(month, month))
    quantity, clamps = oracle_replay(el.FLOW, 100, sched.patterns, tuple(month), tuple(month))
    assert got == (quantity,)
    assert clamp_events(warnings) == clamps
    # every weekday clamps both temps; each Friday's perm clamps before them
    expected = []
    for dom in range(1, month_days(month) + 1):
        weekday = date(month.year, month.month, dom).weekday()
        if weekday == 4:
            expected.append((date(month.year, month.month, dom), 1))
        if weekday < 5:
            expected += [(date(month.year, month.month, dom), index) for index in (0, 2)]
    assert clamps == expected


# Two clamping temps split each week into three temp sets; the perm on the
# 15th clamps the level, and the later perm fires on four days in a row, so
# the days after each of them hold a level of their own.
CLASS_ORDER = ("temp: every month on weekends -1e4, temp: every month on mon-wed -1e4, "
               "perm: every month on 15 -1e9, perm: every month on 20-23 +250")


@pytest.mark.parametrize("kind_class", [el.STOCK, el.FLOW])
@pytest.mark.parametrize("first", [True, False], ids=["first_month", "later_month"])
def test_clamps_across_classes_keep_the_day_by_day_order(kind_class, first):
    sched = schedule(kind_class, 100, CLASS_ORDER)
    perm_clamped = 0
    for month in MONTHS:
        start = month if first else add_months(month, -1)
        window = SimulationWindow(start, month)
        got, warnings = el.monthly_series(sched, window)
        expected = [oracle_replay(kind_class, 100, sched.patterns, tuple(start), tuple(each))[0]
                    for each in window.months()]
        assert list(map(float.hex, got)) == list(map(float.hex, expected)), month
        clamps = oracle_replay(kind_class, 100, sched.patterns, tuple(start), tuple(month))[1]
        assert clamp_events(warnings) == clamps, month
        perm_clamped += (date(month.year, month.month, 15), 2) in clamps
    assert perm_clamped == len(MONTHS)  # and, on a weekend or mon-wed, before the temps


# stderr of `simulate` for the demo model with web-1's vm_hours flooded by
# `temp: every month on everyday -1000`, 2011-01..2013-12, as written when
# every day was replayed on its own: 1096 lines, one per day
FLOOD_STDERR_SHA256 = "825a68eb791860056db91b53e05c8fc89a023d54e1eee10a7173acd1bb4ac2ac"


def test_flood_model_warnings_are_unchanged(tmp_path, capsys):
    doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
    assert doc["nodes"][0]["id"] == "web-1"
    doc["nodes"][0]["requirements"][0]["patterns"] = ["temp: every month on everyday -1000"]
    model = tmp_path / "flood.json"
    model.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(model),
                 "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                 "--start", "2011-01", "--end", "2013-12", "--out", str(tmp_path / "out")]) == 0
    stderr = capsys.readouterr().err
    assert len(stderr.splitlines()) == 1096
    assert hashlib.sha256(stderr.encode("utf-8")).hexdigest() == FLOOD_STDERR_SHA256


def test_flood_model_in_year_zero_simulates_and_validates(tmp_path, capsys):
    # Month.parse takes year 0000 (proleptic Gregorian, a leap year); clamp
    # warnings are dated from the replay's own integers, so they print too
    doc = json.loads(cloudcost.data_path("demo_model.json").read_text())
    doc["nodes"][0]["requirements"][0]["patterns"] = ["temp: every month on everyday -1000"]
    model = tmp_path / "flood.json"
    model.write_text(json.dumps(doc))
    assert main(["validate", str(model)]) == 0
    days = [f"0000-{month:02d}-{dom:02d}"
            for month, length in ((1, 31), (2, 29)) for dom in range(1, length + 1)]
    for command in ("simulate", "export-csv"):
        out = tmp_path / command
        assert main([command, "--model", str(model),
                     "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                     "--start", "0000-01", "--end", "0000-02", "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" on ")[1][:10] for line in lines] == days
        assert all(line.startswith("warning: web-1/vm_hours: clamped negative value to 0 on ")
                   for line in lines)
        months = {row.split(",")[0] for row in (out / "report.csv").read_text().splitlines()[1:]}
        assert months == {"0000-01", "0000-02"}
