import random
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcost import elasticity as el, patterns as pt
from cloudcost.errors import EvaluationError, PatternError
from cloudcost.months import Month, SimulationWindow

from builders import add_months, month_quantity, random_schedule
from oracle import oracle_month_quantity, oracle_replay


def schedule(kind_class, baseline, block=""):
    return el.UsageSchedule(kind_class, baseline,
                            tuple(pt.parse_patterns(block)) if block else ())


WORKED = "perm: every month +10, temp: every jun-aug on weekends /2, temp: every dec on 25-30 * 2"


def checked_quantity(sched, month, start=Month(2011, 1)):
    """One month's quantity, asserted equal to the day-loop oracle's."""
    got = month_quantity(sched, month, start)
    assert got == oracle_month_quantity(sched.kind_class, sched.baseline, sched.patterns,
                                        (start.year, start.month), (month.year, month.month))
    return got


def bits(*numbers):
    """A mask with bit n set for each of ``numbers``."""
    return sum(1 << n for n in numbers)


class TestParse:
    def test_perm_every_month(self):
        spec = pt.parse_pattern("perm: every month +10")
        assert spec == pt.PatternSpec("perm", bits(*range(1, 13)), None, "+", 10.0,
                                      "perm: every month +10")

    def test_temp_month_range_weekends(self):
        spec = pt.parse_pattern("temp: every jun-aug on weekends /2")
        assert spec == pt.PatternSpec("temp", bits(6, 7, 8), (0, bits(5, 6)), "/", 2.0,
                                      "temp: every jun-aug on weekends /2")

    def test_temp_day_range_spaced_operator(self):
        spec = pt.parse_pattern("temp: every dec on 25-30 * 2")
        assert spec == pt.PatternSpec("temp", bits(12), (bits(*range(25, 31)), 0), "*", 2.0,
                                      "temp: every dec on 25-30 * 2")

    def test_case_and_whitespace_tolerated(self):
        spec = pt.parse_pattern("  PERM :  Every   MONTH   +10 ")
        assert spec.mode == "perm"
        assert spec.months == bits(*range(1, 13))

    def test_bare_day_of_month(self):
        spec = pt.parse_pattern("perm: every month on 15 +10")
        assert spec.days == (bits(15), 0)
        assert spec == pt.parse_pattern("perm: every month on 15-15 +10")._replace(
            source=spec.source)

    def test_day_of_week_range(self):
        spec = pt.parse_pattern("temp: every month on mon-fri *0")
        assert spec.days == (0, bits(0, 1, 2, 3, 4))

    def test_float_operand(self):
        assert pt.parse_pattern("temp: every month *1.5").operand == 1.5

    def test_wrapping_month_range(self):
        spec = pt.parse_pattern("temp: every nov-feb +1")
        assert spec.months == bits(11, 12, 1, 2)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PatternError) as exc:
            pt.parse_pattern("perm: every month %5")
        assert exc.value.position is not None

    def test_block_split_on_commas_and_newlines(self):
        specs = pt.parse_patterns("perm: every month +10,\ntemp: every dec *2")
        assert [s.mode for s in specs] == ["perm", "temp"]

    @pytest.mark.parametrize("text", [
        "perm every month +10",       # missing colon
        "perm: month +10",            # missing 'every'
        "perm: every monday +10",     # day name where a month belongs
        "temp: every jun-aug on",     # day selector missing
        "perm: every month +",        # operand missing
        "perm: every month /0",       # division by zero
        "perm: every month ^-1",      # negative exponent
        "temp: every dec on 32 *2",   # day out of range
        "temp: every dec on 30-25 *2",  # decreasing range
        "temp: every month on fri-mon *2",  # wrapping weekday range
    ])
    def test_malformed_rejected_with_position(self, text):
        with pytest.raises(PatternError) as exc:
            pt.parse_pattern(text)
        assert exc.value.position is not None
        assert "column" in str(exc.value)

    @pytest.mark.parametrize("text, message, position", [
        ("", "expected pattern mode 'temp' or 'perm'", 0),
        ("   ", "expected pattern mode 'temp' or 'perm'", 3),
        ("42: every month +1", "expected pattern mode 'temp' or 'perm'", 0),
        ("Hourly: every month +1", "unknown mode 'Hourly', expected 'temp' or 'perm'", 0),
        ("temp every month +1", "expected ':' after the mode keyword", 5),
        ("temp:", "expected 'every'", 5),
        ("temp: 5", "expected 'every'", 6),
        ("temp: each month +1", "expected 'every'", 6),
        ("temp: every", "expected 'month' or a month name after 'every'", 11),
        ("temp: every 12 +1", "expected 'month' or a month name after 'every'", 12),
        ("temp: every jun-xyz +1", "unknown month 'xyz'", 12),
        ("temp: every Foo +1", "unknown month token 'foo'", 12),
        ("temp: every month on", "expected a day selector after 'on'", 20),
        ("temp: every month on +1", "expected a day selector after 'on'", 21),
        # superscript two is a digit but no decimal one, so no day of month
        ("temp: every month on \u00b2 +1", "expected a day selector after 'on'", 21),
        ("temp: every month on 00 +1", "day of month out of range: 00", 21),
        ("temp: every month on 05-03 +1", "decreasing day range 05-03", 21),
        ("temp: every month on Sat-Mon +1", "day-of-week range may not wrap: sat-mon", 21),
        ("temp: every month on mon-funday +1", "unknown day token 'funday'", 21),
        ("temp: every month on Someday +1", "unknown day token 'someday'", 21),
        ("temp: every month", "missing variation operator", 17),
        ("temp: every month on fri", "missing variation operator", 24),
        ("temp: every month %2", "unknown variation operator '%'", 18),
        ("temp: every month +", "missing operand", 19),
        ("temp: every month + x", "expected a numeric operand, got 'x'", 20),
        ("temp: every month +1 extra", "unexpected trailing input 'extra'", 21),
        ("temp: every month +1e999", "operand must be finite", 19),
        ("temp: every month /0.0", "division by zero", 19),
        ("perm: every month ^-2", "exponent must not be negative", 19),
        # numbers are ASCII digits only; int() and float() take any Unicode digit
        ("temp: every month on ٣ +١٠", "expected a day selector after 'on'", 21),
        ("temp: every month on ３ +1", "expected a day selector after 'on'", 21),
        ("temp: every month +١٠", "expected a numeric operand, got '١٠'", 19),
        ("temp: every month +1.٥", "unexpected trailing input '٥'", 21),
    ])
    def test_each_defect_has_its_message_and_position(self, text, message, position):
        with pytest.raises(PatternError) as exc:
            pt.parse_pattern(text)
        assert (exc.value.args[0], exc.value.position) == (message, position)


class TestMatches:
    # Each pattern is checked through the month it shapes: stock quantities
    # average the daily values, so every selected day moves the result.
    def test_weekend_saturday(self):
        sched = schedule(el.STOCK, 100, "temp: every month on weekends *2")
        # June 2011 has 8 weekend days out of 30
        assert checked_quantity(sched, Month(2011, 6)) == (22 * 100 + 8 * 200) / 30

    def test_day_of_month_range(self):
        sched = schedule(el.STOCK, 100, "temp: every dec on 25-30 *2")
        assert checked_quantity(sched, Month(2011, 12)) == (25 * 100 + 6 * 200) / 31

    def test_nonexistent_days_never_match(self):
        sched = schedule(el.STOCK, 100, "temp: every feb on 29-31 *2")
        assert checked_quantity(sched, Month(2011, 2)) == 100.0

    def test_empty_days_mode_dependent(self):
        # a day-less perm fires once per month (day 1), a day-less temp every day
        perm = schedule(el.STOCK, 0, "perm: every month +1")
        temp = schedule(el.STOCK, 0, "temp: every month +1")
        assert checked_quantity(perm, Month(2011, 3)) == 2.0
        assert checked_quantity(temp, Month(2011, 3)) == 1.0


class TestEvaluate:
    def test_worked_schedule_december_peak(self):
        sched = schedule(el.STOCK, 100, WORKED)
        # level 210 all month, doubled on the 25th-30th
        assert checked_quantity(sched, Month(2011, 12)) == 7770 / 31

    def test_worked_schedule_summer_weekend(self):
        sched = schedule(el.STOCK, 100, WORKED)
        # level 150, halved on June 2011's 8 weekend days
        assert checked_quantity(sched, Month(2011, 6)) == 130.0

    def test_no_patterns_is_identity(self):
        sched = schedule(el.STOCK, 42.5)
        assert checked_quantity(sched, Month(2012, 7)) == 42.5

    def test_first_month_keeps_raw_baseline(self):
        sched = schedule(el.STOCK, 100, "perm: every month +10")
        assert checked_quantity(sched, Month(2011, 1)) == 100.0
        assert checked_quantity(sched, Month(2011, 2)) == 110.0

    @pytest.mark.parametrize("fields, message", [
        ({"kind_class": "level"}, "unknown kind class 'level'"),
        ({"baseline": -1.0}, "baseline must be finite and >= 0, got -1.0"),
        ({"baseline": float("nan")}, "baseline must be finite and >= 0, got nan"),
    ], ids=["kind_class", "negative", "nan"])
    def test_schedule_check_runs_on_construction_and_replace(self, fields, message):
        good = {"kind_class": el.FLOW, "baseline": 1.0, "patterns": ()}
        with pytest.raises(ValueError) as built:
            el.UsageSchedule(**{**good, **fields})
        with pytest.raises(ValueError) as replaced:
            el.UsageSchedule(**good)._replace(**fields)
        assert str(built.value) == str(replaced.value) == message

    def test_clamp_records_warning(self):
        sched = schedule(el.STOCK, 10, "perm: every month -25")
        series, warnings = el.monthly_series(
            sched, SimulationWindow(Month(2011, 1), Month(2011, 2)))
        assert series == (10.0, 0.0)
        _, clamps = oracle_replay(el.STOCK, 10, sched.patterns, (2011, 1), (2011, 2))
        assert clamp_events(warnings) == clamps == [(date(2011, 2, 1), 0)]

    def test_zero_to_the_zero_is_one(self):
        sched = schedule(el.STOCK, 0, "temp: every month ^0")
        assert checked_quantity(sched, Month(2011, 1)) == 1.0

    def test_overflow_raises_evaluation_error(self):
        sched = schedule(el.STOCK, 1e300, "perm: every month *1e9")
        with pytest.raises(EvaluationError):
            month_quantity(sched, Month(2011, 12), Month(2011, 1))


class TestMonthlyQuantity:
    def test_constant_stock(self):
        sched = schedule(el.STOCK, 100)
        assert month_quantity(sched, Month(2011, 9), Month(2011, 1)) == pytest.approx(100)

    def test_weekend_doubled_flow_september(self):
        sched = schedule(el.FLOW, 300, "temp: every month on weekends *2")
        # September 2011 has 22 weekdays and 8 weekend days
        assert month_quantity(sched, Month(2011, 9), Month(2011, 9)) == 380.0

    def test_monthly_growth_levels(self):
        sched = schedule(el.STOCK, 2000, "perm: every month +17")
        start = Month(2011, 1)
        for k in range(6):
            got = month_quantity(sched, add_months(start, k), start)
            assert got == pytest.approx(2000 + 17 * k)

    def test_flow_month_is_the_sequential_sum_of_its_days(self):
        # 31 additions of 100/31 one by one; 100/31*31, math.fsum and the
        # baseline itself all give 100.0
        sched = schedule(el.FLOW, 100)
        assert month_quantity(sched, Month(2011, 1), Month(2011, 1)) == 99.99999999999993

    def test_no_pattern_flow_identity(self):
        sched = schedule(el.FLOW, 45.5)
        for k in range(4):
            got = month_quantity(sched, add_months(Month(2011, 1), k), Month(2011, 1))
            assert got == pytest.approx(45.5, rel=1e-12)

    def test_multiplicative_perm_is_geometric(self):
        sched = schedule(el.STOCK, 100, "perm: every month *2")
        start = Month(2011, 1)
        levels = [month_quantity(sched, add_months(start, k), start) for k in range(5)]
        assert levels == [pytest.approx(100 * 2 ** k) for k in range(5)]

    def test_additive_perm_is_arithmetic(self):
        sched = schedule(el.STOCK, 100, "perm: every month +10")
        start = Month(2011, 1)
        levels = [month_quantity(sched, add_months(start, k), start) for k in range(5)]
        assert levels == [pytest.approx(100 + 10 * k) for k in range(5)]

    def test_temp_pattern_leaves_other_months_alone(self):
        with_temp = schedule(el.STOCK, 100, "perm: every month +10, temp: every jul *3")
        without = schedule(el.STOCK, 100, "perm: every month +10")
        start = Month(2011, 1)
        for k in range(12):
            month = add_months(start, k)
            a = month_quantity(with_temp, month, start)
            b = month_quantity(without, month, start)
            if month.month == 7:
                assert a == pytest.approx(3 * b)
            else:
                assert a == b

    def test_series_matches_single_month_calls(self):
        rng = random.Random(7)
        for _ in range(25):
            sched = random_schedule(rng)
            start = Month(2011, 1)
            window = SimulationWindow(start, add_months(start, 5))
            series, _ = el.monthly_series(sched, window)
            assert len(series) == window.count
            for month, quantity in zip(window.months(), series):
                assert quantity == month_quantity(sched, month, start)


class TestOracleEquivalence:
    def test_fixed_seed_schedules_match_oracle(self):
        rng = random.Random(2011)
        start = Month(2011, 1)
        for _ in range(60):
            sched = random_schedule(rng)
            months = rng.randint(1, 24)
            month = add_months(start, months - 1)
            got = month_quantity(sched, month, start)
            want = oracle_month_quantity(sched.kind_class, sched.baseline,
                                         sched.patterns, (2011, 1),
                                         (month.year, month.month))
            assert got == want

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 18))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_seeded_schedules_match_oracle(self, seed, offset):
        rng = random.Random(seed)
        sched = random_schedule(rng)
        start = Month(2010, 6)
        month = add_months(start, offset - 1)
        got = month_quantity(sched, month, start)
        want = oracle_month_quantity(sched.kind_class, sched.baseline,
                                     sched.patterns, (2010, 6),
                                     (month.year, month.month))
        assert got == want

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_daily_values_never_negative(self, seed):
        # clamping keeps every day >= 0, so no month's sum or average is negative
        rng = random.Random(seed)
        sched = random_schedule(rng)
        window = SimulationWindow(Month(2011, 1), Month(2011, 12))
        assert all(quantity >= 0.0 for quantity in el.monthly_series(sched, window)[0])

    def test_determinism(self):
        sched = schedule(el.FLOW, 123.4, WORKED)
        a = month_quantity(sched, Month(2012, 8), Month(2011, 3))
        b = month_quantity(sched, Month(2012, 8), Month(2011, 3))
        assert a == b


CLAMP_RE = re.compile(r"clamped negative value to 0 on (\d{4}-\d{2}-\d{2}) \(pattern (\d+): ")


def clamp_events(warnings):
    """(day, zero-based pattern index) of each clamp warning, in order."""
    events = []
    for text in warnings:
        m = CLAMP_RE.match(text)
        assert m, text
        events.append((date.fromisoformat(m.group(1)), int(m.group(2)) - 1))
    return events


class TestClampWarnings:
    def test_seeded_warning_sequence_matches_oracle(self):
        rng = random.Random(4242)
        start = Month(2011, 1)
        clamping = 0
        for _ in range(300):
            sched = random_schedule(rng)
            month = add_months(start, rng.randint(0, 23))
            series, warnings = el.monthly_series(sched, SimulationWindow(start, month))
            quantity, clamps = oracle_replay(sched.kind_class, sched.baseline,
                                             sched.patterns, (2011, 1),
                                             (month.year, month.month))
            assert series[-1] == quantity
            assert clamp_events(warnings) == clamps
            clamping += bool(clamps)
        assert clamping >= 30  # the property is not vacuous

    def test_uniform_month_warns_once_per_day(self):
        sched = schedule(el.FLOW, 100, "temp: every month -1000")
        series, warnings = el.monthly_series(
            sched, SimulationWindow(Month(2011, 2), Month(2011, 2)))
        assert series == (0.0,)
        assert clamp_events(warnings) == [(date(2011, 2, d), 0) for d in range(1, 29)]
