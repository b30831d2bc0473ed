import random
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcost import elasticity as el
from cloudcost.errors import EvaluationError, PatternError
from cloudcost.months import Month, SimulationWindow

from builders import month_quantity, random_schedule
from oracle import oracle_month_quantity, oracle_replay


def schedule(kind_class, baseline, block=""):
    return el.UsageSchedule(kind_class, baseline,
                            tuple(el.parse_patterns(block)) if block else ())


WORKED = "perm: every month +10, temp: every jun-aug on weekends /2, temp: every dec on 25-30 * 2"


def checked_quantity(sched, month, start=Month(2011, 1)):
    """One month's quantity, asserted equal to the day-loop oracle's."""
    got = month_quantity(sched, month, start)
    assert got == oracle_month_quantity(sched.kind_class, sched.baseline, sched.patterns,
                                        (start.year, start.month), (month.year, month.month))
    return got


class TestParse:
    def test_perm_every_month(self):
        spec = el.parse_pattern("perm: every month +10")
        assert spec == el.PatternSpec("perm", el.MonthSelector(),
                                      el.DaySelector("empty"), "+", 10.0)

    def test_temp_month_range_weekends(self):
        spec = el.parse_pattern("temp: every jun-aug on weekends /2")
        assert spec == el.PatternSpec("temp", el.MonthSelector(6, 8),
                                      el.DaySelector("weekends"), "/", 2.0)

    def test_temp_day_range_spaced_operator(self):
        spec = el.parse_pattern("temp: every dec on 25-30 * 2")
        assert spec == el.PatternSpec("temp", el.MonthSelector(12, 12),
                                      el.DaySelector("dom_range", 25, 30), "*", 2.0)

    def test_case_and_whitespace_tolerated(self):
        spec = el.parse_pattern("  PERM :  Every   MONTH   +10 ")
        assert spec.mode == "perm"
        assert spec.months == el.MonthSelector()

    def test_bare_day_of_month(self):
        spec = el.parse_pattern("perm: every month on 15 +10")
        assert spec.days == el.DaySelector("dom", 15)

    def test_day_of_week_range(self):
        spec = el.parse_pattern("temp: every month on mon-fri *0")
        assert spec.days == el.DaySelector("dow_range", 0, 4)

    def test_float_operand(self):
        assert el.parse_pattern("temp: every month *1.5").operand == 1.5

    def test_wrapping_month_range(self):
        spec = el.parse_pattern("temp: every nov-feb +1")
        assert spec.months.contains(12) and spec.months.contains(1)
        assert not spec.months.contains(6)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PatternError) as exc:
            el.parse_pattern("perm: every month %5")
        assert exc.value.position is not None

    def test_block_split_on_commas_and_newlines(self):
        specs = el.parse_patterns("perm: every month +10,\ntemp: every dec *2")
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
            el.parse_pattern(text)
        assert exc.value.position is not None
        assert "column" in str(exc.value)


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

    def test_date_before_start_rejected(self):
        sched = schedule(el.STOCK, 1)
        with pytest.raises(ValueError):
            el.monthly_series(sched, SimulationWindow(Month(2010, 12), Month(2011, 1)),
                              Month(2011, 1))

    def test_clamp_records_warning(self):
        sched = schedule(el.STOCK, 10, "perm: every month -25")
        warnings = []
        series = el.monthly_series(sched, SimulationWindow(Month(2011, 2), Month(2011, 2)),
                                   Month(2011, 1), warnings.append)
        assert series == [(Month(2011, 2), 0.0)]
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
            got = month_quantity(sched, start.add(k), start)
            assert got == pytest.approx(2000 + 17 * k)

    def test_flow_month_is_the_sequential_sum_of_its_days(self):
        # 31 additions of 100/31 one by one; 100/31*31, math.fsum and the
        # baseline itself all give 100.0
        sched = schedule(el.FLOW, 100)
        assert month_quantity(sched, Month(2011, 1), Month(2011, 1)) == 99.99999999999993

    def test_no_pattern_flow_identity(self):
        sched = schedule(el.FLOW, 45.5)
        for k in range(4):
            got = month_quantity(sched, Month(2011, 1).add(k), Month(2011, 1))
            assert got == pytest.approx(45.5, rel=1e-12)

    def test_multiplicative_perm_is_geometric(self):
        sched = schedule(el.STOCK, 100, "perm: every month *2")
        start = Month(2011, 1)
        levels = [month_quantity(sched, start.add(k), start) for k in range(5)]
        assert levels == [pytest.approx(100 * 2 ** k) for k in range(5)]

    def test_additive_perm_is_arithmetic(self):
        sched = schedule(el.STOCK, 100, "perm: every month +10")
        start = Month(2011, 1)
        levels = [month_quantity(sched, start.add(k), start) for k in range(5)]
        assert levels == [pytest.approx(100 + 10 * k) for k in range(5)]

    def test_temp_pattern_leaves_other_months_alone(self):
        with_temp = schedule(el.STOCK, 100, "perm: every month +10, temp: every jul *3")
        without = schedule(el.STOCK, 100, "perm: every month +10")
        start = Month(2011, 1)
        for k in range(12):
            month = start.add(k)
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
            window = SimulationWindow(start, start.add(5))
            series = el.monthly_series(sched, window)
            assert [m for m, _ in series] == window.months()
            for month, quantity in series:
                assert quantity == month_quantity(sched, month, start)


class TestOracleEquivalence:
    def test_fixed_seed_schedules_match_oracle(self):
        rng = random.Random(2011)
        start = Month(2011, 1)
        for _ in range(60):
            sched = random_schedule(rng)
            months = rng.randint(1, 24)
            month = start.add(months - 1)
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
        month = start.add(offset - 1)
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
        assert all(quantity >= 0.0 for _, quantity in el.monthly_series(sched, window))

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
            month = start.add(rng.randint(0, 23))
            warnings = []
            series = el.monthly_series(sched, SimulationWindow(month, month), start,
                                       warnings.append)
            quantity, clamps = oracle_replay(sched.kind_class, sched.baseline,
                                             sched.patterns, (2011, 1),
                                             (month.year, month.month))
            assert series == [(month, quantity)]
            assert clamp_events(warnings) == clamps
            clamping += bool(clamps)
        assert clamping >= 30  # the property is not vacuous

    def test_uniform_month_warns_once_per_day(self):
        sched = schedule(el.FLOW, 100, "temp: every month -1000")
        warnings = []
        series = el.monthly_series(sched, SimulationWindow(Month(2011, 2), Month(2011, 2)),
                                   None, warnings.append)
        assert series == [(Month(2011, 2), 0.0)]
        assert clamp_events(warnings) == [(date(2011, 2, d), 0) for d in range(1, 29)]
