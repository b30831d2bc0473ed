import calendar
import copy
import pickle
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudcost.engine import CostReport, CostSeries
from cloudcost.errors import WindowError
from cloudcost.months import Month, SimulationWindow, month_calendar

from builders import add_months

MONTHS = st.builds(Month, st.integers(1, 9999), st.integers(1, 12))


@given(MONTHS, MONTHS)
def test_order_equality_and_hash_follow_the_index(a, b):
    assert (a < b) == (a.index() < b.index())
    assert (a == b) == (a.index() == b.index())
    if a == b:
        assert hash(a) == hash(b)
    assert sorted([b, a]) == sorted([b, a], key=Month.index)


@given(MONTHS, st.integers(-9999, 9999))
def test_text_and_arithmetic_round_trip(month, k):
    assert Month.parse(str(month)) == month
    assert add_months(month, k).diff(month) == k


@given(MONTHS)
def test_copies_are_equal_months(month):
    for other in (copy.copy(month), copy.deepcopy(month), pickle.loads(pickle.dumps(month))):
        assert type(other) is Month and other == month


def test_fields_are_read_only():
    month = Month(2011, 3)
    with pytest.raises(AttributeError):
        month.year = 2012
    with pytest.raises(AttributeError):
        month.day = 1
    assert (month.year, month.month) == (2011, 3)
    assert repr(month) == "Month(year=2011, month=3)"
    assert Month(year=2011, month=3) == month


@pytest.mark.parametrize("number", [0, 13])
def test_month_number_out_of_range(number):
    with pytest.raises(ValueError) as exc:
        Month(2011, number)
    assert str(exc.value) == f"month number out of range: {number}"
    with pytest.raises(ValueError):
        Month(2011, 1)._replace(month=number)


@pytest.mark.parametrize("text", ["٢٠١١-٠١", "２０１１-０１"])
def test_only_ascii_digits_parse(text):
    with pytest.raises(ValueError) as exc:
        Month.parse(text)
    assert str(exc.value) == f"expected YYYY-MM, got {text!r}"


@pytest.mark.parametrize("start, end", [(Month(2011, 2), Month(2011, 1)),
                                        (Month(2012, 1), Month(2011, 12))])
def test_reversed_window_is_rejected_also_by_replace(start, end):
    message = f"window start {start} is after its end {end}"
    with pytest.raises(WindowError, match=f"^{message}$"):
        SimulationWindow(start, end)
    with pytest.raises(WindowError, match=f"^{message}$"):
        SimulationWindow(end, end)._replace(start=start)
    with pytest.raises(WindowError, match=f"^{message}$"):
        SimulationWindow(start, start)._replace(end=end)


@pytest.mark.parametrize("start, count", [
    (Month(2011, 11), 4),  # across a year end
    (Month(0, 2), 10),  # within year 0000
    (Month(9999, 1), 12),  # within year 9999, through its last month
    (Month(2011, 1), 1),
])
def test_window_months_are_its_start_stepped_month_by_month(start, count):
    months = SimulationWindow(start, add_months(start, count - 1)).months()
    assert months == [add_months(start, i) for i in range(count)]
    assert all(type(month) is Month for month in months)


def test_dataclass_conversions_rebuild_months():
    window = SimulationWindow(Month(2011, 1), Month(2011, 2))
    as_dict = window._asdict()
    assert as_dict == {"start": Month(2011, 1), "end": Month(2011, 2)}
    assert all(type(month) is Month for month in as_dict.values())
    as_tuple = tuple(window)
    assert as_tuple == (Month(2011, 1), Month(2011, 2))
    assert all(type(month) is Month for month in as_tuple)
    series = CostSeries("web", "web", "vm_hours", "hours", None, "p", "r", None,
                        (720.0, None), (Decimal("7.20"), None))
    report = CostReport(window, (series,), (), "USD")
    assert report.lines[0]._asdict()["month"] == Month(2011, 1)
    assert type(tuple(report.lines[0])[0]) is Month


def test_a_month_equals_its_plain_tuple():
    assert Month(2011, 3) == (2011, 3)
    assert hash(Month(2011, 3)) == hash((2011, 3))


def test_month_calendar_agrees_with_the_calendar_module():
    # one walk over years 1-9999 carries the weekday forward; each month is
    # also started on its own, which computes its first weekday directly
    walked = list(month_calendar(Month(1, 1), Month(9999, 12)))
    assert len(walked) == 9999 * 12
    for year, month, weekday1, days in walked:
        assert (weekday1, days) == calendar.monthrange(year, month), (year, month)
        assert next(month_calendar(Month(year, month), Month(year, month))) == (
            year, month, weekday1, days)
        assert Month(year, month).last_day().day == days
