"""Calendar-month arithmetic shared by the usage and billing layers.

A :class:`Month` is a ``(year, month)`` tuple with calendar methods. Window
bounds compare months, so equality, ordering and hashing stay the tuple's
own, in C. By design a ``Month`` therefore equals the plain
tuple ``(year, month)``. It is a named tuple, so ``_asdict`` and ``_replace``
of a record holding one keep it a ``Month``.

Month lengths and the weekday of each month's first day come from integer
arithmetic (:func:`month_calendar`), not from the ``calendar`` module.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator

from .errors import WindowError

_MONTH_RE = re.compile(r"^([0-9]{4})-([0-9]{2})$")
_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # in a common year
# Sakamoto's month offsets: day 1's weekday is (y + y//4 - y//100 + y//400 + offset) % 7
_OFFSETS = (0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4)


class Month(namedtuple("Month", "year month")):
    """A calendar month in the proleptic Gregorian calendar; read-only."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks the range too

    def __new__(cls, year: int, month: int) -> Month:
        if not 1 <= month <= 12:
            raise ValueError(f"month number out of range: {month}")
        return tuple.__new__(cls, (year, month))

    @classmethod
    def parse(cls, text: str) -> Month:
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def first_day(self):
        """Day 1 as a ``date``, imported here: only bench/tracing.py calls it."""
        from datetime import date

        return date(self.year, self.month, 1)

    def last_day(self):
        """The last day as a ``date``, imported here: only bench/tracing.py calls it."""
        from datetime import date

        return date(self.year, self.month, next(month_calendar(self, self))[3])

    def index(self) -> int:
        return self.year * 12 + self.month - 1

    def diff(self, other: Month) -> int:
        return self.index() - other.index()

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def month_calendar(first: Month, last: Month) -> Iterator[tuple[int, int, int, int]]:
    """``(year, month, weekday of day 1, days in month)`` for each month from
    ``first`` through ``last``, 0 being Monday. Day 1's weekday is computed
    for ``first`` and then carried forward by each month's length."""
    y = first[0] - (first[1] < 3)
    weekday = (y + y // 4 - y // 100 + y // 400 + _OFFSETS[first[1] - 1]) % 7
    for index in range(first.index(), last.index() + 1):
        year, month = divmod(index, 12)
        month += 1
        leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        length = _LENGTHS[month - 1] + leap
        yield year, month, weekday, length
        weekday = (weekday + length) % 7


class SimulationWindow(namedtuple("SimulationWindow", "start end")):
    """An inclusive month range; zero-length and reversed ranges are rejected."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks the order too

    def __new__(cls, start: Month, end: Month) -> SimulationWindow:
        if start > end:
            raise WindowError(f"window start {start} is after its end {end}")
        return tuple.__new__(cls, (start, end))

    @property
    def count(self) -> int:
        return self.end.diff(self.start) + 1

    def months(self) -> list[Month]:
        """Each month of the window, built straight from its index, which is
        always in range, so without :class:`Month`'s range check."""
        new = tuple.__new__
        return [new(Month, (index // 12, index % 12 + 1))
                for index in range(self.start.index(), self.end.index() + 1)]
