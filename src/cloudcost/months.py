"""Calendar-month arithmetic shared by the usage and billing layers.

A :class:`Month` is a ``(year, month)`` tuple with calendar methods. Report
assembly sorts lines by month, checks adjacent sort keys and keys the monthly
totals by month, so equality, ordering and hashing stay the tuple's own, in C.
By design a ``Month`` therefore equals the plain tuple ``(year, month)``.
It names its fields as a namedtuple does (``_fields``), so
``dataclasses.asdict`` and ``astuple`` rebuild it as ``Month(year, month)``.
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from datetime import date

from .errors import WindowError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


class Month(tuple):
    """A calendar month in the proleptic Gregorian calendar; read-only."""

    __slots__ = ()
    _fields = ("year", "month")

    def __new__(cls, year: int, month: int) -> Month:
        if not 1 <= month <= 12:
            raise ValueError(f"month number out of range: {month}")
        return tuple.__new__(cls, (year, month))

    def __getnewargs__(self) -> tuple[int, int]:  # copy and pickle rebuild via __new__
        return tuple(self)

    @property
    def year(self) -> int:
        return self[0]

    @property
    def month(self) -> int:
        return self[1]

    @classmethod
    def parse(cls, text: str) -> Month:
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def first_day(self) -> date:
        return date(self.year, self.month, 1)

    def last_day(self) -> date:
        return date(self.year, self.month, self.days())

    def days(self) -> int:
        return calendar.monthrange(self.year, self.month)[1]

    def index(self) -> int:
        return self.year * 12 + self.month - 1

    def add(self, count: int) -> Month:
        total = self.index() + count
        return Month(total // 12, total % 12 + 1)

    def diff(self, other: Month) -> int:
        return self.index() - other.index()

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def __repr__(self) -> str:
        return f"Month(year={self.year!r}, month={self.month!r})"


@dataclass(frozen=True)
class SimulationWindow:
    """An inclusive month range; zero-length and reversed ranges are rejected."""

    start: Month
    end: Month

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise WindowError(f"window start {self.start} is after its end {self.end}")

    @property
    def count(self) -> int:
        return self.end.diff(self.start) + 1

    def months(self) -> list[Month]:
        return [self.start.add(i) for i in range(self.count)]

    def __contains__(self, month: Month) -> bool:
        return self.start <= month <= self.end
