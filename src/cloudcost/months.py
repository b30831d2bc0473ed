"""Calendar-month arithmetic shared by the usage and billing layers."""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from datetime import date

from .errors import WindowError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month in the proleptic Gregorian calendar."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month number out of range: {self.month}")

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
