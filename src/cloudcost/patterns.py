"""Elasticity-pattern mini-language: the grammar and its parser.

A pattern adjusts a resource's baseline usage on matching days::

    <mode>: every <months> [on <days>] <op><number>

``temp`` patterns rescale matching days and leave no trace afterwards;
``perm`` patterns mutate the running usage level, so they compound into
linear or exponential growth/decay. Keywords are case-insensitive and
whitespace-tolerant. Ranges (``jun-aug``, ``25-30``, ``mon-fri``) are
written without internal spaces so the dash can never be confused with
the subtraction operator. ``/0`` and negative exponents are rejected at
parse time, and so is an operand that is not finite.

This module only reads patterns into :class:`PatternSpec` records; what a
pattern does to usage, day by day, is :mod:`cloudcost.elasticity`'s replay.
It imports neither the replay nor the calendar, so a command that only
validates a model loads neither.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, NoReturn

from .errors import PatternError

TEMP = "temp"
PERM = "perm"
MODES = (TEMP, PERM)

MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun",
               "jul", "aug", "sep", "oct", "nov", "dec")
DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
OPERATORS = "+-*/^"

# Day-selector kinds
EMPTY = "empty"
EVERYDAY = "everyday"
WEEKDAYS = "weekdays"
WEEKENDS = "weekends"
DOM = "dom"
DOM_RANGE = "dom_range"
DOW = "dow"
DOW_RANGE = "dow_range"


class MonthSelector(NamedTuple):
    """Selects calendar months; ranges may wrap the year end (nov-feb)."""

    start: int | None = None  # 1..12; None selects every month
    end: int | None = None

    def contains(self, month: int) -> bool:
        if self.start is None:
            return True
        assert self.end is not None
        if self.start <= self.end:
            return self.start <= month <= self.end
        return month >= self.start or month <= self.end  # wrapped range


class DaySelector(NamedTuple):
    """Selects days within a matching month.

    ``empty`` is mode-dependent: every day of the month for temp patterns,
    only the month's first day (the firing point) for perm patterns; that
    asymmetry lives in the replay's ``_firing_days``
    (:mod:`cloudcost.elasticity`).
    """

    kind: str = EMPTY
    a: int | None = None  # day-of-month 1..31 or weekday index 0..6
    b: int | None = None


EMPTY_DAYS = DaySelector(EMPTY)


class PatternSpec(NamedTuple):
    """Parsed elasticity pattern."""

    mode: str
    months: MonthSelector
    days: DaySelector
    op: str
    operand: float
    source: str = ""


class _Scanner:
    """Cursor over a pattern string that raises positioned errors."""

    _alpha_re = re.compile(r"[A-Za-z]+")
    _word_re = re.compile(r"[A-Za-z]+(?:-[A-Za-z]+)?")
    _dom_re = re.compile(r"[0-9]{1,2}(?:-[0-9]{1,2})?")
    _number_re = re.compile(r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
    _colon_re = re.compile(":")
    _every_re = re.compile(r"(?i:every)(?![A-Za-z])")
    _on_re = re.compile(r"(?i:on)(?![A-Za-z])")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> NoReturn:
        raise PatternError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self, regex: re.Pattern[str]) -> tuple[str, int] | None:
        m = regex.match(self.text, self.pos)
        if not m:
            return None
        start = self.pos
        self.pos = m.end()
        return m.group(0), start

    def expect(self, regex: re.Pattern[str], message: str) -> tuple[str, int]:
        """The token ``regex`` matches at the cursor and its start; without
        a match, fails at the cursor with ``message``."""
        got = self.take(regex)
        if got is None:
            self.fail(message)
        return got

    def rest_token(self) -> str:
        m = re.match(r"\S+", self.text[self.pos:])
        return m.group(0) if m else ""


def _parse_months(s: _Scanner) -> MonthSelector:
    word, start = s.expect(s._word_re, "expected 'month' or a month name after 'every'")
    token = word.lower()
    if token == "month":
        return MonthSelector()
    if "-" in token:
        lo, hi = token.split("-", 1)
        for part in (lo, hi):
            if part not in MONTH_NAMES:
                s.fail(f"unknown month {part!r}", start)
        return MonthSelector(MONTH_NAMES.index(lo) + 1, MONTH_NAMES.index(hi) + 1)
    if token not in MONTH_NAMES:
        s.fail(f"unknown month token {token!r}", start)
    month = MONTH_NAMES.index(token) + 1
    return MonthSelector(month, month)


def _parse_days(s: _Scanner) -> DaySelector:
    got = s.take(s._dom_re)
    if got is not None:
        token, start = got
        if "-" in token:
            lo_text, hi_text = token.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(token)
        for value in (lo, hi):
            if not 1 <= value <= 31:
                s.fail(f"day of month out of range: {value:02d}", start)
        if lo > hi:
            s.fail(f"decreasing day range {lo:02d}-{hi:02d}", start)
        if lo == hi and "-" not in token:
            return DaySelector(DOM, lo)
        return DaySelector(DOM_RANGE, lo, hi)
    word, start = s.expect(s._word_re, "expected a day selector after 'on'")
    token = word.lower()
    if "-" in token:
        lo, hi = token.split("-", 1)
        for part in (lo, hi):
            if part not in DOW_NAMES:
                s.fail(f"unknown day token {part!r}", start)
        a, b = DOW_NAMES.index(lo), DOW_NAMES.index(hi)
        if a > b:
            s.fail(f"day-of-week range may not wrap: {lo}-{hi}", start)
        return DaySelector(DOW_RANGE, a, b)
    if token in (EVERYDAY, WEEKDAYS, WEEKENDS):
        return DaySelector(token)
    if token not in DOW_NAMES:
        s.fail(f"unknown day token {token!r}", start)
    return DaySelector(DOW, DOW_NAMES.index(token))


def parse_pattern(text: str) -> PatternSpec:
    """Parse one pattern string, raising :class:`PatternError` on any defect."""
    s = _Scanner(text)
    s.skip_ws()
    word, start = s.expect(s._alpha_re, "expected pattern mode 'temp' or 'perm'")
    mode = word.lower()
    if mode not in MODES:
        s.fail(f"unknown mode {word!r}, expected 'temp' or 'perm'", start)
    s.skip_ws()
    s.expect(s._colon_re, "expected ':' after the mode keyword")
    s.skip_ws()
    s.expect(s._every_re, "expected 'every'")
    s.skip_ws()
    months = _parse_months(s)
    s.skip_ws()
    days = EMPTY_DAYS
    if s.take(s._on_re) is not None:
        s.skip_ws()
        days = _parse_days(s)
        s.skip_ws()
    op = s.peek()
    if op is None:
        s.fail("missing variation operator")
    if op not in OPERATORS:
        s.fail(f"unknown variation operator {op!r}")
    s.pos += 1
    s.skip_ws()
    if s.peek() is None:
        s.fail("missing operand")
    number, num_pos = s.expect(s._number_re,
                               f"expected a numeric operand, got {s.rest_token()!r}")
    operand = float(number)
    s.skip_ws()
    if s.peek() is not None:
        s.fail(f"unexpected trailing input {s.rest_token()!r}")
    if not math.isfinite(operand):
        s.fail("operand must be finite", num_pos)
    if op == "/" and operand == 0:
        s.fail("division by zero", num_pos)
    if op == "^" and operand < 0:
        s.fail("exponent must not be negative", num_pos)
    return PatternSpec(mode, months, days, op, operand, source=text.strip())


def parse_patterns(block: str) -> list[PatternSpec]:
    """Parse a comma- or newline-separated block of patterns."""
    specs = []
    for segment in re.split(r"[,\n]", block):
        if segment.strip():
            specs.append(parse_pattern(segment))
    return specs
