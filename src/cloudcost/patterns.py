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

This module reads patterns into :class:`PatternSpec` records and makes
their bitmasks once per pattern: the months a pattern selects, with a
wrapped range resolved, and the days of month and weekdays of its day
clause. What a pattern does to usage, day by day, is
:mod:`cloudcost.elasticity`'s replay, which places the weekday mask on each
month's calendar and applies the rules for a missing day clause. This
module imports neither the replay nor the calendar, so a command that only
validates a model loads neither.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import PatternError

TEMP = "temp"
PERM = "perm"
MODES = (TEMP, PERM)

MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun",
               "jul", "aug", "sep", "oct", "nov", "dec")
DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
OPERATORS = "+-*/^"

# The weekday mask of each day keyword: bit j is weekday j, 0 being Monday.
_DAY_WORDS = {"everyday": 0b1111111, "weekdays": 0b0011111, "weekends": 0b1100000}


PatternSpec = namedtuple("PatternSpec", "mode months days op operand source", defaults=("",))
PatternSpec.__doc__ = """Parsed elasticity pattern.

``months`` has bit m set for each month m (1 is January) it selects; a
wrapped range is resolved here. ``days`` is None without a day clause,
else a (day-of-month mask, weekday mask) pair: bit d is day d and bit j
is weekday j, 0 being Monday. A day applies when either mask selects it.
"""


def _bits(lo: int, hi: int) -> int:
    """Bits lo..hi set."""
    return (2 << hi) - (1 << lo)


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

    def fail(self, message: str, pos: int | None = None):
        """Raise the PatternError for ``message`` at ``pos``, default the cursor."""
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


def _parse_months(s: _Scanner) -> int:
    word, start = s.expect(s._word_re, "expected 'month' or a month name after 'every'")
    token = word.lower()
    if token == "month":
        return _bits(1, 12)
    lo, dash, hi = token.partition("-")
    hi = hi or lo  # one name is the range lo-lo
    for part in (lo, hi):
        if part not in MONTH_NAMES:
            s.fail(f"unknown month {part!r}" if dash else f"unknown month token {part!r}", start)
    a, b = MONTH_NAMES.index(lo) + 1, MONTH_NAMES.index(hi) + 1
    return _bits(a, b) if a <= b else _bits(a, 12) | _bits(1, b)


def _parse_days(s: _Scanner) -> tuple[int, int]:
    got = s.take(s._dom_re)
    if got is not None:
        token, start = got
        lo_text, _, hi_text = token.partition("-")
        lo, hi = int(lo_text), int(hi_text or lo_text)
        for value in (lo, hi):
            if not 1 <= value <= 31:
                s.fail(f"day of month out of range: {value:02d}", start)
        if lo > hi:
            s.fail(f"decreasing day range {lo:02d}-{hi:02d}", start)
        return _bits(lo, hi), 0
    word, start = s.expect(s._word_re, "expected a day selector after 'on'")
    token = word.lower()
    if token in _DAY_WORDS:
        return 0, _DAY_WORDS[token]
    lo, _, hi = token.partition("-")
    hi = hi or lo  # one weekday is the range lo-lo
    for part in (lo, hi):
        if part not in DOW_NAMES:
            s.fail(f"unknown day token {part!r}", start)
    a, b = DOW_NAMES.index(lo), DOW_NAMES.index(hi)
    if a > b:
        s.fail(f"day-of-week range may not wrap: {lo}-{hi}", start)
    return 0, _bits(a, b)


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
    days = None
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
