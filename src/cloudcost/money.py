"""Exact decimal money helpers.

Amounts are fixed-point decimals carrying 6 fractional digits internally;
display rounds half-even to 2 digits. Unit prices stay unquantized so
sub-micro rates (per-request pricing) keep full precision.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation, getcontext

from .errors import EvaluationError

MONEY_EXP = Decimal("0.000001")
CENT_EXP = Decimal("0.01")


def to_money(value: Decimal | int | float | str) -> Decimal:
    """Convert to a money amount at 6 fractional digits.

    An amount whose digits do not fit the decimal context's precision
    raises :class:`EvaluationError` instead of a bare decimal signal.
    """
    d = as_decimal(value)
    try:
        return d.quantize(MONEY_EXP, ROUND_HALF_EVEN)
    except InvalidOperation as exc:
        raise too_large(d) from exc


def too_large(amount: object) -> EvaluationError:
    """The error for an ``amount`` that exact decimal money cannot hold."""
    return EvaluationError(f"amount {amount} exceeds the {getcontext().prec}-digit decimal "
                           f"precision at 6 fractional digits")


def as_decimal(value: Decimal | int | float | str) -> Decimal:
    """Exact decimal view of a quantity, without money quantization."""
    if isinstance(value, float):  # pricing's quantities, so tested first
        # str() gives the shortest round-trip form, avoiding binary artifacts
        return Decimal(str(value))
    if isinstance(value, Decimal):
        return value
    return Decimal(value)


def round_half_even(num: int, den: int) -> int:
    """The exact ratio ``num / den`` rounded to the nearest integer, ties to
    the even one, for any integers with ``den`` non-zero."""
    if den < 0:
        num, den = -num, -den
    quotient, remainder = divmod(num, den)
    if 2 * remainder > den or (2 * remainder == den and quotient % 2):
        quotient += 1
    return quotient


def format_money(value: Decimal) -> str:
    """Render with exactly 2 decimals, rounding half-even."""
    return str(value.quantize(CENT_EXP, ROUND_HALF_EVEN))


def format_money_grouped(value: Decimal) -> str:
    """Render with 2 decimals and thousands separators for console tables."""
    return f"{value.quantize(CENT_EXP, ROUND_HALF_EVEN):,}"
