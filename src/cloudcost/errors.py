"""Exception hierarchy, the shared diagnostic record, the strict-key and
string checks, and the input-file read."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Diagnostic:
    """A single validation finding: never thrown, always collected."""

    severity: str  # "error" or "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


def _key_problem(value: Any, required: tuple[str, ...] = (),
                 optional: tuple[str, ...] = ()) -> str | None:
    """Why ``value`` is not an object with exactly the allowed keys, or None.

    The strict loaders of models, catalogs, plans and assessment items share
    this check; each raises its own error type with the returned text.
    """
    if not isinstance(value, dict):
        return f"expected an object, got {type(value).__name__}"
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        return f"unknown key(s): {', '.join(unknown)}"
    missing = sorted(set(required) - set(value))
    if missing:
        return f"missing required key(s): {', '.join(missing)}"
    return None


def _str_problem(value: Any) -> str | None:
    """Why ``value`` is not a string, or None; shared like :func:`_key_problem`."""
    if isinstance(value, str):
        return None
    return f"expected a string, got {type(value).__name__}"


def read_input(path: str) -> str:
    """The text of a UTF-8 input file (model, catalog, plan, map, items, ratings).

    Bytes that are not UTF-8 raise :class:`InputError` naming the path;
    ``OSError`` passes through.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


class CloudCostError(Exception):
    """Base class for all toolkit errors."""


class ModelError(CloudCostError):
    """Deployment model cannot be parsed or fails validation."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        lines = "\n".join(f"  {d}" for d in self.diagnostics)
        return f"{base}\n{lines}"


class PatternError(CloudCostError):
    """Elasticity pattern text does not conform to the grammar."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (column {self.position + 1} of {self.text!r})"


class EvaluationError(CloudCostError):
    """Usage evaluation produced a non-finite value, or a cost too large for
    exact decimal money. A replay overflow carries the month (a
    ``months.Month``) it happened in."""

    month = None


class InputError(CloudCostError):
    """An input file's bytes are not UTF-8 text."""


class CatalogError(CloudCostError):
    """Price catalog cannot be parsed or violates its invariants."""


class MissingRateError(CatalogError):
    """No rate exists for a priced resource; simulation must fail loudly."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class PlanError(CloudCostError):
    """Purchase plan refers to nodes or options that cannot be resolved."""


class WindowError(CloudCostError):
    """Simulation window is empty or reversed."""


class AssessmentError(CloudCostError):
    """Assessment items or rating sheets are malformed."""


class EmptyCategoryError(AssessmentError):
    """No rated items exist for the requested kind/category pair."""
