"""Exception hierarchy and the shared diagnostic record."""

from __future__ import annotations

from collections import namedtuple


class Diagnostic(namedtuple("Diagnostic", "severity path message")):
    """A single validation finding: never thrown, always collected.
    ``severity`` is "error" or "warning"."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


class CloudCostError(Exception):
    """Base class for all toolkit errors."""

    @classmethod
    def at(cls, path: str, message: str) -> CloudCostError:
        """The error for a defect at ``path`` of an input document."""
        return cls(f"{path}: {message}")


class ModelError(CloudCostError):
    """Deployment model cannot be parsed or fails validation."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])

    @classmethod
    def at(cls, path: str, message: str) -> ModelError:
        """A schema violation: one error diagnostic at ``path``."""
        return cls("schema violation", [Diagnostic("error", path, message)])

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


class UsageError(CloudCostError):
    """The command line asks for what no run can do; the CLI exits 2."""


class InputError(UsageError):
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


class WindowError(UsageError):
    """Simulation window is empty or reversed."""


class AssessmentError(CloudCostError):
    """Assessment items or rating sheets are malformed."""
