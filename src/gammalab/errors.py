"""Exception types, and the default work budget, shared across the library."""

from __future__ import annotations

# Default bound on one computation's work estimate, in the units it names.
DEFAULT_BUDGET = 250_000


class GammaLabError(Exception):
    """Base class for all errors raised by this package."""


class GroupValidationError(GammaLabError):
    """A multiplication table fails the group axioms; the message names the witness."""


class UnsupportedInputError(GammaLabError):
    """Input is structurally valid but outside the supported hypotheses."""


class IncompatibleInputError(GammaLabError):
    """Two inputs that must fit together (ranks, groups, characters) do not."""


class BudgetExceededError(GammaLabError):
    """An enumeration or resolution would exceed the configured size budget."""


class SingularFormError(GammaLabError):
    """A form's integer matrix is not invertible over Z, so the trace map is undefined."""


class ParseError(GammaLabError):
    """An input file fails schema validation; the message names file and field."""
