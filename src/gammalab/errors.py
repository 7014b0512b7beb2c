"""Exception types, the default work budget and the one budget check,
shared across the library."""

from __future__ import annotations

from typing import Callable, Optional

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
    """A route's work estimate, known before its work starts, exceeds the
    budget.  Raised only by :func:`charge`, whose message reads ``<route>
    cost <C> exceeds budget <B> (<sizes>); raise the budget``."""


class SingularFormError(GammaLabError):
    """A form's integer matrix is not invertible over Z, so the trace map is undefined."""


class ParseError(GammaLabError):
    """An input file fails schema validation; the message names file and field."""


def charge(cost: int, budget: Optional[int], route: str,
           sizes: Callable[[], str]) -> None:
    """Refuse the work of ``route`` when its estimate ``cost`` exceeds
    ``budget``; ``None`` removes the bound.  ``sizes`` names the counts
    behind the estimate, and is called only to write a refusal."""
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"{route} cost {cost} exceeds budget {budget} ({sizes()}); "
            "raise the budget")
