"""Shared exception types and the enumeration budget meter."""

from __future__ import annotations

DEFAULT_BUDGET = 10**9


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


class BudgetExceededError(RuntimeError):
    """The estimated enumeration cost exceeds the configured budget."""

    def __init__(self, what: str, estimated: int, budget: int):
        super().__init__(f"{what}: estimated cost {estimated} exceeds budget {budget}")
        self.what = what
        self.estimated = estimated
        self.budget = budget


class Meter:
    """One call's running step total against its budget (`DEFAULT_BUDGET`
    when None, else at least 0), named `what` in a refusal."""

    def __init__(self, budget: int | None, what: str):
        if budget is not None and budget < 0:
            raise PreconditionError(f"{what}: budget must be at least 0, got {budget}")
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.what = what
        self.spent = 0

    def charge(self, steps: int) -> None:
        """Add one phase's steps before the phase runs, and refuse once the
        total exceeds the budget."""
        self.spent += steps
        if self.spent > self.budget:
            raise BudgetExceededError(self.what, self.spent, self.budget)
