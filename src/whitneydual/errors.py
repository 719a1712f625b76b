"""Exception types shared across the package."""


class WhitneyDualError(Exception):
    """Base class for all package errors."""


class ElementNotFoundError(WhitneyDualError):
    """An element identifier is not present in the poset."""


class NotGradedError(WhitneyDualError):
    """Input does not satisfy the graded-poset-with-minimum invariants."""


class LimitExceededError(WhitneyDualError):
    """A size parameter exceeds the configured limit."""


class BudgetExhaustedError(WhitneyDualError):
    """An exact search ran out of its configured node budget."""


class TimeBudgetExceededError(WhitneyDualError):
    """A run passed its wall-clock deadline (``--limit-seconds``)."""


class PreconditionError(WhitneyDualError):
    """An operation was invoked on input violating its stated precondition."""


class InvalidForestError(WhitneyDualError):
    """A forest does not satisfy the predicate required by the operation."""


class InvalidMergeError(WhitneyDualError):
    """A tree merge was requested on an invalid pair of trees."""


class InternalGuardError(WhitneyDualError):
    """An internal termination guard tripped; indicates corrupted input."""
