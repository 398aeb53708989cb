"""Exception types shared across the package, and the budgets behind them.

Every count of work that could outgrow a run is charged against
CATMAT_TRIPLE_BUDGET, the one budget setting (an environment variable;
default DEFAULT_TRIPLE_BUDGET).  DEFAULT_MAX_ASSIGNMENTS is the oracle's
default search budget, kept here so the CLI's parser needs no other module.
"""

import os

DEFAULT_TRIPLE_BUDGET = 10**8
TRIPLE_BUDGET_ENV = "CATMAT_TRIPLE_BUDGET"
DEFAULT_MAX_ASSIGNMENTS = 10_000_000


class ParseError(ValueError):
    """Matrix input text or JSON could not be parsed."""


class ShapeError(ValueError):
    """Parsed matrix data is ragged or not square."""


class CardinalityError(ValueError):
    """A category's hom-set sizes do not match the matrix they are checked against."""


class CountError(RuntimeError):
    """Witness construction produced a hom-set of the wrong size or a
    composite outside its hom-set."""


class NotAcceptable(ValueError):
    """A partition was requested for a matrix whose positivity relation is not
    reflexive and transitive."""

    def __init__(self, counterexample):
        self.counterexample = counterexample
        super().__init__(f"matrix is not acceptable: {counterexample}")


class Rejected(ValueError):
    """A witness was requested for a matrix the decider rejects."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"no category exists: {verdict.reason}")


class CertificateError(ValueError):
    """A certificate file is structurally malformed."""


class TripleBudgetError(RuntimeError):
    """Exhaustive verification would exceed the associativity triple budget."""


def require_triple_budget(triples: int, what: str = "associativity triples") -> None:
    """Raise TripleBudgetError naming `triples` as `what` if it exceeds the budget:
    CATMAT_TRIPLE_BUDGET if set, else DEFAULT_TRIPLE_BUDGET."""
    raw = os.environ.get(TRIPLE_BUDGET_ENV)
    try:
        budget = int(raw) if raw else DEFAULT_TRIPLE_BUDGET
    except ValueError:
        raise TripleBudgetError(f"{TRIPLE_BUDGET_ENV}={raw!r} is not an integer") from None
    if triples > budget:
        raise TripleBudgetError(f"{triples} {what} exceed the budget of {budget}")
