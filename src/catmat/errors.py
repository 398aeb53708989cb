"""Exception types shared across the package."""


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
