"""Exception types shared across the package."""


class BetaFinError(Exception):
    """Base class for all package errors."""


class NoRootAboveOne(BetaFinError):
    """The defining polynomial has no real root above 1."""


class Reducible(BetaFinError):
    """The defining polynomial factors over Q."""


class FieldMismatch(BetaFinError):
    """Operands belong to different fields."""


class OutOfRange(BetaFinError):
    """An argument lies outside the required interval."""


class OrbitBudgetExceeded(BetaFinError):
    """A digit orbit or a reach-zero walk did not close within its state
    budget."""


class ClosureBudgetExceeded(BetaFinError):
    """A vector closure did not stabilize within its node budget."""


class FactorBudgetExceeded(BetaFinError):
    """Kronecker's factor search did not decide irreducibility within its
    budget of divisor choices, or listing the divisors of an integer it
    needs took more trial divisions than allowed."""


class NotAdmissible(BetaFinError):
    """A digit word fails the lexicographic admissibility condition."""


class InvariantViolation(BetaFinError):
    """Internal self-check failed; indicates a bug, not bad input."""


class CascadeOverrun(InvariantViolation):
    """The carry cascade ran past its proven step bound."""


class NotCubicPisot(BetaFinError):
    """The coefficients do not define a cubic Pisot number."""


class NotUnit(BetaFinError):
    """The polynomial is not a unit (|constant term| != 1)."""


class F1Unknown(BetaFinError):
    """A check needs a settled (F1) verdict but it is unknown."""
