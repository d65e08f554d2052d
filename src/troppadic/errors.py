"""Exception hierarchy shared by every module.

All certified-computation failures are loud: when an operation cannot
certify its contract it raises, never degrades silently.
"""


class TropPadicError(Exception):
    """Base class for all library errors."""


class DivisionByZero(TropPadicError, ZeroDivisionError):
    """Division by an exact zero."""


class PrecisionExhausted(TropPadicError):
    """An operation cannot certify a single digit of its result.

    ``floor`` carries the surviving valuation lower bound when one is
    known (the cancellation floor of a sum, a tail floor, ...), so callers
    that only need a lower bound can still recover it.  Every cancellation
    raise of a sum carries its floor.
    """

    def __init__(self, message, floor=None):
        super().__init__(message)
        self.floor = floor


class DomainViolation(TropPadicError):
    """A point or transform leaves the declared convergence domain."""


class BudgetExceeded(TropPadicError):
    """A declared degree/precision budget cannot be met."""


class NotRegular(TropPadicError):
    """No regularity order is certified within the cutoff."""


class ZeroSeries(TropPadicError):
    """The operation needs a nonzero series."""


class NotClosedUnderDerivation(TropPadicError):
    """A function symbol has no registered derivative rule."""

    def __init__(self, symbol):
        super().__init__(f"symbol {symbol!r} has no derivative rule")
        self.symbol = symbol


class OracleMissing(TropPadicError):
    """No registered or computable finite-generation constant."""


class GenericityFailure(TropPadicError):
    """No shift making the common support pointed within the redraw budget."""


class Unbounded(TropPadicError):
    """The polyhedron must be bounded for this operation."""


class FormatError(TropPadicError):
    """Malformed input file or expression."""
