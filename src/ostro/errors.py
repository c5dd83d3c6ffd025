"""Exception hierarchy shared by all modules, and the failure policy.

A typed error carries its own report: `status` is the word a failed
`construct` row prints (`status:<word>`), and `exit_code` is the code the
command line exits with (None: the CLI re-raises it).  Subclasses
inherit both.  Only these errors become rows or exit codes; any other
exception is a program fault and propagates as a traceback.
"""


class OstroError(Exception):
    """Base class for all library errors."""
    status, exit_code = "error", None


class DomainError(OstroError):
    """Input is outside an operation's mathematical domain."""
    status, exit_code = "domain", 4


class RationalInputError(DomainError):
    """A continued-fraction source turned out to describe a rational number."""


class PrecisionError(OstroError):
    """A certified answer cannot be produced at the available precision.

    Also raised when a partial-quotient request exceeds a source's horizon.
    """
    status, exit_code = "precision", 3


class FactorBudgetError(DomainError):
    """Factoring stopped with a composite cofactor beyond the trial budget."""


class IllegalExpansionError(DomainError):
    """A digit string violates the Ostrowski legality constraints."""


class SearchCapError(OstroError):
    """A bounded search exhausted its cap without finding a witness."""
    status, exit_code = "search-cap", 4


class CheckFailedError(OstroError):
    """A certified runtime bound check did not hold."""


class SpecParseError(OstroError, ValueError):
    """An alpha/gamma specification string failed to parse."""
    exit_code = 2
