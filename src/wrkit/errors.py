"""Exception taxonomy shared by all wrkit modules.

The CLI maps these onto distinct process exit codes, so library code
should raise the most specific class that applies.
"""


class UsageError(ValueError):
    """A caller violated a documented precondition (bad parameter, bad flag)."""


class DomainError(ValueError):
    """A numeric argument is outside the mathematical domain (e.g. activity <= 0)."""


class CapacityError(Exception):
    """The request exceeds a documented size or retry cap."""


class ParseError(ValueError):
    """Malformed input text.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VerificationError(Exception):
    """An exact consistency check that must hold has failed."""
