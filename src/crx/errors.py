"""Exception types shared across the package."""


class CrxError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(CrxError):
    """An expansion would produce more symbols, or a conversion or a
    verify walk would hold or read more runs, than the caller allowed.
    The message names the work (`what`) and what it counts (`unit`):
    "verify needs 78176339 runs, budget is 1048576"."""

    def __init__(self, needed: int, limit: int, unit: str = "symbols",
                 what: str = "expansion"):
        super().__init__(f"{what} needs {needed} {unit}, budget is {limit}")
        self.needed = needed
        self.limit = limit


class ContainerFormatError(CrxError):
    """A container file is syntactically malformed."""


class InvalidInputError(CrxError):
    """A payload violates a structural invariant (bad reference, cycle, ...)."""

    def __init__(self, code: str, location: str = "", message: str = ""):
        detail = message or code
        if location:
            detail = f"{detail} at {location}"
        super().__init__(detail)
        self.code = code
        self.location = location


class EmptyInputError(CrxError):
    """Grammars cannot derive the empty string."""


class UnreachableConversionError(CrxError):
    """No direct conversion edge exists between the two formats."""


class InternalError(CrxError):
    """An internal consistency check failed; indicates a bug, not bad input."""
