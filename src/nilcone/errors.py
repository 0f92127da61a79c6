"""Error taxonomy shared across the package."""


class InputError(ValueError):
    """Invalid argument supplied by the caller."""


class OutOfScopeError(InputError):
    """Requested object is real mathematics but deliberately unsupported."""


class OddGradingError(InputError):
    """A grading element produced odd root degrees in even-only mode."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class DiagnosticError(RuntimeError):
    """A randomized search exhausted its budget; carries partial data."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial
