"""Exception hierarchy shared across the package."""


class TbddeError(Exception):
    """Base class for all package-specific errors."""


class InputError(TbddeError):
    """Malformed user input (dimension mismatch, bad config field, ...)."""


class NearSingular(TbddeError):
    """A linear system is too ill-conditioned to solve reliably.

    ``cond`` is the condition estimate that was refused.
    """

    def __init__(self, message: str, cond: float = float("nan")):
        super().__init__(message)
        self.cond = cond

