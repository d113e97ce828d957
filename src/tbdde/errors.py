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


class RankDeficiencyMismatch(TbddeError):
    """The matrix does not have the rank n-1 the double-zero theory requires."""


class DegenerateNormalization(TbddeError):
    """The basis normalization equations admit no usable solution."""


class ConditionIFailed(TbddeError):
    """The transversality quantity psi2*f_lambda vanishes."""


class SingularNuSystem(TbddeError):
    """The bordered system for the parameter response vector is ill-conditioned."""
