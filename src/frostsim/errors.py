"""Exception types shared across the package."""


class FrostsimError(Exception):
    """Base class for every error raised by frostsim."""


class InvalidGeometryError(FrostsimError, ValueError):
    """Mesh generator inputs describe an impossible or degenerate domain."""


class DegenerateElementError(FrostsimError, ValueError):
    """A triangle has zero or negative area after orientation fixes."""


class MeshFormatError(FrostsimError, ValueError):
    """A mesh text document is malformed or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(FrostsimError, ValueError):
    """A physical quantity was evaluated outside its admissible range."""


class InvalidParametersError(FrostsimError, ValueError):
    """A parameter set violates its own consistency requirements."""


class InvalidPsdError(FrostsimError, ValueError):
    """A pore size distribution table is malformed or non-monotonic."""


class ClimateFormatError(FrostsimError, ValueError):
    """A climate CSV is malformed or out of order."""


class SingularSystemError(FrostsimError):
    """A linear solve failed because the system matrix is singular."""


class StepFailureError(FrostsimError):
    """A nonlinear time step did not converge.

    Carries the last residual norm and the number of iterations spent so the
    caller can decide whether to retry with a smaller step, and the
    residual of every iterate where the solver recorded them.
    """

    def __init__(self, message: str, residual_norm: float = float("nan"),
                 iterations: int = 0, residuals: list[float] | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.residuals = list(residuals or [])


class ConfigError(FrostsimError, ValueError):
    """A run configuration failed validation."""


# what a solver raises on its inputs: a run stops on them with exit code 3
SOLVER_ERRORS = (StepFailureError, SingularSystemError, DomainError)
