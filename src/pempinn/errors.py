"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes (config 2, numerical 3, I/O 4),
so new error types should subclass one of the groups below. Every error
survives pickling, so a stage run in a forked process can hand it back.

Radical chemistry without a positive peroxide root is no error of its own:
the chain masks it to zero attack and counts it, and a trajectory that has
it at every stage raises SimulationError.
"""


class PempinnError(Exception):
    """Base class for package errors."""


class ConfigError(PempinnError):
    """Invalid configuration or parameter value; names the offending key,
    or, with key None, a config file that holds no JSON object."""

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(message if key is None else f"config key '{key}': {message}")

    def __reduce__(self):
        return type(self), (self.key, self.message)


class NumericalError(PempinnError):
    """Base for failures of solvers, integrators, and training."""


class SolverError(NumericalError):
    """Scalar root solve failed (no bracket or no convergence)."""


class SimulationError(NumericalError):
    """Trajectory integration aborted (e.g. membrane thickness reached zero)."""


class TrainingError(NumericalError):
    """Training aborted, typically on a non-finite loss."""


class ArtifactFormatError(PempinnError):
    """A file written by an earlier run (checkpoint, manifest) is malformed;
    the message names the file."""


class DatasetFormatError(ArtifactFormatError):
    """Persisted dataset file is malformed."""
