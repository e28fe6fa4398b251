"""Exception taxonomy shared across the package.

Each class below PempinnError is one exit code of the CLI: ConfigError 2,
NumericalError 3 and ArtifactFormatError 4. A fault raises the class of its
exit code, and its message says what failed. Every error survives pickling,
so a stage run in a forked process can hand it back.

Radical chemistry without a positive peroxide root is no error of its own:
the chain masks it to zero attack and counts it, and a trajectory that has
it at every stage raises NumericalError.
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
    """A voltage solve, trajectory integration or training run failed."""


class ArtifactFormatError(PempinnError):
    """A file written by an earlier run (dataset, checkpoint, manifest) is
    malformed; the message names the file."""
