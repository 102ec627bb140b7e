"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments to individual
operations; :class:`ConfigError`, also a ``ValueError``, marks a setting
that cannot run, such as 2-means on fewer than three observed nodes.  The
CLI maps both, and ``OSError``, to exit code 2, and :class:`NumericError`
(failed linear algebra) to exit code 3.
"""


class ConfigError(ValueError):
    """An experiment or CLI configuration is malformed or inconsistent."""


class NumericError(RuntimeError):
    """A linear-algebra step failed (singular or badly conditioned system)."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition
