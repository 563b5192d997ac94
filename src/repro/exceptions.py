"""Exception hierarchy for the repro tuning framework.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError):
    """A configuration parameter was defined or used incorrectly."""


class ValidationError(ReproError):
    """A configuration value is outside its parameter's domain."""


class ConstraintViolation(ValidationError):
    """A cross-parameter constraint was violated by a configuration.

    Attributes:
        constraint: name of the violated constraint.
    """

    def __init__(self, constraint: str, message: str = ""):
        self.constraint = constraint
        super().__init__(message or f"constraint violated: {constraint}")

    def __reduce__(self):
        # The default rebuilds from ``args``, which holds the formatted
        # message, so a pickled copy would format it a second time.
        return (type(self), (self.constraint, str(self)))


class BudgetExhausted(ReproError):
    """The tuning session ran out of its experiment or time budget.

    Tuners catch this internally to finalize their result; it escaping
    to user code indicates a tuner bug.
    """


class WorkloadError(ReproError):
    """A workload definition is inconsistent or unsupported by a system."""


class SurrogateError(ReproError):
    """A surrogate model could not be trained, loaded, or queried —
    e.g., too few successful observations for a workload family, or a
    fingerprint without a finite probe anchor."""


class TuningError(ReproError):
    """A tuner could not produce a result (e.g., no feasible config)."""


class ModelNotFitted(ReproError):
    """A predictive model was queried before being fitted."""
