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


class FaultInjected(ReproError):
    """An *environmental* fault (injected by a chaos policy) killed a run.

    Distinct from :class:`SimulationError` / :class:`ValidationError`:
    the configuration and simulator are fine — the environment failed.
    :class:`~repro.chaos.ChaosSystem` never raises it: injected failures
    come back as failed measurements marked ``injected_fault``.

    Attributes:
        measurement: the failed measurement the fault produced (carries
            ``elapsed_before_failure_s`` for budget charging).
        index: the injection slot (run index) the fault fired at.
        event: short description of the triggering policy event.
    """

    def __init__(self, event: str, index: int = -1, measurement=None):
        self.event = event
        self.index = index
        self.measurement = measurement
        super().__init__(f"injected fault at run {index}: {event}")


class CircuitOpen(ReproError):
    """A configuration falls in a quarantined (circuit-open) subspace.

    The resilient execution layer opens a circuit for a config region
    after repeated config-correlated failures there; sessions configured
    with ``on_quarantine="raise"`` surface proposals into that region as
    this exception instead of silently skipping them.

    Attributes:
        region: the quantized region key that is quarantined.
    """

    def __init__(self, message: str = "", region=None):
        self.region = region
        super().__init__(message or f"config region quarantined: {region}")


class SimulationError(ReproError):
    """A system simulator reached an invalid internal state."""


class TuningError(ReproError):
    """A tuner could not produce a result (e.g., no feasible config)."""


class ModelNotFitted(ReproError):
    """A predictive model was queried before being fitted."""
