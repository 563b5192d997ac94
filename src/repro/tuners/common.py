"""Shared helpers for tuner implementations."""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurement import TuningHistory
from repro.core.parameters import Configuration, ConfigurationBatch, ConfigurationSpace
from repro.core.session import TuningSession
from repro.exceptions import ConstraintViolation

__all__ = [
    "FAILURE_PENALTY_FACTOR",
    "failure_response",
    "history_to_training_data",
    "candidate_pool",
    "grid_configurations",
    "ResponseReplay",
]

#: Failed runs enter surrogate models at this multiple of the worst
#: successful runtime, steering search away from the failure region
#: without destroying the model's scale.
FAILURE_PENALTY_FACTOR = 3.0


def _finite_successes(history: TuningHistory) -> List[float]:
    return [
        o.runtime_s for o in history.successful()
        if math.isfinite(o.runtime_s)
    ]


def _stand_in(policy: str, successes: List[float]) -> Optional[float]:
    """The failure stand-in given the finite successful runtimes."""
    if policy == "discard":
        return None
    if policy == "impute":
        return float(np.median(successes)) if successes else 100.0
    return max(successes, default=100.0) * FAILURE_PENALTY_FACTOR


def failure_response(history: TuningHistory, policy: str = "penalize") -> Optional[float]:
    """The training-data value standing in for one failed run.

    ``penalize`` maps failures to a large finite penalty (the
    historical behaviour), ``impute`` to the median successful runtime
    (failures carry no slowness signal, only infeasibility), and
    ``discard`` to ``None`` — the caller drops the row entirely.
    Without a finite success, penalize and impute use 100 s as the
    worst and the median runtime.
    """
    return _stand_in(policy, _finite_successes(history))


def history_to_training_data(
    session: TuningSession,
    include_prior: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """All real observations as (X, y), failures handled per policy.

    The session's :attr:`~repro.core.session.TuningSession
    .failure_policy` (``penalize`` / ``discard`` / ``impute``, set by
    the session's :class:`~repro.exec.resilience.ExecutionPolicy`)
    decides how failed or hung runs enter the training set.

    With ``include_prior`` (warm-started tuners), the session's
    transfer-prior pseudo-observations are stacked *before* the real
    rows — runtimes already scaled to this workload's probe anchor by
    :func:`repro.kb.warmstart.warm_start_prior`.  Real observations of
    the same configuration naturally dominate the surrogate as they
    accumulate.

    Returns empty arrays when nothing usable was observed yet.
    """
    policy = getattr(session, "failure_policy", "penalize")
    rows: List[Tuple[Configuration, float]] = []
    # The history does not change in this loop, so every failed row
    # gets the same stand-in; it is computed on the first one.
    response: Optional[float] = None
    scanned = False
    for o in session.history.real_observations():
        if not o.full_fidelity:
            # Low-fidelity screens measure a scaled approximation;
            # mixing their runtimes (or failure penalties derived from
            # them) into full-scale training data would corrupt every
            # surrogate's response surface.
            continue
        if o.ok and math.isfinite(o.runtime_s):
            rows.append((o.config, o.runtime_s))
            continue
        if not scanned:
            response = failure_response(session.history, policy)
            scanned = True
        if response is not None:
            rows.append((o.config, response))
    prior_X, prior_y = (
        session.prior_training_data() if include_prior
        else (np.zeros((0, session.space.dimension)), np.zeros(0))
    )
    if not rows:
        return prior_X, prior_y
    X = np.stack([config.to_array() for config, _ in rows])
    y = np.array([runtime for _, runtime in rows])
    if len(prior_y):
        X = np.vstack([prior_X, X])
        y = np.concatenate([prior_y, y])
    return X, y


class ResponseReplay:
    """Incremental failure-policy scoring for ask/tell strategies.

    :func:`failure_response` computes a failure's stand-in value from
    the successes observed *so far* — which means batch results must be
    scored one at a time, in execution order, to reproduce what a
    serial loop would have seen.  Strategies feed every told
    observation through :meth:`account` and use the returned response
    as the training/selection value.

    Args:
        policy: one of ``penalize`` / ``discard`` / ``impute``.
    """

    def __init__(self, policy: str = "penalize"):
        self.policy = policy
        self._successes: List[float] = []

    def account(self, observation) -> Optional[float]:
        """Score one observation; ``None`` means "drop this row".

        Successful finite runtimes are returned as-is and join the
        success pool; failures (and hung runs) are mapped per the
        policy against the successes accounted so far.
        """
        measurement = observation.measurement
        if measurement.ok and math.isfinite(measurement.runtime_s):
            self._successes.append(measurement.runtime_s)
            return measurement.runtime_s
        return _stand_in(self.policy, self._successes)


def candidate_pool(
    space: ConfigurationSpace,
    rng: np.random.Generator,
    n_random: int = 256,
    anchors: Optional[List[Configuration]] = None,
    jitter: float = 0.08,
) -> Tuple[ConfigurationBatch, np.ndarray]:
    """Random candidates plus local perturbations of anchor configs.

    The mix lets acquisition optimizers both explore globally and refine
    around incumbents; infeasible decodes are repaired toward feasible
    neighbors.  A random slot with no feasible draw in its tries is
    dropped.

    Returns:
        (candidates, X): the candidates as a
        :class:`~repro.core.parameters.ConfigurationBatch`, which builds
        only the configurations a caller takes, and its read-only unit
        matrix, shape ``(len(candidates), space.dimension)``.
    """
    candidates = space.sample_configurations(n_random, rng)
    local = []
    for anchor in anchors or []:
        base = anchor.to_array()
        for _ in range(16):
            x = np.clip(base + rng.normal(scale=jitter, size=base.shape), 0.0, 1.0)
            local.append(space.from_array_feasible(x, rng))
    candidates += local
    return candidates, candidates.X


def grid_configurations(
    space: ConfigurationSpace, names: Sequence[str], levels: int
) -> List[Configuration]:
    """The full factorial over the knobs ``names``, each at its
    ``grid(levels)`` values, with every other knob at its default: the
    first knob varies slowest.  Infeasible grid corners are skipped."""
    configs: List[Configuration] = []
    for point in itertools.product(*(space[n].grid(levels) for n in names)):
        try:
            configs.append(space.partial(dict(zip(names, point))))
        except ConstraintViolation:
            pass  # infeasible grid corner
    return configs
