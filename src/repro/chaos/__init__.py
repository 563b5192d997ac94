"""Chaos engineering for tuning: pluggable fault injection.

The paper's Table 1 grades tuning categories on axes that are really
about *robustness* — experiment-driven and ML methods "require many
runs" (and degrade when runs fail); adaptive methods must survive
noisy, drifting environments.  This package makes that axis measurable:

* :class:`FaultPolicy` implementations model distinct cluster
  pathologies — independent transient failures, Markov-correlated
  bursts, heavy-tailed stragglers, hangs, partial metric loss, and
  config-correlated blackout regions (OOM cliffs);
* :class:`ChaosSystem` applies any mix of them to a wrapped system with
  a *deterministic per-run-index* injection scheme, so serial, batched,
  and parallel execution all see the identical fault sequence;
* :func:`standard_policies` is the benchmark mix behind
  ``python -m repro bench chaos``.

The mitigation side — deadlines, retries, circuit breaking, failure
policies — lives in :mod:`repro.exec.resilience` and
:class:`~repro.core.session.TuningSession`.
"""

from repro.chaos.policies import (
    CONFIG_FAULT_KEY,
    INJECTED_FAULT_KEY,
    BurstyFaults,
    ConfigBlackout,
    FaultContext,
    FaultPolicy,
    Hangs,
    MetricCorruption,
    Stragglers,
    TransientFaults,
    standard_policies,
)
from repro.chaos.system import ChaosSystem

__all__ = [
    "CONFIG_FAULT_KEY",
    "INJECTED_FAULT_KEY",
    "BurstyFaults",
    "ChaosSystem",
    "ConfigBlackout",
    "FaultContext",
    "FaultPolicy",
    "Hangs",
    "MetricCorruption",
    "Stragglers",
    "TransientFaults",
    "standard_policies",
]
