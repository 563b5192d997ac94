"""repro: automatic parameter tuning for databases and big data systems.

A framework reproduction of the taxonomy in Lu, Chen, Herodotou & Babu,
"Speedup Your Analytics: Automatic Parameter Tuning for Databases and
Big Data Systems" (PVLDB 12(12), 2019): simulated DBMS / Hadoop / Spark
substrates with realistic knob catalogs, and tuner implementations
covering all six approach categories — rule-based, cost modeling,
simulation-based, experiment-driven, machine learning, and adaptive.

Quickstart::

    import numpy as np
    from repro import Budget, make_system, make_tuner

    system = make_system("dbms")
    from repro.workloads import olap_analytics
    tuner = make_tuner("ituned")
    result = tuner.tune(system, olap_analytics(), Budget(max_runs=30),
                        rng=np.random.default_rng(0))
    print(result.best_config, result.best_runtime_s)
"""

from repro.core import (
    Budget,
    Candidate,
    Configuration,
    ConfigurationSpace,
    InstrumentedSystem,
    Measurement,
    PromotionScheduler,
    SearchTuner,
    SystemUnderTune,
    Tuner,
    TuningResult,
    with_fidelity,
)
from repro.chaos import ChaosSystem, standard_policies
from repro.core.registry import (
    make_system,
    make_tuner,
    system_names,
    tuner_names,
    tuners_in_category,
)
from repro.exceptions import ReproError
from repro.exec.resilience import ExecutionPolicy
from repro.kb import KnowledgeBase, TransferPrior, warm_start_prior

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "Candidate",
    "ChaosSystem",
    "Configuration",
    "ConfigurationSpace",
    "ExecutionPolicy",
    "InstrumentedSystem",
    "KnowledgeBase",
    "Measurement",
    "PromotionScheduler",
    "ReproError",
    "SearchTuner",
    "SystemUnderTune",
    "TransferPrior",
    "Tuner",
    "TuningResult",
    "__version__",
    "make_system",
    "make_tuner",
    "standard_policies",
    "system_names",
    "tuner_names",
    "tuners_in_category",
    "warm_start_prior",
    "with_fidelity",
]
