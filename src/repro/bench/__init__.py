"""Experiment harness: one module per table/figure in DESIGN.md's index.

==========  =============================================  =====================
Experiment  Paper anchor                                   Entry point
==========  =============================================  =====================
E1          Table 1 (category strengths/weaknesses)        :func:`run_table1`
E2          Table 2 (11 DBMS approaches)                   :func:`run_table2`
E3          §2.1 misconfiguration impact                   :func:`run_misconfig`
E4          §2.3 Hadoop vs parallel DBMS                   :func:`run_hadoop_vs_dbms`
E5          §2.4 Spark parameter significance              :func:`run_spark_significance`
E6          convergence curves                             :func:`run_convergence`
E7          §2.5 heterogeneity challenge                   :func:`run_heterogeneity`
E8          Table 1 adaptive row (ad-hoc workloads)        :func:`run_adhoc`
E9          parameter-ranking quality (SARD/Tianyin rows)  :func:`run_ranking`
E10         what-if prediction accuracy                    :func:`run_whatif`
E11         §2.5 cloud provisioning challenge              :func:`run_cloud`
E12         iTuned design ablation                         :func:`run_ituned_ablation`
E13         OtterTune design ablation                      :func:`run_ottertune_ablation`
E14         measurement-noise robustness                   :func:`run_noise_robustness`
E15         §2.5 real-time analytics challenge             :func:`run_realtime`
E16         §1 dependent parameter effects                 :func:`run_interactions`
E17         equal wall-clock budgets (Table 1 cost axis)   :func:`run_time_budget`
==========  =============================================  =====================

The package also holds the seven benches that ``python -m repro bench
NAME`` runs: chaos, fleet, mf, obs, surrogate, transfer and vec, each
a module with ``run(quick)`` and ``COLUMNS``.  They are imported
only by that command.
"""

from repro.bench.ablation import run_ituned_ablation, run_ottertune_ablation
from repro.bench.adhoc import run_adhoc
from repro.bench.cloud import run_cloud
from repro.bench.convergence import run_convergence
from repro.bench.hadoop_vs_dbms import run_hadoop_vs_dbms
from repro.bench.harness import (
    ExperimentResult,
    default_runtime,
    heterogeneous_cluster,
    representative_tuners,
    standard_cluster,
    tuned_result,
)
from repro.bench.heterogeneity import run_heterogeneity
from repro.bench.interactions import run_interactions
from repro.bench.misconfig import run_misconfig
from repro.bench.noise import run_noise_robustness
from repro.bench.ranking import run_ranking
from repro.bench.realtime import run_realtime
from repro.bench.run_all import EXPERIMENT_REGISTRY, full_report, run_all_experiments
from repro.bench.spark_significance import run_spark_significance
from repro.bench.table1 import run_table1
from repro.bench.timebudget import run_time_budget
from repro.bench.table2 import run_table2
from repro.bench.whatif import run_whatif

__all__ = [
    "EXPERIMENT_REGISTRY",
    "ExperimentResult",
    "default_runtime",
    "heterogeneous_cluster",
    "representative_tuners",
    "run_adhoc",
    "run_cloud",
    "run_convergence",
    "run_hadoop_vs_dbms",
    "run_heterogeneity",
    "run_interactions",
    "run_ituned_ablation",
    "run_misconfig",
    "run_noise_robustness",
    "run_ottertune_ablation",
    "run_ranking",
    "run_all_experiments",
    "full_report",
    "run_realtime",
    "run_spark_significance",
    "run_table1",
    "run_time_budget",
    "run_table2",
    "run_whatif",
    "standard_cluster",
    "tuned_result",
]
