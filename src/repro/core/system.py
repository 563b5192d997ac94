"""The system-under-tune interface and instrumentation wrappers.

Every simulator (DBMS, Hadoop, Spark) implements
:class:`SystemUnderTune`: it owns a knob catalog (a
:class:`~repro.core.parameters.ConfigurationSpace`) and can execute a
workload under a configuration, returning a
:class:`~repro.core.measurement.Measurement`.

:class:`SystemWrapper` is the one base for systems that wrap another:
:class:`InstrumentedSystem` (evaluation cache, measurement noise, batch
dispatch — the layer tuning sessions talk to), :class:`SubspaceSystem`,
the fidelity views and the chaos wrapper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.workload import Workload
from repro.exceptions import WorkloadError

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.cache import EvaluationCache
    from repro.exec.runner import ParallelRunner

__all__ = [
    "SystemUnderTune",
    "SystemWrapper",
    "InstrumentedSystem",
    "SubspaceSystem",
]


class SystemUnderTune(ABC):
    """A configurable system whose performance we tune.

    Attributes:
        name: report label, e.g., ``"dbms-sim"``.
        kind: workload family accepted, e.g., ``"dbms"``.
    """

    name: str = "system"
    kind: str = ""

    @property
    @abstractmethod
    def config_space(self) -> ConfigurationSpace:
        """The system's knob catalog."""

    @abstractmethod
    def run(self, workload: Workload, config: Configuration) -> Measurement:
        """Execute ``workload`` under ``config`` and measure it.

        Implementations must be deterministic: noise is injected by
        :class:`InstrumentedSystem`, not by simulators, so that model
        components (what-if engines) can reuse simulators noiselessly.
        """

    @property
    def metric_names(self) -> List[str]:
        """Stable, ordered names of the metrics run() reports."""
        return []

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Execute several independent configurations of one workload.

        The base implementation is a serial loop; wrappers that can
        execute concurrently (:class:`InstrumentedSystem` with a
        runner) override it.  Results are always in ``configs`` order.
        """
        return [self.run(workload, config) for config in configs]

    def supports_vectorized(self) -> bool:
        """Whether this system offers a ``run_batch_vectorized`` fast path.

        The capability protocol is structural: a system that defines
        ``run_batch_vectorized(workload, configs) -> List[Measurement]``
        (promising bit-identical results to a serial ``run()`` loop)
        advertises it here.  For wrappers see :class:`SystemWrapper`.
        """
        return callable(getattr(self, "run_batch_vectorized", None))

    def execution_context(self) -> Tuple[str, ...]:
        """Extra facts that change what a ``run()`` measures.

        Wrappers that alter measurements without changing the inner
        system's state — e.g., a fidelity view scaling the cost surface
        — surface that here so evaluation-cache keys can never collide
        across contexts.  The base system has none.
        """
        return ()

    def default_configuration(self) -> Configuration:
        return self.config_space.default_configuration()

    def check_workload(self, workload: Workload) -> None:
        if self.kind and workload.system_kind != self.kind:
            raise WorkloadError(
                f"{self.name} runs {self.kind!r} workloads, got "
                f"{workload.system_kind!r} ({workload.name})"
            )


class SystemWrapper(SystemUnderTune):
    """Base for systems that wrap an ``inner`` system.

    The wrapper takes its name, kind, knob catalog, metric names and
    execution context from ``inner``; subclasses define :meth:`run` and
    override only what they change.  The vectorized fast path is opt-in:
    a wrapper offers it only when it defines ``run_batch_vectorized``
    itself (bit-identical to its ``run`` loop) *and* ``inner`` offers
    it, so a wrapper that perturbs each run (chaos) stays scalar.
    """

    def __init__(self, inner: SystemUnderTune, name: Optional[str] = None):
        self.inner = inner
        self.name = inner.name if name is None else name
        self.kind = inner.kind

    @property
    def config_space(self) -> ConfigurationSpace:
        return self.inner.config_space

    @property
    def metric_names(self) -> List[str]:
        return self.inner.metric_names

    def execution_context(self) -> Tuple[str, ...]:
        return self.inner.execution_context()

    def supports_vectorized(self) -> bool:
        return (
            super().supports_vectorized()
            and self.inner.supports_vectorized()
        )


class InstrumentedSystem(SystemWrapper):
    """Caching/noise/batch-dispatch wrapper around a real simulator.

    Runs, failures and measured time are counted by the
    :class:`~repro.core.session.TuningSession` that charges them.

    Args:
        inner: the wrapped system.
        noise: relative standard deviation of multiplicative measurement
            noise (0 disables).  Real clusters show run-to-run variance;
            tuners that assume noiseless observations (pure grid search)
            degrade accordingly, which Table 1 experiments rely on.
        rng: noise source; required when ``noise > 0``.
        eval_cache: cross-session memoization of the *inner*
            (deterministic, noise-free) measurement.  A hit still draws
            noise, so results are byte-identical to a cold execution —
            only wall-clock changes.
        runner: when set, :meth:`run_batch` computes inner measurements
            for a batch concurrently (noise is applied sequentially in
            batch order afterwards, preserving determinism).
        vectorize: prefer the inner system's ``run_batch_vectorized``
            fast path for batches when it offers one (default on).
            Vectorized inner results are bit-identical to serial ones,
            so this only changes wall-clock, never measurements.
    """

    def __init__(
        self,
        inner: SystemUnderTune,
        noise: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        eval_cache: Optional["EvaluationCache"] = None,
        runner: Optional["ParallelRunner"] = None,
        vectorize: bool = True,
    ):
        if noise < 0:
            raise ValueError("noise must be >= 0")
        if noise > 0 and rng is None:
            rng = np.random.default_rng(0)
        super().__init__(inner)
        self.noise = noise
        self.rng = rng
        self.eval_cache = eval_cache
        self.runner = runner
        self.vectorize = bool(vectorize)

    def supports_vectorized(self) -> bool:
        # The kernel runs inside run_batch; this wrapper defines no
        # run_batch_vectorized of its own.
        return self.vectorize and self.inner.supports_vectorized()

    def _observe(self, measurements: List[Measurement]) -> List[Measurement]:
        """Apply measurement noise to inner results in order: one draw
        per successful result, all in one ``normal`` call, and none for
        a failed one."""
        if self.noise <= 0:
            return measurements
        ok = [i for i, m in enumerate(measurements) if m.ok]
        factors = np.exp(self.rng.normal(0.0, self.noise, size=len(ok)))
        for i, factor in zip(ok, factors.tolist()):
            m = measurements[i]
            measurements[i] = Measurement(
                runtime_s=m.runtime_s * factor,
                metrics=m.metrics,
                failed=False,
                cost_units=m.cost_units,
            )
        return measurements

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        if self.eval_cache is not None:
            measurement = self.eval_cache.run(self.inner, workload, config)
        else:
            measurement = self.inner.run(workload, config)
        return self._observe([measurement])[0]

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Batch execution: bulk inner runs, deterministic results.

        Inner measurements are resolved first: one accounted cache
        lookup per config, then one kernel (or runner) call for all
        misses, whose results are stored.  A config repeated within the
        batch is looked up after the stores, counting the hit a serial
        loop's second run would.  Noise then replays in ``configs``
        order, so results and cache hit/miss accounting match a serial
        loop exactly.
        """
        configs = list(configs)
        kernel = self.supports_vectorized()
        cache, keys = self.eval_cache, None
        bulk = len(configs) > 1 and (kernel or (
            self.runner is not None and self.runner.jobs > 1
        ))
        if bulk and cache is not None:
            from repro.exec.cache import Unfingerprintable

            try:
                keys = cache.keys_for(self.inner, workload, configs)
            except Unfingerprintable:  # a stateful inner runs serially
                bulk = False
        if not bulk:
            return [self.run(workload, config) for config in configs]
        self.check_workload(workload)
        inner: List[Optional[Measurement]] = [None] * len(configs)
        first_miss: dict = {}
        misses, repeats = [], []
        for i in range(len(configs)):
            if keys is None:
                misses.append(i)
            elif keys[i] in first_miss:
                repeats.append(i)
            else:
                inner[i] = cache.lookup(keys[i])
                if inner[i] is None:
                    first_miss[keys[i]] = i
                    misses.append(i)
        pending = [configs[i] for i in misses]
        if not pending:
            measured = []
        elif kernel:
            measured = self.inner.run_batch_vectorized(workload, pending)
        else:
            measured = self.runner.starmap(
                _inner_run_task, [(self.inner, workload, c) for c in pending]
            )
        for i, measurement in zip(misses, measured):
            inner[i] = measurement
            if keys is not None:
                cache.store(keys[i], measurement)
        for i in repeats:  # evicted within the batch: reuse the first run
            inner[i] = cache.lookup(keys[i]) or inner[first_miss[keys[i]]]
        return self._observe(inner)


def _inner_run_task(
    system: SystemUnderTune, workload: Workload, config: Configuration
) -> Measurement:
    """Top-level (hence picklable) worker task for batched inner runs."""
    return system.run(workload, config)


class SubspaceSystem(SystemWrapper):
    """Expose only a subset of a system's knobs to tuners.

    Tuners see the reduced space (e.g., the navigated top-k knobs);
    every run expands the partial configuration with the inner system's
    defaults.  This is how "ranking the effects of parameters" feeds
    back into tuning: the search contracts to the knobs that matter.
    """

    def __init__(self, inner: SystemUnderTune, knob_names, space=None):
        """Args:
            inner: the full system.
            knob_names: knobs to expose (ignored when ``space`` given).
            space: an explicit reduced space — e.g., a *screening* space
                with conservative, DBA-chosen bounds.  Every value it
                produces must be valid for the inner catalog.
        """
        if space is None:
            names = [n for n in knob_names if n in inner.config_space]
            if not names:
                raise ValueError("subspace must keep at least one knob")
            space = inner.config_space.subspace(
                names, name=f"{inner.config_space.name}.sub"
            )
        super().__init__(inner, name=f"{inner.name}[{len(space)} knobs]")
        self._space = space
        self._full_defaults = inner.default_configuration().to_dict()

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    def expand(self, config: Configuration) -> Configuration:
        values = dict(self._full_defaults)
        values.update(config.to_dict())
        return self.inner.config_space.configuration(values)

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        return self.inner.run(workload, self.expand(config))

    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        self.check_workload(workload)
        return self.inner.run_batch_vectorized(
            workload, [self.expand(c) for c in configs]
        )
