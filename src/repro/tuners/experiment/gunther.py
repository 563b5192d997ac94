"""Gunther-style genetic-algorithm tuning (Liao et al., HPDC'13).

One of the "over 40 highly-cited approaches" the tutorial counts for
Hadoop: a genetic algorithm over the knob space with real executions as
the fitness function.  Population members are unit-space vectors;
selection is tournament, crossover is uniform, mutation is Gaussian.
Works unchanged on any of the three systems.

As an ask/tell strategy, each generation is one proposal batch — the
driver evaluates whole generations in parallel, which is the natural
concurrency of a GA.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.measurement import Observation
from repro.core.registry import register_tuner
from repro.exceptions import ValidationError
from repro.tuners.common import ResponseReplay

__all__ = ["GeneticTuner"]


@register_tuner("genetic")
class GeneticTuner(SearchTuner):
    """GA over unit-encoded configurations with measured fitness."""

    name = "genetic"
    category = "experiment-driven"
    default_tag = "gen0-default"

    def __init__(
        self,
        population: int = 8,
        elite: int = 2,
        mutation_scale: float = 0.12,
        mutation_rate: float = 0.3,
        tournament: int = 3,
    ):
        if population < 4:
            raise ValueError("population must be >= 4")
        if not (0 < elite < population):
            raise ValueError("elite must be in (0, population)")
        if tournament < 1:
            raise ValueError("tournament must be >= 1")
        if mutation_scale < 0:
            raise ValueError("mutation_scale must be >= 0")
        if not (0 <= mutation_rate <= 1):
            raise ValueError("mutation_rate must be in [0, 1]")
        self.population = population
        self.elite = elite
        self.mutation_scale = mutation_scale
        self.mutation_rate = mutation_rate
        self.tournament = tournament

    def setup(self, state: SearchState) -> None:
        # Penalize (not the session policy): GA fitness must be total —
        # a discarded individual would have no rank in its generation.
        self._replay = ResponseReplay("penalize")
        self._scored: List[Tuple[float, np.ndarray]] = []
        self._pending_elite: List[Tuple[float, np.ndarray]] = []
        self._generation = 0
        self._gen0_asked = False

    def tell(self, state: SearchState, results: List[Observation]) -> None:
        scored = [
            (self._replay.account(o), o.config.to_array()) for o in results
        ]
        if self._generation == 0:
            # Generation 0 accumulates the default plus the random
            # individuals; it is complete once the population is full.
            # Under multi-fidelity screening only the promoted
            # survivors come back — commit whatever did, once the
            # generation-0 ask has been told.
            self._scored.extend(scored)
            if len(self._scored) == self.population or (
                self.screening is not None and self._gen0_asked and self._scored
            ):
                self._generation = 1
            return
        if len(scored) == self.population - self.elite or (
            self.screening is not None and scored
        ):
            # A full generation came back: commit elites + children.
            # Partial generations (budget died mid-batch) are not
            # committed, matching the serial loop's early return —
            # except under screening, where partial-by-design survivor
            # sets are the only thing a generation ever returns.
            self._scored = self._pending_elite + scored
            self._generation += 1

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        if self._generation == 0:
            if self._gen0_asked:
                return []
            self._gen0_asked = True
            sampled = space.sample_configurations(self.population - 1, rng)
            if len(sampled) < self.population - 1:
                raise ValidationError(
                    "could not sample a feasible configuration for every "
                    "generation-0 slot"
                )
            return [
                Candidate(config, tag=f"gen0-{i}") for i, config in enumerate(sampled)
            ]
        d, m = space.dimension, self.population - self.elite
        scored = sorted(self._scored, key=lambda item: item[0])
        self._pending_elite = list(scored[: self.elite])
        # The draws stay per child and in order: two tournaments, the
        # crossover and mutation uniforms, then the mutation noise.
        k = min(self.tournament, len(scored))
        picks = np.empty((m, 2, k), dtype=np.intp)
        uniforms = np.empty((m, 2 * d))
        noise = np.empty((m, d))
        for c in range(m):
            picks[c, 0] = rng.choice(len(scored), size=k, replace=False)
            picks[c, 1] = rng.choice(len(scored), size=k, replace=False)
            uniforms[c] = rng.random(2 * d)
            noise[c] = rng.normal(scale=self.mutation_scale, size=d)
        # Each tournament's winner is its first fittest pick in draw
        # order, not the lowest index: penalized failures tie often, and
        # which tied pick wins sets the digests.
        fitness = np.array([f for f, _ in scored])
        best = fitness[picks].argmin(axis=2)[..., None]
        parents = np.array([x for _, x in scored])[
            np.take_along_axis(picks, best, axis=2)[..., 0]
        ]
        child = np.where(uniforms[:, :d] < 0.5, parents[:, 0], parents[:, 1])
        child = np.where(
            uniforms[:, d:] < self.mutation_rate,
            np.clip(child + noise, 0, 1),
            child,
        )
        children = space.from_arrays_feasible(child, rng)
        return [
            Candidate(config, tag=f"gen{self._generation}-{i}")
            for i, config in enumerate(children)
        ]

    def finish(self, state: SearchState) -> None:
        if self._generation >= 1:
            state.extras["generations"] = self._generation
