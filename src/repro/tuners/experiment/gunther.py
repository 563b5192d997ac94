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

    def _select(
        self, rng: np.random.Generator, scored: List[Tuple[float, np.ndarray]]
    ) -> np.ndarray:
        """Tournament selection: best of a random subset."""
        picks = rng.choice(len(scored), size=min(self.tournament, len(scored)), replace=False)
        best = min(picks, key=lambda i: scored[i][0])
        return scored[best][1]

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
        d = space.dimension
        scored = sorted(self._scored, key=lambda item: item[0])
        self._pending_elite = list(scored[: self.elite])
        next_pop: List[np.ndarray] = [x for _, x in scored[: self.elite]]
        while len(next_pop) < self.population:
            mother = self._select(rng, scored)
            father = self._select(rng, scored)
            mask = rng.random(d) < 0.5
            child = np.where(mask, mother, father)
            mutate = rng.random(d) < self.mutation_rate
            child = np.where(
                mutate,
                np.clip(child + rng.normal(scale=self.mutation_scale, size=d), 0, 1),
                child,
            )
            next_pop.append(child)
        children = space.from_arrays_feasible(np.array(next_pop[self.elite:]), rng)
        return [
            Candidate(config, tag=f"gen{self._generation}-{i}")
            for i, config in enumerate(children)
        ]

    def finish(self, state: SearchState) -> None:
        if self._generation >= 1:
            state.extras["generations"] = self._generation
