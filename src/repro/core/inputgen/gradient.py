"""Shape-mutation hill climbing — paper Algorithm 2 (GetEffectiveInputs).

Each step evaluates all twelve mutations of the current shape by how
many remaining candidate combiners their generated inputs eliminate,
follows the most effective mutation, and accumulates every observation
along the way.  The per-mutation elimination counts are the "gradient"
over input shapes described in section 2.
"""

from __future__ import annotations

import random
from typing import List

from ..dsl.ast import Combiner
from ..dsl.semantics import EvalEnv
from ..synthesis.candidates import count_eliminated
from .generator import generate_pair
from .preprocess import CommandProfile, Observation
from .shapes import N_MUTATIONS, Shape


def get_effective_inputs(
    profile: CommandProfile,
    candidates: List[Combiner],
    shape: Shape,
    rng: random.Random,
    env: EvalEnv,
    steps: int = 3,
    pairs_per_shape: int = 3,
) -> List[Observation]:
    """Collect observations by hill-climbing over shape mutations."""
    observations: List[Observation] = []
    current = shape
    for _ in range(steps):
        best_j = 0
        best_score = -1
        mutated_shapes: List[Shape] = current.all_mutations()
        for j in range(N_MUTATIONS):
            batch: List[Observation] = []
            for _ in range(pairs_per_shape):
                obs = profile.observe(generate_pair(mutated_shapes[j],
                                                    profile, rng))
                if obs is not None:
                    batch.append(obs)
            observations.extend(batch)
            score = count_eliminated(candidates, batch, env) if batch else 0
            if score > best_score:
                best_score, best_j = score, j
        current = mutated_shapes[best_j]
    return observations
