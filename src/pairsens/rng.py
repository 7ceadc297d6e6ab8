"""Seeding helpers shared by the Monte Carlo paths.

All randomness flows through numpy's counter-based Philox generator so that
work split across replications or draws can be reproduced independently of
how it is scheduled: every consumer derives its stream from a SeedSequence,
and parallel units are given spawned child sequences.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "as_seed_sequence"]

SeedLike = Union[int, np.random.SeedSequence, None]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
