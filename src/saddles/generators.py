"""Seeded random game generators.

All randomness comes from numpy's PCG64 bit generator seeded through
`numpy.random.SeedSequence`, so a config is a pure description: the same
config always yields the same game, on any platform. Campaign code derives
per-trial seeds with `trial_seed`, which uses SeedSequence spawn keys; trials
are therefore independent of execution order. `seeded_rng` is the one
constructor of a seeded generator in the package.

numpy is imported inside the functions that use it, so importing this module
loads no numpy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import GameInputError
from .game import ZeroSumGame

if TYPE_CHECKING:
    import numpy as np

SEED_MAX = 2**64 - 1
# Every generator draws from a range of 2*bound + 1 integers, which must fit
# numpy's int64.
BOUND_MAX = 2**62 - 1


class GeneratorKind(enum.Enum):
    UNIFORM_INT = "uniform"
    DISTINCT_INT = "distinct"
    CONFRONTATION = "confrontation"
    TOURNAMENT = "tournament"


@dataclass(frozen=True)
class GeneratorConfig:
    kind: GeneratorKind
    rows: int
    cols: int
    bound: int
    seed: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise GameInputError("generator needs rows >= 1 and cols >= 1")
        if not 1 <= self.bound <= BOUND_MAX:
            raise GameInputError(f"entry bound must be in [1, {BOUND_MAX}]")
        if not 0 <= self.seed <= SEED_MAX:
            raise GameInputError("seed must fit in 64 bits")
        if self.kind in (GeneratorKind.CONFRONTATION, GeneratorKind.TOURNAMENT):
            if self.rows != self.cols:
                raise GameInputError(f"{self.kind.value} games must be square")
        if self.kind is GeneratorKind.DISTINCT_INT:
            if 2 * self.bound + 1 < self.rows * self.cols:
                raise GameInputError(
                    "distinct generator needs 2*bound+1 >= rows*cols to sample "
                    "without replacement"
                )


def trial_seed(seed: int, index: int) -> int:
    """Derive the seed for trial `index` of a campaign seeded with `seed`."""
    import numpy as np

    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def seeded_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """numpy's PCG64 generator seeded by `seed` and `spawn_key` through a
    SeedSequence; the same arguments always give the same stream."""
    import numpy as np

    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
    )


def _skew_symmetric(n: int, bound: int, rng: np.random.Generator) -> list[list[int]]:
    # Off-diagonal entries are uniform on the nonzero integers in [-bound, bound];
    # draw for i < j and mirror negated.
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = int(rng.integers(1, 2 * bound + 1))
            v = k - bound - 1 if k <= bound else k - bound
            entries[i][j] = v
            entries[j][i] = -v
    return entries


def generate(config: GeneratorConfig) -> ZeroSumGame:
    """Deterministically generate the game described by `config`."""
    rng = seeded_rng(config.seed)
    n, m, bound = config.rows, config.cols, config.bound

    if config.kind is GeneratorKind.UNIFORM_INT:
        flat = rng.integers(-bound, bound + 1, size=n * m)
        entries = [[int(flat[r * m + c]) for c in range(m)] for r in range(n)]
    elif config.kind is GeneratorKind.DISTINCT_INT:
        sample = rng.choice(2 * bound + 1, size=n * m, replace=False)
        entries = [[int(sample[r * m + c]) - bound for c in range(m)] for r in range(n)]
    elif config.kind is GeneratorKind.CONFRONTATION:
        entries = _skew_symmetric(n, bound, rng)
    else:  # tournament: confrontation restricted to entries in {-1, 1}
        entries = _skew_symmetric(n, 1, rng)

    return ZeroSumGame(
        entries=tuple(tuple(Fraction(v) for v in row) for row in entries)
    )
