"""Dominance relations between actions and between sets of actions.

An action dominates another *relative to a restriction set* of the opponent's
actions. Three flavours are supported:

* ``WEAK``: every comparison at least as good (this is sometimes called
  "very weak" dominance elsewhere; here it is the default notion).
* ``STRICT``: every comparison strictly better.
* ``WEAK_REQUIRE_STRICT``: at least as good everywhere and strictly better
  somewhere. Exposed for completeness; the interchangeability/equivalence
  guarantees checked by the verify harness do not extend to it.

The column player maximizes the negated matrix, so column dominance is row
dominance with the two compared payoff sequences swapped. Every pair and set
question goes through one implementation, `_set_dominates`, which takes the
side, checks its index sets once per call and then compares payoffs; a pair
is a set of one. Iterated elimination lives here too, on the rule that
identical rivals never eliminate each other.
Everything here compares payoffs; the same rule on the packed comparison
tables, `kernels.mask_dominates`, lives with the bitmask kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import GameInputError, enum_from_token
from .game import ActionProduct, ZeroSumGame


class DominanceMode(enum.Enum):
    WEAK = "weak"
    STRICT = "strict"
    WEAK_REQUIRE_STRICT = "weak-strict"

    @classmethod
    def from_token(cls, token: str) -> "DominanceMode":
        return enum_from_token(cls, token, "dominance mode")


@dataclass(frozen=True)
class DominanceWitness:
    """For each dominated action index, one action index that dominates it."""

    mapping: Mapping[int, int]

    def __len__(self) -> int:
        return len(self.mapping)


def _index_set(indices: Iterable[int], limit: int, axis: str) -> tuple[int, ...]:
    out = tuple(sorted(set(int(i) for i in indices)))
    if out and (out[0] < 0 or out[-1] >= limit):
        raise GameInputError(f"{axis} index out of range: {out}")
    return out


def _beats(better, worse, mode: DominanceMode) -> bool:
    """Does payoff sequence `better` dominate `worse` entry by entry?"""
    if mode is DominanceMode.STRICT:
        return all(a > b for a, b in zip(better, worse))
    if not all(a >= b for a, b in zip(better, worse)):
        return False
    return mode is DominanceMode.WEAK or any(a > b for a, b in zip(better, worse))


def _lines(game: ZeroSumGame, columns: bool, a1: int, a2: int, opponents):
    # Payoffs of a1 and a2 against `opponents`, ordered so that
    # `_beats(*lines)` asks whether a1 dominates a2. The column player
    # prefers small entries, so its pair is swapped instead of negated.
    if columns:
        return [game.entry(r, a2) for r in opponents], [game.entry(r, a1) for r in opponents]
    return [game.entry(a1, c) for c in opponents], [game.entry(a2, c) for c in opponents]


def _set_dominates(game, columns, dominating, dominated, restriction, mode):
    # Each index set is checked once. The restriction is checked only when a
    # pair is compared: with no dominating or no dominated action the answer
    # (None, or the vacuous empty witness) reads none of it.
    shape, axes = (game.rows, game.cols), ("row", "column")
    doms = _index_set(dominating, shape[columns], axes[columns])
    targets = _index_set(dominated, shape[columns], axes[columns])
    if not (doms and targets):
        return None if targets else DominanceWitness({})
    opponents = _index_set(restriction, shape[not columns], axes[not columns])
    if not opponents:
        raise GameInputError("dominance needs a nonempty restriction set")
    mapping: dict[int, int] = {}
    for a2 in targets:
        found = (a1 for a1 in doms if _beats(*_lines(game, columns, a1, a2, opponents), mode))
        if (a1 := next(found, None)) is None:
            return None
        mapping[a2] = a1
    return DominanceWitness(mapping)


def row_dominates(
    game: ZeroSumGame, r1: int, r2: int, col_set: Iterable[int], mode: DominanceMode
) -> bool:
    """Does row `r1` dominate row `r2` with respect to `col_set`?"""
    return _set_dominates(game, False, (r1,), (r2,), col_set, mode) is not None


def col_dominates(
    game: ZeroSumGame, c1: int, c2: int, row_set: Iterable[int], mode: DominanceMode
) -> bool:
    """Does column `c1` dominate column `c2` with respect to `row_set`?

    The column player prefers small matrix entries, so `c1` dominates when
    its entries are <= (resp. <) those of `c2` on the restriction rows.
    """
    return _set_dominates(game, True, (c1,), (c2,), row_set, mode) is not None


def set_dominates_rows(
    game: ZeroSumGame,
    dominating: Iterable[int],
    dominated: Iterable[int],
    col_set: Iterable[int],
    mode: DominanceMode,
) -> DominanceWitness | None:
    """Witness mapping each dominated row to a dominating row, if one exists.

    The empty dominated set is vacuously dominated (empty witness). Ties are
    broken toward the lowest-index dominating action, so witnesses are
    reproducible.
    """
    return _set_dominates(game, False, dominating, dominated, col_set, mode)


def set_dominates_cols(
    game: ZeroSumGame,
    dominating: Iterable[int],
    dominated: Iterable[int],
    row_set: Iterable[int],
    mode: DominanceMode,
) -> DominanceWitness | None:
    """Column-player mirror of `set_dominates_rows`."""
    return _set_dominates(game, True, dominating, dominated, row_set, mode)


def _dominated_by_rival(game, columns, action, rivals, opponents, mode) -> bool:
    # Is `action` dominated w.r.t. `opponents` by a rival whose payoffs there
    # differ from its own? Identical actions dominate each other under WEAK,
    # so skipping them keeps duplicates alive; other modes never need it.
    return any(
        better != worse and _beats(better, worse, mode)
        for better, worse in (
            _lines(game, columns, rival, action, opponents) for rival in rivals
        )
    )


def iterated_elimination(game: ZeroSumGame, mode: DominanceMode) -> ActionProduct:
    """Fixpoint of alternately deleting dominated rows, then columns.

    An action is deleted only when dominated by a remaining action that is
    not identical to it on the remaining opponent actions, so duplicates
    survive. Deletion is one at a time, lowest index first; rows go first in
    every round. The result is a weak/strict GSP under those modes but need
    not be minimal. Under WEAK_REQUIRE_STRICT a later column removal can
    strip the strict witness of an earlier row removal, so the fixpoint is
    only guaranteed to be a *weak* GSP.
    """
    alive = (list(range(game.rows)), list(range(game.cols)))
    # Delete from one side until nothing there is dominated, then switch;
    # stop once both sides in a row had nothing to delete.
    columns, idle = False, 0
    while idle < 2:
        own, opponents = alive[columns], alive[not columns]
        victim = next(
            (a for a in own if _dominated_by_rival(game, columns, a, own, opponents, mode)),
            None,
        )
        if victim is None:
            columns, idle = not columns, idle + 1
        else:
            own.remove(victim)
            idle = 0
    return ActionProduct(*alive)
