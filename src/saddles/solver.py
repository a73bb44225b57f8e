"""Generalized saddle points and saddles of zero-sum games.

A product R' x C' is a generalized saddle point (GSP) when R' dominates all
outside rows w.r.t. C' and C' dominates all outside columns w.r.t. R'. A
saddle is an inclusion-minimal GSP. `enumerate_saddles` finds them all by
exhaustive scan (guarded, exponential); `find_saddle` returns one and also
works past the guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dominance import (
    DominanceMode,
    col_dominates,
    row_dominates,
    set_dominates_cols,
    set_dominates_rows,
    _cols_identical,
    _rows_identical,
)
from .errors import CapacityError, GameInputError, PropertyViolationError
from .game import ActionProduct, ZeroSumGame

DEFAULT_SIZE_GUARD = 12


@dataclass(frozen=True)
class SaddleSet:
    """All inclusion-minimal GSPs of a game under one dominance mode."""

    mode: DominanceMode
    saddles: tuple[ActionProduct, ...]

    def __len__(self) -> int:
        return len(self.saddles)

    def __iter__(self):
        return iter(self.saddles)

    def __contains__(self, product: ActionProduct) -> bool:
        return product in self.saddles


@dataclass(frozen=True)
class PermutationWitness:
    """Row/column bijections carrying one matrix onto another.

    `row_perm[i]` is the target row for source row i (same for columns):
    a[i][j] == b[row_perm[i]][col_perm[j]] for all cells.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]


def is_gsp(game: ZeroSumGame, product: ActionProduct, mode: DominanceMode) -> bool:
    """Definitional GSP test via the set-dominance predicates."""
    game.check_product(product)
    inside_rows, inside_cols = set(product.row_set), set(product.col_set)
    outside_rows = [r for r in range(game.rows) if r not in inside_rows]
    outside_cols = [c for c in range(game.cols) if c not in inside_cols]
    if set_dominates_rows(game, product.row_set, outside_rows, product.col_set, mode) is None:
        return False
    return (
        set_dominates_cols(game, product.col_set, outside_cols, product.row_set, mode)
        is not None
    )


def _mask_to_indices(mask: int, count: int) -> tuple[int, ...]:
    return tuple(i for i in range(count) if mask >> i & 1)


def _grid_products(grid, game: ZeroSumGame) -> tuple[ActionProduct, ...]:
    pairs = np.argwhere(grid)
    products = [
        ActionProduct(
            _mask_to_indices(int(rm), game.rows), _mask_to_indices(int(cm), game.cols)
        )
        for rm, cm in pairs
    ]
    return tuple(sorted(products))


def _check_guard(game: ZeroSumGame, size_guard: int) -> None:
    if game.rows > size_guard or game.cols > size_guard:
        raise CapacityError(
            f"exhaustive enumeration guarded at {size_guard} actions per side; "
            f"game is {game.rows}x{game.cols} (pass a larger size_guard to override)"
        )


def enumerate_saddles(
    game: ZeroSumGame,
    mode: DominanceMode,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> SaddleSet:
    """All saddles of the game under `mode`, lexicographically sorted.

    Scans every nonempty product of action subsets, so the cost is
    2^(rows+cols) dominance-mask tests; the guard keeps that honest.
    """
    _check_guard(game, size_guard)
    _, minimal = kernels.saddle_grids(game, mode.code)
    return SaddleSet(mode=mode, saddles=_grid_products(minimal, game))


def all_gsps(
    game: ZeroSumGame,
    mode: DominanceMode,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> tuple[ActionProduct, ...]:
    """Every GSP (not just the minimal ones), lexicographically sorted."""
    _check_guard(game, size_guard)
    gsp, _ = kernels.saddle_grids(game, mode.code)
    return _grid_products(gsp, game)


def strict_saddle(
    game: ZeroSumGame, size_guard: int = DEFAULT_SIZE_GUARD
) -> ActionProduct:
    """The unique minimal strict GSP.

    Uniqueness holds for every zero-sum game; a count other than one is
    reported as a PropertyViolationError, never ignored.
    """
    found = enumerate_saddles(game, DominanceMode.STRICT, size_guard)
    if len(found) != 1:
        raise PropertyViolationError(
            f"expected exactly one strict saddle, found {len(found)} "
            f"in game {game.digest()[:12]}"
        )
    return found.saddles[0]


def _subproducts_by_size(product: ActionProduct):
    """Proper subproducts, smallest total size first, lexicographic within size."""
    nr, nc = len(product.row_set), len(product.col_set)
    for total in range(2, nr + nc):
        for k in range(max(1, total - nc), min(nr, total - 1) + 1):
            for rows in itertools.combinations(product.row_set, k):
                for cols in itertools.combinations(product.col_set, total - k):
                    yield ActionProduct(rows, cols)


def _mask_is_gsp(tables, n: int, m: int, product: ActionProduct, mode_code: int) -> bool:
    row_ge, row_gt, col_le, col_lt = tables
    row_mask = 0
    for r in product.row_set:
        row_mask |= 1 << r
    col_mask = 0
    for c in product.col_set:
        col_mask |= 1 << c
    for r2 in range(n):
        if row_mask >> r2 & 1:
            continue
        if not any(
            kernels.mask_dominates(row_ge[r1][r2], row_gt[r1][r2], col_mask, mode_code)
            for r1 in product.row_set
        ):
            return False
    for c2 in range(m):
        if col_mask >> c2 & 1:
            continue
        if not any(
            kernels.mask_dominates(col_le[c1][c2], col_lt[c1][c2], row_mask, mode_code)
            for c1 in product.col_set
        ):
            return False
    return True


def find_saddle(game: ZeroSumGame, mode: DominanceMode) -> ActionProduct:
    """One minimal GSP, found by shrinking from the full product.

    Each round scans proper subproducts of the current GSP in increasing
    total size and recurses into the first that is itself a GSP; the round
    that finds none doubles as the explicit minimality check. Subproducts are
    tested against the whole game, which for weak and strict dominance
    coincides with testing inside the current subgame. No size guard: the
    scan is output-sensitive but exponential in the worst case.
    """
    tables = kernels.dominance_mask_tables(game)
    n, m = game.rows, game.cols
    current = game.full_product()
    shrunk = True
    while shrunk:
        shrunk = False
        for candidate in _subproducts_by_size(current):
            if _mask_is_gsp(tables, n, m, candidate, mode.code):
                current = candidate
                shrunk = True
                break
    if not is_gsp(game, current, mode):
        raise PropertyViolationError(
            f"find_saddle ended on a non-GSP product in game {game.digest()[:12]}"
        )
    return current


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
    rows = list(range(game.rows))
    cols = list(range(game.cols))

    def eliminate(alive, opponents, dominates, identical):
        removed_any = False
        while True:
            victim = None
            for a2 in alive:
                if any(
                    a1 != a2
                    and not identical(game, a1, a2, tuple(opponents))
                    and dominates(game, a1, a2, opponents, mode)
                    for a1 in alive
                ):
                    victim = a2
                    break
            if victim is None:
                return removed_any
            alive.remove(victim)
            removed_any = True

    changed = True
    while changed:
        changed = eliminate(rows, cols, row_dominates, _rows_identical)
        changed |= eliminate(cols, rows, col_dominates, _cols_identical)
    return ActionProduct(rows, cols)


def cross_products(
    s1: ActionProduct, s2: ActionProduct
) -> tuple[ActionProduct, ActionProduct]:
    """(R1 x C2, R2 x C1) for products s1 = R1 x C1 and s2 = R2 x C2."""
    return (
        ActionProduct(s1.row_set, s2.col_set),
        ActionProduct(s2.row_set, s1.col_set),
    )


def _row_signature(game: ZeroSumGame, r: int):
    return tuple(sorted(game.row_values(r)))


def permutation_equivalent(
    a: ZeroSumGame, b: ZeroSumGame
) -> PermutationWitness | None:
    """A row/column permutation carrying `a` onto `b` entry-exactly, if any.

    Backtracks over row assignments, pruning with sorted row-entry
    signatures; columns are then matched greedily on exact column tuples.
    Returns the first witness in lexicographic assignment order.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    if a.entry_multiset() != b.entry_multiset():
        return None

    sig_b = [_row_signature(b, i) for i in range(b.rows)]
    candidates = [
        [i for i in range(b.rows) if sig_b[i] == _row_signature(a, r)]
        for r in range(a.rows)
    ]

    def match_columns(row_perm: list[int]) -> list[int] | None:
        used = [False] * b.cols
        col_perm = []
        for j in range(a.cols):
            source = tuple(a.entry(i, j) for i in range(a.rows))
            for j2 in range(b.cols):
                if used[j2]:
                    continue
                if all(source[i] == b.entry(row_perm[i], j2) for i in range(a.rows)):
                    used[j2] = True
                    col_perm.append(j2)
                    break
            else:
                return None
        return col_perm

    def assign(r: int, row_perm: list[int], used: list[bool]):
        if r == a.rows:
            cols = match_columns(row_perm)
            if cols is not None:
                return PermutationWitness(tuple(row_perm), tuple(cols))
            return None
        for i in candidates[r]:
            if used[i]:
                continue
            used[i] = True
            row_perm.append(i)
            witness = assign(r + 1, row_perm, used)
            if witness is not None:
                return witness
            row_perm.pop()
            used[i] = False
        return None

    return assign(0, [], [False] * b.rows)
