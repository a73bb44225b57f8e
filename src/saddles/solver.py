"""Generalized saddle points and saddles of zero-sum games.

A product R' x C' is a generalized saddle point (GSP) when R' dominates all
outside rows w.r.t. C' and C' dominates all outside columns w.r.t. R'. A
saddle is an inclusion-minimal GSP. `enumerate_saddles` finds them all from
the exhaustive GSP grid (exponential, within the grid budget of
`errors.check_grid_budget`); `find_saddle` returns one and needs no grid:
it scans products smallest first and tests each by the grid's own rule,
on non-dominator sets that the grid's kernel builds for a chunk of
opponent masks per call and that the scan keeps, within a bound.
A `GameAnalysis` holds one game's tables and grids, so several questions
about the same game share one build of each.

Under weak and under strict dominance the saddles are exactly the GSPs of
fewest actions |R| + |C|, so `enumerate_saddles` and `strict_saddle` read
those off the GSP grid (`kernels.min_size_cells`). A GSP of that size has
no GSP strictly inside it, so it is a saddle. The paper proves all weak
saddles equivalent, so they share one shape and every weak saddle has that
size; the strict saddle is unique, so it is the one strict GSP of that
size. Weak-strict dominance has neither guarantee: in the game
`0 1 / 0 0 / 0 0` its saddles {r1} x {c1,c2} and {r1,r2,r3} x {c1} differ
in size. So weak-strict enumeration, and `minimal_saddles`, which `verify`
and the `check` command read, keep the minimality filter
(`kernels.minimal_grid`): no check reads the fast path it checks.

The numpy grid engine, `kernels`, is imported only inside the functions
that build tables or grids or read them, so importing this module loads no
numpy.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .dominance import DominanceMode, set_dominates_cols, set_dominates_rows
from .errors import PropertyViolationError, check_grid_budget
from .game import ActionProduct, ZeroSumGame


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
    rows, cols = product.row_set, product.col_set
    outside_rows = set(range(game.rows)).difference(rows)
    outside_cols = set(range(game.cols)).difference(cols)
    return (
        set_dominates_rows(game, rows, outside_rows, cols, mode) is not None
        and set_dominates_cols(game, cols, outside_cols, rows, mode) is not None
    )


def _mask_to_indices(mask: int, count: int) -> tuple[int, ...]:
    return tuple(i for i in range(count) if mask >> i & 1)


def _products(cells, game: ZeroSumGame) -> tuple[ActionProduct, ...]:
    # Sorted products from a kernel's (row masks, column masks).
    row_masks, col_masks = cells
    products = [
        ActionProduct(
            _mask_to_indices(rm, game.rows), _mask_to_indices(cm, game.cols)
        )
        for rm, cm in zip(row_masks.tolist(), col_masks.tolist())
    ]
    return tuple(sorted(products))


@dataclass(frozen=True)
class GameAnalysis:
    """One game's dominance tables, GSP grids and filtered saddles, each
    built at most once.

    The int32 mask tables are built on the first grid request, the GSP grid
    of each dominance mode on the first request for that mode, and that
    mode's saddles from the minimality filter only when a referee asks for
    them (`minimal_saddles`: weak-strict enumeration, `check` and `verify`).
    `enumerate_saddles`, `minimal_saddles`, `strict_saddle` and the `verify`
    checks take a game or its analysis, so the checks of one campaign trial
    share it; `find_saddle` and `is_gsp` take only a game, and so does
    `dominance.iterated_elimination`, which needs no tables. Nothing is
    cached beyond the analysis itself, which lives as long as its caller
    keeps it.
    """

    game: ZeroSumGame
    _gsp: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _saddles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def tables(self):
        """The game's `kernels.dominance_mask_tables` in int32, built on first use."""
        import numpy as np

        from . import kernels

        return kernels.dominance_mask_tables(self.game, np.int32)

    def gsp_grid(self, mode: DominanceMode):
        """The packed GSP grid under `mode`; the grid budget is checked
        before the tables are built."""
        found = self._gsp.get(mode)
        if found is None:
            check_grid_budget(self.game.rows, self.game.cols)
            from . import kernels

            found = self._gsp[mode] = kernels.saddle_grids(self.game, mode, self.tables)
        return found

    def minimal_saddles(self, mode: DominanceMode) -> SaddleSet:
        """The saddles under `mode` read off the minimality-filtered grid.

        Only the saddles are kept: the filtered grid is dropped once they
        are read off it."""
        found = self._saddles.get(mode)
        if found is None:
            gsp = self.gsp_grid(mode)
            from . import kernels

            minimal = kernels.minimal_grid(gsp, self.game.rows + self.game.cols)
            cells = kernels.grid_cells(minimal, self.game.cols)
            found = SaddleSet(mode=mode, saddles=_products(cells, self.game))
            self._saddles[mode] = found
        return found


def analyze(subject: ZeroSumGame | GameAnalysis) -> GameAnalysis:
    """The analysis passed in, or a fresh one of the game passed in."""
    return subject if isinstance(subject, GameAnalysis) else GameAnalysis(subject)


def enumerate_saddles(
    subject: ZeroSumGame | GameAnalysis, mode: DominanceMode
) -> SaddleSet:
    """All saddles of the game under `mode`, lexicographically sorted.

    Builds the GSP grid over every nonempty product of action subsets, so
    the cost is 2^(rows+cols) cells; a game over the grid budget raises
    CapacityError before anything is built. Under weak and strict dominance
    the saddles are the GSPs of fewest actions (`kernels.min_size_cells`);
    under weak-strict dominance they come from the minimality filter
    (`minimal_saddles`).
    """
    if mode is DominanceMode.WEAK_REQUIRE_STRICT:
        return minimal_saddles(subject, mode)
    analysis = analyze(subject)
    gsp = analysis.gsp_grid(mode)
    from . import kernels

    cells = kernels.min_size_cells(gsp, analysis.game.cols)
    return SaddleSet(mode=mode, saddles=_products(cells, analysis.game))


def minimal_saddles(
    subject: ZeroSumGame | GameAnalysis, mode: DominanceMode
) -> SaddleSet:
    """All saddles under `mode` from the minimality filter, in every mode:
    the referee that `verify` and the `check` command read."""
    return analyze(subject).minimal_saddles(mode)


def strict_saddle(subject: ZeroSumGame | GameAnalysis) -> ActionProduct:
    """The unique minimal strict GSP, the one strict GSP of fewest actions.

    Uniqueness holds for every zero-sum game; a count other than one is
    reported as a PropertyViolationError, never ignored.
    """
    analysis = analyze(subject)
    found = enumerate_saddles(analysis, DominanceMode.STRICT)
    if len(found) != 1:
        raise PropertyViolationError(
            f"expected exactly one strict saddle, found {len(found)} "
            f"in game {analysis.game.digest()[:12]}"
        )
    return found.saddles[0]


# What one `find_saddle` call keeps and builds. Each side keeps the chunks
# of at most 2^16 opponent masks, all of a 16-action opponent side, so it
# keeps every chunk it walks on games up to 16x16. One kernel call on a
# `count`-action side makes temporaries of `count`^2 python ints per
# opponent mask, so a chunk holds `_CHUNK_CELLS` // `count`^2 masks, and at
# least one: 167 on a 7-action side, 5 on a 40-action side, 1 past 64
# actions.
_MEMO_MASKS = 1 << 16
_CHUNK_CELLS = 1 << 13


class _SideRule:
    """The grid's side rule for one player, built per chunk of opponent masks.

    A side S leaves some outside action undominated iff S lies inside some
    action j's non-dominator set nd[j]; j is never in nd[j], so j is then
    outside S. The nd sets come from the grid's own `kernels.non_dominators`,
    on `ge` and `gt`, object tables of python ints, so they stay exact for
    any number of actions. A passing S must meet the complements of an
    opponent mask's nd sets, its must-meet masks.

    `chunks(level)` yields the opponent masks of `level` actions in
    `combinations` order, `cap` masks a chunk (the level's last may hold
    fewer), as [masks, must-meet tuples or None] lists; `meet` fills in a
    chunk's must-meet tuples with one kernel call the first time the scan
    needs them. Each level keeps the chunks walked, in order, while they fit
    in the side's `_MEMO_MASKS` (2^16) opponent masks; it stops at the
    first chunk that does not fit, so what a level keeps is a prefix of it,
    which a later walk yields before it resumes `combinations` past it.
    A side so holds at most 2^16 opponent masks and one chunk more, each
    with `count` masks of `count` bits.
    """

    def __init__(self, ge, gt, count: int, opp_count: int, mode: DominanceMode):
        self.ge, self.gt, self.count, self.mode = ge, gt, count, mode
        self.opp_bits = [1 << i for i in range(opp_count)]
        self.cap = max(1, _CHUNK_CELLS // (count * count))  # masks per chunk
        self.kept = [[] for _ in range(opp_count + 1)]  # per level, a prefix
        self.room = _MEMO_MASKS  # opponent masks the side may still keep

    def chunks(self, level: int):
        """The chunks of the opponent masks of `level` actions, in order."""
        kept = self.kept[level]
        yield from kept
        combos = itertools.combinations(self.opp_bits, level)
        rest = itertools.islice(combos, len(kept) * self.cap, None)  # past the prefix
        keep = True
        # Lists: tuples built from an iterator are resized into their size,
        # and the free lists of those sizes then filled up and held about
        # 0.9 MB on a stream of 7x7 games.
        while masks := list(map(sum, itertools.islice(rest, self.cap))):
            chunk = [masks, None]
            keep = keep and len(masks) <= self.room
            if keep:
                kept.append(chunk)
                self.room -= len(masks)
            yield chunk

    def meet(self, chunk) -> list[tuple[int, ...]]:
        """The must-meet masks of each of a chunk's opponent masks."""
        if chunk[1] is None:
            import numpy as np

            from . import kernels

            opps = np.array(chunk[0], dtype=object)
            sets = kernels.non_dominators(self.ge, self.gt, self.count, opps, self.mode)
            full = (1 << self.count) - 1
            chunk[1] = [tuple(map(full.__xor__, nd)) for nd in sets.T.tolist()]
        return chunk[1]


def find_saddle(game: ZeroSumGame, mode: DominanceMode) -> ActionProduct:
    """The smallest saddle: fewest actions, then fewest rows, then lexicographic.

    Products are scanned in that order and the first GSP is returned. Every
    proper subproduct of it comes earlier in the order and is not a GSP, so
    it is inclusion-minimal. The full product is always a GSP, so the scan
    ends. Each product is tested by the grid's own side rule: each side must
    meet the complement of every non-dominator set w.r.t. the other side.
    Those sets are built a chunk of opponent masks at a time, one kernel
    call per chunk, and kept (see `_SideRule`), so a product test is two
    runs of integer ANDs, column side first, since its sets depend only on
    the row set. It builds no grid, so the grid budget does not apply: the
    scan is output-sensitive but exponential in the worst case.
    """
    from . import kernels

    row_ge, row_gt, col_le, col_lt = kernels.dominance_mask_tables(game, object)
    n, m = game.rows, game.cols
    rows_rule = _SideRule(row_ge, row_gt, n, m, mode)
    cols_rule = _SideRule(col_le, col_lt, m, n, mode)
    found = _first_gsp(n, m, rows_rule, cols_rule)
    if not is_gsp(game, found, mode):
        raise PropertyViolationError(
            f"find_saddle ended on a non-GSP product in game {game.digest()[:12]}"
        )
    return found


def _first_gsp(n: int, m: int, rows_rule: _SideRule, cols_rule: _SideRule) -> ActionProduct:
    # Levels by total size, then row count; within a level rows, then cols,
    # lexicographically, which is the order the chunks give the masks. The
    # column rule's chunks are of row masks, the row rule's of column masks.
    for total in range(2, n + m + 1):
        for k in range(max(1, total - m), min(n, total - 1) + 1):
            for row_chunk in cols_rule.chunks(k):
                for row_mask, col_outs in zip(row_chunk[0], cols_rule.meet(row_chunk)):
                    for col_chunk in rows_rule.chunks(total - k):
                        for at, col_mask in enumerate(col_chunk[0]):
                            if all(map(col_mask.__and__, col_outs)) and all(
                                map(row_mask.__and__, rows_rule.meet(col_chunk)[at])
                            ):
                                return ActionProduct(
                                    _mask_to_indices(row_mask, n),
                                    _mask_to_indices(col_mask, m),
                                )
    raise PropertyViolationError("find_saddle scanned every product and found no GSP")


def permutation_equivalent(
    a: ZeroSumGame, b: ZeroSumGame
) -> PermutationWitness | None:
    """A row/column permutation carrying `a` onto `b` entry-exactly, if any.

    The games must have equal entry multisets. That is tested as equal
    `values` and equal sorted ranks, which rebuild each multiset as
    `values[rank]`, in integers. With equal `values` each entry has the same
    rank in both games, so the search reads only `ranks`: they compare as
    entries do, giving the same witness.
    Backtracks over row assignments in lexicographic order: a's next row
    goes to each free row of b in turn, lowest first. An assignment of a's
    first k rows is kept only while two multisets agree: a's columns cut to
    those k rows, and b's columns cut to the rows they are sent to. Every
    witness passes this test at each of its prefixes, so no branch that
    leads to one is cut, and the first full assignment reached is the first
    that admits a column permutation at all. Equal multisets of column
    prefixes give equal sorted rows, so no separate row test is needed; and
    at a full assignment they give equal multisets of whole columns, so each
    column of a, in order, goes to the lowest free equal column of b, which
    always exists. The witness is thus the first in lexicographic row order,
    with its greedy column match.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    sorted_a, sorted_b = (sorted(itertools.chain(*game.ranks)) for game in (a, b))
    if a.values != b.values or sorted_a != sorted_b:
        return None
    # a's columns cut to its first k + 1 rows, sorted, for each k.
    prefixes = [sorted(zip(*a.ranks[: k + 1])) for k in range(a.rows)]
    return _assign_rows(a.ranks, b.ranks, prefixes, [()] * b.cols, [], [False] * b.rows)


# Module-level rather than nested closures: a recursive closure refers to
# itself through its cell, so each call would leave a reference cycle (and
# the rank matrices it holds) for the cyclic collector.
def _assign_rows(a, b, prefixes, columns, row_perm, used):
    # `a`, `b`: rank matrices; `columns`: b's columns cut to `row_perm`, in order.
    if len(row_perm) == len(a):
        col_perm = []
        for column in zip(*a):
            j2 = columns.index(column)
            columns[j2] = None  # no longer free
            col_perm.append(j2)
        return PermutationWitness(tuple(row_perm), tuple(col_perm))
    target = prefixes[len(row_perm)]
    for i, row in enumerate(b):
        if used[i]:
            continue
        extended = [column + (v,) for column, v in zip(columns, row)]
        if sorted(extended) != target:
            continue
        used[i] = True
        row_perm.append(i)
        witness = _assign_rows(a, b, prefixes, extended, row_perm, used)
        if witness is not None:
            return witness
        row_perm.pop()
        used[i] = False
    return None
