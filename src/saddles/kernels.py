"""Bitmask kernels behind exhaustive saddle enumeration.

Dominance is a purely ordinal notion: deciding whether one action dominates
another w.r.t. a restriction set only ever compares two entries in the same
row or column. The game replaces its entries by their exact integer ranks
once (`ZeroSumGame.ranks`, which order and tie exactly as the entries do);
all comparisons are then made on those ranks and packed into bitmask tables:

* ``row_ge[r1][r2]``: bitmask over columns c with entry(r1,c) >= entry(r2,c)
* ``row_gt[r1][r2]``: same with strict >
* ``col_le[c1][c2]``: bitmask over rows r with entry(r,c1) <= entry(r,c2)
* ``col_lt[c1][c2]``: same with strict <

The tables are (k, k) arrays in the caller's dtype: int32 for the grid,
python ints (object) for `find`, which has no size limit.

After that, scanning all (2^rows - 1) * (2^cols - 1) action products for the
generalized-saddle-point property is integer bit twiddling with no arithmetic
on payoffs at all, so the kernels are exact by construction. Both product
grids hold one bit per product, packed into uint64 words, and are built from
one primitive, "OR each cell into its partner across bit b of the product
index" (a shift and mask inside each word for b < 6, a strided OR of word
halves above):

* the GSP grid marks, on each side and for every opponent mask, the action
  sets that leave some outside action undominated (exactly the subsets of
  that action's non-dominators) by marking each non-dominator set and
  closing the marks downward over that side's bits, and
* the minimality filter marks every product one action above a GSP, then
  closes the marks upward; the GSPs left unmarked are minimal.

`min_size_cells` reads the GSP grid without the filter: it walks the words
in chunks, counts set bits with `np.bitwise_count` (numpy 2), and keeps the
set cells whose flat index has the fewest, the GSPs with the fewest actions
|R| + |C|. Under weak and under strict dominance those are exactly the
saddles (see `solver`), so the answer paths read them; the filter stays for
weak-strict dominance and the referees.

The grid and `find`'s scan take their non-dominator sets from one
function, `non_dominators`, over one bitmask dominance test,
`mask_dominates`. The scan (`solver._SideRule`) calls it once per chunk of
opponent masks, `solver._CHUNK_CELLS` // (actions)^2 masks a chunk, and at
least one.

This is the one module of the package that imports numpy at module level,
and it is loaded when tables or grids are first built.
"""

from __future__ import annotations

import numpy as np

from .dominance import DominanceMode
from .errors import check_grid_budget
from .game import ZeroSumGame

_WORD_SHIFT = 6  # 64 cells per uint64 word
# _STAY[b]: the cells of a word whose in-word index has bit b clear.
_STAY = tuple(
    np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(_WORD_SHIFT)
)
# Opponent masks per chunk when marking non-dominator sets.
_CHUNK = 1 << 14
# Grid size from which runs of 2-4 words are ORed lane by lane.
_LANE_MIN_WORDS = 1 << 10


def _pack(bits, dtype):
    # (k, k) masks of `dtype` from a (k, k, width) bool array, bit i of each
    # mask taken from index i of the last axis.
    width = bits.shape[-1]
    if np.dtype(dtype) != object:
        if width >= np.iinfo(dtype).bits:
            raise ValueError(f"{width}-bit masks do not fit {np.dtype(dtype)}")
        return bits @ (1 << np.arange(width, dtype=dtype))
    # Python ints through packed bytes: a multiply on object arrays took
    # about 20 times as long at 70x70.
    packed = np.packbits(bits, axis=-1, bitorder="little")
    step, raw = packed.shape[-1], packed.tobytes()
    flat = (int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step))
    return np.fromiter(flat, dtype=object, count=len(raw) // step).reshape(bits.shape[:2])


def dominance_mask_tables(game: ZeroSumGame, dtype=object):
    """Exact dominance bitmasks as (k, k) arrays of `dtype`.

    Returns (row_ge, row_gt, col_le, col_lt); row masks have one bit per
    column, column masks one bit per row. The default, object, holds python
    ints, exact for any game size (`find`'s tables); the grid asks for
    int32, which its budget keeps wide enough. A mask too wide for `dtype`
    raises ValueError.
    """
    ranks = np.array(game.ranks, dtype=np.int64)
    # Columns compare the other way round: their tables are -ranks.T's row tables.
    return tuple(
        _pack(compare(side[:, None], side[None]), dtype)
        for side in (ranks, -ranks.T)
        for compare in (np.greater_equal, np.greater)
    )


def mask_dominates(ge_mask, gt_mask, restriction, mode: DominanceMode):
    """Single dominance test against precomputed ge/gt masks. It branches on
    the mode only, never on a mask, so it works on python ints and
    elementwise on arrays of any integer dtype, object included: it is the
    predicate behind `non_dominators`."""
    if mode is DominanceMode.STRICT:
        return (restriction & ~gt_mask) == 0
    weak = (restriction & ~ge_mask) == 0
    if mode is DominanceMode.WEAK_REQUIRE_STRICT:
        return weak & ((restriction & gt_mask) != 0)
    return weak


def non_dominators(ge, gt, k, opps, mode):
    """nd[j, i]: bitmask of the actions other than j that do not dominate
    action j w.r.t. opponent mask opps[i].

    `ge` and `gt` are one side's (k, k) mask tables as arrays. The bit
    weights take their dtype, so int32 tables (the grid's) give int32 sets
    and object tables of python ints (`find`'s) give exact python-int sets
    at any number of actions.
    """
    bits = np.array([1 << i for i in range(k)], dtype=ge.dtype)[:, None]
    ok = mask_dominates(ge[:, :, None], gt[:, :, None], opps, mode)
    dom = np.bitwise_or.reduce(ok * bits[:, :, None], axis=0)
    return ((1 << k) - 1) ^ (dom | bits)


def _spread(src, dst, b, upward):
    # OR each cell of src into its partner across bit b of the flat index,
    # writing into dst: from the cell without bit b to the one with it when
    # upward, else the other way. Bits below 6 address cells inside a word.
    if b < _WORD_SHIFT:
        shift, stay = np.uint64(1 << b), _STAY[b]
        dst |= (src & stay) << shift if upward else (src >> shift) & stay
    else:
        half = 1 << (b - _WORD_SHIFT)
        s, d = src.reshape(-1, 2, half), dst.reshape(-1, 2, half)
        # Many runs of 2-4 words: one strided OR per lane beats numpy's
        # per-run loop overhead (2-word runs at 2^24 cells measured 1.9 vs
        # 0.24 ms); on small grids the extra calls cost more than they save.
        lanes = half <= 4 and len(dst) >= _LANE_MIN_WORDS
        for lane in range(half) if lanes else (slice(None),):
            if upward:
                d[:, 1, lane] |= s[:, 0, lane]
            else:
                d[:, 0, lane] |= s[:, 1, lane]


def _close(words, bits, upward):
    # Closes the grid over the given bits of the flat index: downward marks
    # every subset of a marked cell, upward every superset.
    for b in bits:
        _spread(words, words, b, upward)
    return words


def _bad_side(ge, gt, k, opp_size, rows_side, mode):
    # bad[S x opp]: some action outside S has no dominator in S w.r.t. opp.
    # Action j is such a witness for S exactly when S is a subset of its
    # non-dominator set, so marking every non-dominator set and closing
    # downward over this side's bits marks them all. Opponent masks are taken
    # in chunks, so the temporaries stay bounded whatever the game's shape.
    words = np.zeros(max(1, (1 << (k + opp_size)) >> _WORD_SHIFT), dtype=np.uint64)
    shift = opp_size if rows_side else k
    for start in range(0, 1 << opp_size, _CHUNK):
        opps = np.arange(start, min(start + _CHUNK, 1 << opp_size), dtype=np.int32)
        own = non_dominators(ge, gt, k, opps, mode)
        cells = (own << shift) | opps if rows_side else (opps << shift) | own
        bit = np.uint64(1) << (cells & 63).astype(np.uint64)
        np.bitwise_or.at(words, cells >> _WORD_SHIFT, bit)
    return _close(words, range(shift, shift + k) if rows_side else range(k), upward=False)


def _gsp_grid(row_ge, row_gt, col_le, col_lt, n, m, mode):
    # Every product with an empty side is bad on that side (the empty set is
    # a subset of any non-dominator set), so no GSP cell has an empty mask.
    gsp = _bad_side(row_ge, row_gt, n, m, True, mode)
    gsp |= _bad_side(col_le, col_lt, m, n, False, mode)
    np.invert(gsp, out=gsp)
    if n + m < _WORD_SHIFT:
        gsp &= np.uint64((1 << (1 << (n + m))) - 1)
    return gsp


def minimal_grid(gsp, nbits):
    """The minimality filter: the cells of the packed GSP grid `gsp`, over
    `nbits` = rows + cols index bits, that have no GSP strictly inside.

    A product has a GSP G strictly inside iff it contains G + i for some
    action i outside G, so the filter marks every GSP one action up, then
    closes the marks upward. It holds one grid besides `gsp`.
    """
    below = np.zeros_like(gsp)
    for b in range(nbits):
        _spread(gsp, below, b, upward=True)
    _close(below, range(nbits), upward=True)
    np.invert(below, out=below)
    below &= gsp  # the GSPs with no GSP strictly inside
    return below


def saddle_grids(game: ZeroSumGame, mode: DominanceMode, tables):
    """The GSP grid of `game` under `mode`, packed one bit per product into
    uint64 words.

    `tables` are the game's `dominance_mask_tables` in int32. The product
    of row mask R and column mask C is bit ``R * 2^cols + C`` of the flat
    grid (bit ``i % 64`` of word ``i // 64``); `grid_cells` unpacks the set
    bits, `min_size_cells` the smallest, and `minimal_grid` filters the
    inclusion-minimal ones. The grid takes 2^(rows+cols) bits, at least one
    word; a grid over MAX_GRID_BITS raises CapacityError before anything is
    allocated.
    """
    n, m = game.rows, game.cols
    check_grid_budget(n, m)
    return _gsp_grid(*tables, n, m, mode)


# Words per chunk of `min_size_cells`, the bound on its temporaries.
_WALK_WORDS = 1 << 14
# _WEIGHTS[w]: the positions 0-63 of a word that have w set bits.
_WEIGHTS = np.array(
    [sum(1 << p for p in range(64) if p.bit_count() == w) for w in range(7)],
    dtype=np.uint64,
)


def _set_bits(words):
    # (word, bit): each set bit's position in `words` and in its word, ascending.
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.nonzero(bits.reshape(-1, 64))


def _masks(cells, cols):
    return cells >> cols, cells & ((1 << cols) - 1)


def grid_cells(words, cols: int):
    """(row masks, column masks) of the set bits of a packed grid, in
    ascending (row mask, column mask) order."""
    nonzero = np.flatnonzero(words)
    word, bit = _set_bits(words[nonzero])
    return _masks((nonzero[word] << _WORD_SHIFT) | bit, cols)


def min_size_cells(words, cols: int):
    """(row masks, column masks) of the set bits of a packed grid whose flat
    index R * 2^cols + C has the fewest set bits, |R| + |C|, in ascending
    order.

    The grid is walked in chunks of `_WALK_WORDS` words. A cell's set bits
    are those of its word's index plus those of its position in the word:
    each chunk's nonzero words whose index alone has more set bits than the
    best size so far are dropped, and each word left adds the weight of the
    first of `_WEIGHTS` it meets. Only the words that reach the best size so
    far are kept, so the temporaries stay within a chunk whatever the grid's
    size and however many of its cells are set.
    """
    best, kept = 64, []
    for start in range(0, len(words), _WALK_WORDS):
        chunk = words[start : start + _WALK_WORDS]
        if not np.count_nonzero(chunk):
            continue
        index = np.flatnonzero(chunk) + start
        outer = np.bitwise_count(index)
        near = outer <= best
        index, outer = index[near], outer[near]
        if not len(index):
            continue
        picked = words[index]
        total = outer + ((picked[:, None] & _WEIGHTS) != 0).argmax(axis=1)
        low = int(total.min())
        if low > best:
            continue
        if low < best:
            best, kept = low, []
        kept.append((index[total == low], picked[total == low]))
    if not kept:  # an empty grid
        return _masks(np.zeros(0, dtype=np.int64), cols)
    index, picked = (np.concatenate(parts) for parts in zip(*kept))
    word, bit = _set_bits(picked)
    cells = (index[word] << _WORD_SHIFT) | bit
    return _masks(cells[np.bitwise_count(cells) == best], cols)
