"""Bitmask kernels behind exhaustive saddle enumeration.

Dominance is a purely ordinal notion: deciding whether one action dominates
another w.r.t. a restriction set only ever compares two entries in the same
row or column. The distinct rational entries are sorted once and replaced by
their exact integer ranks; all comparisons are then made on those ranks and
packed into bitmask tables:

* ``row_ge[r1][r2]``: bitmask over columns c with entry(r1,c) >= entry(r2,c)
* ``row_gt[r1][r2]``: same with strict >
* ``col_le[c1][c2]``: bitmask over rows r with entry(r,c1) <= entry(r,c2)
* ``col_lt[c1][c2]``: same with strict <

After that, scanning all (2^rows - 1) * (2^cols - 1) action products for the
generalized-saddle-point property is integer bit twiddling with no arithmetic
on payoffs at all, so the kernels are exact by construction. Both product
grids are computed with whole-array numpy passes:

* the GSP grid marks, on each side and for every opponent mask, the action
  sets that leave some outside action undominated (exactly the subsets of
  that action's non-dominators) by marking each non-dominator set and
  closing the marks downward over subsets, and
* the minimality filter counts GSP subproducts with an in-place subset-sum
  (zeta) transform over both mask axes.
"""

from __future__ import annotations

import numpy as np

from .errors import GameInputError
from .game import ZeroSumGame

MODE_WEAK = 0
MODE_STRICT = 1
MODE_WEAK_STRICT = 2


def _pack(bits) -> list[list[int]]:
    # Nested lists of python-int bitmasks from a (k, k, width) bool array,
    # bit i of each mask taken from index i of the last axis; python ints
    # keep any number of actions exact.
    packed = np.packbits(bits, axis=-1, bitorder="little")
    width, raw = packed.shape[-1], packed.tobytes()
    flat = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    return [flat[i : i + len(bits)] for i in range(0, len(flat), len(bits))]


def dominance_mask_tables(game: ZeroSumGame):
    """Exact dominance bitmasks as plain python ints (any game size).

    Returns (row_ge, row_gt, col_le, col_lt) as nested lists; row masks have
    one bit per column, column masks one bit per row.
    """
    # Entries are replaced by their exact ranks among the distinct values.
    # Fractions are normalized, so (numerator, denominator) identifies a
    # value and hashes far faster than the Fraction itself.
    distinct = {(v.numerator, v.denominator): v for row in game.entries for v in row}
    rank = {(v.numerator, v.denominator): i for i, v in enumerate(sorted(distinct.values()))}
    ranks = np.array(
        [[rank[v.numerator, v.denominator] for v in row] for row in game.entries],
        dtype=np.int64,
    )
    by_col = ranks.T
    return (
        _pack(ranks[:, None] >= ranks[None]),
        _pack(ranks[:, None] > ranks[None]),
        _pack(by_col[:, None] <= by_col[None]),
        _pack(by_col[:, None] < by_col[None]),
    )


def mask_dominates(ge_mask, gt_mask, restriction, mode: int):
    """Single dominance test against precomputed ge/gt masks; branch-free,
    so it works on python ints and elementwise on numpy arrays alike."""
    weak = (restriction & ~ge_mask) == 0
    strict = (restriction & ~gt_mask) == 0
    somewhere = (restriction & gt_mask) != 0
    return weak & ((mode != MODE_STRICT) | strict) & ((mode != MODE_WEAK_STRICT) | somewhere)


def _undominated_sets(ge, gt, k, opp_size, mode):
    # bad[S, opp]: some action outside S has no dominator in S w.r.t. opp.
    # dom[j, opp] is the bitmask of actions dominating action j w.r.t. opp.
    # Action j is such a witness for S exactly when S is a subset of
    # U_j = (actions not dominating j) minus j, so marking every U_j and
    # closing downward over subsets (one in-place OR per bit) marks them all.
    size = 1 << k
    opps = np.arange(1 << opp_size, dtype=np.int64)
    bits = (np.int64(1) << np.arange(k, dtype=np.int64))[:, None]
    ok = mask_dominates(ge[:, :, None], gt[:, :, None], opps, mode)
    dom = (ok * bits[:, :, None]).sum(axis=0)
    non_dominators = (size - 1) & ~dom & ~bits
    bad = np.zeros((size, len(opps)), dtype=np.bool_)
    bad[non_dominators, opps] = True
    for b in range(k):
        view = bad.reshape(size >> (b + 1), 2, 1 << b, -1)
        view[:, 0] |= view[:, 1]
    return bad


def _gsp_grid(row_ge, row_gt, col_le, col_lt, n, m, mode):
    bad_rows = _undominated_sets(row_ge, row_gt, n, m, mode)
    bad_cols = _undominated_sets(col_le, col_lt, m, n, mode)
    gsp = ~(bad_rows | bad_cols.T)
    gsp[0, :] = False
    gsp[:, 0] = False
    return gsp


def _minimal_grid(gsp, n, m):
    # A GSP is minimal iff its only GSP subproduct is itself. cnt[R, C] counts
    # GSP subproducts via a subset-sum transform over the n + m bits of the
    # flat index R * 2^m + C: each pass adds, in place, every cell without
    # bit b into its partner with it.
    cnt = gsp.astype(np.int32)
    flat = cnt.reshape(-1)
    for b in range(n + m):
        view = flat.reshape(-1, 2, 1 << b)
        if b < 3:
            # Runs of 1-4 cells: one strided add per lane beats numpy's
            # per-run loop overhead.
            for lane in range(1 << b):
                view[:, 1, lane] += view[:, 0, lane]
        else:
            view[:, 1] += view[:, 0]
    return gsp & (cnt == 1)


def saddle_grids(game: ZeroSumGame, mode_code: int):
    """(gsp, minimal) boolean grids indexed by [row mask, column mask].

    ``gsp[R][C]`` marks the generalized saddle points, ``minimal[R][C]`` the
    inclusion-minimal ones (the saddles). Grids are 2^rows x 2^cols; callers
    enforce their own size guards.
    """
    n, m = game.rows, game.cols
    if n > 62 or m > 62:
        raise GameInputError("bitmask kernels support at most 62 actions per side")
    tables = (np.array(table, dtype=np.int64) for table in dominance_mask_tables(game))
    gsp = _gsp_grid(*tables, n, m, mode_code)
    return gsp, _minimal_grid(gsp, n, m)
