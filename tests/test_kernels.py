"""Exact mask tables and product grids, refereed by the brute-force oracles."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cloned_games, run_probe
from oracles import brute_is_gsp, brute_saddles
from saddles import (
    CapacityError,
    DominanceMode,
    GameAnalysis,
    GeneratorConfig,
    GeneratorKind,
    enumerate_saddles,
    generate,
    minimal_saddles,
    new_game,
    strict_saddle,
    trial_seed,
)
from saddles import kernels
from saddles.errors import MAX_GRID_BITS
from saddles.kernels import dominance_mask_tables, grid_cells, mask_dominates

WEAK = DominanceMode.WEAK
STRICT = DominanceMode.STRICT
WRS = DominanceMode.WEAK_REQUIRE_STRICT
# Each mode with its name in the oracles.
ORACLE_MODES = {mode: mode.value for mode in DominanceMode}

# Entry palettes: bound 0 (every entry tied), bound 1 (tie-heavy), a wider
# integer range, and non-integer rationals.
PALETTES = (
    ("0",),
    ("-1", "0", "1"),
    ("-3", "-2", "-1", "0", "1", "2", "3"),
    ("1/3", "-2.5", "0", "7/3", "-1/3", "2.5"),
)


@st.composite
def palette_games(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    palette = draw(st.sampled_from(PALETTES))
    flat = draw(st.lists(st.sampled_from(palette), min_size=rows * cols, max_size=rows * cols))
    return new_game(rows, cols, flat)


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _dense(words, rows, cols):
    # Unpacks a packed grid into the boolean [row mask, column mask] array:
    # bit i % 64 of word i // 64 is product i = R * 2^cols + C.
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return bits[: 1 << (rows + cols)].astype(bool).reshape(1 << rows, 1 << cols)


def packed_grids(game, mode):
    # The packed GSP grid and its minimality-filtered grid.
    gsp = kernels.saddle_grids(game, mode, dominance_mask_tables(game, np.int32))
    return gsp, kernels.minimal_grid(gsp, game.rows + game.cols)


def saddle_grids(game, mode):
    gsp, minimal = packed_grids(game, mode)
    return _dense(gsp, game.rows, game.cols), _dense(minimal, game.rows, game.cols)


def test_mask_tables_match_entry_comparisons(a1):
    row_ge, row_gt, col_le, col_lt = dominance_mask_tables(a1)
    for r1 in range(a1.rows):
        for r2 in range(a1.rows):
            for c in range(a1.cols):
                assert bool(row_ge[r1][r2] >> c & 1) == (a1.entry(r1, c) >= a1.entry(r2, c))
                assert bool(row_gt[r1][r2] >> c & 1) == (a1.entry(r1, c) > a1.entry(r2, c))
    for c1 in range(a1.cols):
        for c2 in range(a1.cols):
            for r in range(a1.rows):
                assert bool(col_le[c1][c2] >> r & 1) == (a1.entry(r, c1) <= a1.entry(r, c2))
                assert bool(col_lt[c1][c2] >> r & 1) == (a1.entry(r, c1) < a1.entry(r, c2))


def test_mask_tables_are_python_ints_beyond_64_actions():
    # 70 columns: masks wider than one machine word stay exact.
    game = new_game(2, 70, [0] * 70 + ["1/3"] * 69 + ["-1/3"])
    row_ge, row_gt, col_le, col_lt = dominance_mask_tables(game)
    assert row_ge[1][0] == (1 << 69) - 1
    assert row_gt[0][1] == 1 << 69
    assert col_lt[69][0] == 0b10 and col_le[0][69] == 0b01
    assert all(type(mask) is int for table in (row_ge, col_le) for row in table for mask in row)


def test_mask_dominates_modes():
    # ge on all three bits, gt on bit 1 only
    ge, gt = 0b111, 0b010
    assert mask_dominates(ge, gt, 0b101, WEAK)
    assert not mask_dominates(ge, gt, 0b101, WRS)
    assert mask_dominates(ge, gt, 0b110, WRS)
    assert mask_dominates(ge, gt, 0b010, STRICT)
    assert not mask_dominates(ge, gt, 0b011, STRICT)
    # The same rule applies elementwise to numpy arrays of masks.
    restrictions = np.array([0b101, 0b110, 0b010, 0b011, 0b000])
    expected = {
        WEAK: [True, True, True, True, True],
        STRICT: [False, False, True, False, True],
        WRS: [False, True, True, True, False],
    }
    for mode, want in expected.items():
        got = mask_dominates(np.int64(ge), np.int64(gt), restrictions, mode)
        assert got.tolist() == want, mode
        assert [bool(mask_dominates(ge, gt, int(r), mode)) for r in restrictions] == want


@settings(max_examples=80, deadline=None)
@given(cloned_games(max_size=5))
@example(new_game(1, 5, ["0", "1/3", "0", "-2.5", "1/3"]))
@example(new_game(5, 1, ["1", "0", "1", "-1", "1"]))
@example(new_game(1, 1, ["-2.5"]))
def test_non_dominators_same_on_int32_and_object_tables(game):
    # For every opponent mask, the int32 and the object-array call agree with
    # each other and with nd[j] built pair by pair from `mask_dominates` on
    # python ints: the actions i != j that do not dominate j.
    row_ge, row_gt, col_le, col_lt = dominance_mask_tables(game)
    sides = ((row_ge, row_gt, game.rows, game.cols), (col_le, col_lt, game.cols, game.rows))
    for ge, gt, k, opp_count in sides:
        opps = range(1 << opp_count)
        for mode in DominanceMode:
            expected = [
                [
                    sum(
                        1 << i
                        for i in range(k)
                        if i != j and not mask_dominates(ge[i][j], gt[i][j], opp, mode)
                    )
                    for opp in opps
                ]
                for j in range(k)
            ]
            for dtype in (np.int32, object):
                got = kernels.non_dominators(
                    np.array(ge, dtype=dtype), np.array(gt, dtype=dtype), k,
                    np.array(opps, dtype=dtype), mode,
                )
                assert got.tolist() == expected, (mode, dtype)


def test_grid_shape_and_empty_masks(a2):
    gsp, minimal = saddle_grids(a2, WEAK)
    assert gsp.shape == (8, 8)
    assert not gsp[0].any() and not gsp[:, 0].any()
    # minimal cells are GSP cells
    assert not (minimal & ~gsp).any()
    # full product is always a GSP
    assert gsp[7, 7]


@settings(max_examples=60, deadline=None)
@given(palette_games())
@example(new_game(1, 5, ["0", "1/3", "0", "-2.5", "1/3"]))
@example(new_game(4, 1, ["1", "0", "1", "-1"]))
@example(new_game(1, 1, ["-2.5"]))
# Weak-strict saddles of two sizes: {r1} x {c1,c2} and {r1,r2,r3} x {c1}.
@example(new_game(3, 2, [0, 1, 0, 0, 0, 0]))
def test_grids_match_oracles(game):
    # The grids, and the answers read off them: the minimum-size cells
    # under weak and strict dominance, the filter under weak-strict.
    entries = game.entries
    for mode, name in ORACLE_MODES.items():
        gsp, minimal = saddle_grids(game, mode)
        assert gsp.shape == (1 << game.rows, 1 << game.cols)
        assert not gsp[0].any() and not gsp[:, 0].any()
        for row_mask in range(1, 1 << game.rows):
            for col_mask in range(1, 1 << game.cols):
                expected = brute_is_gsp(entries, _indices(row_mask), _indices(col_mask), name)
                assert gsp[row_mask, col_mask] == expected, (row_mask, col_mask, name)
        found = sorted((_indices(int(r)), _indices(int(c))) for r, c in np.argwhere(minimal))
        saddles = brute_saddles(entries, name)
        assert found == saddles, name
        assert _products(enumerate_saddles(game, mode)) == saddles, name
        assert _products(minimal_saddles(game, mode)) == saddles, name
    (strict,) = brute_saddles(entries, "strict")
    assert _products([strict_saddle(game)]) == [strict]


def _products(products):
    return [(p.row_set, p.col_set) for p in products]


# Products n + m = 2, 5, 6, 7 and 12: a partial word, exactly one word, two
# words, and many.
@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (3, 3), (3, 4), (6, 6)])
# The enum is not orderable; ids are the modes' positions in it.
@pytest.mark.parametrize("mode", list(ORACLE_MODES), ids=["0", "1", "2"])
def test_word_boundary_sizes(rows, cols, mode):
    cells = 1 << (rows + cols)
    for seed in range(3):
        game = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, rows, cols, 1, seed))
        packed = packed_grids(game, mode)
        for words in packed:
            assert words.dtype == np.uint64 and words.ndim == 1
            assert len(words) == max(1, cells // 64)
            if cells < 64:
                assert int(words[0]) >> cells == 0
        gsp, minimal = (_dense(words, rows, cols) for words in packed)
        entries, name = game.entries, ORACLE_MODES[mode]
        for row_mask in range(1 << rows):
            for col_mask in range(1 << cols):
                expected = bool(row_mask and col_mask) and brute_is_gsp(
                    entries, _indices(row_mask), _indices(col_mask), name
                )
                assert gsp[row_mask, col_mask] == expected, (row_mask, col_mask)
        row_masks, col_masks = (masks.tolist() for masks in grid_cells(packed[1], cols))
        found = [(_indices(r), _indices(c)) for r, c in zip(row_masks, col_masks)]
        assert sorted(found) == brute_saddles(entries, name)
        assert np.array_equal(np.stack(grid_cells(packed[0], cols), axis=1), np.argwhere(gsp))


@pytest.mark.parametrize("rows, cols", [(1, 16), (16, 1)])
def test_lopsided_games_marked_in_chunks(rows, cols):
    # 2^16 opponent masks on the long side's opponent, so its marks come in
    # several chunks. With one row or one column the answers have closed
    # forms: a product is a weak GSP iff it holds a best action of the long
    # side (largest entry for rows, smallest for columns), the weak saddles
    # are the best singletons, and the strict and weak-strict saddle is the
    # set of all best actions.
    values = [3, -2, 2, 5, 5, 0, 1, 5, -2, 4, 4, 0, 3, 5, 1, -1]
    game = new_game(rows, cols, values)
    target = max(values) if cols == 1 else min(values)
    best = [i for i, v in enumerate(values) if v == target]

    def long_masks(words):
        row_masks, col_masks = grid_cells(words, cols)
        assert set((col_masks if cols == 1 else row_masks).tolist()) == {1}
        return (row_masks if cols == 1 else col_masks).tolist()

    gsp, minimal = packed_grids(game, WEAK)
    assert len(long_masks(gsp)) == 2**16 - 2 ** (16 - len(best))
    assert long_masks(minimal) == [1 << i for i in best]
    for mode in (STRICT, WRS):
        _, minimal = packed_grids(game, mode)
        assert long_masks(minimal) == [sum(1 << i for i in best)]


def _scan_min_size(words, cols):
    # Reference for `min_size_cells`: every set cell, then those whose flat
    # index has the fewest set bits.
    row_masks, col_masks = grid_cells(words, cols)
    cells = (row_masks << cols) | col_masks
    sizes = sum((cells >> b) & 1 for b in range(64))
    fewest = sizes == sizes.min() if len(cells) else sizes == 0
    return row_masks[fewest].tolist(), col_masks[fewest].tolist()


def test_min_size_cells_across_chunks():
    # Grids of 2^21 cells span two chunks of the walk. The smallest cells
    # may lie in the first chunk, in the second (so the first chunk's are
    # dropped), or in both; a dense grid has cells of every size.
    rng = np.random.default_rng(5)
    words = 1 << 15
    cols = 10

    def grid(*cells):
        packed = np.zeros(words, dtype=np.uint64)
        for cell in cells:
            packed[cell >> 6] |= np.uint64(1) << np.uint64(cell & 63)
        return packed

    second = kernels._WALK_WORDS << 6  # the first cell of the second chunk
    grids = [
        np.zeros(words, dtype=np.uint64),
        grid(0b111 << 12, 0b1011 << 5),  # first chunk only
        grid(0b1111 << 3, second | 0b1, second | 0b1000000),  # second is smaller
        grid(0b11 << 3, 0b101 << 9, second | 0b10),  # equal sizes in both
        grid(*(1 << 21) - 1 - np.arange(0, 1 << 21, 4099)),  # near-full indices
        rng.integers(0, 2**63, size=words, dtype=np.uint64),  # dense
        rng.integers(0, 2**63, size=words, dtype=np.uint64)
        & rng.integers(0, 2**63, size=words, dtype=np.uint64)
        & (rng.random(words) < 0.01).astype(np.uint64) * np.uint64(2**64 - 1),  # sparse
    ]
    for packed in grids:
        found = [masks.tolist() for masks in kernels.min_size_cells(packed, cols)]
        assert found == list(_scan_min_size(packed, cols))


def test_grid_budget_checked_before_allocation(monkeypatch):
    class Reached(Exception):
        pass

    def unreachable(*args):
        raise Reached

    # The GSP grid is the first grid memory saddle_grids allocates.
    monkeypatch.setattr(kernels, "_gsp_grid", unreachable)
    limit = MAX_GRID_BITS.bit_length() - 1
    # The unpacked grids took about ten bytes per product, so none past
    # 14x14 (2.7 GB) fitted in memory; 15x15 is within the budget.
    within = ((15, 15), (limit - 1, 1))
    over = ((limit, 1), (20, 20), (1, 62))
    for rows, cols in within:
        game = new_game(rows, cols, [0] * (rows * cols))
        with pytest.raises(Reached):
            kernels.saddle_grids(game, WEAK, dominance_mask_tables(game))
    for rows, cols in over:
        game = new_game(rows, cols, [0] * (rows * cols))
        with pytest.raises(CapacityError, match=f"2\\^{rows + cols} bits"):
            kernels.saddle_grids(game, WEAK, dominance_mask_tables(game))
    # An analysis checks the budget before it builds the tables as well.
    monkeypatch.setattr(kernels, "dominance_mask_tables", unreachable)
    for rows, cols in within:
        with pytest.raises(Reached):
            GameAnalysis(new_game(rows, cols, [0] * (rows * cols))).gsp_grid(WEAK)
    for rows, cols in over:
        with pytest.raises(CapacityError, match=f"2\\^{rows + cols} bits"):
            GameAnalysis(new_game(rows, cols, [0] * (rows * cols))).gsp_grid(WEAK)


# A weak enumeration in a fresh process: prints the saddle count, whether
# every saddle is a single cell, and the peak RSS growth in KiB (`ru_maxrss`
# on Linux) over the peak after import and generation. The argument picks a
# uniform game or a constant one.
RSS_PROBE = """
import resource, sys
from saddles import DominanceMode, GeneratorConfig, GeneratorKind, enumerate_saddles, generate
from saddles import kernels, new_game
if sys.argv[1] == "constant":
    game = new_game(14, 14, [0] * 196)
else:
    game = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 14, 14, 3, 1))
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
found = enumerate_saddles(game, DominanceMode.WEAK)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(len(found), all(len(s.row_set) == len(s.col_set) == 1 for s in found), peak)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_grid_build_peak_memory():
    # A 14x14 grid is 2^28 bits (32 MiB). A grid build holds at most three
    # grid-sized buffers at once, and the minimum-size walk reads the GSP
    # grid in chunks, so the peak grows by less than four grids; a fourth
    # live grid would take it past. At 13x13 the non-dominator temporaries
    # weigh as much as the grids, which hides the difference. Every product
    # of the constant game is a weak GSP, about 2.7 x 10^8 cells: all of
    # them unpacked at once would take GBs, and its saddles are the 196
    # single cells.
    grid_kib = (1 << 28) // 8 // 1024
    for kind in ("uniform", "constant"):
        count, singletons, peak = run_probe(RSS_PROBE, kind).split()
        if kind == "constant":
            assert (int(count), singletons) == (196, "True")
        assert int(peak) < 4 * grid_kib, kind


# SHA-256 of packbits(gsp) + packbits(minimal) per mode (weak, strict,
# weak-strict), recorded from the earlier boolean-mask implementation of the
# grids; the oracles are too slow at these sizes.
GRID_DIGESTS = [
    (GeneratorKind.UNIFORM_INT, 6, 6, 1, 0, (
        "838a73df101160268185b88a988b8ae139af1b5437995f94ec64cd2f0f1060ed",
        "d6fc6587f1e6927b97089f1f5da5f987d16abf9656e367d98c7898bc43b9b1ad",
        "838a73df101160268185b88a988b8ae139af1b5437995f94ec64cd2f0f1060ed",
    )),
    (GeneratorKind.UNIFORM_INT, 6, 8, 1, 1, (
        "4f92ae6654510c9a63ee8a363c3841352b24a436d85ff1e1246ca1391eba4594",
        "682196c85f5145335c18dfd9a49e3c0259427b479631deed8c941e1462fa50cd",
        "15cdcdfdb8cc1355bc87f63871e07d0b6c348ae0a127fc6222f27205f1fd1161",
    )),
    (GeneratorKind.UNIFORM_INT, 8, 6, 1, 2, (
        "0f2d844add8ffc961957c52bc3c39f359059e91c96c1c2f3b1b9d360935cf395",
        "682196c85f5145335c18dfd9a49e3c0259427b479631deed8c941e1462fa50cd",
        "0f2d844add8ffc961957c52bc3c39f359059e91c96c1c2f3b1b9d360935cf395",
    )),
    (GeneratorKind.UNIFORM_INT, 7, 7, 2, 3, (
        "285367080fddddfa3ecd66599a53311fdbadf562a3948b3a8dffb4b5da7636a7",
        "682196c85f5145335c18dfd9a49e3c0259427b479631deed8c941e1462fa50cd",
        "285367080fddddfa3ecd66599a53311fdbadf562a3948b3a8dffb4b5da7636a7",
    )),
    (GeneratorKind.UNIFORM_INT, 8, 8, 1, 4, (
        "04adad1e31b86159c8bbc81c7c37fb52b3e104613e80018b2268999d0bf64799",
        "7f862a8609fed3284f0493213c7b3010eb85eca3f804c32630aceec9343a04fb",
        "7be5cac858c62976c1a1fec6f2180644274b35898ea67c7cbc670fb635ec5308",
    )),
    (GeneratorKind.TOURNAMENT, 7, 7, 1, 5, (
        "92857a5e8aa286536684d415e7828aeb577d30e6e92d105789bc072d1864250d",
        "682196c85f5145335c18dfd9a49e3c0259427b479631deed8c941e1462fa50cd",
        "92857a5e8aa286536684d415e7828aeb577d30e6e92d105789bc072d1864250d",
    )),
    (GeneratorKind.CONFRONTATION, 8, 8, 1, 6, (
        "2c59f166232045d67b69880752fec05a9e05da5d09d5092c4ba1ad6d68985cab",
        "7f862a8609fed3284f0493213c7b3010eb85eca3f804c32630aceec9343a04fb",
        "2c59f166232045d67b69880752fec05a9e05da5d09d5092c4ba1ad6d68985cab",
    )),
    (GeneratorKind.DISTINCT_INT, 6, 7, 30, 7, (
        "bd482337886d5813afcfb122b1fa4159358aebd35dbdbc669664233f3c54af35",
        "bd482337886d5813afcfb122b1fa4159358aebd35dbdbc669664233f3c54af35",
        "bd482337886d5813afcfb122b1fa4159358aebd35dbdbc669664233f3c54af35",
    )),
]


@pytest.mark.parametrize("kind, rows, cols, bound, trial, digests", GRID_DIGESTS)
def test_grid_digests_regression(kind, rows, cols, bound, trial, digests):
    game = generate(GeneratorConfig(kind, rows, cols, bound, trial_seed(11, trial)))
    for mode, expected in zip((WEAK, STRICT, WRS), digests):
        gsp, minimal = saddle_grids(game, mode)
        payload = np.packbits(gsp).tobytes() + np.packbits(minimal).tobytes()
        assert hashlib.sha256(payload).hexdigest() == expected, mode
