"""Exact mask tables and product grids, refereed by the brute-force oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_is_gsp, brute_saddles
from saddles import GeneratorConfig, GeneratorKind, generate, new_game, trial_seed
from saddles.kernels import (
    MODE_STRICT,
    MODE_WEAK,
    MODE_WEAK_STRICT,
    dominance_mask_tables,
    mask_dominates,
    saddle_grids,
)

ORACLE_MODES = {MODE_WEAK: "weak", MODE_STRICT: "strict", MODE_WEAK_STRICT: "weak-strict"}

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
    assert mask_dominates(ge, gt, 0b101, MODE_WEAK)
    assert not mask_dominates(ge, gt, 0b101, MODE_WEAK_STRICT)
    assert mask_dominates(ge, gt, 0b110, MODE_WEAK_STRICT)
    assert mask_dominates(ge, gt, 0b010, MODE_STRICT)
    assert not mask_dominates(ge, gt, 0b011, MODE_STRICT)
    # The same rule applies elementwise to numpy arrays of masks.
    restrictions = np.array([0b101, 0b110, 0b010, 0b011, 0b000])
    expected = {
        MODE_WEAK: [True, True, True, True, True],
        MODE_STRICT: [False, False, True, False, True],
        MODE_WEAK_STRICT: [False, True, True, True, False],
    }
    for mode, want in expected.items():
        got = mask_dominates(np.int64(ge), np.int64(gt), restrictions, mode)
        assert got.tolist() == want, mode
        assert [bool(mask_dominates(ge, gt, int(r), mode)) for r in restrictions] == want


def test_grid_shape_and_empty_masks(a2):
    gsp, minimal = saddle_grids(a2, MODE_WEAK)
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
def test_grids_match_oracles(game):
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
        assert found == brute_saddles(entries, name), name


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
    for mode, expected in zip((MODE_WEAK, MODE_STRICT, MODE_WEAK_STRICT), digests):
        gsp, minimal = saddle_grids(game, mode)
        payload = np.packbits(gsp).tobytes() + np.packbits(minimal).tobytes()
        assert hashlib.sha256(payload).hexdigest() == expected, mode
