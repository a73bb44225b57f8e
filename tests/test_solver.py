import gc
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddles import (
    ActionProduct,
    CapacityError,
    DominanceMode,
    GameAnalysis,
    GeneratorConfig,
    GeneratorKind,
    PropertyViolationError,
    enumerate_saddles,
    find_saddle,
    generate,
    is_gsp,
    iterated_elimination,
    minimal_saddles,
    new_game,
    permutation_equivalent,
    strict_saddle,
    trial_seed,
)
from saddles import kernels, solver

from conftest import cloned_games, grid_gsps, planted_block_entry, planted_saddle_entry
from oracles import brute_saddles

WEAK = DominanceMode.WEAK
STRICT = DominanceMode.STRICT
WRS = DominanceMode.WEAK_REQUIRE_STRICT


def products(saddle_set):
    return [(s.row_set, s.col_set) for s in saddle_set]


# --- golden games ---------------------------------------------------------


def test_enumerate_weak_golden(a1, a2, a3):
    assert products(enumerate_saddles(a1, WEAK)) == [((0, 1), (0, 1, 2))]
    assert products(enumerate_saddles(a2, WEAK)) == [((0,), (0,))]
    assert products(enumerate_saddles(a3, WEAK)) == [
        ((0, 2), (0, 2)),
        ((0, 2), (2, 4)),
        ((2, 3), (0, 2)),
        ((2, 3), (2, 4)),
    ]


def test_strict_saddle_is_full_product(a1, a2, a3):
    for game in (a1, a2, a3):
        assert strict_saddle(game) == game.full_product()


def test_strict_saddle_1x1():
    g = new_game(1, 1, [3])
    assert strict_saddle(g) == ActionProduct([0], [0])


def test_constant_game_weak_saddles_are_singletons():
    g = new_game(2, 2, [5, 5, 5, 5])
    assert products(enumerate_saddles(g, WEAK)) == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]


def test_is_gsp_examples(a1, a2):
    assert is_gsp(a1, a1.full_product(), WEAK)
    assert is_gsp(a1, a1.full_product(), STRICT)
    assert is_gsp(a1, ActionProduct([0, 1], [0, 1, 2]), WEAK)
    assert not is_gsp(a2, ActionProduct([0], [1]), WEAK)


def test_capacity_guard():
    # The grid budget is the only shape limit: 13 rows enumerate, 31 actions
    # are refused before the tables are built.
    g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 13, 4, 3, 0))
    assert len(enumerate_saddles(g, STRICT)) == 1
    over = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 16, 15, 3, 0))
    for call in (
        lambda: enumerate_saddles(over, WEAK),
        lambda: strict_saddle(over),
    ):
        with pytest.raises(CapacityError, match="2\\^31 bits"):
            call()


# --- find_saddle ----------------------------------------------------------


def test_find_saddle_golden(a1, a2, a3):
    assert find_saddle(a1, WEAK) == ActionProduct([0, 1], [0, 1, 2])
    assert find_saddle(a2, WEAK) == ActionProduct([0], [0])
    assert find_saddle(a3, WEAK) in enumerate_saddles(a3, WEAK)


def test_find_saddle_matches_enumeration_on_random_games():
    for trial in range(60):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 3, trial_seed(101, trial))
        )
        for mode in (WEAK, STRICT, WRS):
            assert find_saddle(g, mode) in enumerate_saddles(g, mode)


def test_find_saddle_is_smallest_gsp():
    # The first GSP in (total size, row count, rows, cols) order has no proper
    # GSP subproduct, so it is the saddle `find_saddle` must return.
    def key(p):
        return (p.size(), len(p.row_set), p.row_set, p.col_set)

    for trial in range(40):
        bound = 1 + trial % 3
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 5, bound, trial_seed(202, trial))
        )
        for mode in (WEAK, STRICT, WRS):
            assert find_saddle(g, mode) == min(grid_gsps(GameAnalysis(g), mode), key=key)


def test_find_saddle_beyond_guard():
    # find_saddle builds no grid, so no grid budget applies to it: a 16x16
    # game has 2^32 products, which enumeration refuses.
    g = new_game(16, 16, [planted_saddle_entry(r, c) for r in range(16) for c in range(16)])
    with pytest.raises(CapacityError, match="2\\^32 bits"):
        enumerate_saddles(g, WEAK)
    saddle = find_saddle(g, WEAK)
    assert saddle == ActionProduct([2], [5])
    assert is_gsp(g, saddle, WEAK)


@pytest.mark.parametrize("rows, cols", [(70, 70), (3, 66), (66, 3)])
@pytest.mark.parametrize("mode", [WEAK, STRICT, WRS], ids=["weak", "strict", "weak-strict"])
def test_find_saddle_exact_past_63_actions(rows, cols, mode):
    # Masks of 66 and 70 bits overflow 64-bit integers, so the scan's
    # non-dominator sets must stay python ints. A 66x3 game takes the
    # planted game transposed and negated, which swaps the players and so
    # moves the saddle to {5} x {2}.
    if cols >= 6:
        entries = [planted_saddle_entry(r, c) for r in range(rows) for c in range(cols)]
        planted = ActionProduct([2], [5])
    else:
        entries = [-planted_saddle_entry(c, r) for r in range(rows) for c in range(cols)]
        planted = ActionProduct([5], [2])
    g = new_game(rows, cols, entries)
    saddle = find_saddle(g, mode)
    assert saddle == planted
    assert is_gsp(g, saddle, mode)


def test_find_saddle_final_check_raises(a1, monkeypatch):
    # The closing GSP check must survive `python -O`, so it cannot be an assert.
    monkeypatch.setattr("saddles.solver.is_gsp", lambda game, product, mode: False)
    with pytest.raises(PropertyViolationError, match="non-GSP"):
        find_saddle(a1, WEAK)


@settings(max_examples=150, deadline=None)
@given(cloned_games())
def test_find_saddle_matches_oracle_order(game):
    # The first saddle in (size, row count, rows, cols) order of the oracle's
    # saddles, from 1x1 to 4x4, 1xN and Nx1 included.
    def key(product):
        rows, cols = product
        return (len(rows) + len(cols), len(rows), rows, cols)

    entries = [list(row) for row in game.entries]
    for mode in (WEAK, STRICT, WRS):
        expected = ActionProduct(*min(brute_saddles(entries, mode.value), key=key))
        assert find_saddle(game, mode) == expected
        # One opponent mask per chunk puts a chunk boundary between any two masks.
        with mock.patch.object(solver, "_CHUNK_CELLS", 1):
            assert find_saddle(game, mode) == expected


@pytest.mark.parametrize("mode", [WEAK, STRICT, WRS], ids=["weak", "strict", "weak-strict"])
def test_find_saddle_same_with_full_memo(mode, monkeypatch):
    # Element budgets of 1 and of 75 cap chunks at 1 and at 3 opponent masks
    # on 5-action sides (1 and 8 on 3-action sides), splitting each level into
    # several chunks, and with each side's memo full after one 5-action chunk
    # nearly every walk rebuilds the chunks past what it keeps: the products
    # must not move.
    shapes = [(5, 5, 303, t) for t in range(50)]
    shapes += [(rows, cols, 304, t) for t in range(10) for rows, cols in ((3, 9), (9, 3))]
    games = [
        generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, rows, cols, 1 + t % 3, trial_seed(s, t)))
        for rows, cols, s, t in shapes
    ]
    builds = []
    build = kernels.non_dominators
    monkeypatch.setattr(kernels, "non_dominators", lambda *a: builds.append(a) or build(*a))
    expected = [find_saddle(g, mode) for g in games]
    default_kept = solver._MEMO_MASKS
    for cells, chunk in ((1, 1), (75, 3)):
        monkeypatch.setattr(solver, "_CHUNK_CELLS", cells)
        counts = []
        for kept in (default_kept, chunk):
            monkeypatch.setattr(solver, "_MEMO_MASKS", kept)
            builds.clear()
            assert [find_saddle(g, mode) for g in games] == expected
            assert all(len(a[3]) == 1 or len(a[3]) * a[2] ** 2 <= cells for a in builds)
            counts.append(len(builds))
        assert counts[1] > counts[0]  # the full memo did rebuild


def test_side_rule_walks_in_order_and_keeps_a_prefix(monkeypatch):
    # Under memos of 0, 1, cap - 1, cap, cap + 1 and 3 cap + 2 masks, every
    # walk of a level gives its masks in `combinations` order, in chunks of
    # `cap` masks but the level's last, and yields the chunks the level
    # keeps first: those are always its first chunks, and the side keeps no
    # more masks than the memo allows.
    monkeypatch.setattr(solver, "_CHUNK_CELLS", 36)  # 4 masks a chunk on a 3-action side
    g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 3, 9, 1, 5))
    ge, gt, _, _ = kernels.dominance_mask_tables(g, object)
    cap = 4
    for memo in (0, 1, cap - 1, cap, cap + 1, 3 * cap + 2):
        monkeypatch.setattr(solver, "_MEMO_MASKS", memo)
        rule = solver._SideRule(ge, gt, 3, 9, WEAK)
        assert rule.cap == cap
        for level in (8, 4, 3, 4, 9, 5, 4, 8, 1, 9):
            expected = [sum(c) for c in itertools.combinations([1 << i for i in range(9)], level)]
            walked = list(rule.chunks(level))
            assert [mask for masks, _ in walked for mask in masks] == expected
            assert all(len(masks) == cap for masks, _ in walked[:-1])
            kept = rule.kept[level]
            assert all(a is b for a, b in zip(walked, kept)) and len(kept) <= len(walked)
        held = sum(len(masks) for level in rule.kept for masks, _ in level)
        assert held == memo - rule.room <= memo


def test_find_saddle_one_kernel_call_per_chunk(monkeypatch):
    # A 7x7 game whose smallest weak saddle is the full product, so the scan
    # walks every level of both sides. A chunk holds up to 167 masks on a
    # 7-action side, so each of the 7 levels of 7, 21, 35, 35, 21, 7 and 1
    # masks is one chunk, and each chunk's sets are built once: 14 kernel
    # calls, one per level a side.
    g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 7, 7, 3, 3))
    builds = []
    build = kernels.non_dominators
    monkeypatch.setattr(kernels, "non_dominators", lambda *a: builds.append(a) or build(*a))
    assert find_saddle(g, WEAK) == g.full_product()
    assert len(builds) == 14


@pytest.mark.parametrize("mode", [WEAK, STRICT, WRS], ids=["weak", "strict", "weak-strict"])
def test_find_saddle_kernel_calls_within_element_budget(mode, monkeypatch):
    # On a 12x12 game whose only saddle is a 2x2 block, the scan walks the
    # 220 column masks of 3 actions for each single row, in chunks of the
    # cap of `_CHUNK_CELLS` // 144 masks on the row side: no kernel call
    # may make more than that many elements, at the default budget or at a
    # budget of 3 masks, and the block must come back either way.
    g = new_game(12, 12, [planted_block_entry(r, c) for r in range(12) for c in range(12)])
    block = ActionProduct((2, 3), (5, 6))
    builds = []
    build = kernels.non_dominators
    monkeypatch.setattr(kernels, "non_dominators", lambda *a: builds.append(a) or build(*a))
    for cells in (solver._CHUNK_CELLS, 3 * 144):
        monkeypatch.setattr(solver, "_CHUNK_CELLS", cells)
        builds.clear()
        assert find_saddle(g, mode) == block
        sizes = [len(a[3]) * a[2] ** 2 for a in builds]
        assert max(sizes) == cells // 144 * 144  # the cap was reached, not passed


# --- iterated elimination -------------------------------------------------


def test_iterated_elimination_need_not_reach_minimal(a1):
    # Nothing is dominated at the top level, so the fixpoint is the full
    # product even though the weak saddle is a strictly smaller 2x3 product.
    assert iterated_elimination(a1, WEAK) == a1.full_product()
    assert len(enumerate_saddles(a1, WEAK).saddles[0].row_set) == 2


def test_iterated_elimination_removes_strictly_dominated_row(a2):
    entries = [list(row) for row in a2.entries] + [[-1, -2, -3]]
    g = new_game(4, 3, [v for row in entries for v in row])
    result = iterated_elimination(g, STRICT)
    assert 3 not in result.row_set


def test_iterated_elimination_keeps_identical_actions():
    g = new_game(2, 2, [1, 1, 1, 1])
    assert iterated_elimination(g, WEAK) == g.full_product()


def test_iterated_elimination_weak_strict_fixpoint_can_lose_strictness():
    # Removing a column can strip the strict witness that justified an
    # earlier row removal: the fixpoint is then only a weak GSP, not a
    # weak-require-strict one. This is documented behaviour of the variant.
    g = new_game(2, 2, [0, 0, 0, 1])
    fixpoint = iterated_elimination(g, WRS)
    assert fixpoint == ActionProduct([1], [0])
    assert not is_gsp(g, fixpoint, WRS)
    assert is_gsp(g, fixpoint, WEAK)


def test_iterated_elimination_yields_gsp_containing_a_saddle():
    for trial in range(40):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 2, trial_seed(303, trial))
        )
        for mode in (WEAK, STRICT):
            fixpoint = iterated_elimination(g, mode)
            assert is_gsp(g, fixpoint, mode)
            assert any(fixpoint.contains(s) for s in enumerate_saddles(g, mode))


# --- permutation equivalence ----------------------------------------------


def test_permutation_witness_golden(a3):
    sub1 = a3.subgame(ActionProduct([0, 2], [0, 2]))  # [[2,1],[1,3]]
    sub2 = a3.subgame(ActionProduct([2, 3], [2, 4]))  # [[3,1],[1,2]]
    witness = permutation_equivalent(sub1, sub2)
    assert witness is not None
    assert witness.row_perm == (1, 0) and witness.col_perm == (1, 0)


def test_permutation_identity(a1):
    witness = permutation_equivalent(a1, a1)
    assert witness.row_perm == (0, 1, 2, 3)
    assert witness.col_perm == (0, 1, 2, 3, 4)


def test_permutation_absent_on_different_multisets():
    assert permutation_equivalent(new_game(1, 2, [0, 1]), new_game(1, 2, [1, 1])) is None
    # Same rank pattern, different values: ranks are only comparable across
    # games whose entry multisets agree.
    swap = new_game(2, 2, [0, 1, 1, 0])
    for other in ([0, 2, 2, 0], [0, "1/2", "1/2", 0]):
        assert permutation_equivalent(swap, new_game(2, 2, other)) is None


def test_permutation_absent_on_shape_mismatch():
    assert permutation_equivalent(new_game(1, 2, [0, 1]), new_game(2, 1, [0, 1])) is None


def test_permutation_witness_is_exact():
    for trial in range(30):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 2, trial_seed(404, trial))
        )
        rng_rows = [2, 0, 3, 1]
        rng_cols = [1, 3, 0, 2]
        shuffled = new_game(
            4,
            4,
            [g.entry(rng_rows.index(r), rng_cols.index(c)) for r in range(4) for c in range(4)],
        )
        witness = permutation_equivalent(g, shuffled)
        assert witness is not None
        for r in range(4):
            for c in range(4):
                assert g.entry(r, c) == shuffled.entry(
                    witness.row_perm[r], witness.col_perm[c]
                )


def _first_witness(a, b):
    # The lexicographically first row permutation that admits a column
    # permutation, with each column sent to the lowest free equal column.
    for row_perm in itertools.permutations(range(a.rows)):
        col_perm, free = [], list(range(b.cols))
        for j in range(a.cols):
            column = [a.entry(i, j) for i in range(a.rows)]
            match = next(
                (j2 for j2 in free
                 if column == [b.entry(row_perm[i], j2) for i in range(a.rows)]),
                None,
            )
            if match is None:
                break
            free.remove(match)
            col_perm.append(match)
        else:
            return row_perm, tuple(col_perm)
    return None


def _cloned(g, rng, extra_rows, extra_cols):
    # g with copies of random rows and then of random columns appended.
    rows = list(range(g.rows)) + rng.choices(range(g.rows), k=extra_rows)
    cols = list(range(g.cols)) + rng.choices(range(g.cols), k=extra_cols)
    return new_game(len(rows), len(cols), [g.entry(r, c) for r in rows for c in cols])


# Strictly increasing maps of the payoffs: the search may read only the order
# of the entries, so each map must leave the answer as it is.
INCREASING = (lambda v: 3 * v + Fraction(1, 7), lambda v: v**3)


def _mapped(g, f):
    return new_game(g.rows, g.cols, [f(v) for row in g.entries for v in row])


def _witness(a, b):
    witness = permutation_equivalent(a, b)
    return None if witness is None else (witness.row_perm, witness.col_perm)


def _found(a, b):
    found = _witness(a, b)
    for f in INCREASING:
        assert _witness(_mapped(a, f), _mapped(b, f)) == found
    return found


def test_permutation_witness_is_the_first_in_order():
    # Bound-1 games are full of equal rows and columns, so many witnesses tie.
    rng = random.Random(77)
    for trial in range(40):
        n, m = 2 + trial % 3, 2 + (trial // 3) % 3
        g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, m, 1, trial_seed(405, trial)))
        rows, cols = rng.sample(range(n), n), rng.sample(range(m), m)
        shuffled = new_game(n, m, [g.entry(rows[r], cols[c]) for r in range(n) for c in range(m)])
        assert _found(g, shuffled) == _first_witness(g, shuffled) is not None
    # Cloned rows and columns: every clone swaps with its original, so the
    # first witness must win among many ties.
    for trial in range(40):
        base = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 2 + trial % 2, 2 + trial % 3, 2,
                            trial_seed(406, trial))
        )
        g = _cloned(base, rng, 1 + trial % 2, 1 + trial % 3)
        n, m = g.rows, g.cols
        rows, cols = rng.sample(range(n), n), rng.sample(range(m), m)
        shuffled = new_game(n, m, [g.entry(rows[r], cols[c]) for r in range(n) for c in range(m)])
        assert _found(g, shuffled) == _first_witness(g, shuffled) is not None
    # Equal entry multisets with no witness: the search backtracks to the end.
    a, b = new_game(2, 2, [0, 1, 1, 0]), new_game(2, 2, [0, 1, 0, 1])
    assert _found(a, b) is None and _first_witness(a, b) is None
    # Entries dealt out again at random keep the multiset; a witness may or
    # may not exist, and the search must agree with the reference either way.
    absent = 0
    for trial in range(60):
        n, m = 2 + trial % 3, 2 + (trial // 3) % 3
        g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, m, 1, trial_seed(407, trial)))
        dealt = new_game(n, m, rng.sample(sorted(itertools.chain(*g.entries)), n * m))
        expected = _first_witness(g, dealt)
        assert _found(g, dealt) == expected
        absent += expected is None
    assert 10 < absent < 60


def test_permutation_equivalent_leaves_no_cyclic_garbage(a3):
    # Refcounting alone must free every frame and subgame of a call.
    gc.collect()
    gc.disable()
    try:
        assert permutation_equivalent(a3, a3) is not None
        # Same entry multiset, no witness: the search backtracks and fails.
        a, b = new_game(2, 2, [0, 1, 1, 0]), new_game(2, 2, [0, 1, 0, 1])
        assert permutation_equivalent(a, b) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- structural properties -------------------------------------------------


def _assert_answers_match_oracle(g):
    # Weak and strict enumeration read the minimum-size cells, weak-strict
    # and `minimal_saddles` the minimality filter; all must be the oracle's.
    entries = [list(row) for row in g.entries]
    for mode, token in ((WEAK, "weak"), (STRICT, "strict"), (WRS, "weak-strict")):
        expected = brute_saddles(entries, token)
        assert products(enumerate_saddles(g, mode)) == expected, token
        assert products(minimal_saddles(g, mode)) == expected, token
    assert products([strict_saddle(g)]) == brute_saddles(entries, "strict")


def test_enumeration_matches_brute_force_oracle():
    # Bound 2, bound 1 (tie-heavy), games with cloned rows and columns, and
    # non-integer rationals (the entries scaled by 1/3 and shifted by 1/2).
    rng = random.Random(505)
    for trial in range(40):
        rows = trial % 3 + 2
        cols = trial % 4 + 2
        for bound in (2, 1):
            g = generate(
                GeneratorConfig(
                    GeneratorKind.UNIFORM_INT, rows, cols, bound, trial_seed(505, trial)
                )
            )
            _assert_answers_match_oracle(g)
            _assert_answers_match_oracle(_cloned(g, rng, 1, 1))
            thirds = [Fraction(v, 3) + Fraction(1, 2) for row in g.entries for v in row]
            _assert_answers_match_oracle(new_game(rows, cols, thirds))


def test_saddles_are_minimal():
    for trial in range(25):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 2, trial_seed(606, trial))
        )
        for mode in (WEAK, STRICT):
            gsps = grid_gsps(GameAnalysis(g), mode)
            for saddle in enumerate_saddles(g, mode):
                for other in gsps:
                    assert not other.is_proper_subproduct_of(saddle)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_full_product_is_trivial_gsp(seed):
    g = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 3, 4, 3, seed))
    assert is_gsp(g, g.full_product(), WEAK)
    assert is_gsp(g, g.full_product(), STRICT)


def test_pure_saddle_point_induces_weak_gsp(a2):
    # The singleton product at a pure saddle point is itself a weak GSP.
    assert is_gsp(a2, ActionProduct([0], [0]), WEAK)


def test_every_pure_saddle_point_is_weak_gsp_randomized():
    from saddles import pure_saddle_points

    for trial in range(50):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 5, 2, trial_seed(711, trial))
        )
        for point in pure_saddle_points(g):
            assert is_gsp(g, ActionProduct([point.row], [point.col]), WEAK)


def test_weak_strict_variant_counterexample(a2):
    # Restricted to the first two rows and columns, the require-a-strict
    # variant admits two minimal GSPs of different shapes.
    sub = a2.subgame(ActionProduct([0, 1], [0, 1]))
    found = products(enumerate_saddles(sub, WRS))
    assert found == [((0, 1), (0,)), ((1,), (0, 1))]
    shapes = {(len(r), len(c)) for r, c in found}
    assert len(shapes) == 2
