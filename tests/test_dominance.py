import pytest
from hypothesis import given
from hypothesis import strategies as st

from saddles import (
    DominanceMode,
    GameInputError,
    col_dominates,
    new_game,
    row_dominates,
    set_dominates_cols,
    set_dominates_rows,
)

WEAK = DominanceMode.WEAK
STRICT = DominanceMode.STRICT
WRS = DominanceMode.WEAK_REQUIRE_STRICT


@st.composite
def small_games(draw, max_side=5):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    flat = draw(
        st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols)
    )
    return new_game(rows, cols, flat)


def test_row_dominance_on_equal_rows(a1):
    # r1 and r4 agree on the first three columns: weak yes, strict no.
    assert row_dominates(a1, 0, 3, [0, 1, 2], WEAK)
    assert not row_dominates(a1, 0, 3, [0, 1, 2], STRICT)
    assert not row_dominates(a1, 0, 3, [0, 1, 2], WRS)


def test_row_dominance_requires_strict(a2):
    assert row_dominates(a2, 1, 2, [1], WRS)  # 1 > -1


def test_col_dominance_examples(a2):
    assert col_dominates(a2, 0, 1, [0, 1], WEAK)
    assert not col_dominates(a2, 0, 2, [1], WEAK)  # 0 <= -1 fails
    assert col_dominates(a2, 1, 1, [0, 2], WEAK)  # reflexivity


def test_empty_restriction_rejected(a1):
    with pytest.raises(GameInputError):
        row_dominates(a1, 0, 1, [], WEAK)
    with pytest.raises(GameInputError):
        col_dominates(a1, 0, 1, [], WEAK)


def test_set_dominance_witness(a1):
    witness = set_dominates_rows(a1, [0, 1], [2, 3], [0, 1, 2], WEAK)
    assert witness.mapping == {2: 1, 3: 0}


def test_set_dominance_vacuous(a1):
    witness = set_dominates_rows(a1, [0], [], [0, 1], STRICT)
    assert witness is not None and len(witness) == 0


def test_set_dominance_absent(a2):
    assert set_dominates_rows(a2, [0], [1], [1], WEAK) is None
    assert set_dominates_cols(a2, [1], [2], [1, 2], WEAK) is None


def test_set_dominance_accepts_one_shot_restriction():
    # Row 0 fails to dominate row 2, so row 1 is tested against the same
    # restriction; a generator must not run dry after the first test.
    g = new_game(3, 2, [0, 0, 1, 1, 0, 1])
    found = set_dominates_rows(g, [0, 1], [2], iter([0, 1]), WEAK)
    assert found is not None and dict(found.mapping) == {2: 1}
    g = new_game(2, 3, [1, 0, 0, 1, 0, 1])
    found = set_dominates_cols(g, [0, 1], [2], (r for r in range(2)), WEAK)
    assert found is not None and dict(found.mapping) == {2: 1}


def test_set_dominance_cols_exists(a1):
    witness = set_dominates_cols(a1, [0, 1, 2], [3, 4], [0, 1], WEAK)
    assert witness is not None
    assert set(witness.mapping) == {3, 4}


@given(small_games(), st.data())
def test_weak_reflexive_and_mode_chain(game, data):
    r1 = data.draw(st.integers(0, game.rows - 1))
    r2 = data.draw(st.integers(0, game.rows - 1))
    cols = data.draw(
        st.lists(st.integers(0, game.cols - 1), min_size=1, unique=True)
    )
    assert row_dominates(game, r1, r1, cols, WEAK)
    if row_dominates(game, r1, r2, cols, STRICT):
        assert row_dominates(game, r1, r2, cols, WRS)
    if row_dominates(game, r1, r2, cols, WRS):
        assert row_dominates(game, r1, r2, cols, WEAK)


@given(small_games(), st.data())
def test_transitivity(game, data):
    idx = st.integers(0, game.rows - 1)
    r1, r2, r3 = data.draw(idx), data.draw(idx), data.draw(idx)
    cols = data.draw(
        st.lists(st.integers(0, game.cols - 1), min_size=1, unique=True)
    )
    for mode in (WEAK, STRICT):
        if row_dominates(game, r1, r2, cols, mode) and row_dominates(
            game, r2, r3, cols, mode
        ):
            assert row_dominates(game, r1, r3, cols, mode)


@given(small_games(), st.data())
def test_row_col_duality(game, data):
    # Row dominance in G equals column dominance in the negated transpose.
    flipped = new_game(
        game.cols,
        game.rows,
        [-game.entry(r, c) for c in range(game.cols) for r in range(game.rows)],
    )
    r1 = data.draw(st.integers(0, game.rows - 1))
    r2 = data.draw(st.integers(0, game.rows - 1))
    cols = data.draw(
        st.lists(st.integers(0, game.cols - 1), min_size=1, unique=True)
    )
    for mode in (WEAK, STRICT, WRS):
        assert row_dominates(game, r1, r2, cols, mode) == col_dominates(
            flipped, r1, r2, cols, mode
        )


@given(small_games(), st.data())
def test_weak_dominance_survives_shrinking(game, data):
    r1 = data.draw(st.integers(0, game.rows - 1))
    r2 = data.draw(st.integers(0, game.rows - 1))
    big = data.draw(
        st.lists(st.integers(0, game.cols - 1), min_size=1, unique=True)
    )
    small = data.draw(st.lists(st.sampled_from(big), min_size=1, unique=True))
    if row_dominates(game, r1, r2, big, WEAK):
        assert row_dominates(game, r1, r2, small, WEAK)
