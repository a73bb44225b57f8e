import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from saddles import (
    ActionProduct,
    GameInputError,
    format_rational,
    new_game,
    parse_rational,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_new_game_smallest():
    g = new_game(1, 1, [5])
    assert g.rows == 1 and g.cols == 1
    assert g.entry(0, 0) == Fraction(5)


def test_new_game_assigns_default_labels():
    g = new_game(2, 3, [1, 2, 3, 4, 5, 6])
    assert g.row_labels == ("r1", "r2")
    assert g.col_labels == ("c1", "c2", "c3")


def test_new_game_dimension_mismatch():
    with pytest.raises(GameInputError):
        new_game(2, 2, [1, 2, 3])


def test_new_game_rejects_floats():
    with pytest.raises(GameInputError):
        new_game(1, 1, [0.5])


def test_subgame_entries(a1, a2):
    sub = a1.subgame(ActionProduct([0, 1], [0, 1, 2]))
    assert sub.entries == (
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(3), Fraction(4)),
    )
    sub2 = a2.subgame(ActionProduct([1, 2], [1, 2]))
    assert sub2.entries == (
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    )


def test_subgame_full_product_is_identity(a3):
    assert a3.subgame(a3.full_product()).entries == a3.entries


def test_subgame_preserves_parent_labels(a1):
    sub = a1.subgame(ActionProduct([1, 3], [0, 4]))
    assert sub.row_labels == ("r2", "r4")
    assert sub.col_labels == ("c1", "c5")


def test_subgame_out_of_range(a2):
    with pytest.raises(GameInputError):
        a2.subgame(ActionProduct([0, 3], [0]))


def test_subgame_composition(a3):
    # Restricting twice equals restricting once to the inner product.
    outer = ActionProduct([0, 2, 3], [1, 2, 4])
    inner_within = ActionProduct([0, 2], [0, 2])  # positions inside outer
    direct = ActionProduct([0, 3], [1, 4])  # same actions in the original game
    assert a3.subgame(outer).subgame(inner_within).entries == a3.subgame(direct).entries


def test_skew_symmetry(a1, a2):
    # a2's diagonal is (0, 1, 1), so it is not skew-symmetric.
    assert not a2.is_skew_symmetric()
    assert not a1.is_skew_symmetric()  # not even square
    assert new_game(2, 2, [0, 1, -1, 0]).is_skew_symmetric()
    assert not new_game(2, 2, [0, 1, 1, 0]).is_skew_symmetric()
    assert new_game(3, 3, [0, 2, -1, -2, 0, 3, 1, -3, 0]).is_skew_symmetric()


def test_confrontation(a2):
    assert not a2.is_confrontation()
    assert new_game(2, 2, [0, 1, -1, 0]).is_confrontation()
    assert new_game(1, 1, [0]).is_confrontation()  # vacuous: no off-diagonal
    # skew-symmetric but with an off-diagonal zero
    assert not new_game(3, 3, [0, 0, -1, 0, 0, 3, 1, -3, 0]).is_confrontation()


def test_action_product_normalizes():
    p = ActionProduct([3, 1, 1], [0])
    assert p.row_set == (1, 3)


def test_action_product_rejects_empty():
    with pytest.raises(GameInputError):
        ActionProduct([], [0])


def test_action_product_containment():
    big = ActionProduct([0, 1, 2], [0, 1])
    small = ActionProduct([0, 2], [1])
    assert big.contains(small)
    assert small.is_proper_subproduct_of(big)
    assert not big.is_proper_subproduct_of(big)


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("2.5") == Fraction(5, 2)
    with pytest.raises(GameInputError):
        parse_rational("1/0")
    with pytest.raises(GameInputError):
        parse_rational("1/-2")
    with pytest.raises(GameInputError):
        parse_rational("abc")


@st.composite
def tied_games(draw):
    # Entries drawn from a short palette, so ties are common; the palette
    # mixes small rationals with ones of 30-digit denominators.
    palette = draw(st.lists(rationals | st.fractions(max_denominator=10**30), min_size=1,
                            max_size=6))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    flat = draw(st.lists(st.sampled_from(palette), min_size=rows * cols, max_size=rows * cols))
    return new_game(rows, cols, flat)


@given(tied_games())
@example(new_game(2, 70, [0] * 70 + ["1/3"] * 69 + ["-1/3"]))
@example(new_game(2, 2, [Fraction(1, 10**40), Fraction(-1, 10**40 + 1), 0, Fraction(1, 10**40)]))
def test_ranks_order_and_tie_as_entries(game):
    flat = [v for row in game.entries for v in row]
    ranks = [i for row in game.ranks for i in row]
    assert game.values == tuple(sorted(set(flat)))
    assert [game.values[i] for i in ranks] == flat
    for (v, i), (w, j) in itertools.product(zip(flat, ranks), repeat=2):
        assert (v < w) == (i < j) and (v == w) == (i == j)


def test_digest_depends_on_entries_only(a2):
    relabeled = new_game(
        3, 3, [0, 0, 0, 0, 1, -1, 0, -1, 1], row_labels=["x", "y", "z"]
    )
    assert relabeled.digest() == a2.digest()
    assert new_game(1, 1, [1]).digest() != new_game(1, 1, [2]).digest()
