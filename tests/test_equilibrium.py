import random
from fractions import Fraction
from math import lcm, prod

import pytest

from saddles import (
    ActionProduct,
    DominanceMode,
    GameInputError,
    GeneratorConfig,
    GeneratorKind,
    MixedStrategyPair,
    PureSaddlePoint,
    embed_strategy,
    enumerate_saddles,
    equilibrium,
    game_value,
    generate,
    is_nash,
    nash_equilibrium,
    new_game,
    pure_saddle_points,
    trial_seed,
)

from oracles import support_enumeration_value

HALF = Fraction(1, 2)


def test_pure_saddle_points_golden(a2):
    assert pure_saddle_points(a2) == (PureSaddlePoint(0, 0),)


def test_matching_pennies_has_no_pure_saddle():
    g = new_game(2, 2, [1, -1, -1, 1])
    assert pure_saddle_points(g) == ()
    assert game_value(g) == 0


def test_constant_game_every_cell_is_saddle():
    g = new_game(2, 2, [3, 3, 3, 3])
    assert len(pure_saddle_points(g)) == 4
    assert game_value(g) == 3


def test_game_values_golden(a1, a2):
    assert game_value(a2) == 0
    assert game_value(a1) == Fraction(4, 3)
    assert game_value(new_game(1, 1, [Fraction(-7, 3)])) == Fraction(-7, 3)


def test_value_agrees_with_support_oracle(a1, a3):
    for game in (a1, a3):
        entries = [list(row) for row in game.entries]
        assert game_value(game) == support_enumeration_value(entries)


def test_value_agrees_with_support_oracle_on_rational_games():
    # Non-integer entries with unlike denominators, up to 4x4; small
    # numerators make ties and degenerate supports common.
    rng = random.Random(1412)
    for trial in range(120):
        rows, cols = trial % 4 + 1, (trial // 4) % 4 + 1
        entries = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 6))) for _ in range(cols)]
            for _ in range(rows)
        ]
        game = new_game(rows, cols, [v for row in entries for v in row])
        assert game_value(game) == support_enumeration_value(entries)
        assert is_nash(game, nash_equilibrium(game))


def test_nash_equilibrium_is_nash(a1, a2, a3):
    for game in (a1, a2, a3):
        pair = nash_equilibrium(game)
        assert is_nash(game, pair)


def test_nash_equilibrium_deterministic(a3):
    assert nash_equilibrium(a3) == nash_equilibrium(a3)


def test_nash_equilibrium_self_consistent_on_random_games():
    for trial in range(40):
        rows = trial % 4 + 1
        cols = trial % 3 + 1
        g = generate(
            GeneratorConfig(
                GeneratorKind.UNIFORM_INT, rows, cols, 3, trial_seed(515, trial)
            )
        )
        assert is_nash(g, nash_equilibrium(g))


def test_stated_mixed_equilibrium_passes(a2):
    # (1/2 r2 + 1/2 r3, 1/2 c2 + 1/2 c3) with value 0.
    pair = MixedStrategyPair((0, HALF, HALF), (0, HALF, HALF), Fraction(0))
    assert is_nash(a2, pair)


def test_pure_point_mass_equilibrium(a2):
    pair = MixedStrategyPair((1, 0, 0), (1, 0, 0), Fraction(0))
    assert is_nash(a2, pair)


def test_non_equilibrium_rejected(a2):
    # Point masses on (r2, c2): the column player deviates to c3.
    pair = MixedStrategyPair((0, 1, 0), (0, 1, 0), Fraction(1))
    assert not is_nash(a2, pair)


def test_optimal_strategies_with_wrong_value_rejected(a1, a2, a3):
    for game in (a1, a2, a3):
        pair = nash_equilibrium(game)
        for value in (pair.value - 1, pair.value + 1):
            off = MixedStrategyPair(pair.row_strategy, pair.col_strategy, value)
            assert not is_nash(game, off)


def test_is_nash_dimension_mismatch(a2):
    pair = MixedStrategyPair((1,), (1,), Fraction(0))
    with pytest.raises(GameInputError):
        is_nash(a2, pair)


def test_strategy_pair_validation():
    with pytest.raises(GameInputError):
        MixedStrategyPair((HALF, HALF + 1), (1,), Fraction(0))
    with pytest.raises(GameInputError):
        MixedStrategyPair((-1, 2), (1,), Fraction(0))


def test_skew_symmetric_value_zero():
    for seed in range(15):
        g = generate(GeneratorConfig(GeneratorKind.CONFRONTATION, 5, 5, 3, seed))
        assert game_value(g) == 0


def test_lp_duality_via_negated_transpose():
    # The column player's problem in G is the row player's in -G^T.
    for trial in range(25):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 5, 3, trial_seed(808, trial))
        )
        flipped = new_game(
            g.cols,
            g.rows,
            [-g.entry(r, c) for c in range(g.cols) for r in range(g.rows)],
        )
        assert game_value(flipped) == -game_value(g)


def test_pure_saddle_entry_equals_value():
    for trial in range(40):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 2, trial_seed(909, trial))
        )
        for point in pure_saddle_points(g):
            assert g.entry(point.row, point.col) == game_value(g)


def test_embed_strategy_golden(a1):
    saddle = ActionProduct([0, 1], [0, 1, 2])
    sub = a1.subgame(saddle)
    pair = nash_equilibrium(sub)
    embedded = embed_strategy(pair, saddle, a1.rows, a1.cols)
    assert len(embedded.row_strategy) == 4
    assert len(embedded.col_strategy) == 5
    rows_support, cols_support = embedded.support()
    assert set(rows_support) <= set(saddle.row_set)
    assert set(cols_support) <= set(saddle.col_set)
    assert embedded.value == pair.value == Fraction(4, 3)
    assert is_nash(a1, embedded)


def test_embed_identity(a2):
    pair = nash_equilibrium(a2)
    assert embed_strategy(pair, a2.full_product(), 3, 3) == pair


def test_embed_point_mass():
    pair = MixedStrategyPair((1,), (1,), Fraction(5))
    embedded = embed_strategy(pair, ActionProduct([2], [1]), 4, 3)
    assert embedded.row_strategy == (0, 0, 1, 0)
    assert embedded.col_strategy == (0, 1, 0)


def test_embed_dimension_mismatch(a2):
    pair = nash_equilibrium(a2)
    with pytest.raises(GameInputError):
        embed_strategy(pair, ActionProduct([0], [0]), 3, 3)


def test_saddle_subgames_preserve_value(a1, a2, a3):
    for game in (a1, a2, a3):
        value = game_value(game)
        for saddle in enumerate_saddles(game, DominanceMode.WEAK):
            assert game_value(game.subgame(saddle)) == value


def test_lp_rows_keep_their_own_denominators(monkeypatch):
    # Each LP row is scaled by the lcm of its own denominators and the least
    # entry's, so its integers are as long as the row's, not the whole game's
    # (one lcm for all 36 primes below would make every entry 60 digits long).
    primes = [p for p in range(2, 152) if all(p % q for q in range(2, p))]
    game = new_game(6, 6, [Fraction(1, p) for p in primes])
    rows = [primes[6 * i : 6 * i + 6] for i in range(6)]
    solve, seen = equilibrium.solve_packing_lp, []
    monkeypatch.setattr(
        equilibrium, "solve_packing_lp", lambda P, b: seen.append(b) or solve(P, b)
    )
    pair = nash_equilibrium(game)
    assert seen == [[lcm(151, prod(row)) for row in rows]]
    assert is_nash(game, pair)
