import pytest

from saddles import (
    GameInputError,
    GeneratorConfig,
    GeneratorKind,
    generate,
    trial_seed,
)


def test_uniform_is_deterministic():
    cfg = GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 2, 42)
    assert generate(cfg).entries == generate(cfg).entries


def test_uniform_respects_bound():
    cfg = GeneratorConfig(GeneratorKind.UNIFORM_INT, 6, 7, 3, 11)
    g = generate(cfg)
    assert g.rows == 6 and g.cols == 7
    assert all(-3 <= v <= 3 for row in g.entries for v in row)


def test_distinct_entries_are_pairwise_distinct():
    cfg = GeneratorConfig(GeneratorKind.DISTINCT_INT, 3, 3, 100, 5)
    g = generate(cfg)
    flat = [v for row in g.entries for v in row]
    assert len(set(flat)) == 9
    assert all(-100 <= v <= 100 for v in flat)


def test_distinct_requires_enough_values():
    with pytest.raises(GameInputError):
        GeneratorConfig(GeneratorKind.DISTINCT_INT, 4, 4, 7, 0)


def test_confrontation_generator_satisfies_predicate():
    for seed in range(20):
        cfg = GeneratorConfig(GeneratorKind.CONFRONTATION, 5, 5, 3, seed)
        assert generate(cfg).is_confrontation()


def test_tournament_entries_are_unit():
    cfg = GeneratorConfig(GeneratorKind.TOURNAMENT, 5, 5, 9, 3)
    g = generate(cfg)
    assert g.is_confrontation()
    assert all(
        v in (-1, 1) for i, row in enumerate(g.entries) for j, v in enumerate(row) if i != j
    )


def test_largest_bound_generates_every_kind():
    # 2*bound + 1 must fit numpy's int64 for every generator.
    top = 2**62 - 1
    for kind in GeneratorKind:
        game = generate(GeneratorConfig(kind, 3, 3, top, 4))
        assert all(abs(v) <= top for row in game.entries for v in row)
    with pytest.raises(GameInputError, match="entry bound"):
        GeneratorConfig(GeneratorKind.UNIFORM_INT, 3, 3, top + 1, 0)


def test_square_requirement():
    with pytest.raises(GameInputError):
        GeneratorConfig(GeneratorKind.CONFRONTATION, 3, 4, 2, 0)
    with pytest.raises(GameInputError):
        GeneratorConfig(GeneratorKind.TOURNAMENT, 2, 5, 1, 0)


def test_trial_seed_is_stable_and_spread():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    seeds = {trial_seed(42, t) for t in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 1) != trial_seed(43, 1)
