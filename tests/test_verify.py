import json
import multiprocessing
import os
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from conftest import cloned_games
from oracles import brute_is_gsp
from saddles import (
    ActionProduct,
    CapacityError,
    CheckKind,
    DominanceMode,
    GameInputError,
    GeneratorConfig,
    GeneratorKind,
    MixedStrategyPair,
    TrialConfig,
    check_confrontation_uniqueness,
    check_distinct_uniqueness,
    check_subgame_restriction,
    check_nash_consistency,
    check_strict_uniqueness,
    check_interchangeability,
    check_min_size,
    enumerate_saddles,
    game_value,
    generate,
    new_game,
    run_trials,
    trial_seed,
)
from saddles import kernels, verify
from saddles.cli import main


def test_check_interchangeability_golden(a1, a3):
    verdict1 = check_interchangeability(a1)
    assert len(verdict1.saddles) == 1
    assert verdict1.ok and verdict1.interchange_ok and verdict1.equivalence_ok

    verdict3 = check_interchangeability(a3)
    assert len(verdict3.saddles) == 4
    assert verdict3.ok
    # 4 saddles -> 6 unordered pairs, each with a permutation witness
    assert len(verdict3.witnesses) == 6


def test_check_interchangeability_constant_game():
    g = new_game(2, 2, [1, 1, 1, 1])
    verdict = check_interchangeability(g)
    assert len(verdict.saddles) == 4
    assert verdict.ok


def test_check_interchangeability_negative_control(a2):
    # The require-a-strict variant breaks both properties on this subgame;
    # the verdict must report (not assert) the violations.
    sub = a2.subgame(ActionProduct([0, 1], [0, 1]))
    verdict = check_interchangeability(sub, DominanceMode.WEAK_REQUIRE_STRICT)
    assert len(verdict.saddles) == 2
    assert not verdict.equivalence_ok
    assert not verdict.ok
    assert any(v.startswith("equivalence: ") for v in verdict.violations)


def test_strict_uniqueness(a1, a2, a3):
    for game in (a1, a2, a3):
        assert check_strict_uniqueness(game).ok
    assert check_strict_uniqueness(new_game(1, 1, [9])).ok


def test_a_verdict_has_no_truth_value(a1):
    # `assert check(game)` would pass whatever the check found.
    for verdict in (check_strict_uniqueness(a1), check_interchangeability(a1)):
        assert verdict.ok and verdict.violations == ()
        with pytest.raises(TypeError, match="read its .ok"):
            bool(verdict)


def test_confrontation_uniqueness():
    assert check_confrontation_uniqueness(new_game(2, 2, [0, 1, -1, 0])).ok
    for seed in range(10):
        g = generate(GeneratorConfig(GeneratorKind.TOURNAMENT, 5, 5, 1, seed))
        assert check_confrontation_uniqueness(g).ok


def test_confrontation_uniqueness_rejects_other_games(a2):
    with pytest.raises(GameInputError):
        check_confrontation_uniqueness(a2)


def test_distinct_uniqueness_rejects_repeated_payoffs():
    assert check_distinct_uniqueness(new_game(2, 2, [1, 2, 3, 4])).ok
    with pytest.raises(GameInputError, match="pairwise-distinct payoffs"):
        check_distinct_uniqueness(new_game(2, 2, [1, 2, 3, 1]))


def test_nash_consistency_golden(a1, a2, a3):
    for game in (a1, a2, a3):
        verdict = check_nash_consistency(game)
        assert verdict.ok, verdict.violations


def _value_games():
    """Seeded games of every generator from 1x1 to 6x6 at bounds 1 to 3
    (distinct games get the bound their shape needs on top), then games over
    a rational palette up to 5x5."""
    for kind in GeneratorKind:
        square = kind in (GeneratorKind.CONFRONTATION, GeneratorKind.TOURNAMENT)
        for rows in range(1, 7):
            for cols in [rows] if square else range(1, 7):
                for bound in (1, 2, 3):
                    if kind is GeneratorKind.DISTINCT_INT:
                        bound += rows * cols // 2
                    seed = trial_seed(14, 100 * rows + 10 * cols + bound)
                    yield generate(GeneratorConfig(kind, rows, cols, bound, seed))
    rng = random.Random(14)
    palette = [Fraction(v) for v in ("1/3", "-5/2", "0", "-1", "1", "2/7")]
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        yield new_game(rows, cols, rng.choices(palette, k=rows * cols))


def test_weak_saddles_preserve_the_game_value():
    # check_nash_consistency certifies this through is_nash and no longer
    # compares values, so the comparison is asserted here on its own.
    for game in _value_games():
        value = game_value(game)
        for saddle in enumerate_saddles(game, DominanceMode.WEAK):
            assert game_value(game.subgame(saddle)) == value, game.to_text()


@pytest.mark.parametrize("tamper", ["value", "strategy"])
def test_nash_consistency_rejects_every_wrong_pair(monkeypatch, a1, tamper):
    # Integer games whose value is not an integer: no pure strategy is
    # optimal in any saddle's subgame, whose value is the game's, so a pure
    # row strategy is as wrong as a value one too high.
    games = [a1] + [
        g
        for g in (
            generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 2, seed))
            for seed in range(60)
        )
        if game_value(g).denominator > 1
    ]
    solve = verify.nash_equilibrium
    declared = []

    def wrong(subgame):
        pair = solve(subgame)
        if tamper == "value":
            pair = MixedStrategyPair(pair.row_strategy, pair.col_strategy, pair.value + 1)
        else:
            pure = (1,) + (0,) * (subgame.rows - 1)
            pair = MixedStrategyPair(pure, pair.col_strategy, pair.value)
        declared.append(pair.value)
        return pair

    monkeypatch.setattr(verify, "nash_equilibrium", wrong)
    assert len(games) > 10
    for game in games:
        declared.clear()
        verdict = check_nash_consistency(game)
        saddles = enumerate_saddles(game, DominanceMode.WEAK)
        assert not verdict.ok
        assert len(verdict.violations) == len(saddles) == len(declared)
        for saddle, value, detail in zip(saddles, declared, verdict.violations):
            assert f"saddle {saddle.row_set}x{saddle.col_set} " in detail
            assert f"(subgame value {value})" in detail


def test_subgame_restriction_golden(a1):
    full = a1.full_product()
    assert check_subgame_restriction(a1, full, ActionProduct([0, 1], [0, 1, 2])).ok
    assert check_subgame_restriction(a1, full, ActionProduct([1, 2], [3])).ok


def test_subgame_restriction_preconditions(a1):
    with pytest.raises(GameInputError):
        check_subgame_restriction(a1, ActionProduct([0], [0]), ActionProduct([0, 1], [0]))
    with pytest.raises(GameInputError):
        # {r1} x {c1} is not a weak GSP of this game
        check_subgame_restriction(a1, ActionProduct([0], [0]), ActionProduct([0], [0]))


def test_subgame_restriction_random_triples():
    for trial in range(100):
        g = generate(
            GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 3, trial_seed(1234, trial))
        )
        from saddles.verify import _sample_restriction_products

        outer, inner = _sample_restriction_products(g, 1234, trial)
        assert check_subgame_restriction(g, outer, inner).ok


def test_restriction_sampler_reaches_every_weak_gsp():
    # `0 1 / 0 0 / 0 0`: 11 of its 21 products are weak GSPs. Over 200
    # trials the sampler draws only weak GSPs, an inner product inside each,
    # and every weak GSP at least once.
    g = new_game(3, 2, [0, 1, 0, 0, 0, 0])
    weak_gsps = {
        (rows, cols)
        for rows in _subsets(g.rows)
        for cols in _subsets(g.cols)
        if brute_is_gsp(g.entries, rows, cols, "weak")
    }
    assert len(weak_gsps) == 11
    drawn = set()
    for trial in range(200):
        outer, inner = verify._sample_restriction_products(g, 77, trial)
        assert brute_is_gsp(g.entries, outer.row_set, outer.col_set, "weak")
        assert outer.contains(inner)
        drawn.add((outer.row_set, outer.col_set))
    assert drawn == weak_gsps


def _subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def _campaign(trials=25, kind=GeneratorKind.UNIFORM_INT, rows=4, cols=4, checks=None):
    return TrialConfig(
        trials=trials,
        generator=GeneratorConfig(kind, rows, cols, 3, 0),
        checks=checks or (CheckKind.INTERCHANGEABILITY, CheckKind.STRICT_UNIQUE),
        seed=90210,
    )


def test_run_trials_all_pass():
    report = run_trials(_campaign())
    assert report.all_passed
    assert [o.check for o in report.outcomes] == [
        CheckKind.INTERCHANGEABILITY,
        CheckKind.STRICT_UNIQUE,
    ]
    for outcome in report.outcomes:
        assert outcome.passed == 25 and outcome.failed == 0
        assert outcome.first_failure is None


def test_run_trials_deterministic_and_jobs_invariant():
    serial = run_trials(_campaign(), jobs=1).to_json_dict()
    parallel = run_trials(_campaign(), jobs=4).to_json_dict()
    serial.pop("duration_seconds")
    parallel.pop("duration_seconds")
    assert json.dumps(serial) == json.dumps(parallel)


def test_trial_config_validation():
    with pytest.raises(GameInputError):
        _campaign(trials=0)
    with pytest.raises(GameInputError):
        _campaign(checks=(CheckKind.CONFRONTATION_UNIQUE,))
    for kind in (GeneratorKind.UNIFORM_INT, GeneratorKind.CONFRONTATION, GeneratorKind.TOURNAMENT):
        with pytest.raises(GameInputError, match="needs the distinct generator"):
            _campaign(kind=kind, checks=(CheckKind.DISTINCT_UNIQUE,))
    cfg = _campaign(
        kind=GeneratorKind.TOURNAMENT,
        rows=4,
        cols=4,
        checks=(CheckKind.CONFRONTATION_UNIQUE,),
    )
    assert cfg.checks == (CheckKind.CONFRONTATION_UNIQUE,)


def test_trial_config_seed_range():
    for seed in (-1, 2**64):
        with pytest.raises(GameInputError, match="seed must fit in 64 bits"):
            TrialConfig(
                trials=1,
                generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 3, 3, 3, 0),
                checks=(CheckKind.STRICT_UNIQUE,),
                seed=seed,
            )
    assert _campaign().seed == 90210


def test_trial_config_refuses_shape_over_grid_budget(monkeypatch):
    def never(config):
        raise AssertionError("a game was generated")

    monkeypatch.setattr(verify, "generate", never)
    for rows, cols in ((16, 15), (1000, 1000), (10**18, 1)):
        with pytest.raises(CapacityError, match=f"{rows}x{cols}"):
            _campaign(rows=rows, cols=cols)
    for rows, cols in ((13, 3), (3, 13), (12, 12)):
        assert _campaign(rows=rows, cols=cols).generator.rows == rows


def test_run_trials_owns_the_jobs_policy(monkeypatch):
    # A fake pool records its size and runs the work serially: no process starts.
    requested = []

    class SerialPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    config = _campaign(trials=4)
    with pytest.raises(GameInputError, match="--jobs must be at least 1"):
        run_trials(config, jobs=0)
    serial = run_trials(config).to_json_dict()
    capped = run_trials(config, jobs=64).to_json_dict()
    assert requested == [3]
    serial.pop("duration_seconds")
    capped.pop("duration_seconds")
    assert capped == serial


def test_campaign_memory_does_not_grow_with_trials(monkeypatch):
    # With the trial body stubbed out, what is left is run_trials' own
    # bookkeeping, which must not hold every work item or result at once.
    def stub(args):
        config, trial = args
        return trial, [(check, True, "") for check in config.checks], None

    monkeypatch.setattr(verify, "_run_trial", stub)
    config = _campaign(trials=20_000)
    tracemalloc.start()
    try:
        report = run_trials(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [o.passed for o in report.outcomes] == [20_000, 20_000]
    assert peak < 64 * 1024, peak


def test_checks_normalized_to_canonical_order():
    cfg = _campaign(checks=(CheckKind.STRICT_UNIQUE, CheckKind.INTERCHANGEABILITY, CheckKind.INTERCHANGEABILITY))
    assert cfg.checks == (CheckKind.INTERCHANGEABILITY, CheckKind.STRICT_UNIQUE)


def test_failure_witness_is_replayable(monkeypatch):
    # Force a failure with saddle sets that hold every saddle twice; the
    # witness must replay to the same game.
    _doubled_saddles(monkeypatch)
    config = TrialConfig(
        trials=40,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 1, 0),
        checks=(CheckKind.STRICT_UNIQUE,),
        seed=7,
    )
    report = run_trials(config)
    outcome = report.outcomes[0]
    assert outcome.failed > 0
    witness = outcome.first_failure
    assert witness is not None
    replayed = generate(
        GeneratorConfig(GeneratorKind.UNIFORM_INT, 4, 4, 1, witness.seed)
    )
    assert replayed.to_text() == witness.game_text
    assert witness.seed == trial_seed(7, witness.trial)


def _doubled_saddles(monkeypatch):
    # Every saddle set comes back with each saddle twice: no saddle is unique.
    real = verify.minimal_saddles

    def doubled(subject, mode):
        found = real(subject, mode)
        return replace(found, saddles=found.saddles * 2)

    monkeypatch.setattr(verify, "minimal_saddles", doubled)


def _no_permutation(monkeypatch):
    monkeypatch.setattr(verify, "permutation_equivalent", lambda a, b: None)


def _subgame_side_flipped(monkeypatch):
    # `is_gsp` answers as before on the trial's game, the first it is asked
    # about, and the opposite on any other, the outer product's subgame.
    real, games = verify.is_gsp, []

    def flipped(game, product, mode):
        games.append(game)
        return real(game, product, mode) is (game is games[0])

    monkeypatch.setattr(verify, "is_gsp", flipped)


def _no_nash(monkeypatch):
    monkeypatch.setattr(verify, "is_nash", lambda game, pair: False)


def _every_gsp_minimum(monkeypatch):
    monkeypatch.setattr(kernels, "min_size_cells", kernels.grid_cells)


# Per check: the generator, the campaign seed, the patch that makes the check
# fail on that seed's single trial, and the failure's detail, byte for byte.
FAILURES = {
    CheckKind.INTERCHANGEABILITY: (
        GeneratorKind.UNIFORM_INT, 7, _no_permutation,
        "equivalence: (0,)x(2,) vs (1,)x(2,); equivalence: (0,)x(2,) vs (2,)x(2,); "
        "equivalence: (1,)x(2,) vs (2,)x(2,)",
    ),
    CheckKind.STRICT_UNIQUE: (
        GeneratorKind.UNIFORM_INT, 7, _doubled_saddles, "strict saddle not unique"
    ),
    CheckKind.CONFRONTATION_UNIQUE: (
        GeneratorKind.TOURNAMENT, 7, _doubled_saddles,
        "weak saddle not unique in confrontation game",
    ),
    CheckKind.DISTINCT_UNIQUE: (
        GeneratorKind.DISTINCT_INT, 7, _doubled_saddles,
        "weak/strict saddles differ on distinct payoffs",
    ),
    CheckKind.SUBGAME_RESTRICTION: (
        GeneratorKind.UNIFORM_INT, 7, _subgame_side_flipped,
        "restriction biconditional failed for outer (1, 2)x(2,), inner (1, 2)x(2,)",
    ),
    CheckKind.NASH_CONSISTENCY: (
        GeneratorKind.UNIFORM_INT, 5, _no_nash,
        "equilibrium of saddle (1, 2)x(0, 1) (subgame value 1/2) is not an equilibrium "
        "of the game; equilibrium of saddle (1, 2)x(0, 2) (subgame value 1/2) is not an "
        "equilibrium of the game",
    ),
    CheckKind.MIN_SIZE: (
        GeneratorKind.UNIFORM_INT, 5, _every_gsp_minimum,
        "weak: saddles (1, 2)x(0, 1), (1, 2)x(0, 2) but minimum-size GSPs "
        "(0, 1, 2)x(0, 1), (0, 1, 2)x(0, 1, 2), (0, 1, 2)x(0, 2), (1, 2)x(0, 1), "
        "(1, 2)x(0, 1, 2), (1, 2)x(0, 2); strict: saddles (1, 2)x(0, 1, 2) but "
        "minimum-size GSPs (0, 1, 2)x(0, 1, 2), (1, 2)x(0, 1, 2)",
    ),
}


@pytest.mark.parametrize("check", list(CheckKind), ids=lambda k: k.value)
def test_each_check_reports_its_failure_text(monkeypatch, check):
    kind, seed, patch, detail = FAILURES[check]
    patch(monkeypatch)
    # The distinct generator needs 2 * bound + 1 >= 9 values for a 3x3 game.
    bound = 4 if kind is GeneratorKind.DISTINCT_INT else 1
    config = TrialConfig(
        trials=1,
        generator=GeneratorConfig(kind, 3, 3, bound, 0),
        checks=(check,),
        seed=seed,
    )
    (outcome,) = run_trials(config).outcomes
    assert (outcome.passed, outcome.failed) == (0, 1)
    assert outcome.first_failure.detail == detail


def test_check_kind_token_round_trip():
    for kind in CheckKind:
        assert CheckKind.from_token(kind.value) is kind
    with pytest.raises(GameInputError):
        CheckKind.from_token("bogus")


# The four checks of the benchmark's campaign workload.
BENCH_CHECKS = (
    CheckKind.INTERCHANGEABILITY,
    CheckKind.STRICT_UNIQUE,
    CheckKind.SUBGAME_RESTRICTION,
    CheckKind.NASH_CONSISTENCY,
)


@pytest.mark.parametrize("bound", [1, 3])
def test_min_size_campaign(bound):
    # The minimum-size rule holds on every trial; it is not a default check,
    # so default campaign reports are unchanged.
    assert all(CheckKind.MIN_SIZE not in checks for checks in verify.DEFAULT_CHECKS.values())
    config = TrialConfig(
        trials=200,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, bound, 0),
        checks=(CheckKind.MIN_SIZE,),
        seed=2021,
    )
    (outcome,) = run_trials(config).outcomes
    assert (outcome.check, outcome.passed, outcome.failed) == (CheckKind.MIN_SIZE, 200, 0)


@settings(max_examples=80, deadline=None)
@given(cloned_games(max_size=5))
@example(new_game(3, 2, [0, 1, 0, 0, 0, 0]))
def test_min_size_holds_on_cloned_games(game):
    assert check_min_size(game) == verify.CheckVerdict(ok=True)


def test_min_size_reports_a_wrong_walk(monkeypatch, a2):
    # A walk that returned every GSP is caught, with both lists named.
    monkeypatch.setattr(kernels, "min_size_cells", kernels.grid_cells)
    verdict = check_min_size(a2)
    assert not verdict.ok
    assert verdict.violations[0].startswith("weak: saddles (0,)x(0,) but minimum-size GSPs ")
    config = TrialConfig(
        trials=3,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 3, 3, 1, 0),
        checks=(CheckKind.MIN_SIZE,),
        seed=4,
    )
    (outcome,) = run_trials(config).outcomes
    assert outcome.failed == 3 and "minimum-size GSPs" in outcome.first_failure.detail


def test_referees_never_read_the_walk(monkeypatch, capsys, tmp_path, a3):
    # With the minimum-size walk made to raise, weak and strict enumeration
    # fail, but weak-strict enumeration, `check` in every mode and a
    # campaign of the benchmark's four checks still answer, so all of them
    # read the minimality filter.
    path = tmp_path / "a3.game"
    path.write_text(a3.to_text())
    expected = {}
    for mode in DominanceMode:
        assert main(["check", str(path), "--mode", mode.value, "--json"]) in (0, 1)
        expected[mode] = capsys.readouterr().out

    class WalkRead(Exception):
        pass

    def unreachable(*args):
        raise WalkRead

    monkeypatch.setattr(kernels, "min_size_cells", unreachable)
    for mode in (DominanceMode.WEAK, DominanceMode.STRICT):
        with pytest.raises(WalkRead):
            enumerate_saddles(a3, mode)
    enumerate_saddles(a3, DominanceMode.WEAK_REQUIRE_STRICT)
    for mode in DominanceMode:
        main(["check", str(path), "--mode", mode.value, "--json"])
        assert capsys.readouterr().out == expected[mode]
    for bound in (1, 3):
        config = TrialConfig(
            trials=40,
            generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, bound, 0),
            checks=BENCH_CHECKS,
            seed=31,
        )
        assert run_trials(config).all_passed
