"""Input checks that no other test reaches: each raises its documented type
with its documented message."""

from fractions import Fraction

import pytest

from saddles import (
    ActionProduct,
    CapacityError,
    CheckKind,
    DominanceMode,
    GameInputError,
    GeneratorConfig,
    GeneratorKind,
    MixedStrategyPair,
    PropertyViolationError,
    ResultDocument,
    SaddleSet,
    TrialConfig,
    ZeroSumGame,
    col_dominates,
    embed_strategy,
    emit_result,
    format_rational,
    new_game,
    parse_rational,
    row_dominates,
    set_dominates_cols,
    set_dominates_rows,
    solver,
    strict_saddle,
)

U = GeneratorKind.UNIFORM_INT
WEAK = DominanceMode.WEAK
ONE = (Fraction(1),)


def _game():
    return new_game(2, 3, [1, 2, 3, 4, 5, 6])


def _two_strict_saddles(monkeypatch):
    # strict_saddle reads enumerate_saddles from its own module.
    found = SaddleSet((ActionProduct((0,), (0,)), ActionProduct((1,), (1,))))
    monkeypatch.setattr(solver, "enumerate_saddles", lambda analysis, mode: found)
    return strict_saddle(_game())


CASES = [
    ("rational-numerator", lambda mp: parse_rational("x/2"), GameInputError,
     "malformed rational token 'x/2'"),
    ("rational-denominator", lambda mp: parse_rational("1/x"), GameInputError,
     "malformed rational token '1/x'"),
    ("product-negative", lambda mp: ActionProduct((-1,), (0,)), GameInputError,
     "action indices must be nonnegative"),
    ("game-empty", lambda mp: ZeroSumGame(entries=()), GameInputError,
     "at least one row and one column"),
    ("game-ragged", lambda mp: ZeroSumGame(entries=((1, 2), (3,))), GameInputError,
     "ragged payoff matrix"),
    ("game-label-count", lambda mp: new_game(1, 2, [1, 2], row_labels=["a", "b"]),
     GameInputError, "label count does not match matrix shape"),
    ("game-row-labels", lambda mp: new_game(2, 1, [1, 2], row_labels=["a", "a"]),
     GameInputError, "row labels must be unique"),
    ("game-col-labels", lambda mp: new_game(1, 2, [1, 2], col_labels=["a", "a"]),
     GameInputError, "column labels must be unique"),
    ("new-game-shape", lambda mp: new_game(0, 1, []), GameInputError,
     "need at least 1x1, got 0x1"),
    ("strategy-float", lambda mp: MixedStrategyPair((0.5, 0.5), ONE, 0), GameInputError,
     "must be exact, not floats"),
    ("embed-outside",
     lambda mp: embed_strategy(
         MixedStrategyPair(ONE, ONE, 0), ActionProduct((2,), (0,)), 2, 2
     ),
     GameInputError, "product does not fit the requested dimensions"),
    ("generator-rows", lambda mp: GeneratorConfig(U, 0, 3, 1, 0), GameInputError,
     "generator needs rows >= 1 and cols >= 1"),
    ("generator-seed", lambda mp: GeneratorConfig(U, 3, 3, 1, 2**64), GameInputError,
     "seed must fit in 64 bits"),
    ("emit-format", lambda mp: emit_result(ResultDocument(), "yaml"), GameInputError,
     "unknown output format 'yaml'"),
    ("campaign-no-checks",
     lambda mp: TrialConfig(1, GeneratorConfig(U, 3, 3, 1, 0), (), 0),
     GameInputError, "a campaign needs at least one check"),
    ("format-too-long", lambda mp: format_rational(Fraction(10**5000)), CapacityError,
     "over the integer-string limit"),
    ("strict-not-unique", _two_strict_saddles, PropertyViolationError,
     "expected exactly one strict saddle, found 2"),
    ("mode-token", lambda mp: DominanceMode.from_token("weakest"), GameInputError,
     "unknown dominance mode 'weakest'; expected one of "
     "['weak', 'strict', 'weak-strict']"),
    ("check-token", lambda mp: CheckKind.from_token("bogus"), GameInputError,
     "unknown check 'bogus'; expected one of ['interchangeability', 'strict_unique', "
     "'confrontation_unique', 'distinct_unique', 'subgame_restriction', "
     "'nash_consistency', 'min_size']"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_check_raises(monkeypatch, call, error, message):
    with pytest.raises(error) as raised:
        call(monkeypatch)
    assert message in str(raised.value)


# A pair question checks its two actions before its restriction, and an
# out-of-range message names the offending one-action set.
DOMINANCE_CASES = [
    ("row-second", lambda: row_dominates(_game(), 0, 7, [0], WEAK),
     "row index out of range: (7,)"),
    ("row-first", lambda: row_dominates(_game(), 7, 0, [0], WEAK),
     "row index out of range: (7,)"),
    ("row-negative", lambda: row_dominates(_game(), -1, 0, [0], WEAK),
     "row index out of range: (-1,)"),
    ("col-second", lambda: col_dominates(_game(), 0, 5, [0], WEAK),
     "column index out of range: (5,)"),
    ("row-before-empty-restriction", lambda: row_dominates(_game(), 9, 0, [], WEAK),
     "row index out of range: (9,)"),
    ("row-before-restriction-range", lambda: row_dominates(_game(), 0, 9, [99], WEAK),
     "row index out of range: (9,)"),
    ("col-before-restriction-range", lambda: col_dominates(_game(), 9, 0, [-1], WEAK),
     "column index out of range: (9,)"),
    ("restriction-range", lambda: row_dominates(_game(), 0, 1, [3], WEAK),
     "column index out of range: (3,)"),
    ("set-dominating", lambda: set_dominates_rows(_game(), [0, 4], [1], [0], WEAK),
     "row index out of range: (0, 4)"),
    ("set-dominated-before-restriction",
     lambda: set_dominates_rows(_game(), [0], [5], [], WEAK),
     "row index out of range: (5,)"),
    ("set-restriction", lambda: set_dominates_cols(_game(), [0], [1], [0, 2], WEAK),
     "row index out of range: (0, 2)"),
    ("set-empty-restriction", lambda: set_dominates_cols(_game(), [0], [1], [], WEAK),
     "dominance needs a nonempty restriction set"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in DOMINANCE_CASES], ids=[c[0] for c in DOMINANCE_CASES]
)
def test_dominance_index_errors(call, message):
    with pytest.raises(GameInputError) as raised:
        call()
    assert str(raised.value) == message


def test_set_dominance_without_a_pair_reads_no_restriction():
    # Nothing is compared, so the restriction is never checked.
    assert set_dominates_rows(_game(), [0], [], [], WEAK).mapping == {}
    assert set_dominates_cols(_game(), [], [1], [7], WEAK) is None
