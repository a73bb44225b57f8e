"""Exact game values, Nash equilibria, and pure saddle points.

Everything is computed over rationals; `game_value` and `nash_equilibrium`
share one exact LP solve, so the returned value and strategies are
consistent by construction and verifiable with `is_nash`. A game over the
LP budgets (`errors.MAX_LP_CELLS`, `errors.MAX_LP_BITS`) raises
CapacityError before the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

from .errors import MAX_LP_BITS, CapacityError, GameInputError, check_lp_budget
from .game import ActionProduct, ZeroSumGame
from .simplex import solve_packing_lp


@dataclass(frozen=True)
class PureSaddlePoint:
    """A cell that is simultaneously a column maximum and a row minimum."""

    row: int
    col: int


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise GameInputError("probabilities and values must be exact, not floats")
    return Fraction(value)


def _exact_vector(vec) -> tuple[Fraction, ...]:
    return tuple(_exact(p) for p in vec)


@dataclass(frozen=True)
class MixedStrategyPair:
    """Mixed strategies for both players plus the row player's expected payoff."""

    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "row_strategy", _exact_vector(self.row_strategy))
        object.__setattr__(self, "col_strategy", _exact_vector(self.col_strategy))
        object.__setattr__(self, "value", _exact(self.value))
        for vec in (self.row_strategy, self.col_strategy):
            if any(p < 0 for p in vec):
                raise GameInputError("strategy probabilities must be nonnegative")
            if sum(vec) != 1:
                raise GameInputError("strategy probabilities must sum to exactly 1")

    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            tuple(i for i, p in enumerate(self.row_strategy) if p > 0),
            tuple(j for j, p in enumerate(self.col_strategy) if p > 0),
        )


def pure_saddle_points(game: ZeroSumGame) -> tuple[PureSaddlePoint, ...]:
    """All cells maximal in their column and minimal in their row, row-major."""
    out = []
    for r in range(game.rows):
        for c in range(game.cols):
            v = game.entry(r, c)
            if all(v >= game.entry(r2, c) for r2 in range(game.rows)) and all(
                v <= game.entry(r, c2) for c2 in range(game.cols)
            ):
                out.append(PureSaddlePoint(r, c))
    return tuple(out)


def _row_scales(game: ZeroSumGame, low: Fraction) -> list[int]:
    """d_i, the lcm of row i's denominators and low's, for every row.

    Every entry of A + 1 - low is at most span = ceil(max - low) + 1, so the
    bit lengths of row i's scaled entries are at most bits(d_i) + bits(span).
    Raises CapacityError when their sum over rows passes MAX_LP_BITS; each
    lcm grows one entry at a time under that check, so none grows far past
    the budget first.
    """
    span_bits = (ceil(max(map(max, game.entries)) - low) + 1).bit_length()
    d, bits = [], 0
    for row in game.entries:
        di = low.denominator
        for v in row:
            di = lcm(di, v.denominator)
            if bits + di.bit_length() + span_bits > MAX_LP_BITS:
                raise CapacityError(
                    f"the exact LP of a {game.rows}x{game.cols} game needs integers over "
                    f"the budget of {MAX_LP_BITS} bits ({len(str(1 << MAX_LP_BITS))} "
                    "digits): the bit lengths of its rows' longest scaled entries sum past it"
                )
        d.append(di)
        bits += di.bit_length() + span_bits
    return d


def _solve_lp(game: ZeroSumGame):
    # The game LP, max sum(u) s.t. (A + 1 - low) u <= 1, u >= 0, with row i
    # times d_i, the lcm of its denominators and low's: positive integers as
    # short as the row's own. u / sum(u) is the column strategy,
    # d_i * dual_i / sum(u) the row strategy, 1 / sum(u) - 1 + low the value.
    check_lp_budget(game.rows, game.cols)
    low = min(map(min, game.entries))
    d = _row_scales(game, low)
    P = []
    for row, di in zip(game.entries, d):
        k = di - low.numerator * (di // low.denominator)  # d_i * (1 - low)
        P.append([v.numerator * (di // v.denominator) + k for v in row])
    x, y, t, denom = solve_packing_lp(P, d)
    value = Fraction((denom - t) * low.denominator + low.numerator * t, t * low.denominator)
    col_strategy = tuple(Fraction(xj, t) for xj in x)
    row_strategy = tuple(Fraction(di * yi, t) for di, yi in zip(d, y))
    return value, row_strategy, col_strategy


def game_value(game: ZeroSumGame) -> Fraction:
    """The exact minimax value."""
    value, _, _ = _solve_lp(game)
    return value


def nash_equilibrium(game: ZeroSumGame) -> MixedStrategyPair:
    """One exact equilibrium; deterministic given the fixed pivot rule."""
    value, row_strategy, col_strategy = _solve_lp(game)
    return MixedStrategyPair(row_strategy, col_strategy, value)


def is_nash(game: ZeroSumGame, pair: MixedStrategyPair) -> bool:
    """No pure deviation helps either player, and the declared value matches.

    True iff max_r (A y)_r == x^T A y == min_c (x^T A)_c == pair.value.
    """
    if len(pair.row_strategy) != game.rows or len(pair.col_strategy) != game.cols:
        raise GameInputError("strategy lengths do not match the game")
    # A y and x^T A once each, skipping zero probabilities (embedded saddle
    # strategies are mostly zeros); the payoff is then x . (A y).
    x, y = pair.row_strategy, pair.col_strategy
    row_payoffs = [sum(a * q for a, q in zip(row, y) if q) for row in game.entries]
    col_payoffs = [sum(p * a for p, a in zip(x, col) if p) for col in zip(*game.entries)]
    payoff = sum(p * v for p, v in zip(x, row_payoffs) if p)
    return max(row_payoffs) == payoff == min(col_payoffs) == pair.value


def embed_strategy(
    pair: MixedStrategyPair, product: ActionProduct, full_rows: int, full_cols: int
) -> MixedStrategyPair:
    """Lift a subgame strategy pair to the full game (zeros off the product)."""
    if len(pair.row_strategy) != len(product.row_set) or len(
        pair.col_strategy
    ) != len(product.col_set):
        raise GameInputError("strategy lengths do not match the product")
    if product.row_set[-1] >= full_rows or product.col_set[-1] >= full_cols:
        raise GameInputError("product does not fit the requested dimensions")
    rows = [Fraction(0)] * full_rows
    cols = [Fraction(0)] * full_cols
    for p, r in zip(pair.row_strategy, product.row_set):
        rows[r] = p
    for p, c in zip(pair.col_strategy, product.col_set):
        cols[c] = p
    return MixedStrategyPair(tuple(rows), tuple(cols), pair.value)
