"""Exception types shared across the package, and the budgets they guard."""


class GameInputError(ValueError):
    """Malformed input: bad dimensions, indices out of range, bad tokens."""


def enum_from_token(kind, token: str, noun: str):
    """The member of enum `kind` whose value is `token`; a GameInputError
    naming `noun` and every accepted token otherwise."""
    try:
        return kind(token)
    except ValueError:
        raise GameInputError(
            f"unknown {noun} {token!r}; expected one of {[m.value for m in kind]}"
        ) from None


class CapacityError(RuntimeError):
    """A resource budget was exceeded: saddle grids above the grid-bit budget
    (`MAX_GRID_BITS`, checked by `check_grid_budget` in this module), `find`'s
    dominance tables above the side budget (`MAX_SIDE_ACTIONS`, checked by
    `check_side_budget`), an exact
    LP above the tableau budget (`MAX_LP_CELLS`, checked by
    `check_lp_budget`) or above the integer-length budget (`MAX_LP_BITS`,
    checked in `equilibrium`), more saddle pairs to compare than the pair
    budget (`MAX_SADDLE_PAIRS`, checked in `verify.check_interchangeability`),
    or an exact result too long to print under the integer-string limit."""


class PropertyViolationError(RuntimeError):
    """A property that should hold for every game was falsified.

    Raised only where the API contract promises a unique answer (e.g. the
    strict saddle); anything raising this is a bug witness, not a user error.
    """


# Each saddle grid holds one bit per product, 2^(rows+cols) bits, so this
# budget (128 MB per grid) bounds memory by the grid size alone: a grid build
# holds at most three grid-sized buffers at once, and a `GameAnalysis` keeps
# one GSP grid per mode it has built, plus that mode's saddles. The grid
# engine (`kernels`) keeps masks and product indices in int32, which holds
# any index below this budget.
MAX_GRID_BITS = 1 << 30


def check_grid_budget(rows: int, cols: int) -> None:
    """Raise CapacityError when the grids of a rows x cols game would exceed
    MAX_GRID_BITS; checked before anything is built for them.

    This is the one shape budget of exhaustive enumeration. It compares
    exponents, so a huge requested shape costs nothing to refuse. It lives
    here, not in the numpy grid engine, so that refusing a shape loads no
    numpy.
    """
    limit = MAX_GRID_BITS.bit_length() - 1
    if rows + cols > limit:
        raise CapacityError(
            f"saddle grids of a {rows}x{cols} game need 2^{rows + cols} bits each, "
            f"over the budget of 2^{limit} bits (at most {limit} actions in all)"
        )


# `find` builds no grid, but its dominance tables compare every pair of
# actions of a side against every opponent action: one (n, n, m) and one
# (m, m, n) bool temporary, plus n^2 + m^2 python-int masks. At 512 actions a
# side the larger temporary is at most 512^3 = 2^27 bytes, the bytes of one
# grid at MAX_GRID_BITS. Building the tables peaked at 269 MB RSS on a
# 512x512 game and at 406 MB on a 600x600 one (numpy 2.4.6).
MAX_SIDE_ACTIONS = 512


def check_side_budget(rows: int, cols: int) -> None:
    """Raise CapacityError when a side of a rows x cols game has more than
    MAX_SIDE_ACTIONS actions; `find_saddle` checks it before any table is
    built."""
    if max(rows, cols) > MAX_SIDE_ACTIONS:
        raise CapacityError(
            f"the dominance tables of a {rows}x{cols} game compare "
            f"{max(rows, cols)} actions on one side, over the budget of "
            f"{MAX_SIDE_ACTIONS} actions a side"
        )


# The exact LP of a rows x cols game rewrites its rows * (rows + cols + 1)
# tableau cells on every pivot. At this budget `game_value` took at most 1.7 s
# on integers in [-3, 3] and 4.9 s on rationals with denominators up to 12
# (2 CPUs); larger entries cost more. Campaign games need at most 899 cells.
MAX_LP_CELLS = 5_000


def check_lp_budget(rows: int, cols: int) -> None:
    """Raise CapacityError when the exact LP of a rows x cols game would keep
    more than MAX_LP_CELLS tableau cells; checked before the LP is built."""
    cells = rows * (rows + cols + 1)
    if cells > MAX_LP_CELLS:
        raise CapacityError(
            f"the exact LP of a {rows}x{cols} game needs {cells} tableau cells "
            f"(rows x (rows + cols + 1)), over the budget of {MAX_LP_CELLS}"
        )


# Every tableau integer is a minor of the scaled matrix (Bareiss), so its bit
# length is at most about the sum over rows of the bit length of the row's
# longest scaled entry. This budget bounds that sum, and with it the length
# of every integer the LP holds; `equilibrium` checks it before the LP is
# built. At it `game_value` took 28 to 36 s at the widest 5,000-cell shapes
# (10x489 to 35x106), 5.7 s at 49x49 and 0.08 s at 20x20 (2 CPUs). Campaign
# games (at most 29 rows of integers below 2^62) need at most 1,856 bits,
# the README's LP table (denominators up to 12) at most 868.
MAX_LP_BITS = 2_048


# `check_interchangeability` compares every pair of saddles, s(s-1)/2 of
# them for s saddles, and `check` prints one witness per pair. On the 2k x k
# cyclic Latin square stacked over its reversed rows (2^k saddles of k x k
# subgames) the pair loop took about 0.35 s at k = 7 (8,128 pairs, 0.04 ms
# each; `check --json` 0.7 to 0.9 s from spawn to exit) and about 2 s at
# k = 8 (32,640 pairs), 2 CPUs; the check of a 5x5 bound-1 campaign game
# takes about 46 us per saddle pair, subgames included. This budget admits k = 7 and refuses
# k = 8; it is checked before any pair is compared.
MAX_SADDLE_PAIRS = 1 << 13
