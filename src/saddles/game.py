"""Zero-sum matrix games with exact rational payoffs.

The row player receives the matrix entry, the column player its negation.
All payoffs are `fractions.Fraction` values; nothing in this package ever
goes through floating point, so equality tests on payoffs are exact.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapacityError, GameInputError

Rational = Fraction


def parse_rational(token: str) -> Fraction:
    """Parse an integer, exact decimal, or "p/q" token into a Fraction.

    The denominator must be positive; "1/-2" and "1/0" are rejected, and so
    is an exponent that would expand the token past Python's 4300-digit
    limit on integer strings.
    """
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            d = int(den)
        except ValueError:
            raise GameInputError(f"malformed rational token {token!r}") from None
        if d <= 0:
            raise GameInputError(f"denominator must be positive in {token!r}")
        try:
            return Fraction(int(num), d)
        except ValueError:
            raise GameInputError(f"malformed rational token {token!r}") from None
    # Fraction expands "1e9" to 10**9; bound what a token can expand to by
    # Python's own digit limit on integer strings, which already bounds
    # "p/q" tokens, so the value is cheap to build and can be printed.
    limit = sys.int_info.default_max_str_digits
    _, marker, exponent = token.lower().partition("e")
    try:
        expands = len(token) + abs(int(exponent)) if marker else 0
    except ValueError:
        expands = 0  # a malformed exponent, which Fraction rejects below
    if expands > limit:
        raise GameInputError(f"{token!r} expands to more than {limit} digits")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise GameInputError(f"malformed numeric token {token!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise.

    Raises CapacityError when the numerator or denominator has more digits
    than Python's integer-string limit allows.
    """
    try:
        return str(value)
    except ValueError:
        raise CapacityError(
            f"exact result has more than {sys.get_int_max_str_digits()} digits "
            f"in its numerator or denominator, over the integer-string limit"
        ) from None


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise GameInputError(f"payoff entries must be exact rationals, got {value!r}")


@dataclass(frozen=True, order=True)
class ActionProduct:
    """A product R' x C' of row and column index sets, both nonempty.

    Index sets are stored as strictly increasing tuples of 0-based indices.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]

    def __init__(self, row_set: Iterable[int], col_set: Iterable[int]):
        rows = tuple(sorted(set(int(i) for i in row_set)))
        cols = tuple(sorted(set(int(j) for j in col_set)))
        if not rows or not cols:
            raise GameInputError("action product needs nonempty row and column sets")
        if rows[0] < 0 or cols[0] < 0:
            raise GameInputError("action indices must be nonnegative")
        object.__setattr__(self, "row_set", rows)
        object.__setattr__(self, "col_set", cols)

    def size(self) -> int:
        return len(self.row_set) + len(self.col_set)

    def contains(self, other: "ActionProduct") -> bool:
        """Component-wise superset test (other's rows within ours, same for columns)."""
        return set(other.row_set) <= set(self.row_set) and set(other.col_set) <= set(
            self.col_set
        )

    def is_proper_subproduct_of(self, other: "ActionProduct") -> bool:
        return other.contains(self) and self != other


@dataclass(frozen=True)
class ZeroSumGame:
    """Immutable dense matrix game.

    `entries[r][c]` is the row player's payoff; the column player's payoff at
    the same cell is its negation and is never stored.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...] = field(default=())
    col_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise GameInputError("a game needs at least one row and one column")
        cols = len(self.entries[0])
        if any(len(row) != cols for row in self.entries):
            raise GameInputError("ragged payoff matrix")
        if not self.row_labels:
            object.__setattr__(
                self, "row_labels", tuple(f"r{i + 1}" for i in range(len(self.entries)))
            )
        if not self.col_labels:
            object.__setattr__(
                self, "col_labels", tuple(f"c{j + 1}" for j in range(cols))
            )
        if len(self.row_labels) != len(self.entries) or len(self.col_labels) != cols:
            raise GameInputError("label count does not match matrix shape")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise GameInputError("row labels must be unique")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise GameInputError("column labels must be unique")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries[r][c]

    def full_product(self) -> ActionProduct:
        return ActionProduct(range(self.rows), range(self.cols))

    def check_product(self, product: ActionProduct) -> None:
        """Raise GameInputError unless the product's indices fit this game."""
        if product.row_set[-1] >= self.rows or product.col_set[-1] >= self.cols:
            raise GameInputError(
                f"product {product.row_set} x {product.col_set} exceeds "
                f"{self.rows}x{self.cols} game"
            )

    def subgame(self, product: ActionProduct) -> "ZeroSumGame":
        """Materialized restriction to the product's rows/columns.

        Labels are inherited from the parent, so subgame displays keep the
        original action names.
        """
        self.check_product(product)
        return ZeroSumGame(
            entries=tuple(
                tuple(self.entries[r][c] for c in product.col_set)
                for r in product.row_set
            ),
            row_labels=tuple(self.row_labels[r] for r in product.row_set),
            col_labels=tuple(self.col_labels[c] for c in product.col_set),
        )

    def is_skew_symmetric(self) -> bool:
        """True iff the game is square with entries[i][j] == -entries[j][i]."""
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def is_confrontation(self) -> bool:
        """Skew-symmetric with zeroes exactly on the main diagonal."""
        if not self.is_skew_symmetric():
            return False
        return all(
            self.entries[i][j] != 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The distinct entries in ascending order."""
        # Fractions are normalized, so (numerator, denominator) identifies a
        # value and hashes far faster than the Fraction itself; one
        # `as_integer_ratio` call reads both.
        distinct = {v.as_integer_ratio(): v for row in self.entries for v in row}
        return tuple(sorted(distinct.values()))

    @functools.cached_property
    def ranks(self) -> tuple[tuple[int, ...], ...]:
        """Each entry's index in `values`; ranks compare exactly as entries do."""
        rank = {v.as_integer_ratio(): i for i, v in enumerate(self.values)}
        return tuple(tuple(rank[v.as_integer_ratio()] for v in r) for r in self.entries)

    def to_text(self) -> str:
        """Canonical plain-text form: header line, then one line per row."""
        lines = [f"{self.rows} {self.cols}"]
        for row in self.entries:
            lines.append(" ".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 of the canonical text form (labels excluded)."""
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()


def new_game(
    rows: int,
    cols: int,
    entries: Sequence,
    row_labels: Sequence[str] | None = None,
    col_labels: Sequence[str] | None = None,
) -> ZeroSumGame:
    """Build a game from a row-major flat list of rows*cols payoffs."""
    if rows < 1 or cols < 1:
        raise GameInputError(f"need at least 1x1, got {rows}x{cols}")
    values = [_as_rational(v) for v in entries]
    if len(values) != rows * cols:
        raise GameInputError(
            f"expected {rows * cols} entries for a {rows}x{cols} game, got {len(values)}"
        )
    return ZeroSumGame(
        entries=tuple(tuple(values[r * cols : (r + 1) * cols]) for r in range(rows)),
        row_labels=tuple(row_labels) if row_labels else (),
        col_labels=tuple(col_labels) if col_labels else (),
    )
