"""Plain-text game files.

Format: a header line with two positive integers (rows, cols), then
rows*cols whitespace-separated payoff tokens in row-major order. Tokens are
integers, exact decimals, or "p/q" rationals with positive q. Lines whose
first non-blank character is '#' are comments. Parse errors carry 1-based
line and column positions.

This is the one place where a game command turns payoff text into
`Fraction`s. Each distinct token is parsed once per file, and every entry
spelled that way shares its (immutable) value, so a game with few distinct
payoffs costs few `parse_rational` calls however large it is. A bad token
is reported at its first occurrence; positions are worked out only when an
error is raised.
"""

from __future__ import annotations

from .errors import GameInputError
from .game import ZeroSumGame, parse_rational


class GameParseError(GameInputError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _lines(text: str):
    """(line number, line) of every line that is not a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.lstrip().startswith("#"):
            yield lineno, line


def _position(text: str, index: int) -> tuple[int, int]:
    """The 1-based (line, column) of token `index` (0-based) of the file."""
    for lineno, line in _lines(text):
        col = 0
        for chunk in line.split():
            col = line.index(chunk, col)
            if index == 0:
                return lineno, col + 1
            index -= 1
            col += len(chunk)
    raise IndexError(index)


def parse_game(text: str) -> ZeroSumGame:
    tokens = [chunk for _, line in _lines(text) for chunk in line.split()]
    if len(tokens) < 2:
        raise GameParseError("missing header (rows and cols)", 1, 1)

    header = []
    for index, token in enumerate(tokens[:2]):
        try:
            value = int(token)
        except ValueError:
            raise GameParseError(
                f"header must be two integers, got {token!r}", *_position(text, index)
            ) from None
        if value < 1:
            raise GameParseError("rows and cols must be positive", *_position(text, index))
        header.append(value)
    rows, cols = header

    body = tokens[2:]
    expected = rows * cols
    if len(body) != expected:
        # At the last token when too few, at the first surplus one when too many.
        index = 1 + len(body) if len(body) < expected else 2 + expected
        raise GameParseError(
            f"expected {expected} payoff entries, found {len(body)}",
            *_position(text, index),
        )

    # The distinct tokens in order of first occurrence, so the first one that
    # fails to parse is also the first bad token of the file.
    parsed = dict.fromkeys(body)
    for token in parsed:
        try:
            parsed[token] = parse_rational(token)
        except GameInputError as exc:
            where = _position(text, 2 + body.index(token))
            raise GameParseError(str(exc), *where) from None
    # The entries are Fractions already, so the rows go to the game as they
    # are, without `new_game`'s per-entry conversion.
    values = [parsed[token] for token in body]
    return ZeroSumGame(tuple(tuple(values[r : r + cols]) for r in range(0, expected, cols)))
