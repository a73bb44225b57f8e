import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saddles import (
    GameInputError,
    GameParseError,
    format_game,
    new_game,
    parse_game,
    parse_rational,
)
from saddles.gamefile import GameParseError as ModuleParseError


def test_parse_simple():
    g = parse_game("2 2\n0 1\n-1 0\n")
    assert g.is_confrontation()


def test_parse_golden_a1(a1):
    text = "4 5\n2 1 0 1 2\n0 3 4 4 1\n0 2 2 1 2\n2 1 0 2 1\n"
    assert parse_game(text).entries == a1.entries


def test_parse_mixed_tokens():
    g = parse_game("1 3\n1/2 -0.25 3\n")
    assert g.entries == ((Fraction(1, 2), Fraction(-1, 4), Fraction(3)),)


def test_parse_comments_and_blank_lines():
    g = parse_game("# a comment\n2 2\n\n1 2\n  # indented comment\n3 4\n")
    assert g.entry(1, 1) == 4


def test_token_count_error_carries_position():
    with pytest.raises(GameParseError) as exc:
        parse_game("2 2\n1 2 3\n")
    assert "line 2" in str(exc.value)


def test_too_many_tokens_rejected():
    with pytest.raises(GameParseError) as exc:
        parse_game("1 1\n1 2\n")
    assert "line 2, column 3" in str(exc.value)


def test_bad_header():
    with pytest.raises(GameParseError):
        parse_game("x 2\n1 2\n")
    with pytest.raises(GameParseError):
        parse_game("0 2\n")
    with pytest.raises(GameParseError):
        parse_game("")


def test_zero_denominator_position():
    with pytest.raises(GameParseError) as exc:
        parse_game("1 2\n1 1/0\n")
    assert "line 2, column 3" in str(exc.value)


def test_non_numeric_token():
    with pytest.raises(GameParseError) as exc:
        parse_game("1 1\nfoo\n")
    assert "line 2, column 1" in str(exc.value)


def test_huge_exponent_rejected_quickly():
    # Fraction would build 10**1000000 for this 9-byte token.
    start = time.perf_counter()
    with pytest.raises(GameParseError) as exc:
        parse_game("1 1\n1e1000000\n")
    assert time.perf_counter() - start < 0.1  # about 0.5 s when it builds the power
    assert (exc.value.line, exc.value.column) == (2, 1)
    with pytest.raises(GameParseError, match="line 2, column 3"):
        parse_game("1 2\n0 -1e-1000000\n")


def test_exponent_bounded_by_int_string_limit():
    # Token length plus exponent may not pass the digits Python prints for
    # an integer: "1e4294" is 6 + 4294 = 4300.
    limit = sys.int_info.default_max_str_digits
    assert parse_rational(f"1e{limit - 6}") == 10 ** (limit - 6)
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    for token in (f"1e{limit}", f"1e-{limit}", f"1e{limit - 5}", "1e1_000_000"):
        with pytest.raises(GameInputError, match="expands"):
            parse_rational(token)


def test_error_types_are_input_errors():
    assert ModuleParseError is GameParseError


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_round_trip(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    game = new_game(rows, cols, entries)
    assert parse_game(format_game(game)).entries == game.entries
