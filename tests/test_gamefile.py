import io
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saddles import (
    GameInputError,
    GameParseError,
    format_rational,
    new_game,
    parse_game,
    parse_rational,
)
from saddles.cli import main
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


def test_repeated_bad_token_reported_at_first_occurrence():
    with pytest.raises(GameParseError) as exc:
        parse_game("2 2\n1 x\nx 1\n")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert "line 2, column 3: malformed numeric token 'x'" in str(exc.value)
    # The first bad token of the file wins over a later one seen earlier
    # as a distinct token.
    with pytest.raises(GameParseError, match="line 3, column 1: .*'1/0'"):
        parse_game("# header next\n1 4\n1/0 y 1/0 y\n")


def test_spellings_of_one_value_share_a_rank():
    game = parse_game("2 2\n1 1.0\n2/2 10e-1\n")
    assert game.values == (Fraction(1),)
    assert game.ranks == ((0, 0), (0, 0))
    assert game.to_text() == "2 2\n1 1\n1 1\n"


def test_repeated_oversized_token_refused(capsys, monkeypatch):
    text = "10 10\n" + "\n".join(" ".join(["1e99999"] * 10) for _ in range(10)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["enumerate", "-"]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 1: '1e99999' expands to more than" in err


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


def _reference_text(game):
    # The canonical text as one format_rational call per entry.
    lines = [f"{game.rows} {game.cols}"]
    lines += [" ".join(format_rational(v) for v in row) for row in game.entries]
    return "\n".join(lines) + "\n"


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_round_trip(rows, cols, data):
    # Entries drawn from a palette repeat values; the palette's rationals may
    # be negative or non-integer.
    palette = data.draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            min_size=1,
            max_size=rows * cols,
        )
    )
    entries = data.draw(
        st.lists(st.sampled_from(palette), min_size=rows * cols, max_size=rows * cols)
    )
    game = new_game(rows, cols, entries)
    text = game.to_text()
    assert text == _reference_text(game)
    assert parse_game(text) == game
