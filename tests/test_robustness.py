"""Input guards that must hold under `python -O` as well."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from saddles import GameInputError
from saddles.simplex import solve_standard_max

SRC = Path(__file__).resolve().parent.parent / "src" / "saddles"


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements, so no check may rely on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_simplex_rejects_negative_rhs():
    one = Fraction(1)
    with pytest.raises(GameInputError):
        solve_standard_max([one], [[one]], [Fraction(-1)])
    with pytest.raises(GameInputError):
        solve_standard_max([one], [[one]], [one, one])
    assert solve_standard_max([one], [[one]], [Fraction(2)])[0] == 2
