"""Input guards that must hold under `python -O` as well."""

import ast
from pathlib import Path

from conftest import run_probe

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


# Runs `value` and `nash` on the game file in argv[1] with the simplex
# patched to fail, and prints the optimization flag, both exit codes and how
# many error messages name the limit.
LP_BUDGET_PROBE = """
import contextlib, io, sys
from saddles import equilibrium
from saddles.cli import main

def unreachable(*args):
    raise AssertionError("a tableau was built")

equilibrium.solve_packing_lp = unreachable
err = io.StringIO()
with contextlib.redirect_stderr(err):
    codes = [main([command, sys.argv[1]]) for command in ("value", "nash")]
print(sys.flags.optimize, codes, err.getvalue().count("over the budget of 5000"))
"""


def test_lp_budget_refuses_before_the_tableau_under_optimization(monkeypatch, tmp_path):
    # 2 x 2498 needs 5,002 tableau cells, over the LP budget.
    path = tmp_path / "wide.game"
    path.write_text("2 2498\n" + " ".join(["1"] * 2 * 2498) + "\n")
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    assert run_probe(LP_BUDGET_PROBE, str(path)) == "1 [2, 2] 2\n"
