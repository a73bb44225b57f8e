import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from saddles import ActionProduct, kernels, new_game

# Golden 4x5 game: one weak saddle {r1,r2} x {c1,c2,c3}, value 4/3.
A1_ENTRIES = [
    [2, 1, 0, 1, 2],
    [0, 3, 4, 4, 1],
    [0, 2, 2, 1, 2],
    [2, 1, 0, 2, 1],
]

# Golden 3x3 game: pure saddle point (r1, c1), unique weak saddle {r1} x {c1}.
A2_ENTRIES = [
    [0, 0, 0],
    [0, 1, -1],
    [0, -1, 1],
]

# Golden 5x5 game: four weak saddles.
A3_ENTRIES = [
    [2, 2, 1, 3, 2],
    [2, 4, 0, 0, 2],
    [1, 3, 3, 4, 1],
    [2, 3, 1, 3, 2],
    [1, 0, 2, 2, 0],
]


def planted_saddle_entry(r, c):
    # Entry (2, 5) is the least of its row and the greatest of its column,
    # and no other entry is both, so {2} x {5} is the saddle `find` returns
    # on any game of at least 3 rows and 6 columns; the other entries are a
    # fixed pattern in -3..3.
    if (r, c) == (2, 5):
        return 0
    return 3 if r == 2 else -3 if c == 5 else (r * c) % 7 - 3


def planted_block_entry(r, c):
    # Rows {2, 3} x columns {5, 6} hold matching pennies, which has no smaller
    # GSP; the block's rows read 3 and its columns -3 everywhere else, so each
    # outside action is strictly dominated, and the other entries are a fixed
    # pattern in -2..2. That block is the only saddle in every mode on any
    # game of at least 4 rows and 7 columns, so `find` walks the column masks
    # of 3 actions for every single row before it.
    if r in (2, 3) and c in (5, 6):
        return 1 if (r == 2) == (c == 5) else -1
    return 3 if r in (2, 3) else -3 if c in (5, 6) else (r * c) % 5 - 2


@st.composite
def cloned_games(draw, max_size=4):
    """A base matrix of bound-1 integers or non-integer rationals, with rows
    and columns drawn from it with repeats, so that clones are common; both
    the base and the game have 1 to `max_size` rows and columns."""
    palette = draw(st.sampled_from((("-1", "0", "1"), ("1/3", "-2.5", "0", "7/3"))))
    base_rows, base_cols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    base = draw(
        st.lists(
            st.lists(st.sampled_from(palette), min_size=base_cols, max_size=base_cols),
            min_size=base_rows,
            max_size=base_rows,
        )
    )
    row_of = draw(st.lists(st.integers(0, base_rows - 1), min_size=1, max_size=max_size))
    col_of = draw(st.lists(st.integers(0, base_cols - 1), min_size=1, max_size=max_size))
    return new_game(len(row_of), len(col_of), [base[r][c] for r in row_of for c in col_of])


def cloned_latin_square(k):
    """Text of the k x k cyclic Latin square (i + j) mod k stacked over its
    own rows in reverse order: a 2k x k game whose 2^k weak saddles each
    take one copy of every row, so all of them are pairwise equivalent."""
    rows = [[(i + j) % k for j in range(k)] for i in range(k)]
    body = "\n".join(" ".join(map(str, row)) for row in rows + rows[::-1])
    return f"{2 * k} {k}\n{body}\n"


def checkout_env():
    """The environment of a child interpreter that imports the saddles of
    this checkout, from any working directory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_probe(code, *args):
    """stdout of `python -c code args...` in a fresh interpreter that imports
    the saddles of this checkout."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=checkout_env(), capture_output=True, text=True, check=True,
    )
    return result.stdout


def grid_gsps(analysis, mode):
    """Every GSP of the analysis's game under `mode`, as products, read off
    its GSP grid by `kernels.grid_cells`, in mask order."""
    game = analysis.game
    row_masks, col_masks = kernels.grid_cells(analysis.gsp_grid(mode), game.cols)
    return [
        ActionProduct(
            (i for i in range(game.rows) if rm >> i & 1),
            (j for j in range(game.cols) if cm >> j & 1),
        )
        for rm, cm in zip(row_masks.tolist(), col_masks.tolist())
    ]


def game_from(rows):
    flat = [v for row in rows for v in row]
    return new_game(len(rows), len(rows[0]), flat)


@pytest.fixture(scope="session")
def a1():
    return game_from(A1_ENTRIES)


@pytest.fixture(scope="session")
def a2():
    return game_from(A2_ENTRIES)


@pytest.fixture(scope="session")
def a3():
    return game_from(A3_ENTRIES)
