"""The exact LP: optimality certificates on random positive integer LPs and
digests of `value` and `nash --json` output on seeded games."""

import hashlib
import random
from fractions import Fraction

import pytest

from saddles import GeneratorConfig, GeneratorKind, generate, new_game
from saddles.cli import main
from saddles.simplex import solve_packing_lp

F = Fraction


def _random_packing_lp(rng, n, m):
    """A positive integer n x m matrix and right-hand side.

    Small entries tie often. With probability 0.3 the last row copies the
    first, right-hand side included, which ties their ratios in every ratio
    test they both enter and makes pivots degenerate; with probability 0.3
    the last column is a multiple of the first.
    """
    P = [[rng.randint(1, 4) for _ in range(m)] for _ in range(n)]
    b = [rng.randint(1, 12) for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        P[-1], b[-1] = list(P[0]), b[0]
    if m > 1 and rng.random() < 0.3:
        factor = rng.randint(1, 3)
        for row in P:
            row[-1] = factor * row[0]
    return P, b


def _assert_certificate(P, b, x, y, t, D):
    # Primal x / D and dual y / D feasible, with both objectives t / D.
    n, m = len(P), len(P[0])
    assert len(x) == m and len(y) == n
    assert all(type(v) is int for v in (*x, *y, t, D))
    assert D > 0 and t > 0
    assert all(v >= 0 for v in x)
    assert all(sum(P[i][j] * x[j] for j in range(m)) <= b[i] * D for i in range(n))
    assert all(v >= 0 for v in y)
    assert all(sum(P[i][j] * y[i] for i in range(n)) >= D for j in range(m))
    assert sum(x) == t == sum(bi * yi for bi, yi in zip(b, y))


def test_certificates_on_random_packing_lps():
    rng = random.Random(1968)
    for n in range(1, 9):
        for m in range(1, 9):
            for _ in range(4):
                P, b = _random_packing_lp(rng, n, m)
                _assert_certificate(P, b, *solve_packing_lp(P, b))


def test_certificates_on_tied_lps():
    # Every row is the same: each ratio test ties across all rows, and every
    # pivot after the first is degenerate.
    rng = random.Random(1967)
    for n, m in ((2, 2), (3, 5), (6, 4), (8, 8)):
        for _ in range(5):
            row, bi = [rng.randint(1, 3) for _ in range(m)], rng.randint(1, 6)
            P, b = [list(row) for _ in range(n)], [bi] * n
            _assert_certificate(P, b, *solve_packing_lp(P, b))


def test_known_optimum():
    # max u1 + u2 s.t. 2 u1 + u2 <= 5, u1 + 3 u2 <= 5: u = (2, 1), duals
    # (2/5, 1/5), optimum 3. Bland's rule pivots on 2, then on 5, so the
    # optimal tableau's denominator is 5.
    assert solve_packing_lp([[2, 1], [1, 3]], [5, 5]) == ([10, 5], [2, 1], 15, 5)


def _rational_game(seed, rows, cols):
    rng = random.Random(seed)
    flat = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(rows * cols)]
    return new_game(rows, cols, flat)


# (generator, rows, cols, bound, seed) -> SHA-256 of the `value` stdout
# followed by the `nash --json` stdout.
OUTPUT_DIGESTS = {
    ("uniform", 1, 1, 3, 0):
        "618dd7e69b4c7250544ccf3f8ee516a768d00f85378e1678757212f4fc8e2c93",
    ("uniform", 1, 5, 3, 1):
        "e9e99cf1337aac35f3bfc69041a6f1ae95a95c345641db861ddcfe3675f69cc5",
    ("uniform", 6, 1, 3, 2):
        "8931fb9267a284b190e70b2f4c42f1314d0d6e63bda0499551031811f95288bc",
    ("uniform", 1, 8, 1, 3):
        "9107a117f268e5299fe63921917028db3794728612bf8ec1438fd605b5254742",
    ("uniform", 7, 1, 1, 4):
        "61246cc43269db26e4c57663050ba64afd9b6268ffa7163db85035e3aa5e41c8",
    ("uniform", 2, 2, 1, 5):
        "8e42eaf119df758071fbc1f4db395bed889b82202070a5ff4f50b8cf15581afb",
    ("uniform", 2, 3, 3, 6):
        "4f9857ce59e3993d02d74a1002f5e29a0bf3f28703ca6b4ba1db1f80d89faa26",
    ("uniform", 3, 2, 3, 7):
        "1a1d9b265ce7470122bb03c6c26ba92c8781062c5cc517d72fb4bbd681c2b11d",
    ("uniform", 3, 3, 1, 8):
        "0cd5a4a6fa0cc94f3c3750f49bed82457bc00c73dfe2bad0d9bd8ac2d48d85ea",
    ("uniform", 4, 4, 3, 9):
        "8cae738d318d00459a5d464148be731e2ecb4c6887f4a3fb4c4ac252d7512128",
    ("uniform", 4, 4, 1, 10):
        "97e6eaf76088df216d275eba461165a52615d0f86c8adef729438cb521381755",
    ("uniform", 5, 5, 3, 11):
        "c21e47087f5d8040ab0177dacc3b4f3509bba006a8a06a259f91b3e005a14d21",
    ("uniform", 5, 5, 1, 12):
        "e44d3bea6efe099b172b47858e06bf54e75ca65cc775f38d9dbfeb13f4caf689",
    ("uniform", 5, 5, 1, 13):
        "e1cbb5a644f3bca647d4f8225aa8552edffd11de70614068fa81ad635d492f09",
    ("uniform", 3, 6, 2, 14):
        "f2c78efbc3fe7bc3821920cf3858991be323e2ea572543f374255abb37f74c54",
    ("uniform", 6, 3, 2, 15):
        "640eef6cc3bb2873b8939e7af2ee75d5fca50378f4fe8c905067336dac328947",
    ("uniform", 6, 6, 3, 16):
        "4b08402a77c886f39aa946798c5f0a318a3586cd2d2fced5edeabee57bfc4dc8",
    ("uniform", 7, 7, 1, 17):
        "990eb5c89f13376c79111248b2098b9db7b10b7c30355a0508aaf731100f597a",
    ("uniform", 8, 8, 3, 18):
        "c2cd57f83a7b70f1160bad8aba7e7166ba119b9dfc1618e79cb3603239542ad9",
    ("distinct", 4, 4, 8, 19):
        "89feab411d97b06e27d98a057e088d6e94c29c73edf7c819710c77f71adf2d92",
    ("confrontation", 5, 5, 3, 20):
        "5a143403f06ca92d839ac78eba3dfe53f56f75e0e75299dd67b2dc7aeddb33cf",
    ("tournament", 6, 6, 1, 21):
        "e557066394d2887803bdfad18ad31937fd00179200cc556e69aba28cfbe9159d",
    ("rational", 3, 4, 0, 22):
        "877c358902b3a77a7d9174339d4d5d55ed3454ced24d6843b13328ad22e65248",
    ("rational", 5, 5, 0, 23):
        "2bffe1b7b2920640b860099c0be33e45b5cc6243a4d8a15484aa5c032d797a3e",
    ("rational", 6, 2, 0, 24):
        "737c7199d616df9acc6324fe0ce1b272cc30865bf981aef076ca86a0d5894ca9",
}


def _digest_game(kind, rows, cols, bound, seed):
    if kind == "rational":
        return _rational_game(seed, rows, cols)
    return generate(GeneratorConfig(GeneratorKind(kind), rows, cols, bound, seed))


@pytest.mark.parametrize("spec", sorted(OUTPUT_DIGESTS), ids=str)
def test_value_and_nash_output_digests(spec, tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text(_digest_game(*spec).to_text())
    assert main(["value", str(path)]) == 0
    assert main(["nash", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[spec]
