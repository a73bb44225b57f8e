"""The exact LP: optimality certificates on random rational LPs, and digests
of `value` and `nash --json` output on seeded games."""

import hashlib
import random
from fractions import Fraction

import pytest

from saddles import GeneratorConfig, GeneratorKind, generate, new_game
from saddles.cli import main
from saddles.simplex import UnboundedError, solve_standard_max

F = Fraction
# Non-integer rationals and zeros; positives outnumber negatives so that
# positive column sums are quick to draw.
ENTRIES = [F(v) for v in (-3, -1, 0, 0, 1, 1, 2, 3, 4)] + [
    F(1, 3), F(-5, 2), F(2, 7), F(7, 4), F(-1, 6), F(5, 3)
]
# b_i = 0 makes degenerate pivots common.
RHS = [F(0), F(0), F(1), F(1, 3), F(5, 2), F(2), F(7, 6)]
ROW_SCALES = [F(1), F(2), F(1, 3)]


def _random_lp(rng, n, m):
    """A bounded LP max c.x, M x <= b, x >= 0 with b >= 0.

    Every column of M has a positive sum, so y = t * (1, ..., 1) is dual
    feasible for large t and the LP is bounded. With probability 0.3 the
    last row is a positive multiple of the first (b included), which ties
    their ratios in every ratio test they both enter.
    """
    copy = n > 1 and rng.random() < 0.3
    scale = rng.choice(ROW_SCALES)

    def column():
        col = [rng.choice(ENTRIES) for _ in range(n)]
        if copy:
            col[-1] = scale * col[0]
        return col

    cols = []
    for _ in range(m):
        col = column()
        while sum(col) <= 0:
            col = column()
        cols.append(col)
    M = [[cols[j][i] for j in range(m)] for i in range(n)]
    b = [rng.choice(RHS) for _ in range(n)]
    if copy:
        b[-1] = scale * b[0]
    c = [rng.choice(ENTRIES) for _ in range(m)]
    return c, M, b


def _assert_certificate(c, M, b, value, x, y):
    n, m = len(M), len(c)
    assert len(x) == m and len(y) == n
    assert all(type(v) is Fraction for v in (value, *x, *y))
    assert all(v >= 0 for v in x)
    assert all(sum(M[i][j] * x[j] for j in range(m)) <= b[i] for i in range(n))
    assert all(v >= 0 for v in y)
    assert all(sum(M[i][j] * y[i] for i in range(n)) >= c[j] for j in range(m))
    assert sum(cj * xj for cj, xj in zip(c, x)) == value
    assert sum(bi * yi for bi, yi in zip(b, y)) == value


def test_certificates_on_random_rational_lps():
    rng = random.Random(1968)
    for n in range(1, 9):
        for m in range(1, 9):
            for _ in range(4):
                c, M, b = _random_lp(rng, n, m)
                _assert_certificate(c, M, b, *solve_standard_max(c, M, b))


def test_certificates_on_degenerate_lps():
    # Every b_i is 0: each pivot is degenerate and every ratio ties at 0.
    rng = random.Random(1967)
    for n, m in ((2, 2), (3, 5), (6, 4), (8, 8)):
        for _ in range(5):
            c, M, _ = _random_lp(rng, n, m)
            b = [F(0)] * n
            value, x, y = solve_standard_max(c, M, b)
            assert value == 0
            _assert_certificate(c, M, b, value, x, y)


def test_known_optimum_with_rational_data():
    # max x1 + 2 x2 s.t. x1 + x2 <= 5/2, (1/3) x1 + x2 <= 2: x = (3/4, 7/4).
    value, x, y = solve_standard_max(
        [F(1), F(2)], [[F(1), F(1)], [F(1, 3), F(1)]], [F(5, 2), F(2)]
    )
    assert (value, x, y) == (F(17, 4), [F(3, 4), F(7, 4)], [F(1, 2), F(3, 2)])


def test_unbounded_raises():
    with pytest.raises(UnboundedError):
        solve_standard_max([F(1)], [[F(-1)]], [F(1)])
    with pytest.raises(UnboundedError):
        solve_standard_max([F(1), F(1)], [[F(1, 2), F(-1)]], [F(3)])


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
