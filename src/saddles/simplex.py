"""Dense exact primal simplex with Bland's anti-cycling rule, fraction-free.

Solves max c.x subject to M x <= b, x >= 0 with b >= 0. The slack basis is
feasible because b >= 0, so no phase-1 is needed; Bland's rule guarantees
termination.

The tableau is kept as integers `T` over one common denominator `D`: the
actual tableau is `T / D` (Edmonds 1967; Bareiss 1968). Each constraint row
is scaled by the lcm of its own denominators, `b_i` included, and the cost
row by the lcm of `c`'s; `D` starts at 1. A pivot on `p = T[r][e]` leaves
row `r` as it is, replaces every other row `i` by
`(T[i] * p - T[i][e] * T[r]) // D` and sets `D = p`. Every such division is
exact, since each entry is a minor of the scaled starting tableau and `D` the
minor of the current basis, and `D > 0` because pivots are positive. The
entering rule reads only signs and the ratio test compares cross products,
so the pivot sequence is that of the same method over `Fraction`s and the
results are the same exact rationals, built as `Fraction`s only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import GameInputError


class UnboundedError(RuntimeError):
    pass


def _scaled(values) -> tuple[list[int], int]:
    """The integers `s * v` for the lcm `s` of the values' denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_standard_max(c, M, b):
    """Maximize c.x s.t. M x <= b, x >= 0 (all Fractions, b >= 0).

    Returns (value, x, duals): the optimum, a primal optimal point of length
    len(c), and the dual optimal point of length len(b), all exact.
    """
    n = len(M)
    m = len(c)
    if len(b) != n or any(bi < 0 for bi in b):
        raise GameInputError("simplex needs one right-hand side b_i >= 0 per constraint")

    # Rows: [structural | slack | rhs]; the cost row is last and its rhs
    # holds -value (times its scale and D).
    width = m + n
    rows = []
    row_scales = []
    for i in range(n):
        scaled, scale = _scaled([*M[i], b[i]])
        rows.append(scaled[:m] + [int(k == i) for k in range(n)] + scaled[m:])
        row_scales.append(scale)
    cost, cost_scale = _scaled(c)
    cost += [0] * (n + 1)
    rows.append(cost)
    basis = list(range(m, width))
    denom = 1

    while True:
        entering = next((j for j in range(width) if cost[j] > 0), None)
        if entering is None:
            break
        # Bland: lowest variable index enters; among minimal ratios
        # rhs / coef the row whose basic variable has the lowest index leaves.
        pivot_row = None
        for i in range(n):
            coef = rows[i][entering]
            if coef <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            lhs = rows[i][width] * rows[pivot_row][entering]
            rhs = rows[pivot_row][width] * coef
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise UnboundedError("objective unbounded above")

        prow = rows[pivot_row]
        pivot = prow[entering]
        for i, row in enumerate(rows):
            if i == pivot_row:
                continue
            factor = row[entering]
            if factor:
                rows[i] = [(v * pivot - factor * pv) // denom for v, pv in zip(row, prow)]
            else:
                rows[i] = [v * pivot // denom for v in row]
        cost = rows[n]
        denom = pivot
        basis[pivot_row] = entering

    x = [Fraction(0)] * m
    for i, var in enumerate(basis):
        if var < m:
            x[var] = Fraction(rows[i][width], denom)
    value = Fraction(-cost[width], cost_scale * denom)
    duals = [
        Fraction(-cost[m + i] * row_scales[i], cost_scale * denom) for i in range(n)
    ]
    return value, x, duals
