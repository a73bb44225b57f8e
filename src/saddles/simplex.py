"""Exact primal simplex with Bland's rule for the one LP the package solves,
max sum(u) s.t. P u <= b, u >= 0, with `P` and `b` positive integers: the
game LP `(A + 1 - min A) u <= 1` with row `i` times `b_i`
(`equilibrium._solve_lp`).

Every entry of `P` is positive, so `u = 0` is feasible (the slack basis
starts the method, with no phase 1) and `u_j <= b_i / P[i][j]` (the LP is
bounded, so every entering column has a row to pivot on). Bland's rule
reads only the signs of the cost row and the order of the ratios
`rhs / coef`, which scaling a row by a positive number leaves alone; so the
pivots and results are those of the same method on the game LP over
`Fraction`s.

The tableau is integers `T` over one common denominator `D`, starting at 1:
the actual tableau is `T / D` (Edmonds 1967; Bareiss 1968). A pivot on
`p = T[r][e]` keeps row `r`, replaces every other row `i` by
`(T[i] * p - T[i][e] * T[r]) // D` and sets `D = p`. Each division is exact,
since each entry is a minor of the starting tableau and `D` that of the
current basis, and `D > 0` because pivots are positive.
"""


def solve_packing_lp(P, b):
    """Maximize sum(u) s.t. P u <= b, u >= 0.

    `P` is a list of rows of positive integers and `b` a list of positive
    integers, one per row. Returns integers `(x, y, t, D)` of the optimal
    tableau: the primal optimum is `x / D` (one entry per column of `P`),
    the dual optimum `y / D` (one entry per row) and the optimum `t / D`,
    with `t > 0`.
    """
    n, m = len(P), len(P[0])
    # Rows: [structural | slack | rhs]; the cost row, last, holds -t as rhs.
    width = m + n
    rows = [[*row, *(int(k == i) for k in range(n)), b[i]] for i, row in enumerate(P)]
    cost = [1] * m + [0] * (n + 1)
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

    values = [0] * width
    for i, var in enumerate(basis):
        values[var] = rows[i][width]
    return values[:m], [-v for v in cost[m:width]], -cost[width], denom
