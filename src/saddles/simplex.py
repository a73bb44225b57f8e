"""Dense exact-rational primal simplex with Bland's anti-cycling rule.

Solves max c.x subject to M x <= b, x >= 0 with b >= 0, entirely in
`fractions.Fraction` arithmetic. The slack basis is feasible because b >= 0,
so no phase-1 is needed; Bland's rule guarantees termination. Performance is
a non-goal: the tableaux here have at most a few dozen cells.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GameInputError

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(RuntimeError):
    pass


def solve_standard_max(c, M, b):
    """Maximize c.x s.t. M x <= b, x >= 0 (all Fractions, b >= 0).

    Returns (value, x, duals): the optimum, a primal optimal point of length
    len(c), and the dual optimal point of length len(b), all exact.
    """
    n = len(M)
    m = len(c)
    if len(b) != n or any(bi < 0 for bi in b):
        raise GameInputError("simplex needs one right-hand side b_i >= 0 per constraint")

    # Tableau rows: [structural | slack | rhs]; cost row holds reduced costs.
    width = m + n
    rows = [list(M[i]) + [ONE if k == i else ZERO for k in range(n)] + [b[i]] for i in range(n)]
    cost = list(c) + [ZERO] * n
    value = ZERO
    basis = list(range(m, m + n))

    while True:
        entering = next((j for j in range(width) if cost[j] > 0), None)
        if entering is None:
            break
        # Bland: lowest variable index enters; among minimal ratios the row
        # whose basic variable has the lowest index leaves.
        pivot_row = None
        best_ratio = None
        for i in range(n):
            coef = rows[i][entering]
            if coef <= 0:
                continue
            ratio = rows[i][width] / coef
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[pivot_row])
            ):
                best_ratio = ratio
                pivot_row = i
        if pivot_row is None:
            raise UnboundedError("objective unbounded above")

        pivot = rows[pivot_row][entering]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for i in range(n):
            if i == pivot_row:
                continue
            factor = rows[i][entering]
            if factor != 0:
                prow = rows[pivot_row]
                rows[i] = [v - factor * pv for v, pv in zip(rows[i], prow)]
        factor = cost[entering]
        value += factor * rows[pivot_row][width]
        prow = rows[pivot_row]
        cost = [v - factor * pv for v, pv in zip(cost, prow[:width])]
        basis[pivot_row] = entering

    x = [ZERO] * m
    for i, var in enumerate(basis):
        if var < m:
            x[var] = rows[i][width]
    duals = [-cost[m + i] for i in range(n)]
    return value, x, duals
