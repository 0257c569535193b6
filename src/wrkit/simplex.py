"""Exact two-phase simplex over the rationals.

Solves  max c.x  subject to  A x = b, x >= 0  with every entry an int
or a Fraction, so optima and certificates come out exact.  Pivoting uses
Bland's smallest-index rule, which cannot cycle; an iteration cap guards
against implementation bugs rather than degeneracy.  Phase 1 drives the
sum of one artificial variable per row to zero; redundant rows surface
as artificials stuck in the basis at zero, and are pivoted out or dropped.

The method is the revised simplex, fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968): B^-1 is an integer matrix M over den = |det B| > 0, and
x_B an integer vector over den; a column of B^-1 A is computed only when
a pivot needs it.  A pivot on entry a_r of the column a = M A_j rewrites
row k as (a_r M_k - a_k M_r) / den, an exact division, and makes |a_r|
the new den.  Each row of A and b, its artificial column included, and
the objective are first scaled to ints by positive factors, which leaves
B^-1 A, B^-1 b and every sign of a reduced cost as they were.  Columns
are priced in index order up to the first with c_j den > (c_B M).A_j,
and ratios are compared by cross-multiplication, so the choices are a
dense tableau's exactly: both walk the same pivots and return the same
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .errors import VerificationError

ITERATION_CAP = 100_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...]


def _exact(numerator: int, den: int) -> int:
    """numerator / den, exact by Sylvester's identity while den = |det B|."""
    quotient, remainder = divmod(numerator, den)
    if remainder:
        raise VerificationError(f"integer pivot left a remainder dividing by {den}")
    return quotient


def _integer_row(row: Sequence[Fraction | int], b: Fraction | int) -> tuple[list[int], int, int]:
    """The row and b times +-scale, scale > 0 clearing their denominators,
    with the sign that makes b >= 0; and scale."""
    scale = lcm(b.denominator, *(v.denominator for v in row))
    factor = -scale if b < 0 else scale
    row = [v.numerator * (factor // v.denominator) for v in row]
    return row, abs(b.numerator) * (scale // b.denominator), scale


class _Basis:
    """The rows of M = den B^-1, x_B times den, and the basic variable per
    row.  Column j is columns[j]: a structural column of the scaled A, or
    an artificial column, with its row's scale in its row."""

    def __init__(self, columns: list[tuple], rhs: list[int], scales: list[int]):
        self.width = m = len(rhs)
        self.columns = columns
        self.den = prod(scales)
        self.inverse = [[self.den // s * (r == k) for k in range(m)] for r, s in enumerate(scales)]
        self.values = [self.den // s * b for s, b in zip(scales, rhs)]
        self.basis = [len(columns) - m + r for r in range(m)]

    def entry(self, r: int, j: int) -> int:
        """Row r of den B^-1 A_j."""
        return sum(a * v for a, v in zip(self.inverse[r], self.columns[j]) if v)

    def column(self, j: int) -> list[int]:
        """den B^-1 A_j."""
        return [self.entry(r, j) for r in range(len(self.basis))]

    def entering(self, cost: Sequence[int], n_cols: int) -> int | None:
        """Bland's choice: the first column below n_cols whose reduced cost
        c_j - y.A_j is positive, with y = c_B M / den."""
        y = [0] * self.width
        for line, bv in zip(self.inverse, self.basis):
            if cost[bv]:
                y = [yk + cost[bv] * a for yk, a in zip(y, line)]
        den, cols = self.den, self.columns
        return next(
            (j for j in range(n_cols) if cost[j] * den > sum(map(mul, y, cols[j]))), None
        )

    def pivot(self, r: int, j: int, alpha: list[int]) -> None:
        """Make j basic in row r; alpha is den B^-1 A_j before the pivot,
        and |alpha_r| > 0 is the new den."""
        sign = 1 if alpha[r] > 0 else -1
        piv, den = sign * alpha[r], self.den
        row = [sign * a for a in self.inverse[r]]
        value = sign * self.values[r]
        for k, factor in enumerate(alpha):
            if k != r:
                line = self.inverse[k]
                self.inverse[k] = [_exact(piv * a - factor * p, den) for a, p in zip(line, row)]
                self.values[k] = _exact(piv * self.values[k] - factor * value, den)
        self.inverse[r] = row
        self.values[r] = value
        self.den = piv
        self.basis[r] = j

    def drop(self, r: int) -> None:
        """Delete row r, a redundant constraint; den stays as it is."""
        del self.inverse[r]
        del self.values[r]
        del self.basis[r]


def _run_phase(state: _Basis, cost: Sequence[int], n_cols: int) -> str:
    """Maximise cost.x over columns 0..n_cols-1 by Bland pivoting.

    Entering column: smallest index with positive reduced cost.  Leaving
    row: minimum ratio, ties broken by smallest basic variable index.
    """
    for _ in range(ITERATION_CAP):
        col = state.entering(cost, n_cols)
        if col is None:
            return OPTIMAL
        alpha = state.column(col)
        best_row = None
        for r, a in enumerate(alpha):
            if a > 0 and best_row is None:
                best_row = r
            elif a > 0:
                # values[r] / a against the best ratio, by cross-multiplication
                gap = state.values[r] * alpha[best_row] - state.values[best_row] * a
                if gap < 0 or (gap == 0 and state.basis[r] < state.basis[best_row]):
                    best_row = r
        if best_row is None:
            return UNBOUNDED
        state.pivot(best_row, col, alpha)
    raise VerificationError(f"exceeded {ITERATION_CAP} pivots")


def solve(
    objective: Sequence[Fraction | int],
    rows: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> SimplexResult:
    """Maximise objective.x subject to rows.x = rhs and x >= 0."""
    n = len(objective)

    # A and b in ints with nonnegative right-hand sides; artificial columns
    lines, bs, scales = zip(*map(_integer_row, rows, rhs)) if rows else ((), (), ())
    m = len(lines)
    columns = list(zip(*lines)) or [()] * n
    columns += [tuple(s * (r == k) for r in range(m)) for k, s in enumerate(scales)]
    state = _Basis(columns, list(bs), list(scales))

    # phase 1: maximise -(sum of artificials)
    cost = [0] * n + [-1] * m
    if _run_phase(state, cost, n + m) != OPTIMAL:  # bounded by construction
        raise VerificationError("phase 1 reported unbounded")
    if any(v for v, bv in zip(state.values, state.basis) if bv >= n):
        return SimplexResult(INFEASIBLE, None, ())

    # drive leftover artificials out of the basis, dropping redundant rows
    for r in range(len(state.basis) - 1, -1, -1):
        if state.basis[r] >= n:
            col = next((j for j in range(n) if state.entry(r, j) != 0), None)
            if col is None:
                state.drop(r)
            else:
                state.pivot(r, col, state.column(col))

    # phase 2: the real objective, scaled to ints, over the structural columns
    cost, _, _ = _integer_row(objective, 1)
    if _run_phase(state, cost, n) == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, ())

    solution = [Fraction(0)] * n
    for bv, v in zip(state.basis, state.values):
        solution[bv] = Fraction(v, state.den)
    value = sum(objective[bv] * v for bv, v in zip(state.basis, state.values))
    return SimplexResult(OPTIMAL, Fraction(value, state.den), tuple(solution))
