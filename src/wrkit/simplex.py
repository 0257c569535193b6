"""Exact two-phase simplex over the rationals.

Solves  max c.x  subject to  A x = b, x >= 0  with every entry an int
or a Fraction, so optima and certificates come out exact.  Pivoting uses
Bland's smallest-index rule, which cannot cycle; an iteration cap guards
against implementation bugs rather than degeneracy.  Phase 1 introduces
one artificial variable per row and drives their sum to zero; redundant
rows surface as artificial variables stuck in the basis at value zero and
are pivoted out or dropped, after which the artificial columns are
discarded entirely.

The method is the revised simplex: it keeps the basis inverse B^-1 (one
Fraction row per constraint row) and the basic values x_B, and computes
a column of B^-1 A only when a pivot needs it.  Reduced costs
c_j - y.A_j, with y = c_B B^-1, are priced in index order up to the
first positive one, with y put over a common denominator; columns and
costs are used as given, so integer columns get integer pricing.  Instances
here have a few thousand columns and two or three rows, so a pivot
rewrites m rows of length m instead of m dense rows of length n.  The
choices are a dense tableau's exactly (the same entering, leaving and
drive-out decisions, read off the same signs and ratios), so both walk
the same pivots and return the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


class SimplexIterationError(VerificationError):
    """The pivot cap was hit; with Bland's rule this indicates a bug."""


class _Basis:
    """B^-1 as rows over the original constraint rows, x_B and the basic
    variable per row.  Column j is columns[j]: a structural column of the
    sign-normalised A, or a unit column for an artificial variable."""

    def __init__(self, columns: list[tuple], rhs: list[Fraction | int]):
        m = len(rhs)
        self.width = m
        self.columns = columns
        self.inverse = [[Fraction(int(r == k)) for k in range(m)] for r in range(m)]
        self.values = list(rhs)
        self.basis = [len(columns) - m + r for r in range(m)]

    def entry(self, r: int, j: int) -> Fraction:
        """Row r of B^-1 A_j."""
        return sum(a * v for a, v in zip(self.inverse[r], self.columns[j]) if v)

    def column(self, j: int) -> list[Fraction]:
        """B^-1 A_j."""
        return [self.entry(r, j) for r in range(len(self.basis))]

    def entering(self, cost: Sequence[Fraction | int], n_cols: int) -> int | None:
        """Bland's choice: the first column below n_cols whose reduced cost
        c_j - y.A_j is positive.  y = c_B B^-1 is put over a common
        denominator, so an integer column's test is integer work."""
        y = [Fraction(0)] * self.width
        for line, bv in zip(self.inverse, self.basis):
            if cost[bv]:
                y = [yk + cost[bv] * a for yk, a in zip(y, line)]
        den = lcm(*(yk.denominator for yk in y))
        y = [(k, yk.numerator * (den // yk.denominator)) for k, yk in enumerate(y) if yk]
        columns = self.columns
        return next(
            (
                j
                for j in range(n_cols)
                if cost[j] * den > sum(yk * columns[j][k] for k, yk in y)
            ),
            None,
        )

    def pivot(self, r: int, j: int, alpha: list[Fraction]) -> None:
        """Make j basic in row r; alpha is B^-1 A_j before the pivot."""
        piv = alpha[r]
        row = [a / piv for a in self.inverse[r]]
        value = self.values[r] / piv
        self.inverse[r] = row
        self.values[r] = value
        for k, factor in enumerate(alpha):
            if k != r and factor:
                self.inverse[k] = [a - factor * p for a, p in zip(self.inverse[k], row)]
                self.values[k] -= factor * value
        self.basis[r] = j

    def drop(self, r: int) -> None:
        """Delete row r, a redundant constraint."""
        del self.inverse[r]
        del self.values[r]
        del self.basis[r]


def _run_phase(state: _Basis, cost: Sequence[Fraction | int], n_cols: int) -> str:
    """Maximise cost.x over columns 0..n_cols-1 by Bland pivoting.

    Entering column: smallest index with positive reduced cost.  Leaving
    row: minimum ratio, ties broken by smallest basic variable index.
    """
    for _ in range(ITERATION_CAP):
        col = state.entering(cost, n_cols)
        if col is None:
            return OPTIMAL
        alpha = state.column(col)
        best_ratio = None
        best_row = None
        for r, a in enumerate(alpha):
            if a > 0:
                ratio = state.values[r] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and state.basis[r] < state.basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = r
        if best_row is None:
            return UNBOUNDED
        state.pivot(best_row, col, alpha)
    raise SimplexIterationError(f"exceeded {ITERATION_CAP} pivots")


def solve(
    objective: Sequence[Fraction | int],
    rows: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> SimplexResult:
    """Maximise objective.x subject to rows.x = rhs and x >= 0."""
    n = len(objective)

    # A and b with nonnegative right-hand sides; unit artificial columns
    lines = []
    bs = []
    for row, b in zip(rows, rhs):
        if b < 0:
            row = [-v for v in row]
            b = -b
        lines.append(row)
        bs.append(b)
    m = len(lines)
    columns = list(zip(*lines)) or [()] * n
    columns += [tuple(int(r == k) for r in range(m)) for k in range(m)]
    state = _Basis(columns, bs)

    # phase 1: maximise -(sum of artificials)
    cost = [0] * n + [-1] * m
    status = _run_phase(state, cost, n + m)
    if status != OPTIMAL:  # phase-1 objective is bounded by construction
        raise SimplexIterationError("phase 1 reported unbounded")
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

    # phase 2: the real objective over the structural columns
    status = _run_phase(state, objective, n)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, ())

    solution = [Fraction(0)] * n
    for bv, v in zip(state.basis, state.values):
        solution[bv] = v
    value = sum(c * x for c, x in zip(objective, solution))
    return SimplexResult(OPTIMAL, value, tuple(solution))
