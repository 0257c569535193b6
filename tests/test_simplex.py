"""Generic exact simplex: status handling and random cross-validation,
against support enumeration and against a dense-tableau oracle that must
walk the same pivots."""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit import simplex
from wrkit.errors import VerificationError

F = Fraction


def test_toy_equality():
    # max x subject to x = 1
    result = simplex.solve([F(1)], [[F(1)]], [F(1)])
    assert result.status == simplex.OPTIMAL
    assert result.value == 1
    assert result.solution == (F(1),)


def test_infeasible():
    # x = -1 with x >= 0
    result = simplex.solve([F(1)], [[F(1)]], [F(-1)])
    assert result.status == simplex.INFEASIBLE


def test_unbounded():
    # max x + y subject to x - y = 0
    result = simplex.solve([F(1), F(1)], [[F(1), F(-1)]], [F(0)])
    assert result.status == simplex.UNBOUNDED


def test_redundant_row():
    # duplicated constraint must not confuse phase 1
    result = simplex.solve(
        [F(3), F(1)],
        [[F(1), F(1)], [F(2), F(2)]],
        [F(1), F(2)],
    )
    assert result.status == simplex.OPTIMAL
    assert result.value == 3
    assert result.solution == (F(1), F(0))


def test_two_row_distribution():
    # max over a probability vector with one balance row: a textbook pair
    objective = [F(3), F(1), F(2)]
    balance = [F(1), F(-1), F(0)]
    result = simplex.solve(
        objective,
        [[F(1)] * 3, balance],
        [F(1), F(0)],
    )
    assert result.status == simplex.OPTIMAL
    # q1 = q2 = 1/2 gives 2, q3 = 1 gives 2; both optimal, value is 2
    assert result.value == 2


def brute_force_optimum(objective, balance):
    """All supports of size <= 2 for (normalisation, balance) rows."""
    best = None
    n = len(objective)
    for i in range(n):
        if balance[i] == 0:
            best = objective[i] if best is None else max(best, objective[i])
    for i, j in combinations(range(n), 2):
        bi, bj = balance[i], balance[j]
        if (bi > 0 > bj) or (bj > 0 > bi):
            w = -bj / (bi - bj)
            value = w * objective[i] + (1 - w) * objective[j]
            best = value if best is None else max(best, value)
    return best


def test_random_instances_against_support_enumeration():
    rng = random.Random(1001)
    for _ in range(60):
        n = rng.randint(2, 8)
        objective = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        balance = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        expected = brute_force_optimum(objective, balance)
        result = simplex.solve(
            objective, [[F(1)] * n, balance], [F(1), F(0)]
        )
        if expected is None:
            assert result.status == simplex.INFEASIBLE
        else:
            assert result.status == simplex.OPTIMAL
            assert result.value == expected
            # the returned point must actually be feasible
            assert sum(result.solution) == 1
            assert sum(b * x for b, x in zip(balance, result.solution)) == 0
            assert all(x >= 0 for x in result.solution)


def tableau_solve(objective, rows, rhs, pivots=None):
    """The dense-tableau two-phase simplex: the same Bland entering rule
    (artificial columns included in phase 1), the same min-ratio leaving
    rule with ties to the smallest basic index, and the same drive-out,
    applied to full rows [A | I | b] and a reduced-cost row.  Each pivot
    is appended to pivots as (leaving, entering) variable indices."""
    n, m = len(objective), len(rows)

    def pivot(tableau, basis, row, col):
        piv = tableau[row][col]
        tableau[row] = [entry / piv for entry in tableau[row]]
        for r, line in enumerate(tableau):
            if r != row and line[col]:
                factor = line[col]
                tableau[r] = [e - factor * p for e, p in zip(line, tableau[row])]
        if pivots is not None:
            pivots.append((basis[row], col))
        basis[row] = col

    def run_phase(tableau, basis, cost):
        n_cols = len(cost) - 1
        while True:
            col = next((j for j in range(n_cols) if cost[j] > 0), None)
            if col is None:
                return simplex.OPTIMAL
            best_row = None
            for r, line in enumerate(tableau):
                if line[col] > 0:
                    ratio = line[-1] / line[col]
                    if best_row is None or (ratio, basis[r]) < best:
                        best_row, best = r, (ratio, basis[r])
            if best_row is None:
                return simplex.UNBOUNDED
            pivot(tableau, basis, best_row, col)
            factor = cost[col]
            cost[:] = [c - factor * p for c, p in zip(cost, tableau[best_row])]

    tableau = []
    for r, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        art = [F(int(k == r)) for k in range(m)]
        tableau.append([sign * F(v) for v in row] + art + [sign * F(b)])
    basis = [n + r for r in range(m)]
    cost = [sum(line[j] for line in tableau) for j in range(n)] + [F(0)] * m
    cost.append(sum(line[-1] for line in tableau))
    run_phase(tableau, basis, cost)
    if cost[-1] != 0:
        return simplex.SimplexResult(simplex.INFEASIBLE, None, ())
    for r in range(len(basis) - 1, -1, -1):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                del tableau[r], basis[r]
            else:
                pivot(tableau, basis, r, col)
    tableau = [line[:n] + [line[-1]] for line in tableau]
    cost = [F(v) for v in objective] + [F(0)]
    for r, bv in enumerate(basis):
        factor = cost[bv]
        cost[:] = [c - factor * t for c, t in zip(cost, tableau[r])]
    if run_phase(tableau, basis, cost) == simplex.UNBOUNDED:
        return simplex.SimplexResult(simplex.UNBOUNDED, None, ())
    solution = [F(0)] * n
    for r, bv in enumerate(basis):
        solution[bv] = tableau[r][-1]
    value = sum(F(c) * x for c, x in zip(objective, solution))
    return simplex.SimplexResult(simplex.OPTIMAL, value, tuple(solution))


def solve_with_pivots(objective, rows, rhs):
    """simplex.solve, and its pivots as (leaving, entering) variables."""
    pivots = []
    pivot = simplex._Basis.pivot

    def recorded(state, r, j, alpha):
        pivots.append((state.basis[r], j))
        pivot(state, r, j, alpha)

    with mock.patch.object(simplex._Basis, "pivot", recorded):
        result = simplex.solve(objective, rows, rhs)
    return result, pivots


def random_instance(rng, n, m):
    """Small rationals, with many zero right-hand sides so that ratio ties
    are common; some instances get a normalisation row, a sign flipped
    right-hand side, or a row that repeats an earlier one scaled (a
    redundant row, possibly of the other sign)."""
    objective = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.choice((0, 0, 1, -1, 2, -3))) for _ in range(m)]
    if rng.random() < 0.3:
        sign = rng.choice((1, -1))
        rows[0], rhs[0] = [F(sign)] * n, F(sign)
    if m > 1 and rng.random() < 0.4:
        scale = F(rng.choice((-2, -1, 1, 3)))
        k = rng.randrange(1, m)
        rows[k] = [scale * v for v in rows[0]]
        rhs[k] = scale * rhs[0]
    return objective, rows, rhs


def test_walks_the_tableau_oracle_pivots_on_seeded_instances():
    # the same pivots, not only the same result: a different tie-break
    # or entering rule often ends at the same optimum by another path
    rng = random.Random(2024)
    statuses = set()
    for _ in range(1500):
        case = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3))
        pivots = []
        expected = tableau_solve(*case, pivots=pivots)
        assert solve_with_pivots(*case) == (expected, pivots)
        statuses.add(expected.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE, simplex.UNBOUNDED}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_walks_the_tableau_oracle_pivots(seed, n, m):
    case = random_instance(random.Random(seed), n, m)
    pivots = []
    expected = tableau_solve(*case, pivots=pivots)
    assert solve_with_pivots(*case) == (expected, pivots)


def mixed_instance(rng, n, m):
    """Entries over denominators up to 7, so that each row is scaled to
    ints by its own factor, with plain ints mixed in; right-hand sides of
    both signs, many of them zero; and rows that repeat an earlier row
    times a Fraction of either sign (redundant rows)."""

    def entry(top):
        value = F(rng.randint(-top, top), rng.randint(1, 7))
        return value.numerator if value.denominator == 1 and rng.random() < 0.5 else value

    objective = [entry(5) for _ in range(n)]
    rows = [[entry(4) for _ in range(n)] for _ in range(m)]
    rhs = [rng.choice((0, F(0), F(1, 3), F(-2, 5), F(7, 2), F(-3), 2)) for _ in range(m)]
    for k in range(1, m):
        if rng.random() < 0.4:
            scale = rng.choice((F(-2, 3), F(5, 2), F(-1), F(1, 7)))
            j = rng.randrange(k)
            rows[k] = [scale * v for v in rows[j]]
            rhs[k] = scale * rhs[j]
    return objective, rows, rhs


def test_walks_the_tableau_oracle_pivots_on_mixed_denominators(monkeypatch):
    drops = []
    drop = simplex._Basis.drop
    monkeypatch.setattr(simplex._Basis, "drop", lambda state, r: drops.append(drop(state, r)))
    rng = random.Random(2027)
    statuses = set()
    for _ in range(1500):
        case = mixed_instance(rng, rng.randint(1, 7), rng.randint(1, 4))
        pivots = []
        expected = tableau_solve(*case, pivots=pivots)
        assert solve_with_pivots(*case) == (expected, pivots)
        statuses.add(expected.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE, simplex.UNBOUNDED}
    assert len(drops) > 50  # the redundant rows reach the drop path


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_walks_the_tableau_oracle_pivots_on_mixed_denominators_property(seed, n, m):
    case = mixed_instance(random.Random(seed), n, m)
    pivots = []
    expected = tableau_solve(*case, pivots=pivots)
    assert solve_with_pivots(*case) == (expected, pivots)


def test_a_wrong_determinant_is_a_verification_error():
    # den must stay |det B|: planted at 5 over the identity basis, the
    # first pivot's division leaves a remainder
    state = simplex._Basis([(2, 1), (1, 3), (1, 0), (0, 1)], [1, 1], [1, 1])
    state.den = 5
    with pytest.raises(VerificationError, match="remainder dividing by 5"):
        state.pivot(0, 0, state.column(0))


def test_redundant_rows_are_dropped_like_the_tableau():
    # the second and third rows repeat the first, the third sign-flipped
    objective = [F(1), F(2), F(0)]
    rows = [[F(1), F(1), F(1)], [F(2), F(2), F(2)], [F(-1), F(-1), F(-1)]]
    rhs = [F(1), F(2), F(-1)]
    result = simplex.solve(objective, rows, rhs)
    assert result == tableau_solve(objective, rows, rhs)
    assert result.solution == (F(0), F(1), F(0))


def test_iteration_cap_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(simplex, "ITERATION_CAP", 1)
    with pytest.raises(VerificationError, match="exceeded 1 pivots"):
        simplex.solve([F(1), F(1)], [[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)])
