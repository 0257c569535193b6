"""Occupancy fractions: closed forms and per-colour values."""

import random
from fractions import Fraction
from itertools import product

import pytest

from wrkit.errors import DomainError
from wrkit.graphs import disjoint_union, make_complete, make_cycle
from wrkit.occupancy import (
    ActivityPair,
    alpha_K,
    clique_comparison,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
    weighted_occupancy_K,
)
from wrkit.partition import is_valid_colouring, wr_partition_bivariate


def brute_colour_expectations(g, act):
    """Oracle: E[colour counts]/n by direct enumeration of all 3^n maps."""
    x, y = act.lambda1, act.lambda2
    total = Fraction(0)
    sum1 = Fraction(0)
    sum2 = Fraction(0)
    for colouring in product((0, 1, 2), repeat=g.n):
        if is_valid_colouring(g, colouring):
            c1, c2 = colouring.count(1), colouring.count(2)
            w = x**c1 * y**c2
            total += w
            sum1 += w * c1
            sum2 += w * c2
    return sum1 / (g.n * total), sum2 / (g.n * total)


def test_occupancy_examples():
    assert occupancy_fraction(make_complete(3), Fraction(1)) == Fraction(8, 15)
    assert occupancy_fraction(make_cycle(4), Fraction(1)) == Fraction(18, 35)
    assert occupancy_fraction(make_cycle(5), Fraction(1)) == Fraction(42, 83)


def test_alpha_K_closed_form():
    assert alpha_K(1, Fraction(1)) == Fraction(4, 7)
    assert alpha_K(3, Fraction(1)) == Fraction(16, 31)


def test_alpha_K_matches_occupancy_fraction():
    rng = random.Random(13)
    for d in range(1, 7):
        k = make_complete(d + 1)
        for _ in range(5):
            lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            assert alpha_K(d, lam) == occupancy_fraction(k, lam)


def test_domain_errors():
    with pytest.raises(DomainError):
        occupancy_fraction(make_cycle(3), Fraction(0))
    with pytest.raises(DomainError):
        alpha_K(2, Fraction(-1))
    with pytest.raises(DomainError):
        ActivityPair(Fraction(1), Fraction(0))
    # the clique closed forms share the configuration enumerations' floor
    with pytest.raises(DomainError, match="^degree must be >= 1, got 0$"):
        alpha_K(0, Fraction(1))
    with pytest.raises(DomainError, match="^degree must be >= 1, got 0$"):
        weighted_occupancy_K(0, ActivityPair(Fraction(1), Fraction(2)))


def test_occupancy_in_unit_interval():
    rng = random.Random(17)
    for g in (make_cycle(3), make_cycle(7), make_complete(5)):
        for _ in range(5):
            lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert 0 < occupancy_fraction(g, lam) < 1


def test_union_invariance():
    g = make_cycle(5)
    gg = disjoint_union(g, g)
    for lam in (Fraction(1, 3), Fraction(2)):
        assert occupancy_fraction(g, lam) == occupancy_fraction(gg, lam)


def test_alpha_K_increasing_in_activity():
    grid = [Fraction(k, 7) for k in range(1, 30)]
    for d in (1, 3, 5):
        values = [alpha_K(d, lam) for lam in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_by_colour_symmetric_collapse():
    g = make_cycle(5)
    lam = Fraction(3, 2)
    a1, a2 = occupancy_by_colour(g, ActivityPair(lam, lam))
    assert a1 == a2 == occupancy_fraction(g, lam) / 2


def test_by_colour_swap():
    g = make_cycle(4)
    act = ActivityPair(Fraction(1), Fraction(2))
    swapped = ActivityPair(Fraction(2), Fraction(1))
    a1, a2 = occupancy_by_colour(g, act)
    b1, b2 = occupancy_by_colour(g, swapped)
    assert (a1, a2) == (b2, b1)


def test_by_colour_k2_against_brute():
    # frozen from the enumeration oracle below: P(1,2) = 12, so the
    # colour-1 expectation is 4/12 over 2 vertices and colour-2 is 12/12
    g = make_complete(2)
    act = ActivityPair(Fraction(1), Fraction(2))
    oracle = brute_colour_expectations(g, act)
    assert oracle == (Fraction(1, 6), Fraction(1, 2))
    assert occupancy_by_colour(g, act) == oracle


def test_by_colour_random_against_brute():
    rng = random.Random(23)
    for g in (make_cycle(3), make_cycle(5), make_complete(4)):
        act = ActivityPair(
            Fraction(rng.randint(1, 8), rng.randint(1, 8)),
            Fraction(rng.randint(1, 8), rng.randint(1, 8)),
        )
        assert occupancy_by_colour(g, act) == brute_colour_expectations(g, act)


def test_weighted_occupancy():
    g = make_cycle(5)
    lam = Fraction(2, 5)
    act = ActivityPair(lam, lam)
    assert weighted_occupancy(g, act) == occupancy_fraction(g, lam) / 2

    k2 = make_complete(2)
    act = ActivityPair(Fraction(1), Fraction(2))
    # (lam2*a1 + lam1*a2)/(lam1+lam2) with the oracle values above
    assert weighted_occupancy(k2, act) == Fraction(5, 18)
    assert weighted_occupancy(k2, ActivityPair(Fraction(2), Fraction(1))) == Fraction(5, 18)


def test_weighted_occupancy_K_closed_form():
    rng = random.Random(29)
    for d in (1, 2, 3):
        for _ in range(5):
            act = ActivityPair(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            )
            assert weighted_occupancy_K(d, act) == weighted_occupancy(
                make_complete(d + 1), act
            )


def test_partition_K_closed_form_matches_the_dp():
    values = [Fraction(1, 10**6), Fraction(10**6, 999999)]
    values += map(Fraction, ("1/3", "1", "7/3"))
    for d in range(1, 7):
        k = make_complete(d + 1)
        p_k = wr_partition_bivariate(k)
        for x, y in product(values, repeat=2):
            (p, q), (r, s) = (x.as_integer_ratio(), y.as_integer_ratio())
            value, _, _ = p_k.scaled_eval(p, q, r, s)
            dp = Fraction(value, q**p_k.degree_x * s**p_k.degree_y)
            assert clique_comparison(k, d, ActivityPair(x, y))[1] == dp

