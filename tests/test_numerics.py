"""Polynomial and rational arithmetic checks, including ring properties."""

import random
from fractions import Fraction

import pytest

from wrkit.errors import ParseError, UsageError
from wrkit.numerics import (
    BivariatePolynomial,
    IntPolynomial,
    binomial_power,
    format_rational,
    parse_rational,
)

P = IntPolynomial


def random_poly(rng, max_degree=6, max_coeff=9):
    return P(rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_degree)))


def test_multiplication_basics():
    one_plus = P([1, 1])
    assert one_plus * one_plus == P([1, 2, 1])
    assert P([1, 4, 2]) * P() == P()
    assert P([1, 4, 2]) * P([1]) == P([1, 4, 2])


def test_degree_of_product():
    p = P([2, 0, 3])
    q = P([-1, 5])
    assert (p * q).degree == p.degree + q.degree


def test_binomial_power():
    assert binomial_power(0) == P([1])
    assert binomial_power(3) == P([1, 3, 3, 1])
    assert binomial_power(2).eval(1) == 4
    with pytest.raises(UsageError):
        binomial_power(-1)


def test_derivative():
    # 2*(1+x)^3 - 1 differentiates to 6*(1+x)^2
    p = 2 * binomial_power(3) - 1
    assert p.derivative() == P([6, 12, 6])
    assert P([7]).derivative() == P()
    assert P([1, 8, 16, 8, 2]).derivative() == P([8, 32, 24, 8])


def test_eval():
    p = 2 * binomial_power(3) - 1
    assert p.eval(1) == 15
    assert P([5, 1, 7]).eval(0) == 5
    assert P([1, 8, 16, 8, 2]).eval(1) == 35
    assert P([1, 1]).eval(Fraction(1, 2)) == Fraction(3, 2)


def test_scaled_eval_is_q_power_times_value():
    # (q^n P(x), q^n x P'(x)) at x = p/q, against the derivative route
    rng = random.Random(17)
    for _ in range(50):
        poly = IntPolynomial(rng.randint(-9, 9) for _ in range(rng.randint(0, 7)))
        p, q = rng.randint(1, 30), rng.randint(1, 30)
        n = max(poly.degree, 0) + rng.randint(0, 3)
        x = Fraction(p, q)
        assert poly.scaled_eval(p, q, n) == (
            q**n * poly.eval(x),
            q**n * x * poly.derivative().eval(x),
        )
    assert IntPolynomial().scaled_eval(3, 2, 0) == (0, 0)
    assert IntPolynomial([5, 0, 1]).scaled_eval(2, 3, 3) == (
        3 * (5 * 9 + 4), 3 * 2 * 4
    )
    with pytest.raises(UsageError):
        IntPolynomial([1, 2, 3]).scaled_eval(1, 2, 1)


def test_normalisation_and_zero():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]) == P()
    assert P().degree == -1


def test_ring_properties_random():
    rng = random.Random(20260810)
    for _ in range(200):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)


def test_poly_to_text():
    assert P().to_text() == "0"
    assert P([1, 4, 2]).to_text() == "1,4,2"
    assert P([-3, 0, 0, 7]).to_text() == "-3,0,0,7"


def test_pretty():
    assert (2 * binomial_power(2) - 1).pretty() == "1 + 4*lam + 2*lam^2"
    assert P().pretty() == "0"
    assert P([0, 1]).pretty() == "lam"


def test_rational_round_trip():
    for text in ("3", "-7", "22/7", "-1/3", "0"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("4/6") == Fraction(2, 3)  # reduced on parse
    for bad in ("1.5", "x", "3/", "/2", "1/0", ""):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_bivariate_eval_and_diagonal():
    # the K2 two-activity polynomial, written out explicitly
    p = BivariatePolynomial({(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (0, 2): 1})
    # value, x P_x and y P_y at (1, 2), then the value at (1/2, 1/3)
    # over the scale 2^2 3^2
    assert p.scaled_eval(1, 1, 2, 1) == (12, 4, 12)
    value = 1 + 2 * Fraction(1, 2) + 2 * Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 9)
    assert p.scaled_eval(1, 2, 1, 3)[0] == 36 * value
    assert p.diagonal() == P([1, 4, 2])
    assert p == BivariatePolynomial({(j, i): c for (i, j), c in p.coeffs.items()})


def test_polynomials_equal_only_polynomials_of_their_shape():
    # == must agree with hash: a polynomial is never equal to an int, nor
    # to a polynomial of the other shape, while IntPolynomial's +, - and *
    # still take an int as a constant
    five, bi_five = P([5]), BivariatePolynomial({(0, 0): 5})
    for poly in (five, bi_five):
        assert poly != 5 and 5 != poly
        assert len({poly, 5}) == 2
    assert five != bi_five
    assert (five + 1, 1 - five, 2 * five) == (P([6]), P([-4]), P([10]))
    # equal polynomials hash equal, trailing and zero terms dropped
    assert P([1, 2, 0]) == P((1, 2)) and hash(P([1, 2, 0])) == hash(P((1, 2)))
    with_zero = BivariatePolynomial({(0, 0): 1, (1, 0): 0, (0, 1): 3})
    plain = BivariatePolynomial({(0, 1): 3, (0, 0): 1})
    assert with_zero == plain and hash(with_zero) == hash(plain)

