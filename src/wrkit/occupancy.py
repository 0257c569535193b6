"""Exact occupancy fractions for the Widom-Rowlinson model.

The occupancy fraction is the expected fraction of coloured vertices
under the model: the first moment lam P'(lam) of the partition
polynomial over n times its value P(lam).  At lam = p/q both come, as
integers over the same power of q, from one pass over the coefficients
(IntPolynomial.scaled_eval), and the result is the one Fraction of the
two.  The two-activity variants (per colour and weighted) take the
value and both first moments of the bivariate polynomial from one such
pass (BivariatePolynomial.scaled_eval).  The complete graph's values
are closed forms in the integers p, q (and r, s), its two-activity
value and moments over scaled_eval's scale, so one weighted formula
serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, check_degree_floor, check_vertices
from .numerics import check_activity
from .partition import wr_partition, wr_partition_bivariate


@dataclass(frozen=True)
class ActivityPair:
    """Strictly positive activities for colours 1 and 2, stored as the
    exact Fractions check_activity returns."""

    lambda1: Fraction
    lambda2: Fraction

    def __post_init__(self):
        # the frozen dataclass's idiom for setting a field after init
        object.__setattr__(self, "lambda1", check_activity(self.lambda1))
        object.__setattr__(self, "lambda2", check_activity(self.lambda2))


def occupancy_fraction(g: Graph, lam: Fraction) -> Fraction:
    """Expected coloured fraction lam P'(lam) / (n P(lam)), exactly: at
    lam = p/q, Fraction(M, n V) with (V, M) the value and first moment
    of P scaled by q^deg P."""
    lam = check_activity(lam)
    check_vertices(g)
    p = wr_partition(g)
    value, moment = p.scaled_eval(lam.numerator, lam.denominator, p.degree)
    return Fraction(moment, g.n * value)


def alpha_K(d: int, lam: Fraction) -> Fraction:
    """Occupancy fraction of the complete graph on d+1 vertices, in closed form:
    2 lam (1+lam)^d / (2 (1+lam)^(d+1) - 1), from the two-activity
    moments (S, S1, S2) at (lam, lam), where S1 = S2, as 2 S1 / ((d+1) S)."""
    lam = check_activity(lam)
    value, moment, _ = _clique_moments(d, lam, lam)
    return Fraction(2 * moment, (d + 1) * value)


def _colour_moments(g: Graph, act: ActivityPair) -> tuple[int, int, int]:
    """(S, S1, S2): the bivariate partition polynomial's value and its
    first moments lam1 P_1 and lam2 P_2 at the pair, all over one
    positive integer scale."""
    check_vertices(g)
    x, y = act.lambda1, act.lambda2
    return wr_partition_bivariate(g).scaled_eval(
        x.numerator, x.denominator, y.numerator, y.denominator
    )


def occupancy_by_colour(g: Graph, act: ActivityPair) -> tuple[Fraction, Fraction]:
    """Expected fraction of vertices receiving colour 1 and colour 2.

    Each is lam_i (dP/dlam_i) / (n P) for the exact bivariate partition
    polynomial P: Fraction(S1, n S) and Fraction(S2, n S) from its value
    and first moments.
    """
    value, moment1, moment2 = _colour_moments(g, act)
    denom = g.n * value
    return Fraction(moment1, denom), Fraction(moment2, denom)


def _weighted(n: int, moments: tuple[int, int, int], act: ActivityPair) -> Fraction:
    """(lam2*a1 + lam1*a2) / (lam1 + lam2) on n vertices from (S, S1, S2):
    at lam1 = p/q and lam2 = r/s, Fraction(r q S1 + p s S2, n S (p s + r q))."""
    value, moment1, moment2 = moments
    p, q = act.lambda1.numerator, act.lambda1.denominator
    r, s = act.lambda2.numerator, act.lambda2.denominator
    return Fraction(r * q * moment1 + p * s * moment2, n * value * (p * s + r * q))


def weighted_occupancy(g: Graph, act: ActivityPair) -> Fraction:
    """Cross-weighted combination (lam2*a1 + lam1*a2) / (lam1 + lam2) of
    the per-colour fractions a1, a2."""
    return _weighted(g.n, _colour_moments(g, act), act)


def _clique_moments(d: int, x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(S, S1, S2) of the complete graph on d+1 vertices at checked
    activities x = p/q and y = r/s, in closed form, over scaled_eval's
    scale q^(d+1) s^(d+1): every colouring is monochromatic, so
    P = (1+x)^(d+1) + (1+y)^(d+1) - 1 and x P_x = (d+1) x (1+x)^d."""
    check_degree_floor(d)
    p, q = x.numerator, x.denominator
    r, s = y.numerator, y.denominator
    grow1, grow2 = (p + q) ** d * s ** (d + 1), (r + s) ** d * q ** (d + 1)
    value = (p + q) * grow1 + (r + s) * grow2 - (q * s) ** (d + 1)
    return value, (d + 1) * p * grow1, (d + 1) * r * grow2


def weighted_occupancy_K(d: int, act: ActivityPair) -> Fraction:
    """Weighted occupancy of the complete graph on d+1 vertices."""
    return _weighted(d + 1, _clique_moments(d, act.lambda1, act.lambda2), act)


def clique_comparison(g: Graph, d: int, act: ActivityPair) -> tuple[Fraction, ...]:
    """The bivariate partition functions of g and of the complete graph on
    d+1 vertices at the pair, then their weighted occupancies: from one
    scaled_eval of g's polynomial and one _clique_moments."""
    moments = _colour_moments(g, act)
    clique = _clique_moments(d, act.lambda1, act.lambda2)
    poly = wr_partition_bivariate(g)
    q, s = act.lambda1.denominator, act.lambda2.denominator
    partition_g = Fraction(moments[0], q**poly.degree_x * s**poly.degree_y)
    partition_k = Fraction(clique[0], (q * s) ** (d + 1))
    return partition_g, partition_k, _weighted(g.n, moments, act), _weighted(d + 1, clique, act)

