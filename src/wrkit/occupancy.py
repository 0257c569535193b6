"""Exact occupancy fractions for the Widom-Rowlinson model.

The occupancy fraction is the expected fraction of coloured vertices
under the model; it equals the scaled logarithmic derivative of the
partition polynomial, so everything here reduces to exact polynomial
evaluation with Fractions.  The two-activity variants (per-colour and
weighted) come from partial derivatives of the bivariate polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, VerificationError
from .graphs import Graph
from .numerics import binomial_power, check_activity
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


def _check_vertices(g: Graph) -> None:
    if g.n == 0:
        raise DomainError("occupancy of a graph with no vertices is undefined")


def occupancy_fraction(g: Graph, lam: Fraction) -> Fraction:
    """Expected coloured fraction: activity * P'/ (n * P), exactly."""
    lam = check_activity(lam)
    _check_vertices(g)
    p = wr_partition(g)
    return lam * p.derivative().eval(lam) / (g.n * p.eval(lam))


def alpha_K(d: int, lam: Fraction) -> Fraction:
    """Occupancy fraction of the complete graph on d+1 vertices, in closed form:
    2*lam*(1+lam)^d / (2*(1+lam)^(d+1) - 1)."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    lam = check_activity(lam)
    grow = (1 + lam) ** d
    return 2 * lam * grow / (2 * grow * (1 + lam) - 1)


def occupancy_by_colour(g: Graph, act: ActivityPair) -> tuple[Fraction, Fraction]:
    """Expected fraction of vertices receiving colour 1 and colour 2.

    Computed as lam_i * (dP/dlam_i) / (n * P) from the exact bivariate
    partition polynomial.
    """
    _check_vertices(g)
    p = wr_partition_bivariate(g)
    x, y = act.lambda1, act.lambda2
    denom = g.n * p.eval(x, y)
    a1 = x * p.partial(1).eval(x, y) / denom
    a2 = y * p.partial(2).eval(x, y) / denom
    return a1, a2


def weighted_occupancy(g: Graph, act: ActivityPair) -> Fraction:
    """Cross-weighted combination (lam2*a1 + lam1*a2) / (lam1 + lam2)."""
    a1, a2 = occupancy_by_colour(g, act)
    return (act.lambda2 * a1 + act.lambda1 * a2) / (act.lambda1 + act.lambda2)


def weighted_occupancy_K(d: int, act: ActivityPair) -> Fraction:
    """Weighted occupancy of the complete graph on d+1 vertices.

    Closed form via the bivariate partition polynomial of the complete
    graph: every colouring is monochromatic, so
    P = (1+x)^(d+1) + (1+y)^(d+1) - 1.
    """
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    x, y = act.lambda1, act.lambda2
    px = binomial_power(d + 1)
    denom = (d + 1) * (px.eval(x) + px.eval(y) - 1)
    a1 = x * px.derivative().eval(x) / denom
    a2 = y * px.derivative().eval(y) / denom
    return (y * a1 + x * a2) / (x + y)


def _path_polynomial(g: Graph, offset: Fraction) -> list[Fraction]:
    """Coefficients of x -> P(offset + x, x) as an exact univariate polynomial."""
    p = wr_partition_bivariate(g)
    degree = max((i + j for i, j in p.coeffs), default=0)
    out = [Fraction(0)] * (degree + 1)
    for (i, j), c in p.coeffs.items():
        # expand (offset + x)^i and shift by x^j
        powers = [Fraction(1)]
        for _ in range(i):
            powers.append(powers[-1] * offset)
        for t in range(i + 1):
            out[t + j] += c * comb(i, t) * powers[i - t]
    return out


def free_energy_derivative(
    g: Graph, lambda1: Fraction, lambda2: Fraction, x: Fraction
) -> Fraction:
    """Derivative of the per-vertex log partition function along the path
    t -> (lambda1 - lambda2 + t, t), evaluated at t = x.

    Computed two independent ways and checked for exact agreement:
    (a) formal differentiation of the substituted path polynomial, and
    (b) the per-colour occupancy combination
        (x*a1 + (lambda1-lambda2+x)*a2) / (x*(lambda1-lambda2+x)).
    """
    if not (lambda1 >= lambda2 > 0):
        raise DomainError("activities must satisfy lambda1 >= lambda2 > 0")
    if not (0 < x <= lambda2):
        raise DomainError("evaluation point must satisfy 0 < x <= lambda2")
    lambda1, lambda2, x = map(check_activity, (lambda1, lambda2, x))
    offset = lambda1 - lambda2

    coeffs = _path_polynomial(g, offset)
    value = Fraction(0)
    deriv = Fraction(0)
    for k in reversed(range(len(coeffs))):
        value = value * x + coeffs[k]
        if k > 0:
            deriv = deriv * x + k * coeffs[k]
    route_a = deriv / (g.n * value)

    a1, a2 = occupancy_by_colour(g, ActivityPair(offset + x, x))
    route_b = (x * a1 + (offset + x) * a2) / (x * (offset + x))

    if route_a != route_b:
        raise VerificationError(
            f"free-energy derivative routes disagree: {route_a} vs {route_b}"
        )
    return route_a
