"""Exact arithmetic substrate: rationals and integer-coefficient polynomials.

Every scalar quantity in this package (activities, occupancy fractions,
certificate multipliers) is a ``fractions.Fraction``: arbitrary precision,
always stored reduced with a positive denominator, and serialised as
``p/q`` (or just ``p`` when the denominator is 1) -- exactly what
``str(Fraction)`` produces.  No floating point enters any computation
built on this module.  ``check_activity`` is the one activity gate: it
refuses a non-positive, NaN or infinite activity and returns any other
as the exact Fraction, so a library caller may pass a float and still
get Fraction results.

Partition polynomials come in two shapes:

  IntPolynomial        dense coefficient tuple, index k = coefficient of
                       the k-th power of the activity.  These polynomials
                       are dense of degree at most n, so a vector is the
                       right carrier.
  BivariatePolynomial  sparse map (i, j) -> coefficient of the monomial
                       with the first activity to the i and the second to
                       the j.  Two-activity polynomials are triangular
                       (i + j <= n) and sparse, so a dict is used.

Coefficients are plain Python ints (arbitrary precision); a partition
polynomial of a 20-vertex graph has coefficients of order 3**20 and must
not overflow.  Only IntPolynomial has ``+``, ``-``, ``*`` and ``eval``
at a point; the engines build the bivariate shape whole.  Both shapes'
``scaled_eval``, the only route to a bivariate value, return from one
integer pass the value and the first moments (x P' for one activity;
x P_x and y P_y for two), all over one common power of the denominators:
a ratio of a moment to the value, such as an occupancy fraction, is then
a single Fraction, and no derivative polynomial is built.  A polynomial
equals only one of its own shape, as hashes need.

Every CSV report in the package (verify's, scan's, the per-class report
that only configs writes, and the sampler's series) is laid out by
``csv_text``: one header line, one line per row, a trailing newline,
rationals in the ``format_rational`` form and flags as 1 or 0.  The
per-class report renders the four cells a signature's rows share once
per signature, in those forms, before csv_text joins them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping

from .errors import DomainError, ParseError, UsageError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or integer text into an exact Fraction.

    Only the documented exact format is accepted; decimal notation is
    rejected so imprecise inputs cannot slip in silently.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator: {text!r}") from exc


def number_text(x: Fraction | float) -> str:
    """How a one-line message names x: as str writes it when that is at
    most 24 characters (the longest float repr), else by its order of
    magnitude, as in "about 1e400" or "about -1e30", since an exact
    value that large or that fine runs to hundreds of digits."""
    text = str(x)
    if len(text) <= 24:
        return text
    exact = abs(Fraction(x))
    exponent = round(math.log10(exact.numerator) - math.log10(exact.denominator))
    return f"about {'-' if x < 0 else ''}1e{exponent}"


def check_activity(lam: Fraction | float) -> Fraction:
    """The activity as an exact Fraction: the one gate every exact entry
    point, and the sampler, takes its activity from.

    An activity that is not strictly positive (NaN included) or is
    infinite is rejected first, named by number_text; any other real
    number (an int, a float, a Fraction subclass) converts exactly, so 0.5
    becomes Fraction(1, 2).  A positive plain Fraction comes back
    unchanged: it is immutable, and always finite.
    """
    if type(lam) is Fraction and lam.numerator > 0:
        return lam
    if not lam > 0:
        raise DomainError(f"activity must be strictly positive, got {number_text(lam)}")
    if lam == math.inf:
        raise DomainError(f"activity must be finite, got {lam}")
    return Fraction(lam)


def format_rational(x: Fraction | int) -> str:
    """``p/q``, or ``p`` when the denominator is 1: str of an int or a Fraction."""
    return str(x)


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def csv_text(header: str, rows: Iterable[Iterable[object]]) -> str:
    """The header line, then one line per row: its cells joined by commas,
    a bool as 1 or 0 and any other cell by ``str``, so a Fraction in the
    ``format_rational`` form.  No cell is quoted; the caller quotes text."""
    lines = [header]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


class IntPolynomial:
    """Immutable dense univariate polynomial with integer coefficients.

    The coefficient tuple never has a trailing zero; the zero polynomial
    is the empty tuple.  Instances support ``+``, ``-`` and ``*``
    (ints are coerced to constants), formal differentiation, and exact
    evaluation at rational points.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @staticmethod
    def _coerce(other) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        return NotImplemented

    def __add__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        """Formal derivative; drops the degree by exactly one when nonconstant."""
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def eval(self, x: Fraction | int) -> Fraction | int:
        """Exact value at x (int in, int out; Fraction in, Fraction out).

        At x = p/q (an int is p/1) the coefficients are summed against the
        cleared powers p^k q^(degree-k) in integers; one Fraction over
        q^degree is built at the end.  The zero polynomial is 0.
        """
        coeffs = self.coeffs
        if not coeffs:
            return 0
        powers = _cleared_powers(x.numerator, x.denominator, self.degree)
        value = sum(map(mul, coeffs, powers))
        if isinstance(x, int):
            return value
        return Fraction(value, powers[0])

    def scaled_eval(self, p: int, q: int, n: int) -> tuple[int, int]:
        """The value and first moment at x = p/q, both times q^n, as
        integers: (q^n P(x), q^n x P'(x)), for any n at least the degree.

        One pass over the coefficients with the cleared powers
        p^k q^(n-k) sums c_k p^k q^(n-k) times 1 and times k, so no
        derivative polynomial is built.  A ratio such as x P'(x) / P(x)
        is then one Fraction of the two, and the scale q^n cancels.
        """
        coeffs = self.coeffs
        if not coeffs:
            return 0, 0
        if n < self.degree:
            raise UsageError(f"scale q^{n} is below the degree {self.degree}")
        powers = _cleared_powers(p, q, n)
        value = moment = 0
        for k, c in enumerate(coeffs):
            if c:
                term = c * powers[k]
                value += term
                moment += k * term
        return value, moment

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_text(self) -> str:
        """Comma-separated coefficient list, lowest degree first (``0`` for zero)."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def pretty(self) -> str:
        """Human-readable ASCII form, e.g. ``1 + 4*lam + 2*lam^2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "lam" if k == 1 else f"lam^{k}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


def binomial_power(k: int) -> IntPolynomial:
    """The k-th power of (1 + activity), with exact binomial coefficients."""
    if k < 0:
        raise UsageError("binomial_power requires a nonnegative exponent")
    return IntPolynomial(math.comb(k, i) for i in range(k + 1))


@lru_cache(maxsize=64)
def _cleared_powers(p: int, q: int, k: int) -> tuple[int, ...]:
    """The powers x^i of x = p/q for i = 0..k, each times q^k: the
    integers p^i * q^(k-i).  Entry 0 is the common denominator q^k."""
    return tuple(p**i * q ** (k - i) for i in range(k + 1))


class BivariatePolynomial:
    """Immutable sparse polynomial in two activities with integer coefficients.

    Stored as a map from exponent pairs (i, j) to nonzero coefficients and
    the degrees in x and in y (-1 for the zero polynomial), found once.
    There is no arithmetic: it is read through scaled_eval and diagonal.
    """

    __slots__ = ("coeffs", "degree_x", "degree_y")

    def __init__(self, coeffs: Mapping[tuple[int, int], int] = ()):
        cleaned = {k: v for k, v in dict(coeffs).items() if v != 0}
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "degree_x", max((i for i, _ in cleaned), default=-1))
        object.__setattr__(self, "degree_y", max((j for _, j in cleaned), default=-1))

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    def scaled_eval(self, p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
        """The value and both first moments at x = p/q, y = r/s, each times
        q^I s^J (I and J the degrees in x and in y), as integers:
        (S, S1, S2) with S1 / S = x P_x / P and S2 / S = y P_y / P.

        One pass over the terms with the cleared power tables
        X_i = p^i q^(I-i) and Y_j = r^j s^(J-j) sums c X_i Y_j times 1,
        i and j, so no partial-derivative polynomial is built.
        """
        coeffs = self.coeffs
        if not coeffs:
            return 0, 0, 0
        xs = _cleared_powers(p, q, self.degree_x)
        ys = _cleared_powers(r, s, self.degree_y)
        value = moment1 = moment2 = 0
        for (i, j), c in coeffs.items():
            term = c * xs[i] * ys[j]
            value += term
            moment1 += i * term
            moment2 += j * term
        return value, moment1, moment2

    def diagonal(self) -> IntPolynomial:
        """Collapse both variables to a single activity (set them equal)."""
        out = [0] * (self.degree_x + self.degree_y + 1)
        for (i, j), c in self.coeffs.items():
            out[i + j] += c
        return IntPolynomial(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        items = sorted(self.coeffs.items())
        return f"BivariatePolynomial({dict(items)!r})"
