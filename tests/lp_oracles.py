"""Per-lambda Fraction routes of the paper's two claims, kept as test
oracles: the alphas of a class, the claims behind each dual constraint,
the conditional expectation they rest on, and the monotone clique
ratio.  The library checks the claims' sum in integers
(lp._slack_numerators) and builds each column from a packed p0
(configurations.local_alphas); these evaluate each claim and each alpha
on its own, in Fractions, from the local polynomials."""

from dataclasses import dataclass
from fractions import Fraction

from wrkit.configurations import (
    ConfigStats,
    Configuration,
    local_partition_functions,
)
from wrkit.errors import DomainError, UsageError, VerificationError
from wrkit.lp import _clique_ratio
from wrkit.numerics import check_activity
from wrkit.partition import valid_colourings


def _claim_terms(stats: ConfigStats, lam: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The numerators p0', lam*p12' of claim_p0 and claim_p12 at lam, and
    their shared denominator 2*p0 - p12, which must be positive."""
    denom = 2 * stats.p0.eval(lam) - stats.p12.eval(lam)
    if denom <= 0:
        raise VerificationError("2*p0 - p12 must be positive here")
    return stats.p0.derivative().eval(lam), lam * stats.p12.derivative().eval(lam), denom


def fraction_alphas(stats: ConfigStats, d: int, lam: Fraction) -> tuple[Fraction, Fraction]:
    """alpha_v = lam p12 / pc and alpha_u = lam (p0' + lam p12') / (d pc),
    each polynomial evaluated at lam in Fractions: the oracle for the
    integer column of configurations.local_alphas."""
    pc = stats.p0.eval(lam) + lam * stats.p12.eval(lam)
    dp = stats.p0.derivative().eval(lam) + lam * stats.p12.derivative().eval(lam)
    return lam * stats.p12.eval(lam) / pc, lam * dp / (d * pc)


@dataclass(frozen=True)
class ClaimCheck:
    holds: bool
    tight: bool
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ClaimsReport:
    claim_p12: ClaimCheck
    claim_p0: ClaimCheck


def verify_claims(config: Configuration, d: int, lam: Fraction) -> ClaimsReport:
    """The two summand inequalities behind the dual constraint.

    claim_p12:  lam * p12' / (2*p0 - p12) <= lam * r_d
    claim_p0:   p0' / (2*p0 - p12)        <= r_d,
    r_d = d(1+lam)^(d-1) / ((1+lam)^d - 1).

    Both are tight exactly on the all-equal-lists, no-dichromatic classes.
    The all-empty class is excluded (its denominator vanishes).
    """
    if config.d != d:
        raise UsageError("configuration size does not match d")
    lam = check_activity(lam)
    stats = local_partition_functions(config)
    if stats.a1 == 0 and stats.a2 == 0:
        raise DomainError("all-empty lists: 2*p0 - p12 vanishes identically")
    p0_term, p12_term, denom = _claim_terms(stats, lam)
    lhs12, lhs0 = p12_term / denom, p0_term / denom
    rhs0 = _clique_ratio(d, lam)
    rhs12 = lam * rhs0
    return ClaimsReport(
        claim_p12=ClaimCheck(lhs12 <= rhs12, lhs12 == rhs12, lhs12, rhs12),
        claim_p0=ClaimCheck(lhs0 <= rhs0, lhs0 == rhs0, lhs0, rhs0),
    )


def conditional_expectation_check(
    config: Configuration, colour: int, lam: Fraction
) -> tuple[Fraction, Fraction, bool]:
    """Expected count of one colour, conditioned on it appearing at all.

    The left side is computed by full enumeration of the neighbourhood
    colourings; the right side is the complete-neighbourhood value
    lam * r_d, which must dominate.
    """
    if colour not in (1, 2):
        raise UsageError(f"colour must be 1 or 2, got {colour}")
    lam = check_activity(lam)
    if not any(mask & colour for mask in config.lists):
        raise DomainError(f"colour {colour} is not available in any list")
    stats = local_partition_functions(config)

    # weight and colour-count accumulation over colourings using the colour
    options = [tuple(c for c in (0, 1, 2) if not c or mask & c) for mask in config.lists]
    expectation_sum = Fraction(0)
    for colouring in valid_colourings(config.graph, options):
        count = sum(1 for c in colouring if c == colour)
        if count:
            coloured = config.d - colouring.count(0)
            expectation_sum += count * lam**coloured
    other = stats.p2 if colour == 1 else stats.p1
    weight_with_colour = stats.p0.eval(lam) - other.eval(lam)

    lhs = expectation_sum / weight_with_colour
    rhs = lam * _clique_ratio(config.d, lam)
    return lhs, rhs, lhs <= rhs


def monotone_lhs_check(d: int, lam: Fraction) -> bool:
    """Strict growth of r_a = a(1+lam)^(a-1) / ((1+lam)^a - 1) for a = 1..d."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    lam = check_activity(lam)
    return all(_clique_ratio(a, lam) < _clique_ratio(a + 1, lam) for a in range(1, d))
