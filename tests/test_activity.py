"""Every public entry point that takes an activity rejects 0, negatives,
NaN and infinity with the same DomainError, raised by
numerics.check_activity."""

from fractions import Fraction

import pytest

from wrkit.configurations import (
    alpha_u,
    alpha_v,
    complete_neighbourhood_config,
    per_colour_alpha,
)
from wrkit.dynamics import estimate_occupancy
from wrkit.errors import DomainError
from wrkit.extremal import verify_occupancy_bound, verify_partition_bound
from wrkit.graphs import make_cycle
from wrkit.lp import (
    build_primal,
    conditional_expectation_check,
    dual_certificate,
    monotone_lhs_check,
    uniqueness_check,
    verify_claims,
)
from wrkit.numerics import check_activity
from wrkit.occupancy import ActivityPair, alpha_K, occupancy_fraction

CONFIG = complete_neighbourhood_config(2)
CYCLE = make_cycle(4)

ENTRY_POINTS = {
    "check_activity": check_activity,
    "occupancy_fraction": lambda lam: occupancy_fraction(CYCLE, lam),
    "alpha_K": lambda lam: alpha_K(2, lam),
    "ActivityPair.lambda1": lambda lam: ActivityPair(lam, Fraction(1)),
    "ActivityPair.lambda2": lambda lam: ActivityPair(Fraction(1), lam),
    "alpha_v": lambda lam: alpha_v(CONFIG, lam),
    "alpha_u": lambda lam: alpha_u(CONFIG, lam),
    "per_colour_alpha": lambda lam: per_colour_alpha(CONFIG, lam),
    "build_primal": lambda lam: build_primal(2, lam),
    "dual_certificate": lambda lam: dual_certificate(2, lam),
    "verify_claims": lambda lam: verify_claims(CONFIG, 2, lam),
    "conditional_expectation_check": lambda lam: conditional_expectation_check(
        CONFIG, 1, lam
    ),
    "monotone_lhs_check": lambda lam: monotone_lhs_check(2, lam),
    "uniqueness_check": lambda lam: uniqueness_check(2, lam),
    "estimate_occupancy": lambda lam: estimate_occupancy(CYCLE, lam, 10, 10),
    "verify_occupancy_bound": lambda lam: verify_occupancy_bound(CYCLE, 2, lam),
    "verify_partition_bound": lambda lam: verify_partition_bound(CYCLE, 2, lam),
}

BAD_ACTIVITIES = {"zero": Fraction(0), "negative": Fraction(-1), "nan": float("nan")}


@pytest.mark.parametrize("value", BAD_ACTIVITIES.values(), ids=BAD_ACTIVITIES.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_bad_activity_rejected(call, value):
    with pytest.raises(DomainError, match="^activity must be strictly positive, got "):
        call(value)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_infinite_activity_rejected(call):
    with pytest.raises(DomainError, match="^activity must be finite, got inf$"):
        call(float("inf"))
