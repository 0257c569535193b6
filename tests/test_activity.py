"""Every public entry point that takes an activity rejects 0, negatives,
NaN and infinity with the same DomainError, raised by
numerics.check_activity; every exact one converts any other activity
exactly, so a float gives the same Fraction results as the equal
Fraction."""

from collections.abc import Sequence
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from wrkit.configurations import (
    alpha_u,
    alpha_v,
    complete_neighbourhood_config,
)
from wrkit.dynamics import estimate_occupancy, transition_distribution
from wrkit.errors import DomainError
from wrkit.extremal import (
    conjecture_scan,
    verify_occupancy_bound,
    verify_partition_bound,
)
from wrkit.graphs import make_cycle
from wrkit.lp import (
    ClassRows,
    build_primal,
    dual_certificate,
    uniqueness_check,
)
from wrkit.numerics import check_activity
from wrkit.occupancy import (
    ActivityPair,
    alpha_K,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
    weighted_occupancy_K,
)

from lp_oracles import conditional_expectation_check, monotone_lhs_check, verify_claims

CONFIG = complete_neighbourhood_config(2)
CYCLE = make_cycle(4)

ENTRY_POINTS = {
    "check_activity": check_activity,
    "occupancy_fraction": lambda lam: occupancy_fraction(CYCLE, lam),
    "alpha_K": lambda lam: alpha_K(2, lam),
    "ActivityPair.lambda1": lambda lam: ActivityPair(lam, Fraction(1)),
    "ActivityPair.lambda2": lambda lam: ActivityPair(Fraction(1), lam),
    "occupancy_by_colour": lambda lam: occupancy_by_colour(
        CYCLE, ActivityPair(lam, Fraction(1))
    ),
    "weighted_occupancy": lambda lam: weighted_occupancy(
        CYCLE, ActivityPair(lam, Fraction(1))
    ),
    "weighted_occupancy_K": lambda lam: weighted_occupancy_K(
        2, ActivityPair(lam, Fraction(1))
    ),
    "conjecture_scan": lambda lam: conjecture_scan(
        [(CYCLE, 2)], [ActivityPair(lam, Fraction(1))]
    ),
    "alpha_v": lambda lam: alpha_v(CONFIG, lam),
    "alpha_u": lambda lam: alpha_u(CONFIG, lam),
    "build_primal": lambda lam: build_primal(2, lam),
    "dual_certificate": lambda lam: dual_certificate(2, lam),
    "verify_claims": lambda lam: verify_claims(CONFIG, 2, lam),
    "conditional_expectation_check": lambda lam: conditional_expectation_check(
        CONFIG, 1, lam
    ),
    "monotone_lhs_check": lambda lam: monotone_lhs_check(2, lam),
    "uniqueness_check": lambda lam: uniqueness_check(2, lam),
    "estimate_occupancy": lambda lam: estimate_occupancy(CYCLE, lam, 10, 10),
    "transition_distribution": lambda lam: transition_distribution(
        (0, 1, 0, 0), CYCLE, lam
    ),
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


# the sampler runs in floats by design; every other entry point is exact
EXACT_ENTRY_POINTS = {
    name: call for name, call in ENTRY_POINTS.items() if name != "estimate_occupancy"
}


def _leaves(value):
    """The scalars of a result, in order: walked through dataclass fields,
    a report's per-signature verdicts, dict values and any sequence but a
    string."""
    if is_dataclass(value):
        for field in fields(value):
            yield from _leaves(getattr(value, field.name))
    elif isinstance(value, ClassRows):
        yield from _leaves(value.verdicts)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, Sequence) and not isinstance(value, str):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize(
    "call", EXACT_ENTRY_POINTS.values(), ids=EXACT_ENTRY_POINTS.keys()
)
def test_float_activity_gives_the_exact_result(call):
    leaves = list(_leaves(call(0.5)))
    assert leaves == list(_leaves(call(Fraction(1, 2))))
    assert not any(isinstance(leaf, float) for leaf in leaves)


def test_a_positive_fraction_comes_back_unchanged():
    lam = Fraction(7, 3)
    assert check_activity(lam) is lam

    class Activity(Fraction):
        pass

    # any other type converts to a plain Fraction, a subclass included
    converted = ((Activity(7, 3), Fraction(7, 3)), (3, Fraction(3)), (0.25, Fraction(1, 4)))
    for value, exact in converted:
        checked = check_activity(value)
        assert type(checked) is Fraction and checked == exact
