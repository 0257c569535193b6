"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check here is exact (rational comparison, zero tolerance) except
the seeded statistical acceptance of the sampler, whose tolerance is
max(0.01, 4 * stderr) on at least 19 of 20 fixed seeds.  Stated runtime
budgets are asserted.
"""

import random
import time
from fractions import Fraction

import pytest

from wrkit.configurations import (
    complete_neighbourhood_config,
    enumerate_configs,
    local_partition_functions,
)
from wrkit.dynamics import estimate_occupancy
from wrkit.extremal import catalog as shipped_catalog, conjecture_scan
from wrkit.graphs import make_complete, make_cycle
from wrkit.lp import (
    build_primal,
    dual_certificate,
    simplex_solve,
    uniqueness_check,
    verify_dual_feasibility,
    vertex_enumeration_solve,
)
from wrkit.numerics import binomial_power
from wrkit.occupancy import (
    ActivityPair,
    alpha_K,
    occupancy_fraction,
)
from wrkit.partition import (
    wr_partition,
    wr_partition_bivariate,
    wr_partition_brute,
)
from wrkit.extremal import verify_hom_bound, verify_occupancy_bound, verify_partition_bound

from lp_oracles import conditional_expectation_check, monotone_lhs_check, verify_claims

F = Fraction

THEOREM_GRID = (F(1, 4), F(1, 2), F(1), F(2), F(10))
LP_GRID = (F(1, 2), F(1), F(3))
# the LP criteria run d=1..4 on the whole grid and d=5 at lambda=1
LP_CASES = tuple((d, lam) for d in (1, 2, 3, 4) for lam in LP_GRID) + ((5, F(1)),)
PAIR_GRID = (
    ActivityPair(F(1), F(1)),
    ActivityPair(F(2), F(1)),
    ActivityPair(F(10), F(1)),
    ActivityPair(F(1), F(1, 2)),
)


def report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {message}")


@pytest.fixture(scope="module")
def catalog():
    return shipped_catalog("all")


def test_criterion_01_closed_forms():
    start = time.perf_counter()
    rng = random.Random(101)
    for d in range(1, 9):
        clique = make_complete(d + 1)
        assert wr_partition(clique) == 2 * binomial_power(d + 1) - 1
        for _ in range(10):
            lam = F(rng.randint(1, 60), rng.randint(1, 60))
            assert alpha_K(d, lam) == occupancy_fraction(clique, lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    report(1, f"clique closed forms for d=1..8, 10 random activities each "
              f"({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence(catalog):
    start = time.perf_counter()
    checked = 0
    for g, _ in catalog:
        if g.n <= 12:
            assert wr_partition(g) == wr_partition_brute(g), g.label
            checked += 1
    assert checked >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(2, f"subset-sum equals 3^n brute force on {checked} catalog graphs "
              f"with n <= 12 ({elapsed:.1f}s)")


def test_criterion_03_occupancy_bound(catalog):
    start = time.perf_counter()
    checks = 0
    for g, d in catalog:
        for lam in THEOREM_GRID:
            r = verify_occupancy_bound(g, d, lam)
            assert r.ok, (g.label, lam, r.relation, r.equality_expected)
            checks += 1
    equalities = sum(
        1
        for g, d in catalog
        if verify_occupancy_bound(g, d, F(1)).equality_expected
    )
    assert equalities >= 2  # clique unions are present in both catalogs
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(3, f"occupancy maximised by clique unions across {checks} exact "
              f"catalog comparisons ({elapsed:.1f}s)")


def test_criterion_04_lp_tightness():
    start = time.perf_counter()
    for d, lam in LP_CASES:
        expected_support = [complete_neighbourhood_config(d).key()]
        lp = build_primal(d, lam)
        for sol in (simplex_solve(lp), vertex_enumeration_solve(lp)):
            assert sol.value == alpha_K(d, lam)
            assert [c.key() for c, _ in sol.support] == expected_support
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(4, f"both exact solvers reach the clique optimum with unique "
              f"support, d=1..4 x {len(LP_GRID)} activities and d=5 at "
              f"lambda=1 ({elapsed:.1f}s)")


def test_criterion_05_dual_certificate():
    for d, lam in LP_CASES:
        complete_code_key = complete_neighbourhood_config(d).key()
        rep = verify_dual_feasibility(dual_certificate(d, lam), d, lam)
        assert rep.violations == ()
        tight_keys = {c.key() for c in rep.tight_set}
        predicted = set()
        for config in enumerate_configs(d):
            stats = local_partition_functions(config)
            if len(set(config.lists)) == 1 and not stats.has_dichromatic:
                predicted.add(config.key())
        assert tight_keys == predicted
        # among full-list configurations, tightness only at the clique
        for config in enumerate_configs(d):
            if all(mask == 3 for mask in config.lists):
                tight = config.key() in tight_keys
                assert tight == (config.key() == complete_code_key)
    report(5, "dual certificate feasible with the exact predicted tight set, "
              "d=1..4 and d=5 at lambda=1, full-list tightness only at the "
              "complete neighbourhood")


def test_criterion_06_claim_level_checks():
    for d in (1, 2, 3, 4):
        configs = enumerate_configs(d)
        for lam in LP_GRID:
            for config in configs:
                stats = local_partition_functions(config)
                if stats.a1 == 0 and stats.a2 == 0:
                    continue
                rep = verify_claims(config, d, lam)
                expect_tight = len(set(config.lists)) == 1 and not stats.has_dichromatic
                assert rep.claim_p12.holds and rep.claim_p0.holds
                assert rep.claim_p12.tight == expect_tight
                assert rep.claim_p0.tight == expect_tight
                for colour in (1, 2):
                    if any(mask & colour for mask in config.lists):
                        lhs, rhs, holds = conditional_expectation_check(
                            config, colour, lam
                        )
                        assert holds
    for d in range(1, 9):
        for lam in (F(1, 10), F(1), F(10)):
            assert monotone_lhs_check(d, lam)
    report(6, "claim inequalities, conditional-expectation bound and "
              "monotonicity verified on every configuration, d<=4 grid")


def test_criterion_07_corollaries(catalog):
    for g, d in catalog:
        r1 = verify_partition_bound(g, d, F(1))
        r2 = verify_hom_bound(g, d)
        assert r1.ok and r2.ok, g.label
        for lam in (F(1, 2), F(2)):
            assert verify_partition_bound(g, d, lam).ok, g.label
    assert wr_partition(make_complete(2)).eval(1) == 7
    assert wr_partition(make_complete(4)).eval(1) == 31
    assert wr_partition(make_cycle(4)).eval(1) == 35
    report(7, "partition and hom-count bounds hold on the full catalog; "
              "spot hom counts 7/31/35 reproduced")


def test_criterion_08_uniqueness():
    for d in (1, 2, 3, 4, 5):
        rep = uniqueness_check(d, F(1))
        # tight classes fall only into the three predicted cases, told
        # apart by their (all equal) lists
        by_mask = {mask: [] for mask in (0, 1, 2, 3)}
        for config in rep.tight_set:
            assert len(set(config.lists)) == 1, config.key_text()
            by_mask[config.lists[0]].append(config)
        empty_classes = by_mask[0]
        single_classes = by_mask[1] + by_mask[2]
        assert empty_classes and single_classes
        assert [c.key() for c in by_mask[3]] == [complete_neighbourhood_config(d).key()]
        covered = len(empty_classes) + len(single_classes) + 1
        assert covered == len(rep.tight_set)
        for config in empty_classes + single_classes:
            from wrkit.configurations import alpha_u, alpha_v

            assert alpha_u(config, F(1)) < alpha_v(config, F(1))
        assert [c.key() for c in rep.simplex_support] == [
            complete_neighbourhood_config(d).key()
        ]
        assert rep.simplex_support == rep.enumeration_support
    report(8, "complementary-slackness uniqueness reproduced for d=1..5: "
              "tight cases as predicted, sole optimal support at the clique")


def test_criterion_09_two_activities(catalog):
    for g, _ in catalog:
        assert wr_partition_bivariate(g).diagonal() == wr_partition(g), g.label

    findings = conjecture_scan(catalog, PAIR_GRID)
    violations = [f for f in findings if f.violation]
    assert violations == []
    report(9, f"bivariate diagonal collapse exact on the catalog; "
              f"{len(findings)} scan comparisons, zero violations")


def test_criterion_10_dynamics():
    start = time.perf_counter()
    targets = (
        (make_cycle(5), 42 / 83),
        (make_complete(4), 16 / 31),
    )
    outcome = []
    for graph, exact in targets:
        hits = sum(
            1
            for seed in range(20)
            if abs(
                (est_err := estimate_occupancy(
                    graph, 1.0, burn_in=10_000, samples=1_000_000, seed=seed
                ))[0]
                - exact
            )
            < max(0.01, 4 * est_err[1])
        )
        assert hits >= 19, (graph.label, hits)
        outcome.append(f"{graph.label} {hits}/20")
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(10, f"sampler within tolerance: {', '.join(outcome)} ({elapsed:.1f}s)")
