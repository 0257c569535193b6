"""Extremality bound checks and the two-activity conjecture scan."""

from dataclasses import replace
from fractions import Fraction

import pytest

from wrkit.errors import DomainError, UsageError
from wrkit.extremal import (
    CATALOG_D2,
    CATALOG_D3,
    BoundReport,
    bound_reports_csv,
    catalog,
    conjecture_scan,
    findings_csv,
    verify_bounds,
    verify_hom_bound,
    verify_occupancy_bound,
    verify_partition_bound,
)
from wrkit.graphs import (
    check_regular,
    disjoint_union,
    is_union_of_complete,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    make_random_regular,
    parse_builtin,
)
from wrkit.occupancy import ActivityPair, alpha_K, occupancy_fraction
from wrkit.partition import wr_partition, wr_partition_brute

F = Fraction


def test_occupancy_bound_examples():
    r = verify_occupancy_bound(make_cycle(5), 2, F(1))
    assert (r.lhs, r.relation, r.rhs) == (F(42, 83), "<", F(8, 15))
    assert not r.equality_expected and r.ok

    union = disjoint_union(make_complete(3), make_complete(3))
    r = verify_occupancy_bound(union, 2, F(1))
    assert r.relation == "=" and r.equality_expected and r.ok

    r = verify_occupancy_bound(make_petersen(), 3, F(1))
    assert r.relation == "<" and r.rhs == F(16, 31) and r.ok


def test_partition_bound_examples():
    r = verify_partition_bound(make_cycle(4), 2, F(1))
    assert (r.lhs, r.rhs) == (42875, 50625)
    assert r.relation == "<" and r.ok

    union = disjoint_union(make_complete(4), make_complete(4))
    r = verify_partition_bound(union, 3, F(1))
    assert r.relation == "=" and r.lhs == 31**8

    r = verify_partition_bound(make_complete_bipartite(3, 3), 3, F(1))
    assert r.relation == "<" and r.ok


def test_hom_bound_examples():
    r = verify_hom_bound(make_complete(2), 1)
    assert r.relation == "=" and r.lhs == r.rhs == 49

    r = verify_hom_bound(make_cycle(6), 2)
    hom_c6 = wr_partition_brute(make_cycle(6)).eval(1)
    assert r.lhs == hom_c6**3
    assert r.lhs < 15**6 and r.rhs == 15**6

    r = verify_hom_bound(make_petersen(), 3)
    assert r.relation == "<" and r.rhs == 31**10


def test_hom_bound_is_partition_bound_at_one():
    for g, d in ((make_cycle(5), 2), (make_petersen(), 3)):
        a = verify_hom_bound(g, d)
        b = verify_partition_bound(g, d, F(1))
        assert (a.lhs, a.rhs, a.relation) == (b.lhs, b.rhs, b.relation)


ORACLE_LAMBDAS = (F(1, 4), F(1), F(7, 3), F(10**6, 999999), F(1, 10**6))


def direct_report(g, d, check, lam, lhs, rhs):
    """A report built from the given sides, its relation by comparison and
    its equality flag from is_union_of_complete."""
    relation = "=" if lhs == rhs else "<" if lhs < rhs else ">"
    return BoundReport(
        g.label, g.n, d, check, str(lam), lhs, rhs, relation, is_union_of_complete(g, d + 1)
    )


def test_each_graph_is_checked_once_against_the_direct_routes():
    # verify's per-graph pass against the routes it replaces: the
    # occupancy fraction against alpha_K's closed form, and each
    # partition function evaluated on its own, raised to clear the
    # fractional exponent
    for g, d in catalog("all"):
        clique = wr_partition(make_complete(d + 1))
        expected = []
        for lam in ORACLE_LAMBDAS:
            expected.append(
                direct_report(g, d, "occupancy", lam, occupancy_fraction(g, lam), alpha_K(d, lam))
            )
            expected.append(direct_report(
                g, d, "partition", lam,
                wr_partition(g).eval(lam) ** (d + 1), clique.eval(lam) ** g.n,
            ))
        at_one = expected[2 * ORACLE_LAMBDAS.index(1) + 1]
        hom = replace(at_one, check="hom-count")
        assert verify_bounds(g, d, ORACLE_LAMBDAS) == expected + [hom], g.label
        for k, lam in enumerate(ORACLE_LAMBDAS):
            assert verify_occupancy_bound(g, d, lam) == expected[2 * k]
            assert verify_partition_bound(g, d, lam) == expected[2 * k + 1]
        assert verify_hom_bound(g, d) == hom


def test_non_regular_rejected():
    with pytest.raises(DomainError, match="vertex"):
        verify_occupancy_bound(make_complete_bipartite(2, 3), 2, F(1))
    with pytest.raises(DomainError):
        verify_partition_bound(make_cycle(4), 3, F(1))


def test_union_scaling_consistency():
    g = make_cycle(7)
    gg = disjoint_union(g, g)
    for lam in (F(1, 2), F(3)):
        assert (
            verify_occupancy_bound(g, 2, lam).relation
            == verify_occupancy_bound(gg, 2, lam).relation
        )


def test_bound_directions_agree():
    for g, d in ((make_cycle(5), 2), (make_complete(4), 3), (make_petersen(), 3)):
        for lam in (F(1, 4), F(1), F(10)):
            occ = verify_occupancy_bound(g, d, lam)
            part = verify_partition_bound(g, d, lam)
            assert occ.relation == part.relation


def test_catalogs_are_regular():
    for name, degree in (("d2", 2), ("d3", 3)):
        for g, d in catalog(name):
            assert d == degree, g.label
            check_regular(g, d)
    assert len(catalog("d3")) == 28  # 8 named + 20 random


def test_scan_diagonal_matches_proven_bound():
    catalog = [(make_cycle(4), 2), (make_cycle(5), 2), (make_complete(3), 2)]
    findings = conjecture_scan(catalog, [ActivityPair(F(1), F(1))])
    assert all(not f.violation for f in findings)
    # the proven single-activity statement: strict unless a clique union
    for f in findings:
        assert (f.relation == "=") == f.equality_expected


def test_scan_union_equality():
    union = disjoint_union(make_complete(3), make_complete(3))
    findings = conjecture_scan([(union, 2)], [ActivityPair(F(2), F(1))])
    assert all(f.relation == "=" for f in findings)
    assert all(not f.violation for f in findings)


def test_scan_small_grid_no_violations():
    grid = [
        ActivityPair(F(1), F(1)),
        ActivityPair(F(2), F(1)),
        ActivityPair(F(1), F(1, 2)),
    ]
    catalog = [(make_cycle(n), 2) for n in (3, 4, 5, 6)]
    catalog.append((make_complete(4), 3))
    catalog.append((make_complete_bipartite(3, 3), 3))
    findings = conjecture_scan(catalog, grid)
    assert len(findings) == len(catalog) * len(grid) * 2
    assert all(not f.violation for f in findings)


def test_findings_csv_header():
    findings = conjecture_scan([(make_cycle(3), 2)], [ActivityPair(F(1), F(1))])
    csv = findings_csv(findings)
    assert csv.splitlines()[0] == (
        "graph,n,d,lambda1,lambda2,check,lhs,rhs,relation,equality_expected"
    )
    assert len(csv.splitlines()) == 3


def test_bound_reports_csv():
    reports = [verify_occupancy_bound(make_cycle(5), 2, F(1))]
    csv = bound_reports_csv(reports)
    assert "42/83" in csv and "8/15" in csv


def _shape(graphs):
    return [(g.label, g.n, g.adj) for g in graphs]


def _graphs(name):
    return [g for g, _ in catalog(name)]


def test_catalogs_are_their_parsed_specs():
    # same order, labels and adjacency as the spec tuples parse to
    assert _shape(_graphs("d2")) == _shape(parse_builtin(s) for s in CATALOG_D2)
    assert _shape(_graphs("d3")) == _shape(parse_builtin(s) for s in CATALOG_D3)
    assert [g.label for g in _graphs("d2")] == list(CATALOG_D2)
    assert [g.label for g in _graphs("d3")] == list(CATALOG_D3)
    # and the specs mean the builder calls they name
    by_label = {g.label: g for g in _graphs("all")}
    union = disjoint_union(disjoint_union(make_cycle(3), make_cycle(3)), make_cycle(3))
    assert _shape([by_label["cycle:3+cycle:3+cycle:3"]]) == _shape([union])
    assert by_label["bipartite:3,3"].adj == make_complete_bipartite(3, 3).adj
    assert by_label["petersen"].adj == make_petersen().adj
    assert _shape([by_label["random_regular:14,3,1017"]]) == _shape(
        [make_random_regular(14, 3, seed=1017)]
    )


def test_full_catalog_shape():
    # "all" is every catalog in table order
    full = catalog("all")
    for g, d in full:
        check_regular(g, d)
    assert [(g.label, d) for g, d in full] == [
        (g.label, d) for name in ("d2", "d3") for g, d in catalog(name)
    ]


def test_unknown_catalog_lists_the_table():
    with pytest.raises(UsageError, match=r"^unknown catalog 'd4' \(want d2, d3 or all\)$"):
        catalog("d4")


def test_report_ok_flags_greater_as_failure():
    bad = BoundReport(
        graph="x", n=3, d=2, check="occupancy", activity="1",
        lhs=F(2), rhs=F(1), relation=">", equality_expected=False,
    )
    assert not bad.ok
