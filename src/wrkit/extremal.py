"""End-to-end extremality checks over graph catalogs.

Every check compares a d-regular graph against the complete graph on d+1
vertices, exactly: the occupancy fraction directly, and the partition
function / homomorphism count after clearing the fractional exponent by
raising both sides to integer powers.  Equality must occur precisely on
unions of complete graphs on d+1 vertices; any other outcome is a
red-alert finding, reported as data so it can never be silently dropped.

verify_bounds makes all of one graph's checks in one pass: the graph is
checked for regularity and for being a union of cliques once, both
partition polynomials are looked up once, and each activity costs one
integer evaluation per polynomial, which gives its occupancy fraction
and its value together; the hom-count is the coefficient sum.  The three
single checks are entries of that pass's reports.

The two-activity scan covers the open questions: it records exact
comparisons of the bivariate partition function and of the weighted
occupancy fraction over a catalog and an activity-pair grid.  A genuine
violation there would be a research finding, not a bug, and gets a
distinguished exit status in the CLI.

Both record types, BoundReport for the checks and ScanFinding for the
scan, come from one private builder that fills the fields they share
(graph label, n, d, both sides, relation and whether equality is
expected), and both CSV reports are rendered by ``numerics.csv_text``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import UsageError
from .graphs import (
    Graph,
    check_degree_floor,
    check_regular,
    check_vertices,
    is_union_of_complete,
    make_complete,
    parse_builtin,
)
from .numerics import IntPolynomial, check_activity, csv_text, format_rational
from .occupancy import ActivityPair, clique_comparison
from .partition import wr_partition

EQUAL = "="
LESS = "<"
GREATER = ">"


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one exact comparison against the complete-graph benchmark."""

    graph: str
    n: int
    d: int
    check: str
    activity: str
    lhs: Fraction
    rhs: Fraction
    relation: str
    equality_expected: bool

    @property
    def ok(self) -> bool:
        """The characterisation holds: equality exactly on unions of cliques."""
        return (self.relation == EQUAL) == self.equality_expected and (
            self.relation != GREATER
        )


def _relation(lhs: Fraction, rhs: Fraction) -> str:
    if lhs == rhs:
        return EQUAL
    return LESS if lhs < rhs else GREATER


def _compare(
    record, g: Graph, d: int, lhs: Fraction, rhs: Fraction, expected: bool, **fields
):
    """A BoundReport or ScanFinding comparing g with the clique on d+1
    vertices: the fields the two share, then the record's own fields."""
    return record(
        graph=g.label or f"n{g.n}m{g.m}",
        n=g.n,
        d=d,
        lhs=lhs,
        rhs=rhs,
        relation=_relation(lhs, rhs),
        equality_expected=expected,
        **fields,
    )


def verify_bounds(g: Graph, d: int, lams: Iterable[Fraction]) -> list[BoundReport]:
    """Every check of g against the clique on d+1 vertices, in verify's
    order: the occupancy and the partition bound at each activity, then
    the hom-count, from the one pass over the graph that the module
    docstring describes.  The partition bounds compare P_G^(d+1) with
    P_clique^n.  Refusals come in one order: regularity, the activities,
    an empty graph, the exact cap, the degree floor.
    """
    check_regular(g, d)
    lams = [check_activity(lam) for lam in lams]
    check_vertices(g)
    poly = wr_partition(g)
    check_degree_floor(d)
    clique = wr_partition(make_complete(d + 1))
    n, expected = g.n, is_union_of_complete(g, d + 1)

    def report(check, activity, lhs, rhs):
        return _compare(BoundReport, g, d, lhs, rhs, expected, check=check, activity=activity)

    reports = []
    for lam in lams:
        activity = format_rational(lam)
        occupancy_g, value_g = _occupancy_and_value(poly, n, lam)
        occupancy_k, value_k = _occupancy_and_value(clique, d + 1, lam)
        reports.append(report("occupancy", activity, occupancy_g, occupancy_k))
        reports.append(report("partition", activity, value_g ** (d + 1), value_k ** n))
    hom_g, hom_k = Fraction(sum(poly.coeffs)), Fraction(sum(clique.coeffs))
    reports.append(report("hom-count", "1", hom_g ** (d + 1), hom_k ** n))
    return reports


def _occupancy_and_value(
    poly: IntPolynomial, n: int, lam: Fraction
) -> tuple[Fraction, Fraction]:
    """The occupancy fraction and the value at lam = p/q of an n-vertex
    graph's partition polynomial, from one scaled_eval: (V, M) =
    q^deg (P, lam P'), so Fraction(M, n V) and Fraction(V, q^deg)."""
    p, q = lam.numerator, lam.denominator
    value, moment = poly.scaled_eval(p, q, poly.degree)
    return Fraction(moment, n * value), Fraction(value, q**poly.degree)


def verify_occupancy_bound(g: Graph, d: int, lam: Fraction) -> BoundReport:
    """Exact comparison of the occupancy fraction against the clique value."""
    return verify_bounds(g, d, [lam])[0]


def verify_partition_bound(g: Graph, d: int, lam: Fraction) -> BoundReport:
    """Per-vertex partition-function bound, cleared of fractional exponents:
    P_G(lam)^(d+1) compared with P_clique(lam)^n."""
    return verify_bounds(g, d, [lam])[1]


def verify_hom_bound(g: Graph, d: int) -> BoundReport:
    """Counting specialisation at activity 1, in exact integers."""
    return verify_bounds(g, d, [])[0]


# ---------------------------------------------------------------------------
# catalogs


# The desk catalogs as builtin specs (graphs.parse_builtin), each
# spec its graph's label: 2-regular, every cycle up to 12 plus unions of
# cycles; 3-regular, named graphs plus seeded random regulars.
CATALOG_D2 = tuple(f"cycle:{n}" for n in range(3, 13)) + (
    "cycle:3+cycle:3",
    "cycle:3+cycle:3+cycle:3",
    "cycle:3+cycle:4",
    "cycle:4+cycle:6",
    "cycle:5+cycle:5",
    "cycle:6+cycle:8",
)
CATALOG_D3 = (
    "complete:4",
    "bipartite:3,3",
    "petersen",
    "prism:3",
    "prism:4",
    "prism:5",
    "prism:6",
    "complete:4+complete:4",
) + tuple(f"random_regular:{(8, 10, 14)[i % 3]},3,{1000 + i}" for i in range(20))

# Every catalog by name: its degree and its specs.  A new catalog is one
# entry here; verify, scan and their help read this table.
CATALOGS = {"d2": (2, CATALOG_D2), "d3": (3, CATALOG_D3)}


def catalog_choices() -> str:
    """The names catalog() takes, as the help and its error list them."""
    return ", ".join(CATALOGS) + " or all"


def catalog(name: str) -> list[tuple[Graph, int]]:
    """The (graph, d) pairs of catalog ``name``, or of every catalog in
    table order for "all"."""
    if name == "all":
        entries = CATALOGS.values()
    elif name in CATALOGS:
        entries = [CATALOGS[name]]
    else:
        raise UsageError(f"unknown catalog {name!r} (want {catalog_choices()})")
    return [(parse_builtin(spec), d) for d, specs in entries for spec in specs]


# ---------------------------------------------------------------------------
# two-activity scan


@dataclass(frozen=True)
class ScanFinding:
    """One exact two-activity comparison; violation=True is a counterexample."""

    graph: str
    n: int
    d: int
    lambda1: Fraction
    lambda2: Fraction
    check: str
    lhs: Fraction
    rhs: Fraction
    relation: str
    equality_expected: bool

    @property
    def violation(self) -> bool:
        return self.relation == GREATER


def conjecture_scan(
    catalog: Iterable[tuple[Graph, int]], grid: Sequence[ActivityPair]
) -> list[ScanFinding]:
    """Exact two-activity comparisons over a catalog and activity grid.

    For each graph and pair: (a) the bivariate partition bound with
    exponents cleared, and (b) the weighted occupancy fraction against
    the clique value.  Everything is recorded; rows with relation '>' are
    counterexamples to the open conjectures and must be surfaced.
    """
    findings = []
    for g, d in catalog:
        check_regular(g, d)
        expected = is_union_of_complete(g, d + 1)
        for act in grid:
            x, y = act.lambda1, act.lambda2
            part_g, part_k, weighted_g, weighted_k = clique_comparison(g, d, act)
            findings.append(_compare(
                ScanFinding, g, d, part_g ** (d + 1), part_k ** g.n, expected,
                lambda1=x, lambda2=y, check="partition",
            ))
            findings.append(_compare(
                ScanFinding, g, d, weighted_g, weighted_k, expected,
                lambda1=x, lambda2=y, check="weighted-occupancy",
            ))
    return findings


def findings_csv(findings: Iterable[ScanFinding]) -> str:
    return csv_text(
        "graph,n,d,lambda1,lambda2,check,lhs,rhs,relation,equality_expected",
        (
            (f.graph, f.n, f.d, f.lambda1, f.lambda2, f.check, f.lhs, f.rhs,
             f.relation, f.equality_expected)
            for f in findings
        ),
    )


def bound_reports_csv(reports: Iterable[BoundReport]) -> str:
    return csv_text(
        "graph,n,d,check,lambda,lhs,rhs,relation,equality_expected,ok",
        (
            (r.graph, r.n, r.d, r.check, r.activity, r.lhs, r.rhs, r.relation,
             r.equality_expected, r.ok)
            for r in reports
        ),
    )
