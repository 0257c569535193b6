"""Linear-programming layer: the local relaxation, its exact solution, and
the dual certificate with its tightness structure.

The primal program puts a probability q(C) on every configuration class
and maximises the expected centre-occupancy estimate subject to the
balance constraint that centre and neighbour estimates agree in
expectation (which they must in any d-regular graph):

    max  sum q(C) alpha_v(C)
    s.t. sum q(C)                          = 1
         sum q(C) (alpha_v(C) - alpha_u(C)) = 0
         q >= 0

Two independent exact solvers report a basic solution: the generic
simplex, and the upper concave envelope of the points (balance,
objective) read at balance 0.  A column depends on a class only through
its signature (p0, packed into one int, and {a1, a2}, which fix p12),
which it shares with its reduced class, so the instance has one
variable per distinct column of the reduced classes (390 from 1,438 at
d = 5, where there are 12,208 classes).  configurations owns the
signatures, free of the activity: certificate_signatures, which builds
those on d vertices by adding one vertex to each reduced class on
d - 1, names each by its first class there and puts the complete
neighbourhood first; full_class_signatures for the report's rows; the
tight reduced classes and their signatures; and the column routine
local_alphas.  This layer adds each signature's column at lam
(_signature_table), from its packed p0 and a closed form of p12, with no
polynomial object.  A class sharing the complete neighbourhood's column
would be tight, and every tight class other than that one has alpha_u <
alpha_v (checked by uniqueness_check, on the columns), so the reported
support is the full program's.  Columns are integers (X_v, X_v - X_u, D)
over D > 0 (configurations.local_alphas), so the hull, the simplex and
each dual constraint's verdict work in ints, and Fractions are built
only for an optimum, a weight or a signature's verdict.

The dual certificate (lambda_p, lambda_c) proves the optimum equals the
complete-neighbourhood value; every dual constraint is checked in alpha
form and again as the sum of the paper's two claims,

    p0'/(2*p0 - p12) <= r_d  and  lam*p12'/(2*p0 - p12) <= lam*r_d,

with r_a = a(1+lam)^(a-1) / ((1+lam)^a - 1), once per signature.  The
same pass requires the tight signatures to be exactly the four of the
predicted classes: all lists empty, the independent d-set listed {1},
the same listed {2}, and K_d with full lists.  Each of the four
signatures is its class's alone (verify_dual_feasibility gives the
argument), so that is the check that these four are the tight reduced
classes, made with no class listed; any other tight signature is a
VerificationError.  The tight full classes are those of the four,
3 g(d) + 1 of them for g(d) graph classes: dualcert counts them by
Polya's count, and lp lists them (tight_full_classes), the one listing
of the graph classes on d vertices it makes.  Complementary slackness
pins the unique optimum to the complete neighbourhood.
uniqueness_check runs this whole chain.  The report's rows hold only
their count, one per full class by Polya's count over cycle types, and
each signature's verdict; config_report_csv, which only the configs
command calls, renders each full class's row as full_class_signatures
walks it and keeps none.
A violated signature is named by its first class in the table, so a
failed certificate lists no more classes than a passing one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from math import gcd, lcm

from . import simplex
from .configurations import (
    Configuration,
    certificate_signatures,
    check_degree,
    count_configs,
    count_graph_classes,
    full_class_signatures,
    local_alphas,
    signature,
    tight_full_classes,
    tight_reduced_classes,
    tight_reduced_signatures,
)
from .errors import UsageError, VerificationError
from .numerics import check_activity, csv_text, format_rational
from .occupancy import alpha_K


@dataclass(frozen=True)
class LPInstance:
    """The relaxation for one (d, activity) pair: one variable per distinct
    column, named by the first class of certificate_signatures(d) with
    it, in that order.  A column is held as integers (X_v, X_v - X_u, D),
    reduced by their gcd, with D > 0: its alpha_v and balance over D."""

    d: int
    configs: tuple[Configuration, ...]
    columns: tuple[tuple[int, int, int], ...]

    @cached_property
    def objective(self) -> tuple[Fraction, ...]:
        """alpha_v per column."""
        return tuple(Fraction(x_v, den) for x_v, _, den in self.columns)

    @cached_property
    def balance(self) -> tuple[Fraction, ...]:
        """alpha_v - alpha_u per column."""
        return tuple(Fraction(balance, den) for _, balance, den in self.columns)


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    support: tuple[tuple[Configuration, Fraction], ...]


@dataclass(frozen=True)
class DualCertificate:
    """Dual-feasible multipliers proving the optimum.

    lambda_p prices the normalisation row and equals the conjectured
    optimum; lambda_c prices the balance row and is fixed by making the
    all-empty-lists constraint tight.  Its two closed forms,
        1 - (alpha_K / 2 lam) (1 + 2 lam)
    and
        (alpha_K / 2 lam) ((1+lam)^d - 1) / (1+lam)^d,
    must agree exactly.
    """

    lambda_p: Fraction
    lambda_c: Fraction
    d: int
    activity: Fraction


@lru_cache(maxsize=8)
def _signature_table(d: int, lam: Fraction) -> tuple[tuple, ...]:
    """Per signature of certificate_signatures(d), its first (class, a1,
    a2, packed p0) and its integer column at lam from local_alphas, as
    (first class, a1, a2, packed p0, X_v, X_u, D).  build_primal,
    verify_dual_feasibility and uniqueness_check all read it, so the
    columns are evaluated once per command."""
    return tuple(
        (*first, *local_alphas(*first[1:], d, lam)) for first in certificate_signatures(d)[0]
    )


def build_primal(d: int, lam: Fraction) -> LPInstance:
    """One variable per distinct column (alpha_v, alpha_v - alpha_u) at lam,
    the column evaluated once per distinct signature (p0, p12).  Two
    columns are equal iff their gcd-reduced integer triples are."""
    lam = check_activity(lam)
    signatures = _signature_table(d, lam)
    # signatures come in certificate_signatures order, so the first one
    # with a column names it
    columns: dict[tuple[int, int, int], Configuration] = {}
    for config, _, _, _, x_v, x_u, den in signatures:
        g = gcd(x_v, x_u, den)
        columns.setdefault((x_v // g, (x_v - x_u) // g, den // g), config)
    return LPInstance(d, tuple(columns.values()), tuple(columns))


def simplex_solve(lp: LPInstance) -> LPSolution:
    """Exact optimum of the relaxation via the generic simplex, on the
    integer columns: variable j is y_j = q_j / D_j, with objective X_v and
    rows D and X_v - X_u, column j times D_j > 0, which changes no sign,
    zero or ratio that Bland's rule reads; each weight is q_j = D_j y_j.
    """
    den = [w for _, _, w in lp.columns]
    result = simplex.solve(
        [x_v for x_v, _, _ in lp.columns],
        [den, [balance for _, balance, _ in lp.columns]],
        [1, 0],
    )
    if result.status != simplex.OPTIMAL:
        return LPSolution(result.status, None, ())
    support = tuple(
        (c, y * w) for c, y, w in zip(lp.configs, result.solution, den) if y != 0
    )
    return LPSolution(simplex.OPTIMAL, result.value, support)


def _by_balance(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """Order homogeneous points (x, y, w), w > 0, by x/w, then by y/w
    from the top, as the sign of an integer."""
    return a[0] * b[2] - b[0] * a[2] or b[1] * a[2] - a[1] * b[2]


def _det(a: tuple[int, int, int], b: tuple[int, int, int], c: tuple[int, int, int]) -> int:
    """The determinant of the rows a, b, c: for weights w > 0, the cross
    product (b - a) x (c - a) of the points (x/w, y/w) times the three
    weights."""
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    return ax * (by * cw - bw * cy) - ay * (bx * cw - bw * cx) + aw * (bx * cy - by * cx)


def vertex_enumeration_solve(lp: LPInstance) -> LPSolution:
    """Independent solver: the upper concave envelope of the columns.

    A feasible point is a probability vector whose balance averages to
    zero, so the optimum is the upper concave envelope of the points
    (balance, objective) at balance 0, and the program is infeasible iff
    0 lies outside the balances' range.  Andrew's monotone chain builds
    the upper hull of the top point of each balance, on the homogeneous
    integer points (X_v - X_u, X_v, D), its orientation test the sign of
    a 3x3 integer determinant: no tableau and no pivots, so this route
    stays independent of the simplex.

    The support is a basic solution, named as a scan of all supports of
    size 1 and then 2 in column order would name it: the first column
    with balance 0 at the optimum, with weight 1; else the first
    positive-balance and the first negative-balance column on the
    envelope's segment across 0, with the convex weights that solve the
    balance row.
    """
    ordered = sorted(((b, o, w) for o, b, w in lp.columns), key=cmp_to_key(_by_balance))
    # the top point of each balance comes first among the points with it
    points = [
        p for i, p in enumerate(ordered)
        if not i or p[0] * ordered[i - 1][2] != ordered[i - 1][0] * p[2]
    ]
    if not points or points[0][0] > 0 or points[-1][0] < 0:
        return LPSolution(simplex.INFEASIBLE, None, ())

    hull: list[tuple[int, int, int]] = []
    for c in points:
        # keep b only if it lies strictly above the chord from a to c
        while len(hull) >= 2 and _det(hull[-2], hull[-1], c) >= 0:
            hull.pop()
        hull.append(c)

    # b is the first hull vertex at or right of balance 0; the optimum is
    # the envelope's height there, vy / vw with vw > 0
    i = next(i for i, (x, _, _) in enumerate(hull) if x >= 0)
    bx, by, bw = hull[i]
    if bx == 0:
        vy, vw = by, bw
    else:
        ax, ay, aw = hull[i - 1]
        vy, vw = ay * bx - by * ax, bx * aw - ax * bw
    value = Fraction(vy, vw)

    columns = list(zip(lp.configs, lp.columns))
    config = next((c for c, (o, b, w) in columns if b == 0 and o * vw == vy * w), None)
    if config is not None:
        return LPSolution(simplex.OPTIMAL, value, ((config, Fraction(1)),))
    # the line through a and b passes through (0, value)
    rise = by * vw - vy * bw
    on_line = [(c, b, w) for c, (o, b, w) in columns if (o * vw - vy * w) * bx == rise * b]
    ci, xi, wi = next(column for column in on_line if column[1] > 0)
    cj, xj, wj = next(column for column in on_line if column[1] < 0)
    span = xi * wj - xj * wi
    return LPSolution(
        simplex.OPTIMAL, value, ((ci, Fraction(-xj * wi, span)), (cj, Fraction(xi * wj, span)))
    )


def dual_certificate(d: int, lam: Fraction) -> DualCertificate:
    """The certified dual point; both closed forms of lambda_c must agree."""
    lam = check_activity(lam)
    a_k = alpha_K(d, lam)
    grow = (1 + lam) ** d
    form_a = 1 - a_k / (2 * lam) * (1 + 2 * lam)
    form_b = a_k / (2 * lam) * (grow - 1) / grow
    if form_a != form_b:
        raise VerificationError(
            f"closed forms of lambda_c disagree: {form_a} vs {form_b}"
        )
    return DualCertificate(lambda_p=a_k, lambda_c=form_a, d=d, activity=lam)


def _clique_ratio(a: int, lam: Fraction) -> Fraction:
    """r_a = a(1+lam)^(a-1) / ((1+lam)^a - 1), claim_p0's bound at degree a."""
    grow = (1 + lam) ** (a - 1)
    return a * grow / (grow * (1 + lam) - 1)


class ClassRows:
    """The rows of a feasibility report, one per full class, held as their
    count, count_configs(d), known without enumerating, and each
    signature's verdict, in certificate_signatures(d) order:
    config_report_csv renders the rows themselves as
    configurations.full_class_signatures walks them.
    slacks holds each _signature_table entry's slack as (numerator,
    denominator > 0)."""

    def __init__(self, d: int, signatures: tuple, slacks: list):
        self._count = count_configs(d)
        self._signatures = signatures
        self._slacks = slacks

    def __len__(self) -> int:
        return self._count

    @cached_property
    def verdicts(self) -> list[tuple[Fraction, Fraction, Fraction, bool]]:
        """Each signature's alpha_v, alpha_u, slack and tight cells: the
        Fractions are built here, on the first read."""
        return [
            (Fraction(x_v, den), Fraction(x_u, den), Fraction(*slack), not slack[0])
            for (*_, x_v, x_u, den), slack in zip(self._signatures, self._slacks)
        ]


@dataclass(frozen=True)
class FeasibilityReport:
    """rows counts the full classes and holds each signature's verdict
    (ClassRows); violations holds each violated signature's first class,
    in _signature_table order.  The tight full classes are those of the
    four predicted tight reduced classes: tight_count counts them and
    tight_set, built on first read, lists them (tight_full_classes)."""

    d: int
    rows: ClassRows
    violations: tuple[Configuration, ...]

    @property
    def tight_count(self) -> int:
        """3 g(d) + 1 for g(d) graph classes on d vertices: every graph with
        all lists empty, {1} or {2}, and the complete neighbourhood."""
        return 3 * count_graph_classes(self.d) + 1

    @cached_property
    def tight_set(self) -> tuple[Configuration, ...]:
        return tight_full_classes(self.d)


def _slack_numerators(
    cert: DualCertificate, columns: Iterable[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int, int]]:
    """Both forms of each column's dual slack as integer fractions:
    (S, B D, S2, G M) per column (X_v, X_u, D).

    With lambda_p = A/B and lambda_c = C/B, the alpha form
    lambda_p + lambda_c (alpha_v - alpha_u) - alpha_v is S / (B D), with
    S = A D + C (X_v - X_u) - B X_v.  With the claims bound
    (1+lam) r_d = E/G, the claims form
    (1+lam) r_d - (p0' + lam p12') / (2 p0 - p12) is S2 / (G M), with
    S2 = E M - G N, N = q^(d+1) (p0' + lam p12') and
    M = q^(d+1) (2 p0 - p12) at lam = p/q, both taken from the column
    times q d p > 0:
    M = 2 p D - (2 p + q) X_v and N = q d X_u.  M is 0 on the all-empty
    class, where the claims form is undefined.
    """
    lam = cert.activity
    p, q, d = lam.numerator, lam.denominator, cert.d
    scale = lcm(cert.lambda_p.denominator, cert.lambda_c.denominator)
    a = cert.lambda_p.numerator * (scale // cert.lambda_p.denominator)
    c = cert.lambda_c.numerator * (scale // cert.lambda_c.denominator)
    bound = (1 + lam) * _clique_ratio(d, lam)
    e, g = bound.numerator, bound.denominator
    for x_v, x_u, den in columns:
        m = 2 * p * den - (2 * p + q) * x_v
        yield (
            a * den + c * (x_v - x_u) - scale * x_v,
            scale * den,
            e * m - g * q * d * x_u,
            g * m,
        )


def verify_dual_feasibility(
    cert: DualCertificate, d: int, lam: Fraction
) -> FeasibilityReport:
    """Check every dual constraint exactly, two ways.

    The alpha-form slack is recomputed as the sum of the two claims
    (valid once some list is non-empty; the all-empty class is tight by
    construction of lambda_c), and the two must agree in sign and in zero
    set.  Both run once per signature, as signs of integers
    (_slack_numerators), and every class with it shares their verdict.
    The same pass requires the tight signatures to be exactly the four of
    tight_reduced_signatures, raising on a tight signature outside them or
    a predicted one that is not tight.  That is the check on the tight
    reduced classes, as each of the four signatures is the signature of
    its class alone: a1 = a2 = 0 only of the empty lists; {a1, a2} =
    {d, 0} only of d vertices all listed {1} (or all {2}), which a
    reduced class joins by no edge; and a1 = a2 = d only of d vertices
    all listed {12}, where p0's lam^2 coefficient is C(2d, 2) - d - 2m
    for m edges, so p0 = 2(1+lam)^d - 1 forces m = C(d, 2), K_d.  The
    tight full classes are then those of the four, counted and listed
    without a full row.  Violations outside the four are returned as
    data, never raised, each violated signature named by its first class.
    """
    if cert.d != d or cert.activity != lam:
        raise UsageError("certificate does not match the requested (d, activity)")
    lam = cert.activity
    signatures = _signature_table(d, lam)
    forms = _slack_numerators(cert, (signature[4:] for signature in signatures))
    predicted = tight_reduced_signatures(d)
    # each signature's verdict, decided once
    slacks, tight, violated = [], set(), []
    for (config, a1, a2, packed, *_), (slack, den, slack2, den2) in zip(signatures, forms):
        if a1 == 0 and a2 == 0:
            if slack:
                raise VerificationError(
                    "empty-list constraint not tight; certificate is wrong"
                )
        elif den2 <= 0:
            raise VerificationError("2*p0 - p12 must be positive here")
        elif (slack > 0) != (slack2 > 0) or (slack == 0) != (slack2 == 0):
            raise VerificationError(
                f"slack routes disagree on {config.key_text()}: "
                f"{Fraction(slack, den)} vs {Fraction(slack2, den2)}"
            )
        if slack < 0:
            violated.append(config)
        elif slack == 0:
            key = signature(a1, a2, packed)
            if key not in predicted:
                raise VerificationError(
                    f"tight class {config.key_text()} outside the predicted cases"
                )
            tight.add(key)
        slacks.append((slack, den))
    for config, key in zip(tight_reduced_classes(d), predicted):
        if key not in tight:
            raise VerificationError(f"predicted tight class {config.key_text()} is not tight")
    return FeasibilityReport(d=d, rows=ClassRows(d, signatures, slacks), violations=tuple(violated))


def feasibility(d: int, lam: Fraction) -> tuple[DualCertificate, FeasibilityReport]:
    """The dual certificate at (d, lam) and its exact feasibility report;
    a bad activity, then a bad degree, is refused before any arithmetic."""
    lam = check_activity(lam)
    check_degree(d)
    cert = dual_certificate(d, lam)
    return cert, verify_dual_feasibility(cert, d, lam)


def config_report_csv(report: FeasibilityReport) -> str:
    """CSV rendering: one row per configuration class, in canonical order,
    rendered as full_class_signatures walks it.  The rows of one
    signature share its alpha_v, alpha_u, slack and tight cells, so those
    four are rendered once per signature, as csv_text would render them.
    The classes walked must be the classes counted."""
    shared = [
        f"{format_rational(av)},{format_rational(au)},{format_rational(slack)},{int(tight)}"
        for av, au, slack, tight in report.rows.verdicts
    ]

    def rows():
        walked = 0
        for config, a1, a2, i in full_class_signatures(report.d):
            walked += 1
            yield f'"{config.key_text()}"', a1, a2, shared[i]
        if walked != len(report.rows):
            raise VerificationError(f"{walked} classes enumerated, {len(report.rows)} counted")

    return csv_text("key,a1,a2,alpha_v,alpha_u,slack,tight", rows())


@dataclass(frozen=True)
class UniquenessReport:
    """What uniqueness_check proved.  feasibility is the dual certificate's
    report, whose tight full classes (tight_set) each have all lists
    equal: empty, {1} or {2} on any graph, or {12} on K_d.
    simplex_weights are the simplex support's weights, in order."""

    feasibility: FeasibilityReport
    optimum: Fraction
    simplex_support: tuple[Configuration, ...]
    simplex_weights: tuple[Fraction, ...]
    enumeration_support: tuple[Configuration, ...]

    @property
    def tight_set(self) -> tuple[Configuration, ...]:
        return self.feasibility.tight_set


def uniqueness_check(d: int, lam: Fraction) -> UniquenessReport:
    """Reproduce the complementary-slackness uniqueness argument.

    The dual certificate must be feasible, and its feasibility check has
    already required the tight reduced classes to be exactly four: all
    lists empty, the independent d-set listed {1}, the same listed {2},
    and the complete neighbourhood.  The first three must have alpha_u
    strictly below alpha_v, read from their columns in _signature_table
    through the certificate's signature index, so the balance row forces
    any optimal distribution onto the complete neighbourhood, the only
    full class of the fourth.  Both solvers must reach alpha_K there,
    with weight 1.
    """
    lam = check_activity(lam)
    _, report = feasibility(d, lam)
    if report.violations:
        raise VerificationError("dual certificate is infeasible; no uniqueness")

    *unbalanced, complete = tight_reduced_classes(d)
    signatures = _signature_table(d, lam)
    index = certificate_signatures(d)[1]
    for config, key in zip(unbalanced, tight_reduced_signatures(d)):
        *_, x_v, x_u, _ = signatures[index[key]]
        if not x_u < x_v:
            raise VerificationError(f"expected alpha_u < alpha_v on {config.key_text()}")

    lp = build_primal(d, lam)
    sol_simplex = simplex_solve(lp)
    sol_enum = vertex_enumeration_solve(lp)
    expected = alpha_K(d, lam)
    for name, sol in (("simplex", sol_simplex), ("enumeration", sol_enum)):
        if sol.status != simplex.OPTIMAL or sol.value != expected:
            raise VerificationError(f"{name} solver did not reach the optimum")
        if list(sol.support) != [(complete, 1)]:
            raise VerificationError(
                f"{name} solver support is not the complete neighbourhood"
            )

    return UniquenessReport(
        feasibility=report,
        optimum=expected,
        simplex_support=tuple(c for c, _ in sol_simplex.support),
        simplex_weights=tuple(w for _, w in sol_simplex.support),
        enumeration_support=tuple(c for c, _ in sol_enum.support),
    )
