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

Two independent exact solvers are provided: the generic rational simplex
and the upper concave envelope of the points (balance, objective), read
at balance 0 (a feasible distribution averages its columns, so the
optimum is the highest point of their convex hull on that line).  Both
report a basic solution, of support at most 2.  Classes with equal
columns are interchangeable, so the instance has one variable per
distinct column.  A column (alpha_v, alpha_v - alpha_u) depends on a
class only through its local polynomials p0 and p12, which it shares
with its reduced class (configurations.reduced_configs), so the columns
come from the reduced classes alone: 390 distinct signatures from the
1,438 reduced classes at d = 5, where there are 12,208 full classes.
Each variable is named by the first reduced class with its column, and
the support names that class.  The reported support is the full
program's: a class sharing the complete neighbourhood's column would be
tight, and every tight class other than the complete neighbourhood has
alpha_u < alpha_v (checked by uniqueness_check), so that column is
unique.

The dual certificate (lambda_p, lambda_c) proves the optimum equals the
complete-neighbourhood value; every dual constraint is checked in alpha
form and again as the sum of the paper's two claims (verify_claims),

    p0'/(2*p0 - p12) <= r_d  and  lam*p12'/(2*p0 - p12) <= lam*r_d,

with r_a = a(1+lam)^(a-1) / ((1+lam)^a - 1), once per signature.  The
tight reduced classes must be exactly four: all lists empty, the
independent d-set listed {1}, the same listed {2}, and K_d with full
lists.  The tight full classes follow without enumeration: every graph
class with all lists empty, all {1} or all {2}, and K_d with full lists.
Complementary slackness then pins the unique optimum to the complete
neighbourhood.  uniqueness_check runs this whole chain.  The report has
one row per full class, counted by Burnside's lemma and enumerated only
when a row is read (a CSV, or a violated constraint to name).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import simplex
from .configurations import (
    ConfigStats,
    Configuration,
    BOTH_COLOURS,
    _list_options,
    complete_neighbourhood_config,
    count_configs,
    empty_lists_config,
    enumerate_configs,
    local_alphas,
    local_partition_functions,
    reduced_configs,
    single_colour_config,
    stats_key,
    uniform_list_classes,
)
from .errors import DomainError, UsageError, VerificationError
from .numerics import check_activity, csv_text, format_rational
from .occupancy import alpha_K
from .partition import valid_colourings


@dataclass(frozen=True)
class LPInstance:
    """The relaxation for one (d, activity) pair: one variable per distinct
    column, named by the first reduced class with it, in reduced_configs
    order."""

    d: int
    activity: Fraction
    configs: tuple[Configuration, ...]
    objective: tuple[Fraction, ...]  # alpha_v per column
    balance: tuple[Fraction, ...]  # alpha_v - alpha_u per column


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
def _signature_table(d: int, lam: Fraction) -> tuple[
    tuple[tuple[Configuration, ConfigStats, Fraction, Fraction], ...],
    tuple[int, ...],
]:
    """The distinct signatures (p0, p12) of the classes at d, each as
    (first reduced class with it, its stats, alpha_v, alpha_u) at lam,
    and per reduced class, in reduced_configs order, its signature index.

    Every class has its reduced class's signature, so the reduced classes
    give them all, with one local walk each.  build_primal and
    verify_dual_feasibility both read this table, so a command that runs
    both evaluates the alphas once per signature.
    """
    first: dict[tuple, int] = {}
    signatures = []
    classes = []
    for config in reduced_configs(d):
        stats = local_partition_functions(config)
        sig = (stats.p0, stats.p12)
        i = first.get(sig)
        if i is None:
            i = first[sig] = len(signatures)
            signatures.append((config, stats, *local_alphas(stats, d, lam)))
        classes.append(i)
    return tuple(signatures), tuple(classes)


def build_primal(d: int, lam: Fraction) -> LPInstance:
    """One variable per distinct column (alpha_v, alpha_v - alpha_u) at lam,
    the alphas evaluated once per distinct signature (p0, p12)."""
    lam = check_activity(lam)
    signatures, _ = _signature_table(d, lam)
    # signatures come in order of their first reduced class, so the first
    # one with a column also holds the first reduced class with it
    columns: dict[tuple[Fraction, Fraction], Configuration] = {}
    for config, _, av, au in signatures:
        columns.setdefault((av, av - au), config)
    return LPInstance(
        d,
        lam,
        tuple(columns.values()),
        tuple(av for av, _ in columns),
        tuple(balance for _, balance in columns),
    )


def simplex_solve(lp: LPInstance) -> LPSolution:
    """Exact optimum of the relaxation via the generic rational simplex."""
    ones = [Fraction(1)] * len(lp.configs)
    result = simplex.solve(
        lp.objective, [ones, lp.balance], [Fraction(1), Fraction(0)]
    )
    if result.status != simplex.OPTIMAL:
        return LPSolution(result.status, None, ())
    support = tuple((c, x) for c, x in zip(lp.configs, result.solution) if x != 0)
    return LPSolution(simplex.OPTIMAL, result.value, support)


def vertex_enumeration_solve(lp: LPInstance) -> LPSolution:
    """Independent solver: the upper concave envelope of the columns.

    A feasible point is a probability vector whose balance averages to
    zero, so the optimum is the upper concave envelope of the points
    (balance, objective), read at balance 0; the program is infeasible
    iff 0 lies outside the range of the balances.  Only the top point of
    each balance can touch the envelope.  Andrew's monotone chain builds
    its upper hull in exact Fractions, with no tableau and no pivots, so
    this route stays independent of the simplex.

    The support is a basic solution, named as a scan of all supports of
    size 1 and then 2 in column order would name it: the first column
    with balance 0 at the optimum, with weight 1; else the first
    positive-balance and the first negative-balance column on the
    envelope's segment across 0, with the convex weights that solve the
    balance row.
    """
    top: dict[Fraction, Fraction] = {}
    for objective, balance in zip(lp.objective, lp.balance):
        if balance not in top or objective > top[balance]:
            top[balance] = objective
    points = sorted(top.items())
    if not points or points[0][0] > 0 or points[-1][0] < 0:
        return LPSolution(simplex.INFEASIBLE, None, ())

    hull: list[tuple[Fraction, Fraction]] = []
    for cx, cy in points:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            # keep b only if it lies strictly above the chord from a to c
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
                break
            hull.pop()
        hull.append((cx, cy))

    # b is the first hull vertex at or right of balance 0
    i = bisect_left(hull, (Fraction(0),))
    bx, by = hull[i]
    if bx == 0:
        value = by
    else:
        ax, ay = hull[i - 1]
        value = ay - ax * (by - ay) / (bx - ax)

    columns = list(zip(lp.configs, lp.objective, lp.balance))
    if top.get(Fraction(0)) == value:
        config = next(c for c, o, b in columns if b == 0 and o == value)
        return LPSolution(simplex.OPTIMAL, value, ((config, Fraction(1)),))
    # the line through (ax, ay) and (bx, by) passes through (0, value)
    on_line = [(c, b) for c, o, b in columns if (o - value) * bx == (by - value) * b]
    ci, bi = next((c, b) for c, b in on_line if b > 0)
    cj, bj = next((c, b) for c, b in on_line if b < 0)
    w = -bj / (bi - bj)
    return LPSolution(simplex.OPTIMAL, value, ((ci, w), (cj, 1 - w)))


def dual_certificate(d: int, lam: Fraction) -> DualCertificate:
    """The certified dual point; both closed forms of lambda_c must agree."""
    if d < 1:
        raise UsageError(f"degree must be >= 1, got {d}")
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


def _slack(cert: DualCertificate, av: Fraction, au: Fraction) -> Fraction:
    return cert.lambda_p + cert.lambda_c * (av - au) - av


def _clique_ratio(a: int, lam: Fraction) -> Fraction:
    """r_a = a(1+lam)^(a-1) / ((1+lam)^a - 1), claim_p0's bound at degree a."""
    grow = (1 + lam) ** (a - 1)
    return a * grow / (grow * (1 + lam) - 1)


def _claim_terms(stats: ConfigStats, lam: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The numerators p0', lam*p12' of claim_p0 and claim_p12 at lam, and
    their shared denominator 2*p0 - p12, which must be positive."""
    denom = 2 * stats.p0.eval(lam) - stats.p12.eval(lam)
    if denom <= 0:
        raise VerificationError("2*p0 - p12 must be positive here")
    return stats.p0.derivative().eval(lam), lam * stats.p12.derivative().eval(lam), denom


@dataclass(frozen=True, slots=True)
class ConfigRow:
    """Per-configuration report row (the CSV unit)."""

    config: Configuration
    a1: int
    a2: int
    alpha_v: Fraction
    alpha_u: Fraction
    slack: Fraction
    tight: bool


class ClassRows(Sequence):
    """The rows of a feasibility report, one per full class in canonical
    order.  Its length is count_configs(d), known without enumerating;
    the rows are built on first read, through enumerate_configs and one
    local walk per stats_key, and each full class must land on a
    signature of the reduced classes.  verdicts holds each signature's
    (alpha_v, alpha_u, slack, tight, violated), in _signature_table
    order."""

    def __init__(self, d: int, signatures: tuple, verdicts: list[tuple]):
        self._count = count_configs(d)
        self._d = d
        self._signatures = signatures
        self.verdicts = verdicts

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._table[0][index]

    def __iter__(self):
        return iter(self._table[0])

    def with_signatures(self) -> Iterator[tuple[ConfigRow, int]]:
        """Each row with the index of its signature in ``verdicts``."""
        return zip(*self._table)

    @cached_property
    def _table(self) -> tuple[tuple[ConfigRow, ...], tuple[int, ...]]:
        index = {
            (stats.p0, stats.p12): i for i, (_, stats, _, _) in enumerate(self._signatures)
        }
        by_key: dict[tuple, tuple] = {}
        rows = []
        row_signatures = []
        for config in enumerate_configs(self._d):
            key = stats_key(config)
            entry = by_key.get(key)
            if entry is None:
                stats = local_partition_functions(config)
                i = index.get((stats.p0, stats.p12))
                if i is None:
                    raise VerificationError(
                        f"{config.key_text()}: signature missing from the reduced classes"
                    )
                entry = by_key[key] = (i, stats.a1, stats.a2, *self.verdicts[i][:4])
            rows.append(ConfigRow(config, *entry[1:]))
            row_signatures.append(entry[0])
        if len(rows) != self._count:
            raise VerificationError(
                f"{len(rows)} classes enumerated, {self._count} counted"
            )
        return tuple(rows), tuple(row_signatures)


@dataclass(frozen=True)
class FeasibilityReport:
    """rows has one ConfigRow per full class; reduced_tight_set holds the
    tight reduced classes, in reduced_configs order."""

    d: int
    activity: Fraction
    rows: ClassRows
    violations: tuple[Configuration, ...]
    tight_set: tuple[Configuration, ...]
    reduced_tight_set: tuple[Configuration, ...]


def _full_classes(reduced: tuple[Configuration, ...]) -> tuple[Configuration, ...] | None:
    """The full classes whose reduced class is among these, in canonical
    order, when each of these has all lists equal; else None.

    With every list empty, {1} or {2}, no edge matters, so every graph
    class carries those lists; with every list {12}, every edge does, so
    the class is its own only full class."""
    out = []
    for config in reduced:
        mask = config.lists[0]
        if config.lists != (mask,) * config.d:
            return None
        out += [config] if mask == BOTH_COLOURS else uniform_list_classes(config.d, mask)
    return tuple(sorted(out, key=Configuration.key))


def verify_dual_feasibility(
    cert: DualCertificate, d: int, lam: Fraction
) -> FeasibilityReport:
    """Check every dual constraint exactly, two ways.

    The alpha-form slack is recomputed as the sum of the two claims
    (valid once some list is non-empty; the all-empty class is tight by
    construction of lambda_c) and the two must agree in sign and in zero
    set.  Both routes run once per distinct signature (p0, p12), found
    from the reduced classes, and their values are shared by every class
    with it.  The violated and tight full classes are the full classes of
    the violated and tight reduced ones: the tight ones derived when
    their lists are all equal, else both read off the report's rows.
    Violations are returned as data, never raised.
    """
    if cert.d != d or cert.activity != lam:
        raise UsageError("certificate does not match the requested (d, activity)")
    lam = cert.activity
    claims_bound = (1 + lam) * _clique_ratio(d, lam)

    def constraint(
        config: Configuration, stats: ConfigStats, av: Fraction, au: Fraction
    ) -> Fraction:
        slack = _slack(cert, av, au)

        if stats.a1 == 0 and stats.a2 == 0:
            if slack != 0:
                raise VerificationError(
                    "empty-list constraint not tight; certificate is wrong"
                )
        else:
            p0_term, p12_term, denom = _claim_terms(stats, lam)
            slack2 = claims_bound - (p0_term + p12_term) / denom
            if (slack > 0) != (slack2 > 0) or (slack == 0) != (slack2 == 0):
                raise VerificationError(
                    f"slack routes disagree on {config.key_text()}: "
                    f"{slack} vs {slack2}"
                )
        return slack

    signatures, classes = _signature_table(d, lam)
    # each signature's row fields and verdict, decided once
    verdicts = []
    for signature in signatures:
        slack = constraint(*signature)
        verdicts.append((signature[2], signature[3], slack, slack == 0, slack < 0))
    rows = ClassRows(d, signatures, verdicts)
    reduced_tight = tuple(
        config for config, i in zip(reduced_configs(d), classes) if verdicts[i][3]
    )
    violations = ()
    if any(verdict[4] for verdict in verdicts):
        violations = tuple(row.config for row in rows if row.slack < 0)
    tight = _full_classes(reduced_tight)
    if tight is None:
        tight = tuple(row.config for row in rows if row.tight)

    return FeasibilityReport(
        d=d,
        activity=lam,
        rows=rows,
        violations=violations,
        tight_set=tight,
        reduced_tight_set=reduced_tight,
    )


def config_report_csv(report: FeasibilityReport) -> str:
    """CSV rendering: one row per configuration class.  The rows of one
    signature share its alpha_v, alpha_u, slack and tight cells, so those
    four are rendered once per signature, as csv_text would render them."""
    rows = report.rows
    shared = [
        f"{format_rational(av)},{format_rational(au)},{format_rational(slack)},{int(tight)}"
        for av, au, slack, tight, _ in rows.verdicts
    ]
    return csv_text(
        "key,a1,a2,alpha_v,alpha_u,slack,tight",
        (
            (f'"{row.config.key_text()}"', row.a1, row.a2, shared[i])
            for row, i in rows.with_signatures()
        ),
    )


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
    options = [_list_options(mask) for mask in config.lists]
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
        raise UsageError(f"degree must be >= 1, got {d}")
    lam = check_activity(lam)
    return all(_clique_ratio(a, lam) < _clique_ratio(a + 1, lam) for a in range(1, d))


@dataclass(frozen=True)
class UniquenessReport:
    """What uniqueness_check proved.  feasibility is the dual certificate's
    report; simplex_weights are the simplex support's weights, in order."""

    d: int
    activity: Fraction
    feasibility: FeasibilityReport
    empty_list_classes: tuple[Configuration, ...]
    single_colour_classes: tuple[Configuration, ...]
    complete_class: Configuration
    optimum: Fraction
    simplex_support: tuple[Configuration, ...]
    simplex_weights: tuple[Fraction, ...]
    enumeration_support: tuple[Configuration, ...]

    @property
    def tight_set(self) -> tuple[Configuration, ...]:
        return self.feasibility.tight_set


def uniqueness_check(d: int, lam: Fraction) -> UniquenessReport:
    """Reproduce the complementary-slackness uniqueness argument.

    The dual certificate must be feasible.  Tight dual constraints must be
    exactly four reduced classes: all lists empty, the independent d-set
    listed {1}, the same listed {2}, and the complete neighbourhood.  The
    first three have alpha_u strictly below alpha_v, so the balance row
    forces any optimal distribution onto the complete neighbourhood, the
    only full class of the fourth.  Both solvers must reach alpha_K
    there, with weight 1.
    """
    lam = check_activity(lam)
    cert = dual_certificate(d, lam)
    report = verify_dual_feasibility(cert, d, lam)
    if report.violations:
        raise VerificationError("dual certificate is infeasible; no uniqueness")

    complete = complete_neighbourhood_config(d)
    unbalanced = (
        empty_lists_config(d), single_colour_config(d, 1), single_colour_config(d, 2)
    )
    predicted = unbalanced + (complete,)
    for config in report.reduced_tight_set:
        if config not in predicted:
            raise VerificationError(
                f"tight class {config.key_text()} outside the predicted cases"
            )
    for config in predicted:
        if config not in report.reduced_tight_set:
            raise VerificationError(
                f"predicted tight class {config.key_text()} is not tight"
            )
        av, au = local_alphas(local_partition_functions(config), d, lam)
        if config != complete and not au < av:
            raise VerificationError(f"expected alpha_u < alpha_v on {config.key_text()}")

    # the full tight classes, derived from the four, as a second check
    empty_classes = []
    single_classes = []
    complete_class = None
    for config in report.tight_set:
        stats = local_partition_functions(config)
        if not (stats.lists_all_equal and not stats.has_dichromatic):
            raise VerificationError(
                f"tight class {config.key_text()} outside the predicted cases"
            )
        mask = config.lists[0]
        if mask == 0:
            empty_classes.append(config)
        elif mask in (1, 2):
            single_classes.append(config)
        else:
            complete_class = config

    lp = build_primal(d, lam)
    sol_simplex = simplex_solve(lp)
    sol_enum = vertex_enumeration_solve(lp)
    expected = alpha_K(d, lam)
    complete_key = complete.key()
    for name, sol in (("simplex", sol_simplex), ("enumeration", sol_enum)):
        if sol.status != simplex.OPTIMAL or sol.value != expected:
            raise VerificationError(f"{name} solver did not reach the optimum")
        if [(c.key(), w) for c, w in sol.support] != [(complete_key, 1)]:
            raise VerificationError(
                f"{name} solver support is not the complete neighbourhood"
            )

    return UniquenessReport(
        d=d,
        activity=lam,
        feasibility=report,
        empty_list_classes=tuple(empty_classes),
        single_colour_classes=tuple(single_classes),
        complete_class=complete_class,
        optimum=expected,
        simplex_support=tuple(c for c, _ in sol_simplex.support),
        simplex_weights=tuple(w for _, w in sol_simplex.support),
        enumeration_support=tuple(c for c, _ in sol_enum.support),
    )
