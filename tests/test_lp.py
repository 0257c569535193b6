"""The local relaxation, dual certificate, claims, and uniqueness argument."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit import cli, simplex
from wrkit.configurations import (
    Configuration,
    alpha_u,
    alpha_v,
    certificate_signatures,
    complete_neighbourhood_config,
    count_configs,
    empty_lists_config,
    enumerate_configs,
    full_class_signatures,
    local_alphas,
    local_partition_functions,
    reduced_config,
    signature,
    signature_classes,
    single_colour_config,
)
from wrkit.errors import DomainError, UsageError, VerificationError
from wrkit.graphs import Graph, canonical_labelled_form, from_edges
from wrkit.lp import (
    LPInstance,
    LPSolution,
    _clique_ratio,
    _det,
    _signature_table,
    _slack_numerators,
    build_primal,
    config_report_csv,
    dual_certificate,
    simplex_solve,
    uniqueness_check,
    verify_dual_feasibility,
    vertex_enumeration_solve,
)
from wrkit.occupancy import alpha_K

from lp_oracles import (
    _claim_terms,
    conditional_expectation_check,
    fraction_alphas,
    monotone_lhs_check,
    verify_claims,
)
from test_configurations import configs, packed, reduced_configs
from test_cross_checks import first_slack_signature, plant

F = Fraction

SMALL_GRID = (F(1, 4), F(1, 2), F(1), F(2), F(10))


def dual_slack(cert, config):
    """Slack of one dual constraint, from the class's own alphas in
    Fractions: lambda_p + lambda_c*(alpha_v - alpha_u) - alpha_v."""
    stats = local_partition_functions(config)
    av, au = fraction_alphas(stats, config.d, cert.activity)
    return cert.lambda_p + cert.lambda_c * (av - au) - av


def claims_slack(cert, config):
    """The same slack as the sum of the two claims, in Fractions:
    (1+lam) r_d - (p0' + lam p12') / (2 p0 - p12)."""
    lam = cert.activity
    p0_term, p12_term, denom = _claim_terms(local_partition_functions(config), lam)
    return (1 + lam) * _clique_ratio(cert.d, lam) - (p0_term + p12_term) / denom


def test_build_primal_d1():
    lp = build_primal(1, F(1))
    # 4 classes, 3 distinct columns: the two single-colour lists share one,
    # named by the first of them in certificate_signatures order, which
    # walks from the complete neighbourhood down
    assert len(enumerate_configs(1)) == 4
    assert len(lp.configs) == len(lp.objective) == len(lp.balance) == 3
    assert [c.lists for c in lp.configs] == [(3,), (2,), (0,)]
    # the complete-neighbourhood variable is balanced (coefficient 0) and
    # carries the clique objective value
    ck_key = complete_neighbourhood_config(1).key()
    idx = next(i for i, c in enumerate(lp.configs) if c.key() == ck_key)
    assert lp.balance[idx] == 0
    assert lp.objective[idx] == alpha_K(1, F(1))
    # all-empty lists are not balanced: alpha_v = 2lam/(1+2lam), alpha_u = 0
    c0_key = empty_lists_config(1).key()
    idx0 = next(i for i, c in enumerate(lp.configs) if c.key() == c0_key)
    assert lp.balance[idx0] == F(2, 3)


def test_build_primal_domain():
    with pytest.raises(DomainError):
        build_primal(2, F(0))


def test_lp_optimum_examples():
    for d, lam, expected in ((1, F(1), F(4, 7)), (2, F(1), F(8, 15))):
        lp = build_primal(d, lam)
        sol = simplex_solve(lp)
        assert sol.status == simplex.OPTIMAL
        assert sol.value == expected
        assert [c.key() for c, _ in sol.support] == [
            complete_neighbourhood_config(d).key()
        ]


def test_solvers_agree():
    for d in (1, 2, 3):
        for lam in (F(1, 2), F(1), F(3)):
            lp = build_primal(d, lam)
            a = simplex_solve(lp)
            b = vertex_enumeration_solve(lp)
            assert a.status == b.status == simplex.OPTIMAL
            assert a.value == b.value == alpha_K(d, lam)
            assert [c.key() for c, _ in a.support] == [c.key() for c, _ in b.support]


def pair_loop_solve(lp):
    """Every support of size 1, then every (positive, negative) pair, in
    column order; a later support wins only with a strictly larger value."""
    best_value = None
    best = ()
    columns = list(zip(lp.configs, lp.objective, lp.balance))
    for config, oi, bi in columns:
        if bi == 0 and (best_value is None or oi > best_value):
            best_value, best = oi, ((config, F(1)),)
    positive = [column for column in columns if column[2] > 0]
    negative = [column for column in columns if column[2] < 0]
    for ci, oi, bi in positive:
        for cj, oj, bj in negative:
            w = -bj / (bi - bj)
            value = w * oi + (1 - w) * oj
            if best_value is None or value > best_value:
                best_value, best = value, ((ci, w), (cj, 1 - w))
    if best_value is None:
        return LPSolution(simplex.INFEASIBLE, None, ())
    return LPSolution(simplex.OPTIMAL, best_value, best)


def points_instance(points):
    """An LPInstance whose columns are the given (balance, objective)
    points, named 0, 1, 2, ... in column order: each an integer column
    (objective, balance) * D over D, the lcm of their denominators."""
    columns = []
    for b, o in points:
        b, o = F(b), F(o)
        den = lcm(b.denominator, o.denominator)
        columns.append((int(o * den), int(b * den), den))
    return LPInstance(1, tuple(range(len(points))), tuple(columns))


@pytest.mark.parametrize(
    "points, value, support",
    [
        # a repeated balance: only its top point can reach the envelope
        ([(-1, 3), (-1, 0), (1, 0), (1, 1)], 2, ((3, F(1, 2)), (0, F(1, 2)))),
        # a balance-0 column on the envelope's segment wins over the pair
        ([(-2, 0), (1, 3), (0, 2), (0, 2), (2, 4)], 2, ((2, F(1)),)),
        # a balance-0 column below the segment loses to it
        ([(-1, 0), (0, 0), (1, 2)], 1, ((2, F(1, 2)), (0, F(1, 2)))),
        # collinear points: the first positive and first negative on the line
        ([(3, 3), (-1, -1), (1, 1), (-3, -3), (2, 0)], 0, ((0, F(1, 4)), (1, F(3, 4)))),
        # 0 at the end of the balance range
        ([(0, 1), (0, 5), (2, 9)], 5, ((1, F(1)),)),
    ],
)
def test_vertex_enumeration_support_rules(points, value, support):
    lp = points_instance(points)
    sol = vertex_enumeration_solve(lp)
    assert sol == pair_loop_solve(lp)
    assert (sol.value, sol.support) == (value, support)


@pytest.mark.parametrize("points", [[], [(1, 2), (3, 0)], [(-1, 2), (-2, 5)]])
def test_vertex_enumeration_infeasible(points):
    sol = vertex_enumeration_solve(points_instance(points))
    assert sol == LPSolution(simplex.INFEASIBLE, None, ())


def test_vertex_enumeration_matches_the_pair_loop_on_seeded_instances():
    rng = random.Random(77)
    for _ in range(1500):
        k = rng.choice((1, 2, 3, 6))
        points = [
            (F(rng.randint(-k, k), rng.choice((1, 1, 2))), rng.randint(-k, k))
            for _ in range(rng.randint(0, 10))
        ]
        lp = points_instance(points)
        assert vertex_enumeration_solve(lp) == pair_loop_solve(lp)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=9))
def test_vertex_enumeration_matches_the_pair_loop(points):
    lp = points_instance(points)
    assert vertex_enumeration_solve(lp) == pair_loop_solve(lp)


def test_solvers_match_their_oracles_on_the_relaxation():
    from test_simplex import solve_with_pivots, tableau_solve

    for d in (1, 2, 3, 4):
        for lam in (F(1, 3), F(1), F(3, 2), F(7)):
            lp = build_primal(d, lam)
            assert vertex_enumeration_solve(lp) == pair_loop_solve(lp)
            case = (lp.objective, [[F(1)] * len(lp.configs), lp.balance], [F(1), F(0)])
            pivots = []
            expected = tableau_solve(*case, pivots=pivots)
            assert solve_with_pivots(*case) == (expected, pivots)
            # simplex_solve's integer columns, each its Fraction column
            # times D, walk the same pivots to the same weights
            objective, balance, den = zip(*lp.columns)
            _, integer_pivots = solve_with_pivots(objective, [den, balance], [1, 0])
            assert integer_pivots == pivots
            assert [w for _, w in simplex_solve(lp).support] == [
                x for x in expected.solution if x
            ]


def scaled_instance(points, rng):
    """points_instance, each column then multiplied by a random k > 0, so
    that the integer columns are not reduced."""
    lp = points_instance(points)
    columns = []
    for column in lp.columns:
        k = rng.randint(1, 4)
        columns.append(tuple(k * v for v in column))
    return LPInstance(lp.d, lp.configs, tuple(columns))


def random_rational(rng, top):
    return F(rng.randint(-top, top), rng.randint(1, 6))


def test_integer_hull_matches_the_pair_loop_on_mixed_denominators():
    # mixed denominators in both coordinates, unreduced columns, runs of
    # collinear points, and a balance-0 point on the envelope or below it
    rng = random.Random(1968)
    for _ in range(1500):
        points = [
            (random_rational(rng, 6), random_rational(rng, 6))
            for _ in range(rng.randint(1, 7))
        ]
        kind = rng.randrange(3)
        if kind == 0:
            slope, height = random_rational(rng, 3), random_rational(rng, 3)
            points += [
                (b, height + slope * b)
                for b in (random_rational(rng, 6) for _ in range(rng.randint(2, 5)))
            ]
        elif kind == 1:
            envelope = pair_loop_solve(points_instance(points))
            if envelope.status == simplex.OPTIMAL:
                below = rng.choice((0, 0, F(1, rng.randint(1, 7))))
                points.append((F(0), envelope.value - below))
        rng.shuffle(points)
        lp = scaled_instance(points, rng)
        assert vertex_enumeration_solve(lp) == pair_loop_solve(lp)


homogeneous_points = st.tuples(
    st.integers(-10**20, 10**20), st.integers(-10**20, 10**20), st.integers(1, 10**20)
)


@settings(max_examples=400, deadline=None)
@given(homogeneous_points, homogeneous_points, homogeneous_points)
def test_determinant_sign_is_the_cross_product_sign(a, b, c):
    (ax, ay), (bx, by), (cx, cy) = ((F(x, w), F(y, w)) for x, y, w in (a, b, c))
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    det = _det(a, b, c)
    assert (det > 0) - (det < 0) == (cross > 0) - (cross < 0)


def test_distinct_column_lp_matches_full_program():
    # the simplex over every one of the 120 classes at d=3, columns repeated
    configs = enumerate_configs(3)
    n = len(configs)
    assert n == 120
    for lam in (F(1, 3), F(1), F(5, 2)):
        objective = [alpha_v(c, lam) for c in configs]
        balance = [alpha_v(c, lam) - alpha_u(c, lam) for c in configs]
        full = simplex.solve(objective, [[F(1)] * n, balance], [F(1), F(0)])
        assert full.status == simplex.OPTIMAL
        full_support = [(c, x) for c, x in zip(configs, full.solution) if x]
        lp = build_primal(3, lam)
        assert len(lp.configs) == 27
        for sol in (simplex_solve(lp), vertex_enumeration_solve(lp)):
            assert sol.value == full.value == alpha_K(3, lam)
            assert list(sol.support) == full_support


def test_shared_values_match_direct_evaluation():
    # every per-class value is what the class gives on its own, although
    # the LP and the feasibility pass compute one per distinct signature;
    # the LP has one variable per distinct column, named by the first
    # class of the signature table with that column, which has that
    # column on its own, and its columns are exactly the reduced classes'
    # and the full program's
    cases = [(d, lam) for d in (1, 2, 3, 4) for lam in (F(1, 3), F(1), F(5, 2))]
    for d, lam in cases + [(5, F(1))]:
        lp = build_primal(d, lam)
        cert = dual_certificate(d, lam)
        report = verify_dual_feasibility(cert, d, lam)
        configs = enumerate_configs(d)
        assert len(report.rows) == len(configs)
        assert [row.config for row in report.rows] == list(configs)
        full_columns = set()
        for config, row in zip(configs, report.rows):
            av, au = alpha_v(config, lam), alpha_u(config, lam)
            full_columns.add((av, av - au))
            stats = local_partition_functions(config)
            assert row.alpha_v == av
            assert row.alpha_u == au
            assert row.slack == dual_slack(cert, config)
            assert row.tight == (row.slack == 0)
            assert (row.a1, row.a2) == (stats.a1, stats.a2)
        first = {}
        for config in reduced_configs(d):
            av, au = alpha_v(config, lam), alpha_u(config, lam)
            first.setdefault((av, av - au), config)
        named = {}
        for config, *_ in _signature_table(d, lam):
            av, au = alpha_v(config, lam), alpha_u(config, lam)
            named.setdefault((av, av - au), config)
        assert list(zip(lp.objective, lp.balance)) == list(named)
        assert lp.configs == tuple(named.values())
        assert lp.configs[0] == complete_neighbourhood_config(d)
        assert set(named) == set(first) == full_columns
    assert len(lp.configs) == len(first) == 390  # d = 5


def per_class_signature_table(d, lam):
    """The signature table from one local_partition_functions call per
    reduced class, in signature_classes order, keyed by (p0, p12)
    coefficients: each signature's first class, its a1, a2 and packed p0,
    and its integer column, and each class's signature index."""
    first, signatures, indices = {}, [], []
    for config in reduced_configs(d):
        stats = local_partition_functions(config)
        sig = (stats.p0.coeffs, stats.p12.coeffs)
        if sig not in first:
            first[sig] = len(signatures)
            key = (stats.a1, stats.a2, packed(stats.p0.coeffs, d))
            signatures.append((config, *key, *local_alphas(*key, d, lam)))
        indices.append(first[sig])
    return tuple(signatures), indices


@pytest.mark.parametrize(
    "lam", (F(1, 7), F(1), F(4, 3), F(10), F(10**6, 999999), F(1, 10**6)), ids=str
)
def test_signature_table_matches_the_per_class_route(lam):
    # certificate_signatures holds the certificate's signatures and
    # _signature_table adds the columns; signature_classes, the canonical
    # listing, holds the class-to-signature map.  Keyed by signature, the
    # table is the per-class route's: each entry has its a1 and a2 (up
    # to the colour swap), packed p0 and column, and its first class's
    # own walk finds its key.  The d-vertex signatures come first; the
    # rest follow in the per-class route's order, with its first classes
    for d in range(1, 6):
        signatures = _signature_table(d, lam)
        table, table_index = certificate_signatures(d)
        assert [entry[:4] for entry in signatures] == list(table)
        firsts, classes, index = signature_classes(d)
        expected, indices = per_class_signature_table(d, lam)
        assert [entry[:4] for entry in expected] == list(firsts)
        assert [c.canonical for c, *_ in firsts] == [c.canonical for c, *_ in expected]
        assert [i for _, i in classes] == indices
        expected_keys = [signature(a1, a2, p0) for _, a1, a2, p0, *_ in expected]
        assert index == {key: i for i, key in enumerate(expected_keys)}
        keys = [signature(a1, a2, p0) for _, a1, a2, p0, *_ in signatures]
        assert table_index == {key: i for i, key in enumerate(keys)}
        assert set(keys) == set(expected_keys)
        by_key = dict(zip(expected_keys, expected))
        on_d = [0 not in config.lists for config, *_ in signatures]
        assert on_d == sorted(on_d, reverse=True)
        for key, (config, a1, a2, p0, *column), d_vertex in zip(keys, signatures, on_d):
            first, b1, b2, q0, *wanted = by_key[key]
            assert (p0, sorted((a1, a2)), column) == (q0, sorted((b1, b2)), wanted)
            stats = local_partition_functions(config)
            assert (stats.a1, stats.a2, packed(stats.p0.coeffs, d)) == (a1, a2, p0)
            if not d_vertex:
                assert config == first and config.canonical == first.canonical
        lower = [key for key, d_vertex in zip(keys, on_d) if not d_vertex]
        kept = set(lower)
        assert lower == [key for key in expected_keys if key in kept]


def test_report_rows_carry_their_signature_index():
    # each full class's row names the _signature_table entry with its
    # (p0, p12), found here from its own stats, and its cells are that
    # entry's verdict; signature() ignores the order of a1 and a2
    for d in range(1, 5):
        lam = F(3, 2)
        signatures = _signature_table(d, lam)
        index = {}
        for i, (config, *_) in enumerate(signatures):
            stats = local_partition_functions(config)
            index[stats.p0, stats.p12] = i
        assert len(index) == len(signatures)
        report = verify_dual_feasibility(dual_certificate(d, lam), d, lam)
        for row in report.rows:
            stats = local_partition_functions(row.config)
            assert row.signature == index[stats.p0, stats.p12]
            verdict = (row.alpha_v, row.alpha_u, row.slack, row.tight)
            assert verdict == report.rows.verdicts[row.signature]
            p0 = packed(stats.p0.coeffs, d)
            assert signature(stats.a1, stats.a2, p0) == signature(stats.a2, stats.a1, p0)


def test_signature_table_builds_one_configuration_per_signature(monkeypatch):
    # a Configuration is built checked, through __post_init__, or from an
    # enumeration's lists, through configurations._enumerated: count both
    from wrkit import configurations

    built = []
    post_init = Configuration.__post_init__
    enumerated = configurations._enumerated

    def counted(config):
        built.append(config)
        post_init(config)

    def counted_enumerated(*args):
        built.append(args)
        return enumerated(*args)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    monkeypatch.setattr(configurations, "_enumerated", counted_enumerated)
    signature_classes.cache_clear()  # so that the walk runs here
    firsts, classes, index = signature_classes(5)
    assert (len(built), len(firsts), len(classes), len(index)) == (390, 390, 1438, 390)


def test_one_class_walk_per_degree(monkeypatch):
    # the signatures are free of the activity: a new activity, or an old
    # one after more (d, lam) pairs than _signature_table keeps, walks no
    # reduced class again; the table walks the classes on at most d - 1
    # vertices, and augments those on d - 1
    from wrkit import configurations

    walks = []
    walk = configurations._reduced_graphs

    def counted(d):
        walks.append(d)
        return walk(d)

    monkeypatch.setattr(configurations, "_reduced_graphs", counted)
    certificate_signatures.cache_clear()
    _signature_table.cache_clear()
    pairs = [(d, lam) for lam in SMALL_GRID for d in (2, 3)]
    for d, lam in pairs + pairs[:2]:
        uniqueness_check(d, lam)
    assert _signature_table.cache_info().misses == len(pairs) + 2 > 8
    assert walks == [1, 2]


def test_signature_table_errors_name_the_reduced_class(monkeypatch):
    from wrkit import configurations

    # a full class whose signature the certificate's table lacks is named
    with monkeypatch.context() as empty:
        empty.setattr(configurations, "certificate_signatures", lambda d: ((), {}))
        with pytest.raises(VerificationError, match=r"^d=2;edges=;lists=-,-: signature missing"):
            next(full_class_signatures(2))
    # a failed check names the class walked: the canonical listing's
    # first, the full route's first, the table's first class on d - 1
    # vertices, and, with those passing, its first class on d
    certificate_signatures(2)  # cached, so that the full route reads its index
    low = configurations._low_coefficients
    monkeypatch.setattr(configurations, "_low_coefficients", lambda *args: [0, 0, 0])
    signature_classes.cache_clear()
    with pytest.raises(VerificationError, match=r"^d=2;edges=0-1;lists=12,12: low coeff"):
        signature_classes(2)
    with pytest.raises(VerificationError, match=r"^d=2;edges=;lists=-,-: low coeff"):
        next(full_class_signatures(2))
    certificate_signatures.cache_clear()
    with pytest.raises(VerificationError, match=r"^d=2;edges=;lists=-,12: low coeff"):
        certificate_signatures(2)

    def on_d_only(adj, pairs, d):
        return low(adj, pairs, d) if len(adj) < d else [0] * len(pairs)

    monkeypatch.setattr(configurations, "_low_coefficients", on_d_only)
    with pytest.raises(VerificationError, match=r"^d=2;edges=0-1;lists=12,12: low coeff"):
        certificate_signatures(2)


@pytest.mark.parametrize("lam", (F(1, 3), F(1), F(3, 2), F(7), F(10**6, 999999)), ids=str)
def test_local_alphas_match_the_derivative_route(lam):
    # local_alphas takes lam p0' and lam p12' as first moments; here p0'
    # and p12' are built as polynomials, on every reduced class at d <= 4:
    # the same Fractions, and X_u the same integer p (q P0' + p P12'),
    # P' = q^d p'(lam)
    p, q = lam.numerator, lam.denominator
    for d in range(1, 5):
        for config in reduced_configs(d):
            stats = local_partition_functions(config)
            x_v, x_u, den = local_alphas(stats.a1, stats.a2, packed(stats.p0.coeffs, d), d, lam)
            assert (F(x_v, den), F(x_u, den)) == fraction_alphas(stats, d, lam)
            big_dp0 = q**d * stats.p0.derivative().eval(lam)
            big_dp12 = q**d * stats.p12.derivative().eval(lam)
            assert x_u == p * (q * big_dp0 + p * big_dp12)


EXTREME_GRID = (F(1, 10**6), F(1, 3), F(1), F(999999, 10**6), F(7), F(10**6))


@pytest.mark.parametrize("lam", EXTREME_GRID, ids=str)
def test_integer_slack_routes_match_the_fraction_oracles(lam):
    # every signature at d <= 5: the integer column is the Fraction
    # alphas, each slack numerator over its denominator is the Fraction
    # slack of its form (so its sign and zero set are too), and the
    # report's lazily built cells are the Fraction ones
    for d in range(1, 6):
        cert = dual_certificate(d, lam)
        report = verify_dual_feasibility(cert, d, lam)
        signatures = _signature_table(d, lam)
        forms = _slack_numerators(cert, (signature[4:] for signature in signatures))
        for (config, a1, a2, _, x_v, x_u, den), (s, s_den, s2, s2_den), verdict in zip(
            signatures, forms, report.rows.verdicts, strict=True
        ):
            av, au = fraction_alphas(local_partition_functions(config), d, lam)
            assert (F(x_v, den), F(x_u, den)) == (av, au)
            slack = dual_slack(cert, config)
            assert s_den > 0 and F(s, s_den) == slack
            assert verdict == (av, au, slack, slack == 0)
            if a1 or a2:
                assert s2_den > 0 and F(s2, s2_den) == claims_slack(cert, config)
                assert (s2 > 0) - (s2 < 0) == (slack > 0) - (slack < 0)
            else:
                assert s == 0 and s2_den == 0


def test_dual_certificate_values():
    cert = dual_certificate(2, F(1))
    assert cert.lambda_p == F(8, 15)
    assert cert.lambda_c == F(1, 5)


def test_dual_certificate_closed_forms_agree():
    # dual_certificate itself asserts both closed forms match; sweep d, lam
    rng = random.Random(47)
    for d in range(1, 9):
        for _ in range(5):
            lam = F(rng.randint(1, 30), rng.randint(1, 30))
            cert = dual_certificate(d, lam)
            assert cert.lambda_p == alpha_K(d, lam)


def test_empty_and_complete_constraints_tight():
    for d in (1, 2, 3):
        lam = F(2, 3)
        cert = dual_certificate(d, lam)
        assert dual_slack(cert, empty_lists_config(d)) == 0
        assert dual_slack(cert, complete_neighbourhood_config(d)) == 0
        # the complete constraint is tight for any multiplier on the
        # balance row, since its alpha_v and alpha_u coincide
        from wrkit.lp import DualCertificate

        arbitrary = DualCertificate(cert.lambda_p, F(7, 3), d, lam)
        assert dual_slack(arbitrary, complete_neighbourhood_config(d)) == 0


def test_verify_dual_feasibility_no_violations():
    for d in (1, 2, 3):
        for lam in SMALL_GRID:
            cert = dual_certificate(d, lam)
            report = verify_dual_feasibility(cert, d, lam)
            assert report.violations == ()


def test_tight_set_characterisation():
    for d in (1, 2, 3):
        lam = F(1)
        report = verify_dual_feasibility(dual_certificate(d, lam), d, lam)
        tight_keys = {c.key() for c in report.tight_set}
        predicted = set()
        for config in enumerate_configs(d):
            stats = local_partition_functions(config)
            if len(set(config.lists)) == 1 and not stats.has_dichromatic:
                predicted.add(config.key())
        assert tight_keys == predicted


def tight_reduced_classes(report, d):
    """The reduced classes, from the canonical listing, whose signature the
    report's verdicts mark tight, found by its key in the certificate's
    table."""
    verdicts = report.rows.verdicts
    index = certificate_signatures(d)[1]
    firsts, classes, _ = signature_classes(d)
    tight = [verdicts[index[signature(a1, a2, p0)]][3] for _, a1, a2, p0 in firsts]
    return {reduced_config(*entry) for entry, i in classes if tight[i]}


def predicted_tight(d):
    return {
        empty_lists_config(d),
        single_colour_config(d, 1),
        single_colour_config(d, 2),
        complete_neighbourhood_config(d),
    }


def test_four_tight_reduced_classes_give_the_full_tight_set():
    # at the reduced level exactly four classes are tight; the full tight
    # set listed from them, 3 g(d) + 1 classes for g(d) graph classes, as
    # the report counts them, is the one the full rows show, in canonical
    # order with keys carried
    graph_classes = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for d in range(1, 6):
        for lam in SMALL_GRID + (F(1, 3), F(3, 2), F(7)):
            report = verify_dual_feasibility(dual_certificate(d, lam), d, lam)
            assert tight_reduced_classes(report, d) == predicted_tight(d)
            assert len(report.tight_set) == report.tight_count == 3 * graph_classes[d] + 1
            keys = [c.key() for c in report.tight_set]
            assert keys == sorted(c.canonical for c in report.tight_set)
            if d < 5 or lam == 1:
                assert report.tight_set == tuple(row.config for row in report.rows if row.tight)
        for config in report.tight_set:
            assert config.canonical == canonical_labelled_form(config.graph, config.lists)


def test_the_certificate_at_the_reduced_route_cap():
    # d = 7, graphs_up_to_iso's cap: the signatures of the reduced classes
    # certify K_8's neighbourhood against 8,171,936 full classes, which
    # Polya's count counts and nothing lists; the certificate's table has
    # the signatures of the canonical listing's 190,984 reduced classes
    report = uniqueness_check(7, F(1))
    signatures = _signature_table(7, F(1))
    _, classes, index = signature_classes(7)
    assert (len(classes), len(signatures)) == (190_984, 15_567)
    assert set(certificate_signatures(7)[1]) == set(index)
    assert len(report.feasibility.rows) == count_configs(7) == 8_171_936
    assert len(report.tight_set) == report.feasibility.tight_count == 3 * 1044 + 1 == 3133
    assert [c.key() for c in report.tight_set] == sorted(c.canonical for c in report.tight_set)
    assert tight_reduced_classes(report.feasibility, 7) == predicted_tight(7)
    lp = build_primal(7, F(1))
    for solve in (simplex_solve, vertex_enumeration_solve):
        solution = solve(lp)
        assert solution.value == report.optimum == alpha_K(7, F(1)) == F(256, 511)
        assert solution.support == ((complete_neighbourhood_config(7), 1),)


@pytest.mark.parametrize("command", ["dualcert", "lp"])
def test_an_unpredicted_tight_class_at_the_reduced_route_cap(monkeypatch, capsys, command):
    # a slack signature planted at 0 in both forms: the certificate names
    # the tight class from the reduced classes and exits 3, where listing
    # the tight full classes from the full rows would hit the full route's
    # capacity error at d = 7
    d, lam = 7, F(1)
    j = first_slack_signature(d, lam)
    plant(monkeypatch, j, lambda cert, column, f: (0, f[1], 0, f[3]))
    assert cli.main([command, "--d", str(d), "--lambda", "1"]) == cli.EXIT_MISMATCH
    out, err = capsys.readouterr()
    config = _signature_table(d, lam)[j][0]
    assert (out, err) == (
        "",
        f"verification error: tight class {config.key_text()} outside the predicted cases\n",
    )


def test_certificate_never_enumerates_full_classes(monkeypatch, tmp_path, capsys):
    # lp, dualcert and uniqueness_check work from the reduced classes and
    # count the full ones; only the configs command's CSV reads the full
    # rows.  At d = 7 enumerate_configs refuses anyway, so exit 0 there
    # shows that no full class was listed
    from wrkit import configurations

    def refuse(d):
        raise AssertionError(f"full classes enumerated at d = {d}")

    for module in (configurations, cli):
        monkeypatch.setattr(module, "enumerate_configs", refuse)
    # first, while the tests above leave the d = 7 columns at lambda = 1 cached
    assert cli.main(["lp", "--d", "7", "--lambda", "1"]) == 0
    assert cli.main(["dualcert", "--d", "7", "--lambda", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("d=7 lambda=1: 8171936 configurations\n")
    assert out.endswith(" violations=0 tight=3133\n")
    for d, count in ((3, 120), (4, 996), (5, 12208)):
        assert cli.main(["lp", "--d", str(d), "--lambda", "3/2"]) == 0
        assert cli.main(["dualcert", "--d", str(d), "--lambda", "1/3"]) == 0
        assert len(uniqueness_check(d, F(2)).feasibility.rows) == count
    assert "d=5 lambda=3/2: 12208 configurations" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="full classes enumerated at d = 3"):
        cli.main(["configs", "--d", "3", "--lambda", "1", "--csv", str(tmp_path / "lp.csv")])


def test_verify_dual_feasibility_usage():
    cert = dual_certificate(2, F(1))
    with pytest.raises(UsageError):
        verify_dual_feasibility(cert, 3, F(1))


def test_report_rows_leave_the_stats_cache_empty():
    # the rows take their signatures from walks held only while they are
    # built, so a CSV keeps no per-class stats in the global cache
    for d in range(1, 6):
        local_partition_functions.cache_clear()
        config_report_csv(verify_dual_feasibility(dual_certificate(d, F(1)), d, F(1)))
        assert local_partition_functions.cache_info().currsize == 0


def test_report_csv_shape():
    report = verify_dual_feasibility(dual_certificate(1, F(1)), 1, F(1))
    csv = config_report_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "key,a1,a2,alpha_v,alpha_u,slack,tight"
    assert len(lines) == 1 + 4


def test_claims_tight_cases():
    lam = F(1)
    for d in (2, 3):
        for config in (
            complete_neighbourhood_config(d),
            single_colour_config(d, 1),
            single_colour_config(d, 2),
        ):
            report = verify_claims(config, d, lam)
            assert report.claim_p12.holds and report.claim_p12.tight
            assert report.claim_p0.holds and report.claim_p0.tight


def test_claims_strict_case():
    # a path neighbourhood with full lists admits dichromatic colourings
    path = from_edges(3, [(0, 1), (1, 2)])
    config = Configuration(path, (3, 3, 3))
    assert local_partition_functions(config).has_dichromatic
    report = verify_claims(config, 3, F(1))
    assert report.claim_p12.holds and not report.claim_p12.tight
    assert report.claim_p0.holds and not report.claim_p0.tight


def test_claims_match_predicate_exhaustively():
    for d in (1, 2, 3):
        for lam in (F(1, 2), F(1), F(3)):
            for config in enumerate_configs(d):
                stats = local_partition_functions(config)
                if stats.a1 == 0 and stats.a2 == 0:
                    continue
                report = verify_claims(config, d, lam)
                expect_tight = len(set(config.lists)) == 1 and not stats.has_dichromatic
                assert report.claim_p12.holds and report.claim_p0.holds
                assert report.claim_p12.tight == expect_tight, config.key_text()
                assert report.claim_p0.tight == expect_tight, config.key_text()


def test_claims_domain_errors():
    with pytest.raises(DomainError):
        verify_claims(empty_lists_config(2), 2, F(1))
    with pytest.raises(UsageError):
        verify_claims(complete_neighbourhood_config(2), 3, F(1))


def test_conditional_expectation_equality_cases():
    lam = F(1)
    for d in (2, 3):
        lhs, rhs, holds = conditional_expectation_check(
            complete_neighbourhood_config(d), 1, lam
        )
        assert holds and lhs == rhs
        lhs, rhs, holds = conditional_expectation_check(
            single_colour_config(d, 1), 1, lam
        )
        assert holds and lhs == rhs


def test_conditional_expectation_strict_case():
    config = Configuration(Graph(3, (0, 0, 0)), (3, 3, 3))
    lhs, rhs, holds = conditional_expectation_check(config, 1, F(1))
    assert holds and lhs < rhs


def test_conditional_expectation_exhaustive():
    for d in (1, 2, 3):
        for lam in (F(1, 2), F(1), F(3)):
            for config in enumerate_configs(d):
                for colour in (1, 2):
                    if not any(mask & colour for mask in config.lists):
                        continue
                    lhs, rhs, holds = conditional_expectation_check(config, colour, lam)
                    assert holds, config.key_text()


def test_conditional_expectation_domain():
    with pytest.raises(DomainError):
        conditional_expectation_check(single_colour_config(2, 1), 2, F(1))


def test_monotone_lhs():
    # direct evaluation of a*(1+lam)^(a-1)/((1+lam)^a - 1) at lam=1
    values = [F(a) * 2 ** (a - 1) / (2**a - 1) for a in (1, 2, 3)]
    assert values == [F(1), F(4, 3), F(12, 7)]
    assert values[0] < values[1] < values[2]
    assert monotone_lhs_check(3, F(1))
    assert monotone_lhs_check(1, F(1))  # vacuous
    assert monotone_lhs_check(6, F(1, 10))
    for d in range(1, 9):
        for lam in (F(1, 10), F(1), F(10)):
            assert monotone_lhs_check(d, lam)


def test_uniqueness_d2():
    report = uniqueness_check(2, F(1))
    assert report.optimum == F(8, 15)
    tight_keys = {c.key() for c in report.tight_set}
    # 2 graph classes x 3 list cases + the complete neighbourhood
    assert len(tight_keys) == 7
    assert all(len(set(c.lists)) == 1 for c in report.tight_set)
    masks = [c.lists[0] for c in report.tight_set]
    assert masks.count(0) == 2
    assert masks.count(1) + masks.count(2) == 4
    assert [c.key() for c in report.tight_set if c.lists[0] == 3] == [
        complete_neighbourhood_config(2).key()
    ]
    assert [c.key() for c in report.simplex_support] == [
        complete_neighbourhood_config(2).key()
    ]
    assert report.simplex_support == report.enumeration_support


def test_uniqueness_d1():
    report = uniqueness_check(1, F(1))
    assert report.optimum == F(4, 7)
    assert len(report.tight_set) == 4
    assert [c.key() for c in report.tight_set if c.lists[0] == 3] == [
        complete_neighbourhood_config(1).key()
    ]


def test_dual_slack_sampled_d5_d6():
    # beyond the exhaustive range, spot-check the certificate on samples
    rng = random.Random(53)
    for d, count in ((5, 200), (6, 60)):
        lam = F(1)
        cert = dual_certificate(d, lam)
        configs = enumerate_configs(d)
        for config in rng.sample(list(configs), count):
            slack = dual_slack(cert, config)
            assert slack >= 0, config.key_text()
            stats = local_partition_functions(config)
            predicate = len(set(config.lists)) == 1 and not stats.has_dichromatic
            assert (slack == 0) == predicate, config.key_text()


def test_relaxation_tightness_against_catalog():
    # the LP value bounds every catalog graph and is attained exactly by
    # clique unions
    from wrkit.extremal import catalog
    from wrkit.graphs import is_union_of_complete
    from wrkit.occupancy import occupancy_fraction

    lam = F(1)
    lp_value = simplex_solve(build_primal(2, lam)).value
    assert lp_value == alpha_K(2, lam)
    graphs = [g for g, _ in catalog("d2")]
    best = max(occupancy_fraction(g, lam) for g in graphs)
    assert best == lp_value
    for g in graphs:
        exact = occupancy_fraction(g, lam) == lp_value
        assert exact == is_union_of_complete(g, 3), g.label


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    configs(max_d=6),
    st.one_of(
        st.sampled_from((F(10**6, 999999), F(1, 10**6))),
        st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
    ),
)
def test_packed_local_alphas_match_the_fraction_route(config, lam):
    # the column from the walk's packed p0 and the closed form of p12 is
    # alpha_v and alpha_u from the polynomials, evaluated in Fractions
    from wrkit import configurations

    a1, a2, p0, _ = configurations._walked(config)
    x_v, x_u, den = local_alphas(a1, a2, p0, config.d, lam)
    stats = local_partition_functions.__wrapped__(config)  # bypass the cache
    assert (F(x_v, den), F(x_u, den)) == fraction_alphas(stats, config.d, lam)


def test_a_cold_lp_walks_once_per_graph_class(monkeypatch, capsys):
    # lp --d 3 walks each of the 4 graph classes on k <= 2 vertices once,
    # in one batch, and each of the 2 on exactly 2 once more, for the
    # deletion identity's terms; then, on 3 vertices, each parent graph
    # class and neighbour set with a new signature once, to check it.
    # uniqueness_check reads the tight classes' columns from the signature
    # table without walking them again
    from wrkit import configurations
    from wrkit.graphs import graphs_up_to_iso

    walks = []
    walk = configurations._colour_set_walk

    def counted(adj, pairs, d):
        walks.append(len(adj))
        return walk(adj, pairs, d)

    monkeypatch.setattr(configurations, "_colour_set_walk", counted)
    certificate_signatures.cache_clear()
    _signature_table.cache_clear()
    local_partition_functions.cache_clear()
    assert cli.main(["lp", "--d", "3", "--lambda", "1"]) == 0
    assert capsys.readouterr().out.startswith("d=3 lambda=1: 120 configurations\n")
    below = [k for k in range(3) for _ in graphs_up_to_iso(k)] + [2] * len(graphs_up_to_iso(2))
    assert sorted(k for k in walks if k < 3) == sorted(below)
    assert len(below) == 6
    # the 22 signatures first found on 3 vertices, in 5 batches
    assert walks.count(3) == 5 and len(walks) == 11
