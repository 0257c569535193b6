"""Property tests on random graphs with at most 8 vertices: the component
walker, the algebraic identities of the partition polynomials, the
edge-list text format and the occupancy fractions against derivative
routes; and on random polynomials: exact evaluation, value and first
moments against plain Fraction arithmetic."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit.errors import CapacityError, ParseError, UsageError
from wrkit.graphs import (
    component_masks,
    disjoint_union,
    from_edges,
    parse_edge_list,
)
from wrkit.numerics import BivariatePolynomial, IntPolynomial
from wrkit.occupancy import (
    ActivityPair,
    alpha_K,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
    weighted_occupancy_K,
)
from wrkit.partition import wr_partition, wr_partition_bivariate, wr_partition_brute

from test_occupancy import brute_colour_expectations


def serialize_edge_list(g):
    """The edge-list text that parse_edge_list reads back."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


MAX_N = 8


@st.composite
def graphs(draw, max_n=MAX_N, min_n=0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [pair for pair, k in zip(pairs, keep) if k])


def connected(g, mask):
    """Independent check: a depth-first search inside mask reaches all of it."""
    members = [v for v in range(g.n) if (mask >> v) & 1]
    seen = {members[0]}
    stack = [members[0]]
    while stack:
        u = stack.pop()
        for v in members:
            if v not in seen and g.adj[u] >> v & 1:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(members)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, (1 << MAX_N) - 1))
def test_component_masks_split_subset(g, bits):
    subset = bits & ((1 << g.n) - 1)
    parts = component_masks(g, subset)
    union = 0
    for part in parts:
        assert part and not part & union  # nonempty and disjoint
        union |= part
        assert connected(g, part)
    assert union == subset
    for a, b in combinations(parts, 2):
        assert not any(g.adj[v] & b for v in range(g.n) if (a >> v) & 1)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_subset_sum_matches_brute_force(g):
    assert wr_partition(g) == wr_partition_brute(g)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_bivariate_diagonal_and_symmetry(g):
    p = wr_partition_bivariate(g)
    assert p.diagonal() == wr_partition(g)
    assert p == BivariatePolynomial({(j, i): c for (i, j), c in p.coeffs.items()})


def bivariate_product(p, q):
    """The product of two BivariatePolynomials, by convolving their terms."""
    out = {}
    for (i1, j1), c1 in p.coeffs.items():
        for (i2, j2), c2 in q.coeffs.items():
            out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return BivariatePolynomial(out)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_union_is_product(g, h):
    union = disjoint_union(g, h)
    assert wr_partition(union) == wr_partition(g) * wr_partition(h)
    assert wr_partition_bivariate(union) == bivariate_product(
        wr_partition_bivariate(g), wr_partition_bivariate(h)
    )


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


# a serialised graph with a few lines inserted, replaced or deleted; header
# counts stay at most 10**4, the vertex cap, so that no parsed graph is large
_counts = st.integers(-2, 10**4)
_line = st.one_of(
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
    st.tuples(_counts, _counts),
    st.sampled_from(["", "# comment", "   ", "1", "1 2 3", "a b", "0x1 2"]),
    st.text(max_size=12),
).map(lambda line: line if isinstance(line, str) else f"{line[0]} {line[1]}")


@st.composite
def edge_list_texts(draw):
    lines = serialize_edge_list(draw(graphs())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            lines.insert(at, draw(_line))
        elif at < len(lines):
            if edit == "replace":
                lines[at] = draw(_line)
            else:
                del lines[at]
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_edge_list_text_parses_or_raises_a_documented_error(text):
    try:
        g = parse_edge_list(text)
    except (ParseError, UsageError, CapacityError):
        return
    assert parse_edge_list(serialize_edge_list(g)) == g


def horner_oracle(coeffs, x):
    """Horner's scheme one Fraction operation at a time."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_coefficients = st.integers(-(10**9), 10**9)
# negative, zero and positive integers, the same as Fraction(k, 1), and
# general rationals
_points = st.one_of(
    st.integers(-12, 12),
    st.integers(-12, 12).map(Fraction),
    st.fractions(-12, 12, max_denominator=40),
)


def expected_type(points, nonzero):
    return Fraction if nonzero and any(isinstance(x, Fraction) for x in points) else int


@settings(max_examples=400, deadline=None)
@given(st.lists(_coefficients, max_size=14), _points)
def test_eval_matches_fraction_horner(coeffs, x):
    p = IntPolynomial(coeffs)
    value = p.eval(x)
    assert value == horner_oracle(p.coeffs, x)
    assert type(value) is expected_type([x], p.coeffs)


def moments_oracle(coeffs, x, y):
    """The value and both first moments, x P_x and y P_y, term by term."""
    value = moment1 = moment2 = 0
    for (i, j), c in coeffs.items():
        term = c * x**i * y**j
        value += term
        moment1 += i * term
        moment2 += j * term
    return value, moment1, moment2


_rationals = st.fractions(-12, 12, max_denominator=40)


@settings(max_examples=400, deadline=None)
@given(st.lists(_coefficients, max_size=14), _rationals, st.integers(0, 3))
def test_scaled_eval_is_value_and_moment(coeffs, x, extra):
    p = IntPolynomial(coeffs)
    n = max(p.degree, 0) + extra
    scale = x.denominator**n
    assert p.scaled_eval(x.numerator, x.denominator, n) == (
        scale * horner_oracle(p.coeffs, x),
        scale * x * horner_oracle(p.derivative().coeffs, x),
    )


@settings(max_examples=400, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), _coefficients, max_size=16),
    _rationals,
    _rationals,
)
def test_bivariate_scaled_eval_is_value_and_moments(coeffs, x, y):
    p = BivariatePolynomial(coeffs)
    scaled = p.scaled_eval(x.numerator, x.denominator, y.numerator, y.denominator)
    if not p.coeffs:
        assert scaled == (0, 0, 0)
        return
    scale = (
        x.denominator ** max(i for i, _ in p.coeffs)
        * y.denominator ** max(j for _, j in p.coeffs)
    )
    assert scaled == tuple(scale * m for m in moments_oracle(p.coeffs, x, y))


# activities p/q with p and q up to 10^6, the range the CLI's extreme
# activity checks reach
_activities = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


def partial_sum_oracle(g, x, y):
    """(x P_x / (n P), y P_y / (n P)) from partial-derivative sums of the
    bivariate polynomial, each factor a Fraction."""
    value, moment1, moment2 = moments_oracle(wr_partition_bivariate(g).coeffs, x, y)
    return moment1 / (g.n * value), moment2 / (g.n * value)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1), _activities)
def test_occupancy_fraction_is_the_log_derivative(g, lam):
    p = wr_partition(g)
    assert occupancy_fraction(g, lam) == lam * p.derivative().eval(lam) / (g.n * p.eval(lam))


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1), _activities, _activities)
def test_occupancy_by_colour_and_weighted(g, x, y):
    act = ActivityPair(x, y)
    a1, a2 = occupancy_by_colour(g, act)
    assert (a1, a2) == partial_sum_oracle(g, x, y)
    if g.n <= 6:
        assert (a1, a2) == brute_colour_expectations(g, act)
    assert weighted_occupancy(g, act) == (y * a1 + x * a2) / (x + y)


def alpha_K_fraction(d, lam):
    """2 lam (1+lam)^d / (2 (1+lam)^(d+1) - 1) in Fractions."""
    grow = (1 + lam) ** d
    return 2 * lam * grow / (2 * grow * (1 + lam) - 1)


def weighted_occupancy_K_fraction(d, x, y):
    """(y a1 + x a2) / (x + y) for P = (1+x)^(d+1) + (1+y)^(d+1) - 1,
    a_i = lam_i (d+1) (1+lam_i)^d / ((d+1) P), in Fractions."""
    denom = (d + 1) * ((1 + x) ** (d + 1) + (1 + y) ** (d + 1) - 1)
    a1 = x * (d + 1) * (1 + x) ** d / denom
    a2 = y * (d + 1) * (1 + y) ** d / denom
    return (y * a1 + x * a2) / (x + y)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), _activities, _activities)
def test_complete_graph_closed_forms(d, x, y):
    assert alpha_K(d, x) == alpha_K_fraction(d, x)
    assert weighted_occupancy_K(d, ActivityPair(x, y)) == weighted_occupancy_K_fraction(d, x, y)
