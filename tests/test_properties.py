"""Property tests on random graphs with at most 8 vertices: the component
walker, the algebraic identities of the partition polynomials and the
edge-list text format; and on random polynomials: exact evaluation
against plain Fraction arithmetic."""

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
from wrkit.partition import wr_partition, wr_partition_bivariate, wr_partition_brute


def serialize_edge_list(g):
    """The edge-list text that parse_edge_list reads back."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


MAX_N = 8


@st.composite
def graphs(draw, max_n=MAX_N):
    n = draw(st.integers(0, max_n))
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
            if v not in seen and g.has_edge(u, v):
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


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_union_is_product(g, h):
    union = disjoint_union(g, h)
    assert wr_partition(union) == wr_partition(g) * wr_partition(h)
    assert wr_partition_bivariate(union) == wr_partition_bivariate(g) * wr_partition_bivariate(h)


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


def term_sum_oracle(coeffs, x, y):
    """The sum of c * x**i * y**j, term by term."""
    acc = 0
    for (i, j), c in coeffs.items():
        acc += c * x**i * y**j
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


@settings(max_examples=400, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), _coefficients, max_size=16),
    _points,
    _points,
)
def test_bivariate_eval_matches_term_sum(coeffs, x, y):
    p = BivariatePolynomial(coeffs)
    value = p.eval(x, y)
    assert value == term_sum_oracle(p.coeffs, x, y)
    assert type(value) is expected_type([x, y], p.coeffs)
