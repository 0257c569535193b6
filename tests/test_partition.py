"""Partition polynomials: closed forms, the census and brute-force oracles,
bivariate checks."""

import random
from fractions import Fraction
from functools import reduce
from math import comb

import pytest

from wrkit import partition
from wrkit.errors import CapacityError, VerificationError
from wrkit.extremal import catalog
from wrkit.graphs import (
    Graph,
    component_masks,
    disjoint_union,
    from_edges,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    make_prism,
    make_random_regular,
)
from wrkit.numerics import BivariatePolynomial, IntPolynomial, binomial_power
from wrkit.partition import (
    is_valid_colouring,
    valid_colourings,
    wr_partition,
    wr_partition_bivariate,
    wr_partition_brute,
)


def bivariate_brute(g):
    """Independent oracle: accumulate activity exponents over all 3^n maps."""
    coeffs = {}
    for colouring in valid_colourings(g, [(0, 1, 2)] * g.n):
        key = (colouring.count(1), colouring.count(2))
        coeffs[key] = coeffs.get(key, 0) + 1
    return BivariatePolynomial(coeffs)


def test_brute_examples():
    assert wr_partition_brute(make_complete(3)) == IntPolynomial([1, 6, 6, 2])
    assert wr_partition_brute(Graph(2, (0, 0))) == IntPolynomial([1, 4, 4])
    assert wr_partition_brute(make_cycle(5)) == IntPolynomial([1, 10, 30, 30, 10, 2])


def test_partition_examples():
    assert wr_partition(make_complete(2)) == IntPolynomial([1, 4, 2])
    assert wr_partition(make_cycle(4)) == IntPolynomial([1, 8, 16, 8, 2])
    assert wr_partition(Graph(1, (0,))) == IntPolynomial([1, 2])


def test_complete_graph_closed_form():
    # 2*(1+lam)^(d+1) - 1, coefficient-exact for d = 1..8
    for d in range(1, 9):
        assert wr_partition(make_complete(d + 1)) == 2 * binomial_power(d + 1) - 1


def test_oracle_equivalence_small_catalog():
    graphs = [
        make_cycle(3),
        make_cycle(6),
        make_complete(4),
        make_complete_bipartite(3, 3),
        make_prism(3),
        make_petersen(),
        disjoint_union(make_cycle(3), make_cycle(4)),
    ]
    for g in graphs:
        assert wr_partition(g) == wr_partition_brute(g), g.label


def test_multiplicativity():
    rng = random.Random(2)
    for _ in range(10):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        g1 = random_graph(rng, n1)
        g2 = random_graph(rng, n2)
        assert wr_partition(disjoint_union(g1, g2)) == wr_partition(g1) * wr_partition(g2)


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)


def test_low_order_coefficients():
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        p = wr_partition(g)
        assert p.coeffs[0] == 1  # the all-uncoloured map
        assert p.coeffs[1] == 2 * g.n  # one coloured vertex, two colour choices


def test_hom_counts():
    assert wr_partition(make_complete(2)).eval(1) == 7
    assert wr_partition(make_complete(4)).eval(1) == 31
    assert wr_partition(make_cycle(4)).eval(1) == 35


def test_bivariate_k2():
    expected = BivariatePolynomial(
        {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (0, 2): 1}
    )
    assert wr_partition_bivariate(make_complete(2)) == expected
    assert expected == bivariate_brute(make_complete(2))
    assert expected.scaled_eval(1, 1, 1, 1) == (7, 4, 4)


def test_bivariate_oracle_and_symmetry():
    rng = random.Random(6)
    graphs = [make_cycle(4), make_complete(3), make_prism(3)]
    graphs += [random_graph(rng, rng.randint(1, 6)) for _ in range(10)]
    for g in graphs:
        p = wr_partition_bivariate(g)
        assert p == bivariate_brute(g)
        assert p == BivariatePolynomial({(j, i): c for (i, j), c in p.coeffs.items()})
        assert p.diagonal() == wr_partition(g)


def test_bivariate_diagonal_on_catalog():
    for g in (make_complete(4), make_complete_bipartite(3, 3), make_petersen()):
        assert wr_partition_bivariate(g).diagonal() == wr_partition(g)


def census_polynomials(g):
    """Oracle: the subset-component identity over all 2^n vertex subsets S.
    Each induced component K of S takes colour 1 or 2, so S contributes
    2**c(S) * lam**|S| to P and the product of x**|K| + y**|K| over its
    components to the two-activity polynomial.  Subsets are first counted
    by their sorted tuple of component sizes, and each tuple is expanded
    once."""
    census = {}
    for subset in range(1 << g.n):
        sizes = tuple(sorted(map(int.bit_count, component_masks(g, subset))))
        census[sizes] = census.get(sizes, 0) + 1
    uni = [0] * (g.n + 1)
    biv = {}
    for sizes, count in census.items():
        total = sum(sizes)
        uni[total] += count << len(sizes)
        ones = {0: count}  # colour-1 vertex count -> number of subsets
        for k in sizes:
            nxt = dict(ones)
            for i, c in ones.items():
                nxt[i + k] = nxt.get(i + k, 0) + c
            ones = nxt
        for i, c in ones.items():
            biv[i, total - i] = biv.get((i, total - i), 0) + c
    return IntPolynomial(uni), BivariatePolynomial(biv)


def test_elimination_matches_census_oracle():
    graphs = [g for g, _ in catalog("all")]
    graphs += [
        make_prism(8),
        disjoint_union(make_cycle(8), make_cycle(10)),
        reduce(disjoint_union, [make_complete(4)] * 4),
    ]
    for g in graphs:
        uni, biv = census_polynomials(g)
        assert wr_partition(g) == uni, g.label
        assert wr_partition_bivariate(g) == biv, g.label


def test_closed_forms_at_cap():
    def powers(k):
        """(1 + x)^k, (1 + y)^k and (1 + x + y)^k as exponent-pair maps."""
        xs = {(i, 0): comb(k, i) for i in range(k + 1)}
        ys = {(0, j): comb(k, j) for j in range(k + 1)}
        xys = {(i, j): comb(k, i) * comb(k - i, j)
               for i in range(k + 1) for j in range(k + 1 - i)}
        return xs, ys, xys

    def combine(*weighted):
        """The polynomial sum of w * terms over the (w, terms) pairs."""
        out = {}
        for w, terms in weighted:
            for key, c in terms.items():
                out[key] = out.get(key, 0) + w * c
        return BivariatePolynomial(out)

    one = {(0, 0): 1}
    x24, y24, _ = powers(24)
    k24 = make_complete(24)
    assert wr_partition(k24) == 2 * binomial_power(24) - 1
    assert wr_partition_bivariate(k24) == combine((1, x24), (1, y24), (-1, one))

    # K_{12,12}, split on the colours used by the first side: none, only 1,
    # only 2 (the other side then avoids the missing colour), or both (the
    # other side is then empty); so (1+x+y)^12 + ((1+x)^12 - 1)(1+x)^12
    # + ((1+y)^12 - 1)(1+y)^12 + (1+x+y)^12 - (1+x)^12 - (1+y)^12 + 1
    x12, y12, xy12 = powers(12)
    expected = combine(
        (2, xy12), (1, x24), (-2, x12), (1, y24), (-2, y12), (1, one)
    )
    assert wr_partition_bivariate(make_complete_bipartite(12, 12)) == expected

    g = make_random_regular(24, 3, 7)
    assert wr_partition_bivariate(g).diagonal() == wr_partition(g)


def test_elimination_must_end_in_the_empty_state(monkeypatch):
    # placing all but the last vertex leaves several open states: the
    # programs must refuse to read a result off them
    order = partition._elimination_order
    monkeypatch.setattr(partition, "_elimination_order", lambda g: order(g)[:-1])
    g = make_cycle(5)
    with pytest.raises(VerificationError):
        wr_partition.__wrapped__(g)
    with pytest.raises(VerificationError):
        wr_partition_bivariate.__wrapped__(g)


def test_capacity_caps():
    with pytest.raises(CapacityError):
        wr_partition(Graph(25, (0,) * 25))
    with pytest.raises(CapacityError):
        wr_partition_bivariate(Graph(25, (0,) * 25))
    with pytest.raises(CapacityError):
        wr_partition_brute(Graph(13, (0,) * 13))


def test_valid_colouring_predicate():
    k2 = make_complete(2)
    assert is_valid_colouring(k2, (1, 1))
    assert is_valid_colouring(k2, (0, 2))
    assert not is_valid_colouring(k2, (1, 2))


def test_partition_eval_matches_weighted_count():
    # P at a rational activity equals the brute-force weighted sum
    g = make_cycle(5)
    lam = Fraction(2, 3)
    total = Fraction(0)
    for colouring in valid_colourings(g, [(0, 1, 2)] * 5):
        total += lam ** (5 - colouring.count(0))
    assert wr_partition(g).eval(lam) == total


def test_valid_colourings_respect_options():
    # product order over each vertex's options, invalid assignments dropped
    k2 = make_complete(2)
    assert list(valid_colourings(k2, [(0, 1), (0, 2)])) == [(0, 0), (0, 2), (1, 0)]
    assert list(valid_colourings(k2, [(1,), (2,)])) == []


def test_an_elimination_left_with_open_states_is_a_verification_error():
    # once every vertex is placed only the empty state may remain; a
    # second state left over is refused, not read as coefficients
    with pytest.raises(
        VerificationError, match="^elimination ended in 2 states, not the single empty state$"
    ):
        partition._final_slots({(): 1, (1,): 1}, (), 4, 2)
