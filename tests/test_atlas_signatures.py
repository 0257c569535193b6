"""A second route to the reduced classes' signatures that shares no code
with wrkit: every graph on at most 7 vertices from the atlas that ships
with networkx (no download), every labelled list assignment on it, and
p0 by brute force over the colourings.

The route (atlas_graphs to alpha_slack) imports nothing from wrkit; only
the checks read wrkit, to compare.  A reduced class has lists {1}, {2} or
{12} on k <= d vertices, with no edge inside {1} or inside {2}.  Its
signature is (p0's coefficients, min(a1, a2), max(a1, a2)), a_i the
vertices whose lists allow colour i, and its p12 is (1+lam)^a1 +
(1+lam)^a2.  A class on k < d vertices is padded with empty lists, which
no colouring uses, so its signature is that of its k vertices.  Labelled
assignments repeat a class once per relabelling, which a set of
signatures forgets.  wrkit keys p0 as one int, its coefficients the
digits in base 2^(2d+1); the checks pack the route's keys so (wrkit_key).

Check 1 (the signature set) runs here at d <= 6, about 1 s for the route
at d = 6 on a 2-vCPU VM, and at d = 7, about 20 s, as its own CI step.
Check 2 (each signature's slack sign against the certificate's verdict)
runs at d <= 5.  Two planted slips in the route fail them: a route that
skips k = d, and p12 built as p1 + p2 - 1.
"""

import sys
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest
from networkx.generators.atlas import graph_atlas_g

F = Fraction
THIS = sys.modules[__name__]


@cache
def atlas_graphs(k):
    """Every graph class on k vertices, one atlas graph each, as per-vertex
    neighbour bit masks."""
    out = []
    for g in graph_atlas_g():
        if g.number_of_nodes() == k:
            adj = [0] * k
            for u, v in g.edges():
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            out.append(tuple(adj))
    return tuple(out)


def reduced_assignments(adj):
    """Every labelled list assignment on the graph with lists 1 ({1}), 2
    ({2}) or 3 ({12}) and no edge inside {1} or inside {2}."""
    k = len(adj)
    for lists in product((1, 2, 3), repeat=k):
        if not any(
            lists[u] != 3 and lists[v] == lists[u]
            for u in range(k) for v in range(u) if adj[u] >> v & 1
        ):
            yield lists


def colourings(adj, lists):
    """Every colouring respecting the lists, as (colour-1 set, colour-2
    set) bit masks: vertex by vertex, uncoloured or any listed colour that
    no coloured neighbour has the other of."""
    out = [(0, 0)]
    for v, mask in enumerate(lists):
        bit = 1 << v
        extended = []
        for ones, twos in out:
            extended.append((ones, twos))
            if mask & 1 and not adj[v] & twos:
                extended.append((ones | bit, twos))
            if mask & 2 and not adj[v] & ones:
                extended.append((ones, twos | bit))
        out = extended
    return out


def p0_coefficients(adj, lists):
    """p0 counted colouring by colouring: coefficient i counts those with i
    coloured vertices, trailing zeros dropped."""
    coefficients = [0] * (len(lists) + 1)
    for ones, twos in colourings(adj, lists):
        coefficients[(ones | twos).bit_count()] += 1
    while len(coefficients) > 1 and not coefficients[-1]:
        coefficients.pop()
    return tuple(coefficients)


@cache
def signatures_on(k):
    """The signatures of the reduced classes on exactly k vertices."""
    out = set()
    for adj in atlas_graphs(k):
        for lists in reduced_assignments(adj):
            a1 = sum(1 for mask in lists if mask & 1)
            a2 = sum(1 for mask in lists if mask & 2)
            out.add((p0_coefficients(adj, lists), min(a1, a2), max(a1, a2)))
    return frozenset(out)


def route_signatures(d):
    """The signatures of the reduced classes at d: those on k <= d vertices."""
    return set().union(*(THIS.signatures_on(k) for k in range(d + 1)))


def p12_coefficients(a1, a2):
    """(1+lam)^a1 + (1+lam)^a2: colour 1 on any subset of its a1 vertices,
    or colour 2 on any subset of its a2."""
    return [comb(a1, i) + comb(a2, i) for i in range(max(a1, a2) + 1)]


def value_and_moment(coefficients, lam):
    """P(lam) and lam P'(lam) of the polynomial with these coefficients."""
    powers = [lam**i for i in range(len(coefficients))]
    value = sum(c * x for c, x in zip(coefficients, powers))
    moment = sum(i * c * x for i, (c, x) in enumerate(zip(coefficients, powers)))
    return value, moment


def alpha_slack(key, d, lam):
    """The dual slack lambda_p + lambda_c (alpha_v - alpha_u) - alpha_v of
    a signature at lam, in Fractions, from the closed forms
    lambda_p = alpha_K = 2 lam (1+lam)^d / (2 (1+lam)^(d+1) - 1) and
    lambda_c = 1 - (alpha_K / 2 lam) (1 + 2 lam), with
    alpha_v = lam p12 / pc, alpha_u = lam (p0' + lam p12') / (d pc) and
    pc = p0 + lam p12."""
    p0, a1, a2 = key
    p0_value, p0_moment = value_and_moment(p0, lam)
    p12_value, p12_moment = value_and_moment(THIS.p12_coefficients(a1, a2), lam)
    pc = p0_value + lam * p12_value
    alpha_v = lam * p12_value / pc
    alpha_u = (p0_moment + lam * p12_moment) / (d * pc)
    lambda_p = 2 * lam * (1 + lam) ** d / (2 * (1 + lam) ** (d + 1) - 1)
    lambda_c = 1 - lambda_p / (2 * lam) * (1 + 2 * lam)
    return lambda_p + lambda_c * (alpha_v - alpha_u) - alpha_v


def wrkit_key(key, d):
    """A route signature as wrkit keys it at d: p0's coefficients packed as
    the digits of one int in base 2^(2d+1); no coefficient exceeds 3^d."""
    p0, a1, a2 = key
    return sum(c << (2 * d + 1) * i for i, c in enumerate(p0)), a1, a2


def check_signature_keys(d):
    """Check 1: the route's signature set is the index of signature_classes(d),
    and of certificate_signatures(d)."""
    from wrkit.configurations import certificate_signatures, signature_classes

    keys = {wrkit_key(key, d) for key in route_signatures(d)}
    assert keys == set(signature_classes(d)[2]) == set(certificate_signatures(d)[1]), d


def check_slack_signs(d, lam):
    """Check 2: each signature's slack, from the route in Fractions, has the
    sign of the certificate's verdict on its signature."""
    from wrkit import lp
    from wrkit.configurations import certificate_signatures

    # the verdicts come in the order of the certificate's table
    index = certificate_signatures(d)[1]
    verdicts = lp.feasibility(d, lam)[1].rows.verdicts
    for key in route_signatures(d):
        slack = alpha_slack(key, d, lam)
        expected = verdicts[index[wrkit_key(key, d)]][2]
        assert (slack > 0) - (slack < 0) == (expected > 0) - (expected < 0), (d, lam, key)


def test_signature_counts_are_pinned():
    counts = [len(route_signatures(d)) for d in range(1, 7)]
    assert counts == [3, 9, 27, 94, 390, 2094]


@pytest.mark.parametrize("d", range(1, 7))
def test_route_gives_the_signature_classes(d):
    check_signature_keys(d)


@pytest.mark.parametrize("lam", (F(1, 3), F(1), F(3, 2), F(7)), ids=str)
def test_route_slack_signs_match_the_verdicts(lam):
    for d in range(1, 6):
        check_slack_signs(d, lam)


def test_check_1_fails_on_a_route_that_skips_k_equal_d(monkeypatch):
    on = signatures_on
    monkeypatch.setattr(THIS, "signatures_on", lambda k: frozenset() if k == 5 else on(k))
    with pytest.raises(AssertionError):
        check_signature_keys(5)


def test_check_2_fails_on_p12_built_as_p1_plus_p2_minus_1(monkeypatch):
    built = p12_coefficients

    def slipped(a1, a2):
        coefficients = built(a1, a2)
        coefficients[0] -= 1
        return coefficients

    monkeypatch.setattr(THIS, "p12_coefficients", slipped)
    with pytest.raises(AssertionError):
        for d in range(1, 6):
            check_slack_signs(d, F(1))
