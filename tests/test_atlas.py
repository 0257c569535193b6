"""Graph classes against an outside oracle: the atlas of all graphs on at
most 7 vertices that ships with networkx (no download).  Class counts
and canonical codes are checked up to n = 7, where graphs_up_to_iso
takes a few seconds.  The automorphism counts are checked against
networkx's GraphMatcher up to n = 6 (its search over the 1,044 classes
at n = 7 adds about 1.5 s on a 2-vCPU VM) and through the
orbit-stabiliser identity up to n = 7."""

from collections import Counter
from math import comb, factorial

from networkx import Graph as NxGraph
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.generators.atlas import graph_atlas_g

from wrkit.graphs import (
    canonical_labelled_form,
    from_edges,
    graph_from_code,
    graphs_up_to_iso,
)

MAX_N = 7
MATCHER_MAX_N = 6


def atlas_by_size():
    by_size = {}
    for g in graph_atlas_g():
        by_size.setdefault(g.number_of_nodes(), []).append(g)
    return by_size


def to_networkx(g):
    out = NxGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def test_classes_match_the_atlas():
    atlas = atlas_by_size()
    counts = [len(atlas[n]) for n in range(1, MAX_N + 1)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]
    for n in range(1, MAX_N + 1):
        classes = graphs_up_to_iso(n)
        assert len(classes) == len(atlas[n])
        # every atlas graph lands on a distinct class, by its canonical code
        atlas_codes = Counter(
            canonical_labelled_form(from_edges(n, list(g.edges())), (0,) * n)[1]
            for g in atlas[n]
        )
        assert atlas_codes == Counter(code for code, _ in classes)


def test_orbit_stabiliser_identity():
    # each class is an orbit of n!/|Aut| labelled graphs, and the orbits
    # cover all 2^C(n,2) edge codes
    for n in range(0, MAX_N + 1):
        total = sum(factorial(n) // len(autos) for _, autos in graphs_up_to_iso(n))
        assert total == 1 << comb(n, 2)


def test_automorphism_counts_match_graph_matcher():
    for n in range(1, MATCHER_MAX_N + 1):
        for code, autos in graphs_up_to_iso(n):
            g = to_networkx(graph_from_code(n, code))
            expected = sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())
            assert len(autos) == expected, (n, code)
