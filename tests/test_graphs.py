"""Graph representation, generators, isomorphism keys, and text I/O."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from wrkit.dynamics import estimate_occupancy, transition_distribution
from wrkit.errors import CapacityError, DomainError, ParseError, UsageError
from wrkit.graphs import (
    VERTEX_CAP,
    Graph,
    canonical_labelled_form,
    check_regular,
    component_masks,
    disjoint_union,
    edge_code,
    from_edges,
    graph_from_code,
    graphs_up_to_iso,
    is_union_of_complete,
    label_mover,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    make_prism,
    make_random_regular,
    parse_builtin,
    parse_edge_list,
)
from wrkit.occupancy import (
    ActivityPair,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
)


def serialize_edge_list(g):
    """The edge-list text that parse_edge_list reads back."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def check_simple(g):
    for v in range(g.n):
        assert not (g.adj[v] >> v) & 1, "self-loop"
        for u in range(g.n):
            assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1), "asymmetric"


def test_generators():
    k4 = make_complete(4)
    assert k4.m == 6
    check_regular(k4, 3)
    k33 = make_complete_bipartite(3, 3)
    assert k33.m == 9
    check_regular(k33, 3)
    c5 = make_cycle(5)
    assert c5.m == 5
    check_regular(c5, 2)
    pet = make_petersen()
    assert pet.n == 10 and pet.m == 15
    check_regular(pet, 3)
    prism = make_prism(3)
    assert prism.n == 6 and prism.m == 9
    check_regular(prism, 3)
    for g in (k4, k33, c5, pet, prism):
        check_simple(g)


def test_generator_parameter_floors():
    with pytest.raises(UsageError):
        make_complete(0)
    with pytest.raises(UsageError):
        make_cycle(2)
    with pytest.raises(UsageError):
        make_prism(2)
    with pytest.raises(UsageError):
        make_complete_bipartite(0, 3)


def test_graph_adjacency_checks():
    with pytest.raises(UsageError, match="out of range"):
        Graph(2, (0b100, 0))
    with pytest.raises(UsageError, match="out of range"):
        Graph(2, (-1, 0))  # a negative mask has bits past every n
    with pytest.raises(UsageError, match="self-loop"):
        Graph(2, (0b01, 0))
    with pytest.raises(UsageError, match="asymmetric"):
        Graph(2, (0b10, 0))
    with pytest.raises(UsageError):
        Graph(2, (0,))


def test_every_builder_makes_a_graph_that_passes_the_adjacency_checks():
    # the builders skip Graph's per-edge loop; rebuilding each output as a
    # raw Graph runs it, and from_edges still refuses bad edges first
    built = [
        from_edges(4, [(0, 1), (1, 2), (2, 3)], "path"),
        make_complete(5),
        make_complete_bipartite(2, 3),
        make_cycle(6),
        make_petersen(),
        make_prism(4),
        disjoint_union(make_complete(3), make_cycle(4)),
        make_random_regular(12, 3, 1),
        parse_builtin("complete:4+prism:3"),
        make_prism(5).relabel("relabelled"),
    ]
    for g in built:
        assert Graph(g.n, g.adj, g.label) == g
    with pytest.raises(UsageError, match="out of range"):
        from_edges(3, [(0, 3)])
    with pytest.raises(UsageError, match="self-loop"):
        from_edges(3, [(1, 1)])
    with pytest.raises(UsageError, match="^vertex count must be >= 0, got -3$"):
        from_edges(-3, [])


def test_disjoint_union():
    g = disjoint_union(make_complete(3), make_complete(3))
    assert g.n == 6 and g.m == 6
    assert len(component_masks(g, (1 << 6) - 1)) == 2


def test_random_regular_unique_case():
    # only one 3-regular graph exists on 4 vertices
    for seed in (0, 1, 2):
        g = make_random_regular(4, 3, seed)
        assert g.adj == make_complete(4).adj


def test_random_regular_two_regular_is_cycle_union():
    g = make_random_regular(6, 2, seed=5)
    check_regular(g, 2)
    # every component of a 2-regular graph is a cycle covering >= 3 vertices
    assert sum(m.bit_count() for m in component_masks(g, 63)) == 6
    assert all(m.bit_count() >= 3 for m in component_masks(g, 63))


def test_random_regular_simple_and_regular():
    for seed in range(10):
        g = make_random_regular(10, 3, seed=seed)
        check_regular(g, 3)
        check_simple(g)


def test_random_regular_deterministic():
    assert make_random_regular(12, 3, seed=9).adj == make_random_regular(12, 3, seed=9).adj


def test_random_regular_usage_errors():
    with pytest.raises(UsageError):
        make_random_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(UsageError):
        make_random_regular(4, 4, seed=0)  # d >= n


def test_random_regular_retry_exhausted(monkeypatch):
    import wrkit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "_PAIRING_RETRY_CAP", 0)
    with pytest.raises(CapacityError, match="pairing model failed 0 times"):
        make_random_regular(10, 3, seed=0)


def test_vertex_cap_covers_every_builder():
    # each source refuses past the cap before building its adjacency
    over = VERTEX_CAP + 1
    for build in (
        lambda: from_edges(over, []),
        lambda: make_complete(over),
        lambda: make_complete_bipartite(VERTEX_CAP, 1),
        lambda: make_cycle(over),
        lambda: make_prism(over // 2 + 1),
        lambda: make_random_regular(2 * 10**4, 3, 0),
        lambda: disjoint_union(make_cycle(VERTEX_CAP), make_cycle(3)),
    ):
        with pytest.raises(CapacityError, match=f"capped at {VERTEX_CAP} vertices"):
            build()
    assert from_edges(VERTEX_CAP, []).n == VERTEX_CAP


def test_component_count():
    c4 = make_cycle(4)
    assert component_masks(c4, 0b0101) == [0b0001, 0b0100]  # opposite vertices
    assert len(component_masks(c4, 0b1111)) == 1
    assert component_masks(c4, 0) == []
    c5 = make_cycle(5)
    assert component_masks(c5, 0b00111) == [0b00111]  # 3 consecutive vertices


def test_component_count_tree_bridges():
    # removing any edge of a tree from the full subset adds one component
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 10)
        edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
        tree = from_edges(n, edges)
        full = (1 << n) - 1
        assert len(component_masks(tree, full)) == 1
        for u, v in tree.edges():
            adj = list(tree.adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            cut = Graph(n, tuple(adj))
            assert len(component_masks(cut, full)) == 2


def test_is_union_of_complete():
    assert is_union_of_complete(make_complete(4), 4)
    assert is_union_of_complete(disjoint_union(make_complete(3), make_complete(3)), 3)
    assert not is_union_of_complete(make_cycle(6), 3)
    assert not is_union_of_complete(make_complete(4), 3)
    assert is_union_of_complete(make_cycle(3), 3)


def test_check_regular_names_the_first_vertex_of_another_degree():
    check_regular(Graph(0, ()), 5)  # vacuously regular
    with pytest.raises(DomainError) as info:
        check_regular(parse_builtin("cycle:5+complete:4"), 2)
    assert str(info.value) == (
        "graph 'cycle:5+complete:4' is not 2-regular: vertex 5 has degree 3"
    )


@pytest.mark.parametrize("refuse", [
    lambda g: occupancy_fraction(g, F(1)),
    lambda g: occupancy_by_colour(g, ActivityPair(F(1), F(1))),
    lambda g: weighted_occupancy(g, ActivityPair(F(1), F(1))),
    lambda g: estimate_occupancy(g, F(1), 1, 1),
    lambda g: transition_distribution((), g, F(1)),
], ids=["occupancy_fraction", "occupancy_by_colour", "weighted_occupancy",
        "estimate_occupancy", "transition_distribution"])
def test_every_graph_entry_point_refuses_the_empty_graph(refuse):
    with pytest.raises(DomainError, match="^graph has no vertices$"):
        refuse(Graph(0, ()))


def test_canonical_form_examples():
    k2 = make_complete(2)
    assert canonical_labelled_form(k2, (1, 2)) == canonical_labelled_form(k2, (2, 1))
    empty2 = Graph(2, (0, 0))
    assert canonical_labelled_form(k2, (1, 1)) != canonical_labelled_form(empty2, (1, 1))
    # a path with equal labels has one key under all 6 relabelings
    path = from_edges(3, [(0, 1), (1, 2)])
    keys = set()
    for perm in permutations(range(3)):
        relabelled = from_edges(3, [(perm[u], perm[v]) for u, v in path.edges()])
        keys.add(canonical_labelled_form(relabelled, (3, 3, 3)))
    assert len(keys) == 1


def test_canonical_form_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = from_edges(n, edges)
        labels = tuple(rng.randint(0, 3) for _ in range(n))
        key = canonical_labelled_form(g, labels)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_labelled_form(permuted, label_mover(perm)(labels)) == key


def test_label_mover_moves_each_label_to_its_image():
    rng = random.Random(19)
    for n in range(0, 8):
        labels = [rng.randint(0, 3) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        moved = label_mover(perm)(labels)
        assert isinstance(moved, tuple) and len(moved) == n
        assert all(moved[perm[v]] == labels[v] for v in range(n))


def test_canonical_form_capacity():
    g = Graph(9, (0,) * 9)
    with pytest.raises(CapacityError):
        canonical_labelled_form(g, (0,) * 9)


def test_graphs_up_to_iso_counts():
    # classic sequence of graphs on n unlabelled vertices
    for n, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)):
        assert len(graphs_up_to_iso(n)) == count
    # a negative vertex count is refused, as by from_edges
    with pytest.raises(UsageError, match="^vertex count must be >= 0, got -1$"):
        graphs_up_to_iso(-1)


def orbit_marking_oracle(n):
    """graphs_up_to_iso by per-code orbit marking: every class's code is
    moved by every permutation through a relabelled edge list, not the
    pair-bit maps the library moves codes with."""
    perms = list(permutations(range(n)))
    total = 1 << (n * (n - 1) // 2)
    seen = bytearray(total)
    out = []
    for code in range(total):
        if seen[code]:
            continue
        edges = graph_from_code(n, code).edges()
        autos = []
        for perm in perms:
            image = edge_code(from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
            seen[image] = 1
            if image == code:
                autos.append(perm)
        out.append((code, tuple(autos)))
    return tuple(out)


def test_graphs_up_to_iso_matches_the_orbit_marking_oracle():
    # the same codes and automorphism tuples, in the same order
    for n in range(0, 7):
        assert graphs_up_to_iso(n) == orbit_marking_oracle(n)


def test_parse_edge_list():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
    assert g.adj == make_complete(3).adj
    g = parse_edge_list("2 0\n")
    assert g.n == 2 and g.m == 0
    g = parse_edge_list("# comment\n\n3 1\n\n2 1\n")  # blanks, comments, u > v
    assert g.adj[1] >> 2 & 1
    # the largest header the cap admits still parses
    assert parse_edge_list(f"{VERTEX_CAP} 0\n").n == VERTEX_CAP


def test_parse_edge_list_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 0\n")  # self-loop
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 5\n")  # out of range
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("nonsense\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")  # missing edge
    with pytest.raises(ParseError):
        parse_edge_list("")  # no header
    with pytest.raises(CapacityError):
        parse_edge_list(f"{VERTEX_CAP + 1} 0\n")  # before allocating


def test_parse_builtin_refuses_empty_parameters_and_terms():
    refused = {
        "cycle:,5": "empty parameter",
        "complete:4,,": "empty parameter",
        "bipartite:3,,3": "empty parameter",
        "petersen:": "empty parameter",
        "cycle:": "empty parameter",
        "cycle:5+": "empty term",
        "+cycle:5": "empty term",
        "cycle:5++cycle:3": "empty term",
        "cycle:5+ ": "empty term",
        "": "empty term",
    }
    for spec, reason in refused.items():
        with pytest.raises(UsageError) as info:
            parse_builtin(spec)
        assert str(info.value) == f"{reason} in builtin spec {spec!r}"
    # bipartite:a,b is the one spelling of K_{a,b}
    with pytest.raises(UsageError, match=r"^unknown builtin graph 'complete_bipartite'$"):
        parse_builtin("complete_bipartite:3,3")


def test_parse_builtin_labels_a_union_by_its_stripped_atoms():
    for spec in ("cycle:5+cycle:3", "cycle:5 + cycle:3", " cycle:5+  cycle:3 "):
        assert parse_builtin(spec).label == "cycle:5+cycle:3"
    # a well-formed spec is its own label
    for spec in ("petersen", "complete:4+complete:4", "random_regular:10,3,7"):
        assert parse_builtin(spec).label == spec


def test_edge_list_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = from_edges(n, edges)
        assert parse_edge_list(serialize_edge_list(g)).adj == g.adj
