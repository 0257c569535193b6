"""Configuration enumeration, local polynomials, and the alpha estimates."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit import configurations
from wrkit.configurations import (
    COLOUR_1,
    COLOUR_2,
    ConfigStats,
    Configuration,
    certificate_signatures,
    complete_neighbourhood_config,
    count_configs,
    count_graph_classes,
    empty_lists_config,
    enumerate_configs,
    full_class_signatures,
    local_partition_functions,
    signature,
    single_colour_config,
    tight_full_classes,
    alpha_u,
    alpha_v,
)
from wrkit.errors import CapacityError, DomainError, UsageError, VerificationError
from wrkit.graphs import (
    Graph,
    canonical_labelled_form,
    from_edges,
    graphs_up_to_iso,
    graph_from_code,
    label_mover,
    make_complete,
)
from wrkit.numerics import IntPolynomial, binomial_power
from wrkit.partition import valid_colourings

from lp_oracles import reduced_config, signature_classes

F = Fraction


def star_oracle(config, lam):
    """Independent enumeration of centre + neighbourhood colourings.

    Returns P[v coloured], the mean over u of P[u coloured], and that
    mean split by colour (colour 1, colour 2), by brute force over all
    maps, with list and adjacency constraints applied directly.
    """
    d = config.d
    total = F(0)
    centre_coloured = F(0)
    # weight per colour 0, 1, 2, summed over the neighbourhood vertices
    neighbour_colours = [F(0)] * 3
    for colouring in product((0, 1, 2), repeat=d + 1):
        centre = colouring[d]
        ok = True
        for u in range(d):
            c = colouring[u]
            if c and not (config.lists[u] & c):
                ok = False
                break
            if c and centre and c + centre == 3:
                ok = False
                break
            if c:
                rest = config.graph.adj[u] & ((1 << u) - 1)
                while rest:
                    low = rest & -rest
                    if colouring[low.bit_length() - 1] + c == 3:
                        ok = False
                        break
                    rest ^= low
            if not ok:
                break
        if not ok:
            continue
        weight = lam ** (d + 1 - colouring.count(0))
        total += weight
        if centre:
            centre_coloured += weight
        for u in range(d):
            neighbour_colours[colouring[u]] += weight
    per_colour = (neighbour_colours[1] / (d * total), neighbour_colours[2] / (d * total))
    return centre_coloured / total, sum(per_colour), per_colour


def colouring_tallies(config):
    """p0, p1, p2 and the dichromatic flag tallied over the reference
    enumeration of the list colourings of the neighbourhood."""
    d = config.d
    options = [tuple(c for c in (0, 1, 2) if not c or mask & c) for mask in config.lists]
    p0, p1, p2 = [0] * (d + 1), [0] * (d + 1), [0] * (d + 1)
    dichromatic = False
    for colouring in valid_colourings(config.graph, options):
        coloured = d - colouring.count(0)
        p0[coloured] += 1
        p1[coloured] += 2 not in colouring
        p2[coloured] += 1 not in colouring
        dichromatic |= 1 in colouring and 2 in colouring
    return IntPolynomial(p0), IntPolynomial(p1), IntPolynomial(p2), dichromatic


def packed(coefficients, d):
    """p0's coefficients as the walk packs them at the degree d: the digits
    of one int in base 2^(2d+1)."""
    return sum(c << (2 * d + 1) * k for k, c in enumerate(coefficients))


def test_local_polynomials_match_colouring_tallies():
    rng = random.Random(53)
    configs = [c for d in (1, 2, 3, 4) for c in enumerate_configs(d)]
    configs += rng.sample(enumerate_configs(5), 300)
    for config in configs:
        stats = local_partition_functions(config)
        got = (stats.p0, stats.p1, stats.p2, stats.has_dichromatic)
        assert got == colouring_tallies(config), config.key_text()


def subset_tally(adj, walk, other):
    """(|S|, |F(S)|) counted over every subset S of walk, with F(S) the
    vertices of other neither in S nor next to it."""
    tally = {}
    for s in range(1 << len(adj)):
        if s & ~walk:
            continue
        near = s
        for v in range(len(adj)):
            if s >> v & 1:
                near |= adj[v]
        key = (s.bit_count(), (other & ~near).bit_count())
        tally[key] = tally.get(key, 0) + 1
    return tally


def test_local_polynomials_walk_each_subset_of_the_smaller_list_set(monkeypatch):
    walks = []
    reads = []
    walk_fn = configurations._colour_set_walk
    closures = configurations._subset_closures

    class RecordedTable(tuple):
        def __getitem__(self, s):
            reads.append(s)
            return tuple.__getitem__(self, s)

    def recording_walk(adj, pairs, d):
        result = walk_fn(adj, pairs, d)
        walks.append((pairs, result))
        return result

    monkeypatch.setattr(configurations, "_colour_set_walk", recording_walk)
    monkeypatch.setattr(configurations, "_subset_closures", lambda adj: RecordedTable(closures(adj)))
    graph = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    # vertex 2 has an empty list; the lists allow colour 1 on {0, 1, 3, 4}
    # and colour 2 on {0, 4}, then the other way round
    for lists in ((3, 1, 0, 1, 3), (3, 2, 0, 2, 3)):
        walks.clear()
        reads.clear()
        local_partition_functions.cache_clear()  # so that the walk runs here
        local_partition_functions(Configuration(graph, lists))
        [([pair], ([p0], _))] = walks
        assert sorted(pair) == [0b10001, 0b11011]
        walk, other = 0b10001, 0b11011
        # every subset of the walk once: its closure read from the table
        assert sorted(reads) == [s for s in range(32) if not s & ~walk]
        assert len(reads) == 1 << walk.bit_count()
        expected = [0] * 6
        for (size, free), count in subset_tally(graph.adj, walk, other).items():
            for k in range(free + 1):
                expected[size + k] += count * comb(free, k)
        assert p0 == packed(expected, 5)


@st.composite
def configs(draw, max_d=6):
    d = draw(st.integers(1, max_d))
    pairs = [(u, v) for u in range(d) for v in range(u + 1, d)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    lists = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    return Configuration(from_edges(d, edges), tuple(lists))


@settings(max_examples=300, deadline=None)
@given(configs())
def test_local_polynomials_match_colouring_tallies_property(config):
    stats = local_partition_functions.__wrapped__(config)  # bypass the cache
    got = (stats.p0, stats.p1, stats.p2, stats.has_dichromatic)
    assert got == colouring_tallies(config)


def per_class_stats(config):
    """The stats as one walk per class computes them, on the full
    neighbourhood graph: p0 from the (|S|, |F(S)|) tally over every
    colour-1 set S, the rest from the list counts."""
    d, lists = config.d, config.lists
    allows_1 = sum(1 << v for v, mask in enumerate(lists) if mask & 1)
    allows_2 = sum(1 << v for v, mask in enumerate(lists) if mask & 2)
    p0 = [0] * (d + 1)
    dichromatic = False
    for (size, free), count in subset_tally(config.graph.adj, allows_1, allows_2).items():
        for k in range(free + 1):
            p0[size + k] += count * comb(free, k)
        dichromatic |= bool(size and free)
    p1, p2 = binomial_power(allows_1.bit_count()), binomial_power(allows_2.bit_count())
    return ConfigStats(
        a1=allows_1.bit_count(),
        a2=allows_2.bit_count(),
        p0=IntPolynomial(p0),
        p12=p1 + p2,
        has_dichromatic=dichromatic,
    )


def irrelevant_pairs(lists):
    """Vertex pairs whose edge no list colouring can see: one end has an
    empty list, or both ends allow only colour 1, or only colour 2."""
    d = len(lists)
    return [
        (u, v)
        for u in range(d)
        for v in range(u + 1, d)
        if not lists[u] or not lists[v] or lists[u] == lists[v] in (COLOUR_1, COLOUR_2)
    ]


def test_stats_per_key_equal_the_per_class_walk_exhaustively():
    for d in range(1, 6):
        for config in enumerate_configs(d):
            assert local_partition_functions(config) == per_class_stats(config), (
                config.key_text()
            )


@settings(max_examples=300, deadline=None)
@given(configs(), st.data())
def test_irrelevant_edges_change_no_stats_property(config, data):
    pairs = irrelevant_pairs(config.lists)
    toggled = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = list(config.graph.adj)
    for u, v in toggled:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    other = Configuration(Graph(config.d, tuple(adj)), config.lists)
    # the two graphs differ in irrelevant pairs alone
    assert set(other.graph.edges()) - set(pairs) == set(config.graph.edges()) - set(pairs)
    assert local_partition_functions(other) == local_partition_functions(config)
    assert local_partition_functions(config) == per_class_stats(config)


def test_full_classes_walk_in_one_batch_per_graph_class(monkeypatch):
    # the report's rows walk all 12,208 classes at d = 5 in 34 batches,
    # one per graph class; local_partition_functions walks a batch of one
    # per configuration it misses
    certificate_signatures(5)  # cached, so that only the full route walks here
    batches = []
    walk = configurations._colour_set_walk

    def counted(adj, pairs, d):
        batches.append(len(pairs))
        return walk(adj, pairs, d)

    monkeypatch.setattr(configurations, "_colour_set_walk", counted)
    assert sum(1 for _ in full_class_signatures(5)) == 12208
    assert len(batches) == len(graphs_up_to_iso(5)) == 34
    assert sum(batches) == 12208
    batches.clear()
    local_partition_functions.cache_clear()
    configs = enumerate_configs(3)
    for config in configs + configs:
        local_partition_functions(config)
    assert local_partition_functions.cache_info().misses == len(configs) == 120
    assert batches == [1] * 120


def test_stats_errors_name_the_class(monkeypatch):
    monkeypatch.setattr(configurations, "_low_coefficients", lambda *args: [0, 0, 0])
    local_partition_functions.cache_clear()
    config = complete_neighbourhood_config(3)
    with pytest.raises(VerificationError, match=f"^{re.escape(config.key_text())}: low"):
        local_partition_functions(config)


def test_a_wrong_dichromatic_flag_is_a_verification_error(monkeypatch):
    # the walk's flag is checked against p0 - (p12 - 1); flipped for
    # every class of a batch, on a class without dichromatic colourings
    # and on one with them, the check names the class, by every route to
    # a local walk
    walk = configurations._colour_set_walk

    def flipped(adj, pairs, d):
        p0s, dichromatic = walk(adj, pairs, d)
        return p0s, dichromatic ^ ((1 << len(pairs)) - 1)

    certificate_signatures(2)  # cached, so that the full route reads its index
    monkeypatch.setattr(configurations, "_colour_set_walk", flipped)
    local_partition_functions.cache_clear()
    for config in (complete_neighbourhood_config(3), Configuration(Graph(3, (0,) * 3), (3,) * 3)):
        message = f"^{re.escape(config.key_text())}: dichromatic flag disagrees"
        with pytest.raises(VerificationError, match=message):
            local_partition_functions(config)
    message = r"^d=2;edges=;lists=-,-: dichromatic flag disagrees"
    with pytest.raises(VerificationError, match=message):
        next(full_class_signatures(2))
    message = r"^d=2;edges=0-1;lists=12,12: dichromatic flag disagrees"
    signature_classes.cache_clear()
    with pytest.raises(VerificationError, match=message):
        signature_classes(2)
    message = r"^d=2;edges=;lists=-,12: dichromatic flag disagrees"
    certificate_signatures.cache_clear()
    with pytest.raises(VerificationError, match=message):
        certificate_signatures(2)


@pytest.mark.parametrize("check", ("low coefficients", "dichromatic flag"))
def test_a_later_pairs_failure_names_its_class(monkeypatch, check):
    # the check planted off on the last pair of every batch of two or
    # more: each route names that pair's class, not its batch's first,
    # and the table's check walk on d vertices, with its lower pass left
    # passing, names the d-vertex class it walks
    low, walk = configurations._low_coefficients, configurations._colour_set_walk

    def last_pair_off(least):
        def lows(adj, pairs, d):
            out = low(adj, pairs, d)
            if len(pairs) > 1 and len(adj) >= least:
                out[-1] += 1
            return out

        def flags(adj, pairs, d):
            packs, dichromatic = walk(adj, pairs, d)
            if len(pairs) > 1 and len(adj) >= least:
                dichromatic ^= 1 << len(pairs) - 1
            return packs, dichromatic

        if check == "low coefficients":
            monkeypatch.setattr(configurations, "_low_coefficients", lows)
        else:
            monkeypatch.setattr(configurations, "_colour_set_walk", flags)

    certificate_signatures(3)  # cached, so that the full route reads its index
    last_pair_off(0)
    signature_classes.cache_clear()
    with pytest.raises(VerificationError, match=rf"^d=3;edges=0-1,0-2,1-2;lists=1,2,12: {check}"):
        signature_classes(3)
    with pytest.raises(VerificationError, match=rf"^d=3;edges=;lists=12,12,12: {check}"):
        list(full_class_signatures(3))
    certificate_signatures.cache_clear()
    with pytest.raises(VerificationError, match=rf"^d=3;edges=0-1;lists=1,2,-: {check}"):
        certificate_signatures(3)
    last_pair_off(3)
    with pytest.raises(VerificationError, match=rf"^d=3;edges=0-1,0-2,1-2;lists=1,2,12: {check}"):
        certificate_signatures(3)


def test_stats_empty_lists():
    config = empty_lists_config(2)
    stats = local_partition_functions(config)
    assert stats.p0 == IntPolynomial([1])
    assert stats.p12 == IntPolynomial([2])
    assert len(set(config.lists)) == 1 and not stats.has_dichromatic


def test_stats_complete_neighbourhood():
    stats = local_partition_functions(complete_neighbourhood_config(2))
    assert stats.p0 == 2 * binomial_power(2) - 1
    assert stats.p12 == 2 * binomial_power(2)
    assert not stats.has_dichromatic


def test_stats_single_colour():
    stats = local_partition_functions(single_colour_config(2, 1))
    assert stats.p0 == binomial_power(2)
    assert stats.p12 == binomial_power(2) + 1
    assert (stats.a1, stats.a2) == (2, 0)


def test_stats_single_vs_binomial():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 5)
        code = rng.randrange(1 << (d * (d - 1) // 2))
        lists = tuple(rng.randint(0, 3) for _ in range(d))
        stats = local_partition_functions(Configuration(graph_from_code(d, code), lists))
        assert stats.p1 == binomial_power(stats.a1)
        assert stats.p2 == binomial_power(stats.a2)
        assert stats.p12 == stats.p1 + stats.p2


def test_positivity_assumptions():
    # 2*p0 - p12 > 0 and p0' > 0 at positive activities once a list is non-empty
    for config in enumerate_configs(3):
        stats = local_partition_functions(config)
        gap = 2 * stats.p0 - stats.p12
        if stats.a1 == 0 and stats.a2 == 0:
            assert gap == IntPolynomial()
            continue
        for lam in (F(1, 7), F(1), F(12)):
            assert gap.eval(lam) > 0
            assert stats.p0.derivative().eval(lam) > 0


def test_alpha_examples_d2():
    assert alpha_v(empty_lists_config(2), F(1)) == F(2, 3)
    assert alpha_u(empty_lists_config(2), F(1)) == F(0)
    assert alpha_v(single_colour_config(2, 1), F(1)) == F(5, 9)
    assert alpha_u(single_colour_config(2, 1), F(1)) == F(4, 9)
    ck = complete_neighbourhood_config(2)
    assert alpha_v(ck, F(1)) == alpha_u(ck, F(1)) == F(8, 15)


def test_alpha_complete_matches_closed_form():
    from wrkit.occupancy import alpha_K

    rng = random.Random(9)
    for d in (1, 2, 3, 4):
        ck = complete_neighbourhood_config(d)
        for _ in range(5):
            lam = F(rng.randint(1, 20), rng.randint(1, 20))
            assert alpha_v(ck, lam) == alpha_K(d, lam)
            assert alpha_u(ck, lam) == alpha_K(d, lam)


def test_alpha_domain_error():
    with pytest.raises(DomainError):
        alpha_v(empty_lists_config(2), F(0))
    with pytest.raises(DomainError):
        alpha_u(empty_lists_config(2), F(-1))


def test_formula_matches_star_enumeration():
    # spatial Markov property made concrete: closed formulas equal the
    # brute-force conditional probabilities on the star
    lam = F(2, 3)
    for d in (1, 2, 3):
        for config in enumerate_configs(d):
            ov, ou, _ = star_oracle(config, lam)
            assert alpha_v(config, lam) == ov, config.key_text()
            assert alpha_u(config, lam) == ou, config.key_text()


def test_formula_matches_star_enumeration_d4_sample():
    rng = random.Random(31)
    configs = list(enumerate_configs(4))
    lam = F(3, 2)
    for config in rng.sample(configs, 60):
        ov, ou, _ = star_oracle(config, lam)
        assert alpha_v(config, lam) == ov
        assert alpha_u(config, lam) == ou


def test_per_colour_alpha():
    lam = F(1)
    # colour-symmetric configuration: the two colours split evenly
    ck = complete_neighbourhood_config(3)
    _, ou, (a1u, a2u) = star_oracle(ck, lam)
    assert a1u == a2u == ou / 2

    # colour 2 unavailable everywhere
    c1 = single_colour_config(2, 1)
    ov, ou, per_colour = star_oracle(c1, lam)
    assert per_colour == (F(4, 9), 0)
    assert (ov, ou) == (alpha_v(c1, lam), alpha_u(c1, lam))


def test_enumerate_counts():
    assert len(enumerate_configs(1)) == 4
    assert len(enumerate_configs(2)) == 20
    # regression constants; cross-checked by a Burnside count over the
    # automorphism groups of the 4 (resp. 11) graph classes
    assert len(enumerate_configs(3)) == 120
    assert len(enumerate_configs(4)) == 996
    # regression constants only (no independent count)
    assert len(enumerate_configs(5)) == 12208
    assert len(enumerate_configs(6)) == 241520


def test_per_colour_sums_consistent_d4():
    # the star's per-colour neighbour fractions add up to the closed-form
    # alpha_u, and its centre probability is alpha_v; sweep all of d=4
    lam = F(2, 3)
    for config in enumerate_configs(4):
        ov, ou, (a1u, a2u) = star_oracle(config, lam)
        assert a1u + a2u == ou == alpha_u(config, lam), config.key_text()
        assert ov == alpha_v(config, lam), config.key_text()


def test_enumerate_d1_lists():
    lists = sorted(c.lists for c in enumerate_configs(1))
    assert lists == [(0,), (1,), (2,), (3,)]


def test_enumerate_membership():
    keys = {c.key() for c in enumerate_configs(2)}
    k2 = make_complete(2)
    assert Configuration(k2, (3, 3)).key() in keys
    assert Configuration(Graph(2, (0, 0)), (0, 0)).key() in keys


def test_enumerate_reps_are_canonical_and_distinct():
    from wrkit.graphs import canonical_labelled_form, edge_code

    rng = random.Random(43)
    for d in (1, 2, 3, 4, 5):
        configs = enumerate_configs(d)
        keys = [c.key() for c in configs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        checked = list(zip(configs, keys))
        if d == 5:
            checked = rng.sample(checked, 300)
        for config, key in checked:
            # the representative is its own canonical form, and the key it
            # carries is the one the permutation search finds
            assert key == (d, edge_code(config.graph), config.lists)
            assert key == canonical_labelled_form(config.graph, config.lists)
            # the carried key takes no part in equality or hashing
            plain = Configuration(config.graph, config.lists)
            assert plain.canonical is None
            assert plain == config and hash(plain) == hash(config)
            assert plain.key() == key and plain.key_text() == config.key_text()


def test_dedup_soundness_under_relabeling():
    rng = random.Random(41)
    keys3 = {c.key() for c in enumerate_configs(3)}
    for config in rng.sample(list(enumerate_configs(3)), 20):
        perm = list(range(3))
        rng.shuffle(perm)
        permuted_graph = from_edges(
            3, [(perm[u], perm[v]) for u, v in config.graph.edges()]
        )
        permuted = Configuration(permuted_graph, label_mover(perm)(config.lists))
        assert permuted.key() in keys3
        assert permuted.key() == config.key()
        a = local_partition_functions(config)
        b = local_partition_functions(permuted)
        assert (a.a1, a.a2, a.p0, a.p12) == (b.a1, b.a2, b.p0, b.p12)
        assert alpha_v(config, F(2)) == alpha_v(permuted, F(2))
        assert alpha_u(config, F(2)) == alpha_u(permuted, F(2))


def test_full_lists_dichromatic_iff_not_complete():
    # with both colours allowed everywhere, only the complete graph
    # forbids using both colours at once
    for d in range(1, 7):
        complete_code = (1 << (d * (d - 1) // 2)) - 1
        for code, _ in graphs_up_to_iso(d):
            graph = graph_from_code(d, code)
            stats = local_partition_functions(Configuration(graph, (3,) * d))
            assert stats.has_dichromatic == (code != complete_code)


def test_capacity_and_usage_errors():
    # each class route owns its cap: the full one stops at 6, the reduced
    # one at graphs_up_to_iso's 7, each naming its route
    for enumeration, d, route in (
        (enumerate_configs, 7, "configuration enumeration capped at 6"),
        (certificate_signatures, 8, "reduced class enumeration capped at 7"),
        (count_configs, 8, "reduced class enumeration capped at 7"),
    ):
        with pytest.raises(CapacityError) as refused:
            enumeration(d)
        assert str(refused.value) == f"{route}, got {d}"
        with pytest.raises(DomainError, match="^degree must be >= 1, got 0$"):
            enumeration(0)
    # the degree helpers share the floor, checked before any listing
    for helper in (
        configurations.tight_full_classes,
        configurations.tight_reduced_classes,
        configurations.tight_reduced_signatures,
    ):
        for d in (0, -1):
            with pytest.raises(DomainError, match=f"^degree must be >= 1, got {d}$"):
                helper(d)
    with pytest.raises(UsageError, match="^vertex count must be >= 0, got -1$"):
        count_graph_classes(-1)
    with pytest.raises(CapacityError):
        local_partition_functions(Configuration(Graph(9, (0,) * 9), (3,) * 9))
    # no vertices is degree 0, refused before any walk or division by D = 0
    empty = Configuration(Graph(0, ()), ())
    for evaluate in (
        lambda: alpha_v(empty, F(1)),
        lambda: alpha_u(empty, F(1)),
        lambda: local_partition_functions(empty),
    ):
        with pytest.raises(DomainError, match="^degree must be >= 1, got 0$"):
            evaluate()
    with pytest.raises(UsageError):
        Configuration(Graph(2, (0, 0)), (4, 0))
    with pytest.raises(UsageError):
        single_colour_config(2, 3)


# ---------------------------------------------------------------------------
# reduced classes


def reduced_key(config):
    """The canonical key of a class's reduced class, built here from its
    definition: the non-empty-list vertices, without the edges inside the
    {1}-only or inside the {2}-only vertices."""
    keep = [v for v, mask in enumerate(config.lists) if mask]
    index = {v: i for i, v in enumerate(keep)}
    dropped = set(irrelevant_pairs(config.lists))
    edges = [
        (index[u], index[v]) for u, v in config.graph.edges() if (u, v) not in dropped
    ]
    graph = from_edges(len(keep), edges)
    return canonical_labelled_form(graph, [config.lists[v] for v in keep])


def reduced_configs(d):
    """The reduced classes at d as configurations, in signature_classes
    order: the listing the tests read, built from its entries."""
    return tuple(reduced_config(*entry) for entry, _ in signature_classes(d)[1])


def signatures(configs):
    return {
        (stats.p0, stats.p12)
        for stats in map(local_partition_functions, configs)
    }


def check_signature_sets(d):
    """The reduced classes at d have exactly the full classes' signatures."""
    assert signatures(reduced_configs(d)) == signatures(enumerate_configs(d))


def test_enumerated_configurations_pass_the_list_checks():
    # the enumerations' configurations skip Configuration's list checks;
    # rebuilding each one runs them, and lists from elsewhere still meet
    # them
    enumerated = enumerate_configs(3) + reduced_configs(4) + tight_full_classes(3)
    for config in enumerated:
        assert Configuration(config.graph, config.lists) == config
    graph = Graph(2, (0, 0))
    for lists, reason in (
        ((3,), "^one colour list per vertex required$"),
        ((0, 1, 2), "^one colour list per vertex required$"),
        ((4, 0), r"^colour lists must be subsets of \{1, 2\}$"),
        ((0, -1), r"^colour lists must be subsets of \{1, 2\}$"),
    ):
        with pytest.raises(UsageError, match=reason):
            Configuration(graph, lists)


def test_count_configs_pinned():
    counts = [count_configs(d) for d in range(1, 7)]
    assert counts == [4, 20, 120, 996, 12208, 241520]
    assert counts[:5] == [len(enumerate_configs(d)) for d in range(1, 6)]


def cycle_count(perm):
    """The number of cycles of a permutation, fixed points included."""
    cycles = 0
    seen = set()
    for v in range(len(perm)):
        cycles += v not in seen
        while v not in seen:
            seen.add(v)
            v = perm[v]
    return cycles


def burnside_count(d):
    """The full classes at d by Burnside's lemma over each graph class's
    automorphisms: the 4^d list assignments on a graph class H fall into
    (1/|Aut H|) * sum over g in Aut H of 4^cycles(g) orbits.  The oracle
    for count_configs, which counts by cycle type and lists no graph."""
    return sum(
        sum(4 ** cycle_count(perm) for perm in autos) // len(autos)
        for _, autos in graphs_up_to_iso(d)
    )


def test_count_configs_matches_the_burnside_oracle():
    # d = 7 (8,171,936) runs in CI's d = 7 step
    for d in range(1, 7):
        assert count_configs(d) == burnside_count(d), d


def test_reduced_classes_are_the_reductions_of_the_full_classes():
    # each padded representative is its own reduction: it keeps only
    # edges that matter, and its empty lists are the trailing isolated
    # vertices; distinct representatives are distinct reduced classes,
    # and every full class reduces to one of them
    for d in range(1, 5):
        keys = []
        for config in reduced_configs(d):
            k = sum(1 for mask in config.lists if mask)
            assert config.lists[k:] == (0,) * (d - k) and 0 not in config.lists[:k]
            assert not any(config.graph.adj[k:])
            assert not set(config.graph.edges()) & set(irrelevant_pairs(config.lists))
            keys.append(reduced_key(config))
        assert len(set(keys)) == len(keys)
        assert set(keys) == {reduced_key(config) for config in enumerate_configs(d)}
    assert [len(reduced_configs(d)) for d in range(1, 7)] == [4, 14, 52, 236, 1438, 13048]


def test_reduced_classes_start_at_the_complete_neighbourhood():
    for d in range(1, 6):
        configs = reduced_configs(d)
        assert configs[0] == complete_neighbourhood_config(d)
        assert configs[-1] == empty_lists_config(d)
        # the k = d representatives are canonical and carry their keys
        for config in configs:
            if 0 not in config.lists:
                assert config.canonical == canonical_labelled_form(config.graph, config.lists)
            else:
                assert config.canonical is None


# SHA-256 of repr([(lists, graph.adj), ...]) over the reduced classes of
# signature_classes(d), in its order: the LP names its variables, and Bland's rule picks its
# pivots, by this order
REDUCED_ORDER_DIGESTS = {
    1: "136cd1218032a1c8c5eb04761880d70265a71b463fa9935c718eb90afbd32902",
    2: "8f6b69e0481aa45786511f2c7a69bf82e4c7bb01750f541eedd4c637890c97e2",
    3: "7b34a0c046989ba5a682e0a6187884bff0a22e99a7fa44c8d50a818acae7a14f",
    4: "1005b1e32308aa1986957bcfec24ea887d07a788343d40fd8177550abf4e18c4",
    5: "17aaaf567b0d08f227955045b4d71ffa68923c4f62a520d2fb00ccadcaaa69fc",
}


def product_orbit_walk(k, masks):
    """(code, lists) per graph class on k vertices and first member of
    each automorphism orbit of its assignments over masks: every
    assignment, in product order, marks its orbit."""
    out = []
    for code, autos in graphs_up_to_iso(k):
        movers = [label_mover(perm) for perm in autos]
        seen = set()
        for lists in product(masks, repeat=k):
            if lists not in seen:
                seen.update(move(lists) for move in movers)
                out.append((code, lists))
    return out


def filtered_orbit_walk(d):
    """The reduced classes as (k, code, lists), in signature_classes order,
    from the unpruned walk over {1}, {2}, {12}: the orbit firsts with an
    edge inside {1} or inside {2} are dropped after the marking."""
    out = []
    for k in range(d + 1):
        for code, lists in product_orbit_walk(k, (COLOUR_1, COLOUR_2, 3)):
            edges = graph_from_code(k, code).edges()
            if not any(lists[u] == lists[v] != 3 for u, v in edges):
                out.append((k, code, lists))
    return out[::-1]


def test_full_classes_are_the_product_order_orbit_firsts():
    # the one prefix walk, taking any of the four lists at every vertex,
    # gives the orbit firsts of the product over all four, in its order
    for k in range(1, 6):
        expected = product_orbit_walk(k, (0, COLOUR_1, COLOUR_2, 3))
        assert [config.canonical[1:] for config in enumerate_configs(k)] == expected


def test_pruned_walk_gives_the_filtered_orbit_walk():
    # the pruned walk marks only the orbits it keeps, so its firsts, their
    # order and the padded representatives are the filtered walk's
    for d in range(1, 6):
        expected = filtered_orbit_walk(d)
        entries = [entry for entry, _ in signature_classes(d)[1]]
        assert [(k, code, lists[:k]) for k, code, _, lists in entries] == expected
        for k, code, graph, lists in entries:
            assert graph.adj == graph_from_code(k, code).adj + (0,) * (d - k)
            assert lists[k:] == (0,) * (d - k)
            config = reduced_config(k, code, graph, lists)
            assert config.canonical == ((d, code, lists) if k == d else None)


def test_reduced_classes_order_is_pinned():
    for d, digest in REDUCED_ORDER_DIGESTS.items():
        text = repr([(config.lists, config.graph.adj) for config in reduced_configs(d)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, d


# SHA-256 of repr([(key, lists, graph.adj), ...]) over the signatures of
# certificate_signatures(d) and their first classes, in its order: the level-d
# signatures by parent, then N from the full set down, then w's list {12}, {2},
# {1}; then the lower ones in signature_classes order.  The certificate's LP
# takes its columns in this order
TABLE_ORDER_DIGESTS = {
    1: "e02bcf496fdc61c7cbfecc4673ac7ac90b8704ae653662d581233f151860480b",
    2: "ccb0a79d976cfc42079ab50bb6bd7e1dfdef26b8d17d6b07eadea534d42c1b52",
    3: "fb5bacff02b532f65c2db66e2174100e843292e48b5ccf5790ccf71ce3d8e0ae",
    4: "159160b77faeaa5a04239dd175460c42d74eda81aba4b111656f95cc78817b32",
    5: "d09b53c527ef1dda695ac6b6c8643656424e6eaa30fcd581e8dc21c83efb6a06",
    6: "10cfc7ae865593ad586ec64ee296fb241e2073e6a610b0194901494778c054f2",
}


def test_certificate_table_order_is_pinned():
    for d, digest in TABLE_ORDER_DIGESTS.items():
        table, index = certificate_signatures(d)
        text = repr([(key, c.lists, c.graph.adj) for key, (c, *_) in zip(index, table)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, d


def test_each_class_has_its_reduced_class_stats():
    # every class at d <= 4, and a seeded sample of 300 at d = 5
    rng = random.Random(59)
    for d in range(1, 6):
        by_key = {reduced_key(config): config for config in reduced_configs(d)}
        configs = enumerate_configs(d)
        if d == 5:
            configs = rng.sample(configs, 300)
        for config in configs:
            reduced = by_key[reduced_key(config)]
            assert local_partition_functions(config) == local_partition_functions(reduced), (
                config.key_text()
            )


def test_reduced_signature_sets_equal_the_full_ones():
    # d = 6 runs as its own CI step
    for d in range(1, 6):
        check_signature_sets(d)


# local walks in a cold signature_classes(d): one per colour-swap pair of
# reduced classes (52, 236, 1,438 and 13,048 classes at d = 3..6)
SWAP_PAIR_WALKS = {3: 33, 4: 141, 5: 796, 6: 6903}


def check_swap_pairing(d):
    """signature_classes(d) walks one class per colour-swap pair, and each
    reduced class gets the index of the signature that its own local walk
    finds, on its own lists and padded graph, with no partner table."""
    walked = []
    walk = configurations._colour_set_walk

    def counted(adj, pairs, d):
        walked.append(len(pairs))
        return walk(adj, pairs, d)

    configurations._colour_set_walk = counted
    try:
        signature_classes.cache_clear()  # so that the walk runs here
        _, classes, index = signature_classes(d)
    finally:
        configurations._colour_set_walk = walk
    assert sum(walked) == SWAP_PAIR_WALKS[d]
    for entry, i in classes:
        config = reduced_config(*entry)
        stats = local_partition_functions(config)
        key = signature(stats.a1, stats.a2, packed(stats.p0.coeffs, d))
        assert index[key] == i, config.key_text()


@pytest.mark.parametrize("d", (3, 4, 5))
def test_one_walk_per_colour_swap_pair(d):
    # d = 6 runs in the same CI step as check_signature_sets(6)
    check_swap_pairing(d)


def check_full_class_signatures(d):
    """full_class_signatures(d) lists every full class in canonical
    order, each with the a1, a2 and signature index that its own walk, a
    batch of one in local_partition_functions, finds: the index, in the
    certificate's table, of a key that the canonical listing has."""
    index = certificate_signatures(d)[1]
    canonical = signature_classes(d)[2]
    rows = full_class_signatures(d)
    for config, (row_config, a1, a2, i) in zip(enumerate_configs(d), rows, strict=True):
        stats = local_partition_functions(config)
        key = signature(a1, a2, packed(stats.p0.coeffs, d))
        assert row_config is config
        assert (a1, a2) == (stats.a1, stats.a2), config.key_text()
        assert index[key] == i and key in canonical, config.key_text()


@pytest.mark.parametrize("d", (3, 4, 5))
def test_batched_full_classes_match_their_own_walks(d):
    # d = 6 runs in the same CI step as check_signature_sets(6)
    check_full_class_signatures(d)


def test_a_padded_class_keys_as_its_class_walked_on_d_vertices():
    # signature_classes walks a class on k < d vertices unpadded but packs
    # it at d, so its key is the one its padded d-vertex graph gives: a
    # signature has one key whatever k its classes have
    for d in range(1, 6):
        _, classes, index = signature_classes(d)
        for (k, code, graph, lists), i in classes:
            masks = [configurations._list_masks(lists)]
            name = [reduced_config(k, code, graph, lists)].__getitem__
            on_d = next(configurations._local_walks(graph.adj, masks, d, name))
            assert index[signature(*on_d[:3])] == i, (k, code, lists)
            if k < d:
                unpadded = graph_from_code(k, code).adj
                assert next(configurations._local_walks(unpadded, masks, d, name)) == on_d


def test_tight_reduced_signatures_are_their_classes_walks():
    # uniqueness_check finds the tight classes' columns by these keys,
    # read off the lists, so each must be the key its class's walk gives
    for d in range(1, 8):
        walked = [configurations._walked(c) for c in configurations.tight_reduced_classes(d)]
        assert configurations.tight_reduced_signatures(d) == tuple(
            signature(a1, a2, packed) for a1, a2, packed, _ in walked
        ), d


def test_swap_partners_hold_the_swapped_lists():
    # each first's partner is the first of the orbit of its lists with
    # colours 1 and 2 swapped, on the same graph; the swap is an involution
    swapped = (0, COLOUR_2, COLOUR_1, 3)
    for k, _, graph, firsts, partners in configurations._reduced_graphs(5):
        for lists, j in zip(firsts, partners):
            moved = tuple(swapped[mask] for mask in lists)
            key = canonical_labelled_form(graph, firsts[j])
            assert canonical_labelled_form(graph, moved) == key, (k, graph, lists)
        assert [partners[j] for j in partners] == list(range(len(firsts)))


def test_graph_classes_are_counted_without_a_listing():
    # Polya's count over cycle types; graphs_up_to_iso lists them to its
    # cap, and OEIS A000088 gives the 12,346 graphs on 8 vertices
    counts = [count_graph_classes(n) for n in range(9)]
    assert counts[:8] == [len(graphs_up_to_iso(n)) for n in range(8)]
    assert counts == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]


def check_augmented_signatures(d):
    """certificate_signatures(d) has exactly the signatures of
    signature_classes(d), each once.  Its first classes on d vertices,
    one vertex added to a class on d - 1, come first, each walked once on
    its d vertices; the rest follow in signature_classes order, with its
    first classes, and each first class's own walk finds its key."""
    walked = []
    walk = configurations._colour_set_walk

    def counted(adj, pairs, d):
        walked.append((len(adj), len(pairs)))
        return walk(adj, pairs, d)

    configurations._colour_set_walk = counted
    try:
        certificate_signatures.cache_clear()  # so that the walk runs here
        table, index = certificate_signatures(d)
    finally:
        configurations._colour_set_walk = walk
    canonical_firsts, _, canonical = signature_classes(d)
    keys = [signature(a1, a2, p0) for _, a1, a2, p0 in table]
    assert set(keys) == set(canonical) and len(keys) == len(canonical)
    assert index == {key: i for i, key in enumerate(keys)}
    on_d = [0 not in config.lists for config, *_ in table]
    assert on_d == sorted(on_d, reverse=True)
    assert sum(size for n, size in walked if n == d) == sum(on_d)
    assert table[0][0] == complete_neighbourhood_config(d)
    names = {signature(a1, a2, p0): config for config, a1, a2, p0 in canonical_firsts}
    lower = [(key, entry[0]) for key, entry, d_vertex in zip(keys, table, on_d) if not d_vertex]
    named = dict(lower)
    assert lower == [(key, names[key]) for key in canonical if key in named]
    assert [config.canonical for _, config in lower] == [names[key].canonical for key, _ in lower]
    for (config, a1, a2, p0), key in zip(table, keys):
        a, b, q, _ = configurations._walked(config)
        assert (a, b, q) == (a1, a2, p0) and signature(a, b, q) == key, config.key_text()


@pytest.mark.parametrize("d", range(1, 7))
def test_augmented_signatures_are_the_reduced_classes(d):
    # d = 7 (15,567 signatures) runs in CI's d = 7 step
    check_augmented_signatures(d)


def test_the_certificate_columns_at_d1():
    # the one parent is the empty class on 0 vertices: w listed {12},
    # then {2} ({1} shares its signature), then the padded empty class
    assert [config.lists for config, *_ in certificate_signatures(1)[0]] == [(3,), (2,), (0,)]


@st.composite
def augmentations(draw, max_d=6):
    """A reduced class C on d - 1 vertices, padded to d, a list for a new
    vertex w = d - 1 and w's neighbour set N, C + w reduced."""
    d = draw(st.integers(1, max_d))
    k = d - 1
    lists = draw(st.lists(st.sampled_from((COLOUR_1, COLOUR_2, 3)), min_size=k, max_size=k))
    edges = [
        (u, v)
        for u in range(k)
        for v in range(u + 1, k)
        if not lists[u] == lists[v] != 3 and draw(st.booleans())
    ]
    mask = draw(st.sampled_from((COLOUR_1, COLOUR_2, 3)))
    n = [v for v in range(k) if not lists[v] == mask != 3 and draw(st.booleans())]
    return d, from_edges(d, edges), tuple(lists) + (0,), mask, n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(augmentations())
def test_the_deletion_identity_matches_a_direct_walk(augmentation):
    # p0(C + w) = p0(A1, A2) + [1 in w's list] lam p0(A1, A2 - N)
    #           + [2 in w's list] lam p0(A1 - N, A2), from three walks on
    # C, is the walk of C + w on d vertices and its colouring tally; and
    # augmenting C alone finds the signature of C + w
    d, graph, lists, mask, n = augmentation
    w = d - 1
    neighbours = sum(1 << v for v in n)
    allows_1, allows_2 = configurations._list_masks(lists)
    pairs = [(allows_1, allows_2), (allows_1, allows_2 & ~neighbours)]
    pairs.append((allows_1 & ~neighbours, allows_2))
    (base, via_1, via_2), _ = configurations._colour_set_walk(graph.adj, pairs, d)
    lam = 1 << 2 * d + 1
    p0 = base + (mask & 1) * lam * via_1 + (mask >> 1) * lam * via_2
    grown = from_edges(d, graph.edges() + [(v, w) for v in n])
    config = Configuration(grown, lists[:w] + (mask,))
    stats = local_partition_functions.__wrapped__(config)  # bypass the cache
    assert p0 == packed(stats.p0.coeffs, d) == packed(colouring_tallies(config)[0].coeffs, d)
    index, firsts = {}, []
    configurations._augment(graph, [lists], d, index, firsts)
    assert signature(stats.a1, stats.a2, p0) in index


def test_a_signature_off_its_walk_names_its_class(monkeypatch):
    # one table pack off by one, the first parent's p0 (K_2, lists {12}):
    # every key of that parent is off, so the first new signature, the
    # complete neighbourhood's, disagrees with its d-vertex class's walk;
    # the check walks, on d vertices, stay as they are
    augment = configurations._augment
    walk = configurations._colour_set_walk

    def off_table(adj, pairs, d):
        packs, dichromatic = walk(adj, pairs, d)
        if len(adj) < d:
            packs[0] += 1
        return packs, dichromatic

    def off_augment(*args):
        with monkeypatch.context() as tables:
            tables.setattr(configurations, "_colour_set_walk", off_table)
            augment(*args)

    monkeypatch.setattr(configurations, "_augment", off_augment)
    certificate_signatures.cache_clear()
    message = r"^d=3;edges=0-1,0-2,1-2;lists=12,12,12: p0 by the deletion identity disagrees"
    with pytest.raises(VerificationError, match=message):
        certificate_signatures(3)


def test_dualcert_lists_no_graph_on_d_vertices(monkeypatch, capsys):
    # dualcert counts its tight full classes, 3 g(d) + 1, and its table
    # walks no orbit on d vertices; lp lists the graph classes on d
    # vertices only for the tight classes it prints
    from wrkit import cli

    listing = configurations.graphs_up_to_iso
    orbits = configurations._orbit_firsts

    def no_listing(n):
        if n == 4:
            raise AssertionError("graph classes listed at d = 4")
        return listing(n)

    def no_orbits(k, *args):
        if k == 4:
            raise AssertionError("orbit walk at d = 4")
        return orbits(k, *args)

    monkeypatch.setattr(configurations, "graphs_up_to_iso", no_listing)
    monkeypatch.setattr(configurations, "_orbit_firsts", no_orbits)
    certificate_signatures.cache_clear()
    assert cli.main(["dualcert", "--d", "4", "--lambda", "3/2"]) == 0
    assert capsys.readouterr().out.endswith(" violations=0 tight=34\n")
    monkeypatch.setattr(configurations, "graphs_up_to_iso", listing)
    assert cli.main(["lp", "--d", "4", "--lambda", "3/2"]) == 0
    assert "tight constraints (34):" in capsys.readouterr().out
