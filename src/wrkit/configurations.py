"""Neighbourhood configurations with boundary colour lists.

A configuration pairs a graph H on d vertices (the neighbourhood of some
centre vertex in a d-regular graph) with one allowed-colour list per
vertex, each a subset of {1, 2} stored as a 2-bit mask: bit 0 allows
colour 1, bit 1 colour 2.  Its local partition polynomials are

  p0    weight of valid list-respecting colourings of H alone
  p1/p2 same, in one colour only: (1+lam)**a_i, a_i the lists allowing i
  p12   p1 + p2, fixed by {a1, a2}

and from them come alpha_v, the probability the centre vertex is
coloured, and alpha_u, the expected fraction of coloured neighbours
(local_alphas, with pc = p0 + lam p12 scaled in its denominator).

p0 comes from one submask walk over the colour-1 sets S: the colour-2
set is any subset of F(S), the vertices that allow colour 2 and are
neither in S nor next to it, so each S adds lam^|S| (1+lam)^|F(S)|, a
cached binomial row packed into one int at lam = 2^(2d+1), d the target
degree: p0 stays that packed int, its coefficients the base-2^(2d+1)
digits, from the walk to the LP column.  A class on k < d vertices,
padded to d with empty lists, packs as a walk on d vertices would.
_colour_set_walk is the only walk and _low_coefficients the only check
of its low coefficients; both take one graph with a batch of (A1, A2)
pairs, which _local_walks runs and checks, as int comparisons: one per
graph class for signature_classes, certificate_signatures and
full_class_signatures, and one pair for local_partition_functions,
alpha_v and alpha_u.  Only local_partition_functions unpacks p0, into
the ConfigStats it returns.

enumerate_configs lists the classes up to label-preserving isomorphism:
graphs up to isomorphism, then list assignments per graph by orbits of
its automorphism group.  Each representative is its orbit's first
member, so it carries its canonical key; count_configs counts the
classes, and count_graph_classes the graphs, by Polya's count over the
cycle types of S_d.  Dropping the empty-list vertices and the edges
inside {1} or inside {2} leaves a class's reduced class, with the same
polynomials, as only an edge from a vertex allowing colour 1 to one
allowing colour 2 can bar a colouring.  signature_classes lists those
(1,438 at d = 5, against 12,208 classes), padded to d vertices.  Both
listings come from one orbit walk, which never builds a reduced
assignment with an edge inside {1} or inside {2}.

The map from a class to its signature, the key (packed p0, min(a1, a2),
max(a1, a2)) that signature() builds and all an LP column depends on,
lives here, free of any activity, with two routes to the signatures.
signature_classes is the canonical listing: every reduced class on at
most d vertices, from the orbit walk over graphs_up_to_iso(k) for each
k <= d, with its signature.  certificate_signatures, the certificate's
route, lists no class on d vertices: the classes on at most d - 1
vertices come from the same pass, and the signatures on d vertices from
adding one vertex w to each reduced class C on exactly d - 1, by the
deletion identity p0(C + w) = p0(A1, A2) + [1 in w's list] lam
p0(A1, A2 - N) + [2 in w's list] lam p0(A1 - N, A2), N the neighbours
of w, with each new signature walked again on its d vertices.  The two
have the same signature set (the tests check it), and the certificate
decides each signature's verdict once, so it lists the canonical
classes only to name a violated signature's.  full_class_signatures
gives the full classes' rows (the per-class report, which only configs
writes; past the full route's cap, at d = 7, reading an lp report's rows
raises CapacityError).  local_alphas turns a signature into its column
at lam, p0 from the packed digits and p12 in closed form.  The weights
are symmetric in the two colours, so swapping lists {1} and {2} keeps a
class's signature.  The orbit walk gives each orbit first the first of
its swapped orbit, and one class per swap pair is walked, in one batch
per graph class (796 walks for the 1,438 reduced classes at d = 5,
97,811 for 190,984 at d = 7) and augmented (108 parents at d = 5, 6,107
at d = 7).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, starmap
from math import factorial, gcd, prod
from operator import itemgetter

from .errors import CapacityError, UsageError, VerificationError
from .graphs import (
    CLASS_CAP,
    Graph,
    _valid_graph,
    canonical_labelled_form,
    check_degree_floor,
    graph_from_code,
    graphs_up_to_iso,
    label_mover,
    make_complete,
)
from .numerics import IntPolynomial, _cleared_powers, binomial_power, check_activity

STATS_CAP = 8  # the local walk covers at most 2^d colour-1 sets
ENUMERATION_CAP = 6  # labelled graphs times list assignments before dedup

NO_COLOURS = 0
COLOUR_1 = 1
COLOUR_2 = 2
BOTH_COLOURS = 3

_LIST_TEXT = {NO_COLOURS: "-", COLOUR_1: "1", COLOUR_2: "2", BOTH_COLOURS: "12"}
_SWAPPED = (NO_COLOURS, COLOUR_2, COLOUR_1, BOTH_COLOURS)  # each list, colours 1 and 2 swapped


@dataclass(frozen=True)
class Configuration:
    """A d-vertex neighbourhood graph with per-vertex allowed-colour masks."""

    graph: Graph
    lists: tuple[int, ...]
    # canonical key, stamped (by _stamped) on the representatives the
    # enumerations build canonical by construction; None otherwise
    canonical: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.lists) != self.graph.n:
            raise UsageError("one colour list per vertex required")
        if any(mask not in (0, 1, 2, 3) for mask in self.lists):
            raise UsageError("colour lists must be subsets of {1, 2}")

    @property
    def d(self) -> int:
        return self.graph.n

    def key(self) -> tuple:
        """Canonical key under label-preserving isomorphism."""
        if self.canonical is not None:
            return self.canonical
        return canonical_labelled_form(self.graph, self.lists)

    def key_text(self) -> str:
        """Compact one-line rendering of the canonical representative."""
        n, code, lists = self.key()
        lists_text = ",".join(_LIST_TEXT[mask] for mask in lists)
        return f"d={n};edges={_edges_text(n, code)};lists={lists_text}"


@lru_cache(maxsize=None)
def _edges_text(n: int, code: int) -> str:
    """The edge list of graph_from_code(n, code) as key_text renders it,
    once per graph: every class on that graph shares it."""
    return ",".join(f"{u}-{v}" for u, v in graph_from_code(n, code).edges())


def _enumerated(graph: Graph, lists: tuple[int, ...], canonical: tuple | None) -> Configuration:
    """The configuration (graph, lists) of lists that an enumeration here
    made, one mask in 0..3 per vertex by construction, built without the
    list checks of Configuration.__post_init__; a Configuration(graph,
    lists) built from other lists still runs them."""
    config = object.__new__(Configuration)
    # the frozen dataclass's idiom for setting its fields
    object.__setattr__(config, "graph", graph)
    object.__setattr__(config, "lists", lists)
    object.__setattr__(config, "canonical", canonical)
    return config


def _stamped(graph: Graph, code: int, lists: tuple[int, ...]) -> Configuration:
    """The configuration (graph, lists), known to be its own canonical
    representative, carrying its key (graph.n, code, lists)."""
    return _enumerated(graph, lists, (graph.n, code, lists))


def empty_lists_config(d: int) -> Configuration:
    """All lists empty (edges of H are immaterial for this class)."""
    return Configuration(Graph(d, (0,) * d), (NO_COLOURS,) * d)


def single_colour_config(d: int, colour: int) -> Configuration:
    """All lists equal to one colour (edges again immaterial)."""
    if colour not in (1, 2):
        raise UsageError(f"colour must be 1 or 2, got {colour}")
    return Configuration(Graph(d, (0,) * d), (colour,) * d)


def complete_neighbourhood_config(d: int) -> Configuration:
    """Complete neighbourhood with full lists: the configuration a clique induces."""
    return Configuration(make_complete(d), (BOTH_COLOURS,) * d)


@dataclass(frozen=True, slots=True)
class ConfigStats:
    """All activity-independent local quantities of a configuration."""

    a1: int
    a2: int
    p0: IntPolynomial
    p12: IntPolynomial
    has_dichromatic: bool

    @property
    def p1(self) -> IntPolynomial:
        """(1+lam)^a1: colour 1 on any subset of the a1 vertices allowing it."""
        return binomial_power(self.a1)

    @property
    def p2(self) -> IntPolynomial:
        """(1+lam)^a2, as p1 for colour 2."""
        return binomial_power(self.a2)


def _low_coefficients(adj: tuple[int, ...], pairs: Sequence[tuple[int, int]], d: int) -> list[int]:
    """Per (A1, A2) pair of one graph, the coefficients of 1, lam and lam^2
    in p0, packed as _colour_set_walk packs p0 at d, counted from the lists
    and the edges alone: one empty colouring, a1 + a2 single colours, and
    every two single colours on distinct vertices except a colour-1
    vertex beside a colour-2 one."""
    slot = 2 * d + 1
    out = []
    for allows_1, allows_2 in pairs:
        total = allows_1.bit_count() + allows_2.bit_count()
        two = total * (total - 1) // 2 - (allows_1 & allows_2).bit_count()
        clashes = 0
        rest = allows_1
        while rest:
            low = rest & -rest
            clashes += (adj[low.bit_length() - 1] & allows_2).bit_count()
            rest ^= low
        out.append(1 | total << slot | (two - clashes) << 2 * slot)
    return out


@lru_cache(maxsize=256)
def _subset_closures(adj: tuple[int, ...]) -> tuple[int, ...]:
    """closed[s] = s with its neighbours, for every vertex set s; the d = 6
    report walks graph by graph, so the bound loses few."""
    closed = [0] * (1 << len(adj))
    for s in range(1, len(closed)):
        low = s & -s
        closed[s] = closed[s ^ low] | low | adj[low.bit_length() - 1]
    return tuple(closed)


@lru_cache(maxsize=None)
def _packed_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """rows[size][free] = lam^size (1+lam)^free at lam = 2^(2d+1), its
    coefficients as digits; p0's are at most 3^d < 2^(2d+1), so none carry."""
    base = 1 << 2 * d + 1
    return tuple(
        tuple(base**size * (base + 1) ** free for free in range(d + 1 - size))
        for size in range(d + 1)
    )


def _colour_set_walk(
    adj: tuple[int, ...], pairs: Sequence[tuple[int, int]], d: int
) -> tuple[list[int], int]:
    """Per (A1, A2) pair of the graph with adjacency adj, on at most d
    vertices, p0 = sum over the subsets S of walk, the smaller of A1 and A2
    (the colours are symmetric), of lam^|S| (1+lam)^|F(S)|, F(S) the
    vertices of the other outside S and its neighbours, packed at the
    target degree d; and, as bit i of one int, whether some non-empty S of
    pair i leaves F(S) non-empty.  The closure table and the packed rows
    are fetched once for the batch.  The submask step s = (s - 1) & walk
    visits each S once, from walk down to the empty set; each reads its
    closure and adds its packed row."""
    closed = _subset_closures(adj)
    rows = _packed_rows(d)
    packs = []
    dichromatic = 0
    for i, (allows_1, allows_2) in enumerate(pairs):
        if allows_1.bit_count() <= allows_2.bit_count():
            walk, other = allows_1, allows_2
        else:
            walk, other = allows_2, allows_1
        packed = reached = 0
        s = walk
        while True:
            free = other & ~closed[s]
            packed += rows[s.bit_count()][free.bit_count()]
            if not s:
                break
            reached |= free
            s = (s - 1) & walk
        packs.append(packed)
        dichromatic |= (reached != 0) << i
    return packs, dichromatic


@lru_cache(maxsize=None)
def _list_masks(lists: tuple[int, ...]) -> tuple[int, int]:
    """A1 and A2, the vertices whose lists allow colour 1 and colour 2."""
    allows_1 = allows_2 = 0
    for v, mask in enumerate(lists):
        if mask & COLOUR_1:
            allows_1 |= 1 << v
        if mask & COLOUR_2:
            allows_2 |= 1 << v
    return allows_1, allows_2


def _local_walks(
    adj: tuple[int, ...], pairs: Sequence[tuple[int, int]], d: int
) -> Iterator[tuple[int, int, int, bool]]:
    """(a1, a2, packed p0, dichromatic flag) per (A1, A2) pair of the graph
    with adjacency adj, in order, from one batched walk packed at d; each
    result's low coefficients and flag are checked against routes that do
    not use the walk before it is yielded."""
    packs, dichromatic = _colour_set_walk(adj, pairs, d)
    lows = _low_coefficients(adj, pairs, d)
    one_colour = _packed_rows(d)[0]  # (1+lam)^a, packed
    low_mask = (1 << 3 * (2 * d + 1)) - 1
    for i, ((allows_1, allows_2), packed, low) in enumerate(zip(pairs, packs, lows)):
        if packed & low_mask != low:
            raise VerificationError("low coefficients of p0 disagree with its lists and edges")
        a1 = allows_1.bit_count()
        a2 = allows_2.bit_count()
        has_dichromatic = dichromatic >> i & 1 == 1
        # dichromatic colourings are exactly the gap between p0 and the
        # monochromatic-or-empty total p1 + p2 - 1
        if has_dichromatic != (packed != one_colour[a1] + one_colour[a2] - 1):
            raise VerificationError("dichromatic flag disagrees with p0 - (p12 - 1)")
        yield a1, a2, packed, has_dichromatic


def signature(a1: int, a2: int, packed: int) -> tuple[int, int, int]:
    """An LP column's key: p0 packed at the degree and {a1, a2}, which fix p12."""
    return (packed, a1, a2) if a1 <= a2 else (packed, a2, a1)


def _walked(config: Configuration) -> tuple[int, int, int, bool]:
    """The _local_walks result of one configuration, a batch of one; a
    failed check names the class."""
    if config.d > STATS_CAP:
        raise CapacityError(f"local enumeration capped at {STATS_CAP} vertices, got {config.d}")
    try:
        return next(_local_walks(config.graph.adj, [_list_masks(config.lists)], config.d))
    except VerificationError as exc:
        raise VerificationError(f"{config.key_text()}: {exc}") from exc


@lru_cache
def local_partition_functions(config: Configuration) -> ConfigStats:
    """Collect all local polynomials from one walk over colour-1 sets, a
    batch of one: p0 sums lam^|S| (1+lam)^|F(S)| over the subsets S of the
    smaller of A1 and A2, as the colours are symmetric (_colour_set_walk),
    unpacked here from its digits; p12 is (1+lam)^a1 + (1+lam)^a2."""
    a1, a2, packed, has_dichromatic = _walked(config)
    slot = 2 * config.d + 1
    digit = (1 << slot) - 1
    p0 = IntPolynomial(packed >> shift & digit for shift in range(0, slot * (config.d + 1), slot))
    return ConfigStats(a1, a2, p0, binomial_power(a1) + binomial_power(a2), has_dichromatic)


def local_alphas(a1: int, a2: int, packed: int, d: int, lam: Fraction) -> tuple[int, int, int]:
    """alpha_v and alpha_u of a d-vertex configuration with signature
    (packed p0, a1, a2), as integers over one positive denominator:
    (X_v, X_u, D) with alpha_v = X_v / D and alpha_u = X_u / D.

    At lam = p/q, P0 and M0 are p0's value and first moment lam * p0',
    times q^d, from one pass over the packed digits against the cleared
    powers p^k q^(d-k).  p12 = (1+lam)^a1 + (1+lam)^a2 needs no pass: with
    s = p + q and t_a = s^a q^(d-a), its scaled value is P12 = t_a1 + t_a2
    and its scaled moment M12, p times the sum of a s^(a-1) q^(d-a) over
    a in {a1, a2}, is p (a1 t_a1 + a2 t_a2) / s, exact as s divides each
    a t_a.  Then

        X_v = q d p P12,
        X_u = q (q M0 + p M12),
        D   = q d (q P0 + p P12) > 0,

    so no polynomial is built and no gcd is taken until a caller builds a
    Fraction.
    """
    p, q = lam.numerator, lam.denominator
    slot = 2 * d + 1
    digit = (1 << slot) - 1
    big_p0 = moment0 = 0
    for k, power in enumerate(_cleared_powers(p, q, d)):
        count = packed >> k * slot & digit
        if count:
            term = count * power
            big_p0 += term
            moment0 += k * term
    s = p + q
    grown = _cleared_powers(s, q, d)
    t1, t2 = grown[a1], grown[a2]
    big_p12 = t1 + t2
    moment12 = p * (a1 * t1 + a2 * t2) // s
    qd = q * d
    return qd * p * big_p12, q * (q * moment0 + p * moment12), qd * (q * big_p0 + p * big_p12)


def alpha_v(config: Configuration, lam: Fraction) -> Fraction:
    """Probability the centre vertex is coloured: lam * p12 / pc."""
    lam = check_activity(lam)
    a1, a2, packed, _ = _walked(config)
    x_v, _, den = local_alphas(a1, a2, packed, config.d, lam)
    return Fraction(x_v, den)


def alpha_u(config: Configuration, lam: Fraction) -> Fraction:
    """Expected coloured fraction of the neighbourhood:
    lam * (p0' + lam * p12') / (d * pc)."""
    lam = check_activity(lam)
    a1, a2, packed, _ = _walked(config)
    _, x_u, den = local_alphas(a1, a2, packed, config.d, lam)
    return Fraction(x_u, den)


def check_degree(d: int) -> None:
    """The degrees the reduced route accepts, to CLASS_CAP, checked before any work."""
    check_degree_floor(d)
    if d > CLASS_CAP:
        raise CapacityError(f"reduced class enumeration capped at {CLASS_CAP}, got {d}")


@lru_cache(maxsize=None)
def _lists_beside(taken: int | tuple[int, ...]) -> tuple[int, ...]:
    """The lists a reduced class's vertex may take beside neighbours with
    lists taken (an int for one): {12}, and {1} and {2} unless taken."""
    taken = taken if isinstance(taken, tuple) else (taken,)
    return tuple(mask for mask in (COLOUR_1, COLOUR_2) if mask not in taken) + (BOTH_COLOURS,)


def _orbit_firsts(k: int, code: int, autos: tuple, reduced: bool) -> tuple[Graph, list, dict]:
    """The graph class with this code and these automorphisms on k
    vertices, the first member of each automorphism orbit of its list
    assignments, in product order, and per assignment the index of its
    orbit's first.  One walk extends each prefix by the lists its next
    vertex may take: any of the four in a full class; in a reduced one,
    whose lists lie in {1}, {2}, {12} with no edge inside {1} or {2},
    those its earlier neighbours leave it.  An automorphism keeps edges,
    so it marks whole orbits.  A first member is its orbit's minimum, so
    (code, lists) is a canonical key."""
    beside = _lists_beside if reduced else lambda taken: (0, 1, 2, 3)
    graph = graph_from_code(k, code)
    movers = [label_mover(perm) for perm in autos]
    assignments = [()]
    for v in range(k):
        earlier = [u for u in range(v) if reduced and graph.adj[v] >> u & 1]
        pick = itemgetter(*earlier) if earlier else lambda a: ()
        assignments = [a + (m,) for a in assignments for m in beside(pick(a))]
    orbit: dict[tuple[int, ...], int] = {}
    firsts = []
    for assignment in assignments:
        if assignment not in orbit:
            i = len(firsts)
            for move in movers:
                orbit[move(assignment)] = i
            firsts.append(assignment)
    return graph, firsts, orbit


@lru_cache(maxsize=8)
def enumerate_configs(d: int) -> tuple[Configuration, ...]:
    """All configurations on d vertices, one canonical representative per
    label-preserving isomorphism class, in canonical key order: the graph
    classes come in increasing code and, within one, the orbit firsts in
    increasing lists, so the keys come out sorted with no sort."""
    check_degree_floor(d)
    if d > ENUMERATION_CAP:
        raise CapacityError(f"configuration enumeration capped at {ENUMERATION_CAP}, got {d}")
    out = []
    for code, autos in graphs_up_to_iso(d):
        graph, firsts, _ = _orbit_firsts(d, code, autos, False)
        out += (_stamped(graph, code, lists) for lists in firsts)
    return tuple(out)


def _partitions(n: int, most: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most most, largest part first."""
    if not n:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _polya_count(n: int, per_cycle: int) -> int:
    """The mean over S_n of per_cycle^m 2^pairs, m the number of a
    permutation's cycles and pairs the number of its cycles on vertex
    pairs: floor(c_i/2) within each cycle and gcd(c_i, c_j) between two.
    It sums over cycle types: n!/z of the permutations have the cycle
    type, z the product over each length c, met m_c times, of c^m_c m_c!."""
    total = 0
    for cycles in _partitions(n, n):
        pairs = sum(c // 2 for c in cycles) + sum(starmap(gcd, combinations(cycles, 2)))
        z = prod(c**m * factorial(m) for c, m in Counter(cycles).items())
        total += per_cycle ** len(cycles) * 2**pairs * (factorial(n) // z)
    return total // factorial(n)


def count_configs(d: int) -> int:
    """len(enumerate_configs(d)) by Polya's count over the cycle types of
    S_d, without enumerating: a permutation with m cycles fixes 4^m list
    assignments and 2^pairs graphs, and the classes are the mean of the
    fixed count over S_d."""
    check_degree(d)
    return _polya_count(d, 4)


def count_graph_classes(n: int) -> int:
    """len(graphs_up_to_iso(n)), the graphs on n vertices up to
    isomorphism, by the same count: a permutation fixes 2^pairs graphs.
    It lists no graph, so it runs past graphs_up_to_iso's cap (12,346 at
    n = 8)."""
    return _polya_count(n, 1)


def tight_full_classes(d: int) -> tuple[Configuration, ...]:
    """The full classes of the four reduced classes the dual certificate
    makes tight, in canonical order: every graph class H with all lists
    empty, {1} or {2}, where no edge matters, carrying H's canonical code;
    then the complete neighbourhood, whose code is the largest."""
    classes = graphs_up_to_iso(d)
    complete = classes[-1][0]
    return tuple(
        _stamped(graph_from_code(d, code), code, (mask,) * d)
        for code, _ in classes
        for mask in (NO_COLOURS, COLOUR_1, COLOUR_2)
    ) + (_stamped(graph_from_code(d, complete), complete, (BOTH_COLOURS,) * d),)


def tight_reduced_classes(d: int) -> tuple[Configuration, ...]:
    """The four reduced classes the dual certificate makes tight: all
    lists empty, the independent d-set listed {1}, the same listed {2},
    and the complete neighbourhood, last."""
    return (
        empty_lists_config(d),
        single_colour_config(d, COLOUR_1),
        single_colour_config(d, COLOUR_2),
        complete_neighbourhood_config(d),
    )


def tight_reduced_signatures(d: int) -> tuple[tuple[int, int, int], ...]:
    """The signatures of tight_reduced_classes(d), in its order, read off
    their lists: (a1, a2) is (0, 0), (d, 0), (0, d) and (d, d), and none
    has a dichromatic colouring, so each p0 is p1 + p2 - 1, packed as
    _colour_set_walk packs it."""
    one_colour = _packed_rows(d)[0]
    return tuple(
        signature(a1, a2, one_colour[a1] + one_colour[a2] - 1)
        for a1, a2 in ((0, 0), (d, 0), (0, d), (d, d))
    )


def _reduced_graphs(top: int) -> Iterator[tuple[int, int, Graph, list, list]]:
    """(k, code, graph, firsts, partners) per graph class of the reduced
    classes on k <= top vertices, unpadded, from _orbit_firsts: k and then
    the code descending, so that the firsts, read backwards, come in
    signature_classes order.  A first's partner is the index of the first
    whose orbit holds its lists with colours 1 and 2 swapped: the swap
    commutes with the automorphisms and keeps the walk's assignments.  The
    orbit index lives only while its graph's partners are found."""
    swap = _SWAPPED.__getitem__
    for k in range(top, -1, -1):
        for code, autos in reversed(graphs_up_to_iso(k)):
            graph, firsts, orbit = _orbit_firsts(k, code, autos, True)
            yield k, code, graph, firsts, [orbit[tuple(map(swap, lists))] for lists in firsts]


def reduced_config(k: int, code: int, graph: Graph, lists: tuple[int, ...]) -> Configuration:
    """The configuration of a signature_classes entry, with its key if k = d."""
    return _stamped(graph, code, lists) if k == graph.n else _enumerated(graph, lists, None)


def _walked_graphs(top: int, d: int) -> Iterator[tuple[int, int, Graph, list]]:
    """(k, code, padded graph, classes) per graph class of _reduced_graphs(top),
    in its order; classes holds, per reduced class on the graph, in
    signature_classes order, (its lists padded to d, (a1, a2, packed p0),
    whether it was walked).  The graph and the lists are padded with
    d - k isolated empty-list vertices.  The weights are symmetric in the
    two colours, so a class and its colour-swapped class share p0 and
    {a1, a2}: one local walk per swap pair, the pair's first class in this
    order, gives both, and the walks run in one batch per graph class, on
    its unpadded k vertices, packed at d, so that a padded class keys as
    the same class walked on d vertices would.  A failed check names the
    class.  signature_classes and certificate_signatures share this pass."""
    for k, code, graph, assignments, partners in _reduced_graphs(top):
        pad = (NO_COLOURS,) * (d - k)
        padded = _valid_graph(d, graph.adj + pad, "")
        order = range(len(assignments) - 1, -1, -1)
        walked = [_list_masks(assignments[i]) for i in order if partners[i] <= i]
        walks = _local_walks(graph.adj, walked, d)
        found: list = [None] * len(assignments)  # (a1, a2, packed p0) per first
        classes = []
        for i in order:
            lists = assignments[i] + pad
            j = partners[i]
            if j > i:  # its swapped class came first, with the same signature
                found[i] = found[j]
            else:
                try:
                    found[i] = next(walks)[:3]
                except VerificationError as exc:
                    config = reduced_config(k, code, padded, lists)
                    raise VerificationError(f"{config.key_text()}: {exc}") from exc
            classes.append((lists, found[i], j <= i))
        yield k, code, padded, classes


@lru_cache(maxsize=None)
def signature_classes(d: int) -> tuple[tuple, tuple, dict[tuple, int]]:
    """The class-to-signature map at d: per distinct signature, in order
    of its first reduced class, (that class, a1, a2, packed p0); per
    reduced class, (its entry, its signature's index); and each
    signature's index, keyed by signature().

    An entry is (k, code, graph, lists) for a reduced class on k <= d
    vertices, graph and lists padded with d - k isolated empty-list
    vertices.  The entries are sorted by k and then by the k-vertex
    class's canonical key, both descending: the complete neighbourhood
    first, the all-empty class last.  The local walks are
    _walked_graphs', one per colour-swap pair, and only a signature's
    first class becomes a Configuration.  This is the canonical listing:
    the tests read it as the oracle of certificate_signatures, and the
    certificate reads it only to name the classes of a violated
    signature.  Free of any activity, the map is walked once per degree,
    at most CLASS_CAP of them, as a refused degree raises before anything
    is cached."""
    check_degree(d)
    index: dict[tuple, int] = {}
    firsts = []
    classes = []
    for k, code, graph, walked in _walked_graphs(d, d):
        for lists, (a1, a2, packed), _ in walked:
            entry = k, code, graph, lists
            i = index.setdefault(signature(a1, a2, packed), len(firsts))
            if i == len(firsts):
                firsts.append((reduced_config(*entry), a1, a2, packed))
            classes.append((entry, i))
    return tuple(firsts), tuple(classes), index


@lru_cache(maxsize=128)
def _submasks(mask: int) -> tuple[int, ...]:
    """The subsets of the vertex set mask, from mask down to the empty set."""
    out = [mask]
    s = mask
    while s:
        s = (s - 1) & mask
        out.append(s)
    return tuple(out)


_W_LISTS = (BOTH_COLOURS, COLOUR_2, COLOUR_1)  # the augmented vertex's lists, in column order


def _augment(graph: Graph, parents: list, d: int, index: dict, firsts: list) -> None:
    """Add to index and firsts the new signatures of the classes C + w:
    C runs over parents, the lists of reduced classes on the d - 1 vertices
    of graph, padded to d; w is vertex d - 1, listed {12}, {2} or {1}, with
    every neighbour set N in C, and C + w stays reduced: N holds no vertex
    listed exactly {1} if w is, nor exactly {2}.  The new signatures come
    in order of parent, then N from the full set down, then w's list.

    With N the neighbours of w, the deletion identity gives

        p0(C + w) = p0(A1, A2) + [1 in w's list] lam p0(A1, A2 - N)
                               + [2 in w's list] lam p0(A1 - N, A2),

    each term a walk on C: the terms are tabulated per parent, for every
    X <= A2 and every Y <= A1, in one _colour_set_walk batch for all the
    parents, packed at d, and lam times a packed p0 is a shift by 2d + 1
    bits.  Each new signature is then walked again on its d-vertex class,
    one _local_walks batch per N, which checks its p0, its low
    coefficients and its dichromatic flag; that class, as built and not
    canonically labelled (its key() canonicalises), names it."""
    w = d - 1
    adj = graph.adj[:w]
    masks = [_list_masks(lists) for lists in parents]
    pairs = []
    for allows_1, allows_2 in masks:
        pairs += [(allows_1, x) for x in _submasks(allows_2)]
        pairs += [(y, allows_2) for y in _submasks(allows_1)]
    packs = iter(_colour_set_walk(adj, pairs, d)[0])
    slot = 2 * d + 1
    bit = 1 << w
    ns = range(bit - 1, -1, -1)
    new: dict[int, list] = {}  # per N, the new signatures' (index, lists, (A1, A2))
    for lists, (allows_1, allows_2) in zip(parents, masks):
        # lam p0(A1, X) per X <= A2, and lam p0(Y, A2) per Y <= A1, by vertex set
        lifted_2, lifted_1 = [0] * bit, [0] * bit
        for x in _submasks(allows_2):
            lifted_2[x] = next(packs) << slot
        for y in _submasks(allows_1):
            lifted_1[y] = next(packs) << slot
        base = lifted_2[allows_2] >> slot
        a1, a2 = allows_1.bit_count(), allows_2.bit_count()
        only_1, only_2 = allows_1 & ~allows_2, allows_2 & ~allows_1
        # {a1, a2} of C + w, in signature order, for w listed {12}, {2}, {1}
        both = signature(a1 + 1, a2 + 1, 0)[1:]
        two = signature(a1, a2 + 1, 0)[1:]
        one = signature(a1 + 1, a2, 0)[1:]
        via = zip(
            ns,
            [lifted_2[allows_2 & ~n] for n in ns],  # w coloured 1
            [lifted_1[allows_1 & ~n] for n in ns],  # w coloured 2
        )
        # per N, the keys of C + w with w listed {12}, {2} and {1}, None
        # where an edge would join two vertices listed the same one colour
        keys = [
            key
            for n, via_1, via_2 in via
            for key in (
                (base + via_1 + via_2, *both),
                None if n & only_2 else (base + via_2, *two),
                None if n & only_1 else (base + via_1, *one),
            )
        ]
        fresh = set(keys).difference(index)
        fresh.discard(None)
        for at in sorted(map(keys.index, fresh)):
            index[keys[at]] = len(firsts)
            firsts.append(keys[at])
            mask = _W_LISTS[at % 3]
            grown = allows_1 | bit * (mask & 1), allows_2 | bit * (mask >> 1)
            new.setdefault(ns[at // 3], []).append((len(firsts) - 1, lists[:w] + (mask,), grown))
    for n, found in new.items():
        grown_adj = tuple(a | bit if n >> v & 1 else a for v, a in enumerate(adj)) + (n,)
        grown_graph = _valid_graph(d, grown_adj, "")
        walks = _local_walks(grown_adj, [pair for *_, pair in found], d)
        for i, lists, _ in found:
            config = _enumerated(grown_graph, lists, None)
            try:
                a1, a2, packed, _ = next(walks)
            except VerificationError as exc:
                raise VerificationError(f"{config.key_text()}: {exc}") from exc
            if signature(a1, a2, packed) != firsts[i]:
                raise VerificationError(
                    f"{config.key_text()}: p0 by the deletion identity disagrees with its walk"
                )
            firsts[i] = (config, a1, a2, packed)


@lru_cache(maxsize=None)
def certificate_signatures(d: int) -> tuple[tuple, dict[tuple, int]]:
    """The signatures of signature_classes(d), for the certificate, which
    reads a class only through its signature: per signature, (its first
    class, a1, a2, packed p0), and each signature's index, keyed by
    signature().

    The signatures of the classes on at most d - 1 vertices come from
    _walked_graphs(d - 1, d), the pass that signature_classes makes, with
    the same first classes.  Deleting a vertex w from a reduced class on
    exactly d vertices leaves a reduced class C on d - 1 (both have no
    empty list), so the other signatures are those of C + w (_augment),
    for one C of each colour-swap pair on exactly d - 1 vertices, in
    _walked_graphs order: swapping the colours of C + w keeps its
    signature.  No graph on d vertices is listed and no orbit of their
    list assignments is walked.  The d-vertex signatures come first, so
    the complete neighbourhood, K_(d-1) with w joined to all and every
    list {12}, is the first column, as in signature_classes; the rest
    follow in signature_classes order.  A d-vertex first class is C + w
    as built, not canonically labelled: its key() canonicalises, and only
    failure messages, and the LP's support, print it."""
    check_degree(d)
    lower: dict[tuple, tuple] = {}  # per signature on d - 1 vertices, its first class
    parents = []
    for k, code, graph, classes in _walked_graphs(d - 1, d):
        if k == d - 1:
            parents.append((graph, [lists for lists, _, walked in classes if walked]))
        for lists, (a1, a2, packed), _ in classes:
            lower.setdefault(signature(a1, a2, packed), (k, code, graph, lists, a1, a2, packed))
    index: dict[tuple, int] = {}
    firsts: list = []
    for graph, lists in parents:
        _augment(graph, lists, d, index, firsts)
    for key, (*entry, a1, a2, packed) in lower.items():
        if index.setdefault(key, len(firsts)) == len(firsts):
            firsts.append((reduced_config(*entry), a1, a2, packed))
    return tuple(firsts), index


def full_class_signatures(d: int) -> Iterator[tuple]:
    """(class, a1, a2, signature index) per full class at d, in canonical
    order, the index read from certificate_signatures(d).
    enumerate_configs lists the classes of each graph class together, and
    they walk in one batch.  A failed check, or a signature missing from
    the index, names the class."""
    index = certificate_signatures(d)[1]
    for graph, batch in groupby(enumerate_configs(d), lambda config: config.graph):
        batch = list(batch)
        walks = _local_walks(graph.adj, [_list_masks(c.lists) for c in batch], d)
        for config in batch:
            try:
                a1, a2, packed, _ = next(walks)
            except VerificationError as exc:
                raise VerificationError(f"{config.key_text()}: {exc}") from exc
            found = index.get(signature(a1, a2, packed))
            if found is None:
                raise VerificationError(
                    f"{config.key_text()}: signature missing from the reduced classes"
                )
            yield config, a1, a2, found
