"""Finite simple undirected graphs with bitset adjacency.

Vertices are 0..n-1 and each vertex carries a neighbour bitmask, so
induced-subgraph work (component counts over vertex subsets) is plain
integer arithmetic.  Vertex subsets are represented as ints throughout.

Graphs are immutable after construction and hashable, which lets the
partition-function layer memoise per-graph results.  The optional label
is display-only and excluded from equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, permutations
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, DomainError, ParseError, UsageError

ISO_CAP = 8  # brute-force isomorphism enumerates all vertex permutations
CLASS_CAP = 7  # graphs_up_to_iso's orbit table takes 2^C(n,2) bytes
# checked by every graph source before it allocates: bitset adjacency can
# hold n^2 bits (12.5 MB at the cap), and 2 * 10^5 vertices exhaust 1 GB
VERTEX_CAP = 10**4
_PAIRING_RETRY_CAP = 1000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbour bitsets."""

    n: int
    adj: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise UsageError("adjacency length must equal vertex count")
        for v, mask in enumerate(self.adj):
            # a shift, not mask & ~(2^n - 1): that builds an n-bit int per
            # vertex, so construction would be O(n^2) even with no edges
            if mask >> self.n:
                raise UsageError(f"vertex {v} has a neighbour out of range")
            if (mask >> v) & 1:
                raise UsageError(f"self-loop on vertex {v}")
            rest = mask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not (self.adj[u] >> v) & 1:
                    raise UsageError(f"asymmetric adjacency between {u} and {v}")
                rest ^= low

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with u < v."""
        out = []
        for v in range(self.n):
            rest = self.adj[v] >> (v + 1)
            u = v + 1
            while rest:
                if rest & 1:
                    out.append((v, u))
                rest >>= 1
                u += 1
        return out

    def relabel(self, text: str) -> "Graph":
        """Copy with a different display label."""
        return _valid_graph(self.n, self.adj, text)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def _valid_graph(n: int, adj: tuple[int, ...], label: str) -> Graph:
    """The Graph (n, adj, label) of an adjacency that is in range,
    loop-free and symmetric by construction, built without the per-edge
    loop of Graph.__post_init__; a raw Graph(n, adj) still runs it.  The
    builders here make every graph through this."""
    g = object.__new__(Graph)
    # the frozen dataclass's idiom for setting its fields
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    object.__setattr__(g, "label", label)
    return g


def _check_vertex_cap(n: int) -> None:
    if n > VERTEX_CAP:
        raise CapacityError(f"graphs capped at {VERTEX_CAP} vertices, got {n}")


def from_edges(n: int, edges: Iterable[tuple[int, int]], label: str = "") -> Graph:
    """Build a graph from an edge list, rejecting loops and bad vertex ids."""
    _check_vertex_cap(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise UsageError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise UsageError(f"self-loop on vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _valid_graph(n, tuple(adj), label)


# ---------------------------------------------------------------------------
# catalog generators


def make_complete(n: int) -> Graph:
    if n < 1:
        raise UsageError("complete graph needs n >= 1")
    _check_vertex_cap(n)
    full = (1 << n) - 1
    return _valid_graph(n, tuple(full ^ (1 << v) for v in range(n)), f"complete:{n}")


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise UsageError("complete bipartite graph needs both sides >= 1")
    _check_vertex_cap(a + b)
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    adj = tuple(right if v < a else left for v in range(a + b))
    return _valid_graph(a + b, adj, f"bipartite:{a},{b}")


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise UsageError("cycle needs n >= 3")
    return from_edges(n, ((v, (v + 1) % n) for v in range(n)), f"cycle:{n}")


def make_petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return from_edges(10, edges, "petersen")


def make_prism(k: int) -> Graph:
    """Two k-cycles joined by a perfect matching (3-regular on 2k vertices)."""
    if k < 3:
        raise UsageError("prism needs k >= 3")
    rims = ((s + v, s + (v + 1) % k) for s in (0, k) for v in range(k))
    spokes = ((v, k + v) for v in range(k))
    return from_edges(2 * k, chain(rims, spokes), f"prism:{k}")


def disjoint_union(g: Graph, h: Graph) -> Graph:
    _check_vertex_cap(g.n + h.n)
    adj = list(g.adj) + [mask << g.n for mask in h.adj]
    label = "+".join(part for part in (g.label, h.label) if part)
    return _valid_graph(g.n + h.n, tuple(adj), label)


def make_random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a simple d-regular graph via the pairing model.

    Stubs are shuffled and paired; any loop or repeated edge rejects the
    whole sample and we redraw from scratch, which keeps the distribution
    near-uniform at this scale.  Deterministic for a fixed seed.  Raises
    CapacityError when all _PAIRING_RETRY_CAP draws are rejected.
    """
    if d < 0 or d >= n:
        raise UsageError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise UsageError(f"n*d must be even, got n={n}, d={d}")
    _check_vertex_cap(n)
    rng = random.Random(seed)
    for _ in range(_PAIRING_RETRY_CAP):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [0] * n
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (adj[u] >> v) & 1:
                ok = False
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if ok:
            return _valid_graph(n, tuple(adj), f"random_regular:{n},{d},{seed}")
    raise CapacityError(
        f"pairing model failed {_PAIRING_RETRY_CAP} times for n={n}, d={d}"
    )


# ---------------------------------------------------------------------------
# structure queries


def component_masks(g: Graph, subset: int) -> list[int]:
    """Bitmasks of the connected components of the subgraph induced by the
    subset.  The one component walker: is_union_of_complete calls it, and
    the tests use it as an oracle."""
    adj = g.adj
    remaining = subset
    out = []
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            grow = 0
            rest = frontier
            while rest:
                low = rest & -rest
                grow |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = grow & remaining & ~comp
            comp |= frontier
        out.append(comp)
        remaining ^= comp
    return out


def check_vertices(g: Graph) -> None:
    """Refuse a graph with no vertices, on which no per-vertex quantity
    (an occupancy fraction, a sampler step) is defined."""
    if g.n == 0:
        raise DomainError("graph has no vertices")


def check_degree_floor(d: int) -> None:
    """Refuse a degree below 1, the floor of every degree-indexed quantity."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")


def check_regular(g: Graph, d: int) -> None:
    """Refuse a graph that is not d-regular, naming its first vertex of
    another degree."""
    for v, mask in enumerate(g.adj):
        if mask.bit_count() != d:
            raise DomainError(
                f"graph {g.label or g!r} is not {d}-regular: "
                f"vertex {v} has degree {mask.bit_count()}"
            )


def is_union_of_complete(g: Graph, k: int) -> bool:
    """True iff every connected component is a complete graph on exactly k vertices."""
    for comp in component_masks(g, (1 << g.n) - 1):
        if comp.bit_count() != k:
            return False
        rest = comp
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if (g.adj[v] & comp) != comp ^ low:
                return False
            rest ^= low
    return True


# ---------------------------------------------------------------------------
# labelled isomorphism (brute force over vertex permutations, small n only)

@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]:
    """The vertex pairs (i < j) in edge-code bit order, and each pair's
    bit, under (i, j) and (j, i)."""
    pairs = tuple(combinations(range(n), 2))
    return pairs, {pair: k for k, (i, j) in enumerate(pairs) for pair in ((i, j), (j, i))}


def edge_code(g: Graph) -> int:
    """Pack the edge set into an int, one bit per vertex pair (i < j)."""
    _, index = _pair_index(g.n)
    return sum(1 << index[edge] for edge in g.edges())


@lru_cache(maxsize=1024)
def graph_from_code(n: int, code: int) -> Graph:
    pairs, _ = _pair_index(n)
    return from_edges(n, [pairs[k] for k in range(len(pairs)) if code >> k & 1])


@lru_cache(maxsize=8)
def _pair_maps(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Per permutation of range(n), in permutations order, the bit (as a
    mask) that each pair bit moves to, and a last entry 0."""
    pairs, index = _pair_index(n)
    bits = [1 << k for k in range(len(pairs))]
    return {
        perm: tuple(bits[index[perm[i], perm[j]]] for i, j in pairs) + (0,)
        for perm in permutations(range(n))
    }


def _moved_codes(code: int, maps: Iterable[tuple[int, ...]]) -> list[int]:
    """The edge code moved by each pair-bit map: the OR, here the sum, of
    its set bits' targets.  The last entry, 0, is picked twice so that
    itemgetter always returns a tuple."""
    pick = itemgetter(-1, -1, *(k for k in range(code.bit_length()) if code >> k & 1))
    return list(map(sum, map(pick, maps)))


def label_mover(perm: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map that moves the label of vertex v to position perm[v], as one
    C call: the label landing at position w is the one of vertex perm^-1(w)."""
    inverse = [0] * len(perm)
    for v, w in enumerate(perm):
        inverse[w] = v
    if len(inverse) < 2:
        # itemgetter of a single index returns the item, not a 1-tuple
        return tuple
    return itemgetter(*inverse)


def canonical_labelled_form(g: Graph, labels: Sequence) -> tuple:
    """Canonical key of a vertex-labelled graph under label-preserving isomorphism.

    Two pairs (G, labels) and (G', labels') get the same key exactly when
    some bijection of the vertices maps edges to edges and carries each
    vertex's label along.  The key is the lexicographic minimum of
    (edge code, label tuple) over all vertex permutations, so it is usable
    as a dict key and sorts deterministically.
    """
    if len(labels) != g.n:
        raise UsageError("one label per vertex required")
    if g.n > ISO_CAP:
        raise CapacityError(f"canonical form capped at {ISO_CAP} vertices, got {g.n}")
    maps = _pair_maps(g.n)
    images = _moved_codes(edge_code(g), maps.values())
    best = min(images)
    moved = (label_mover(perm)(labels) for perm, image in zip(maps, images) if image == best)
    return (g.n, best, min(moved))


@lru_cache(maxsize=16)
def graphs_up_to_iso(n: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """All graphs on n vertices up to isomorphism, as (canonical edge code, automorphisms).

    The canonical code of a class is the smallest edge code it contains.
    Enumeration takes the unmarked codes in increasing order and marks
    each one's orbit, its images under all n! pair-bit maps, so each class
    is touched once; automorphisms are the permutations that fix the
    canonical code.  n = 7 takes seconds.  Capped at CLASS_CAP, below ISO_CAP:
    the orbit-marking table takes 2^C(n,2) bytes, 256 MiB at n = 8.
    """
    if n > CLASS_CAP:
        raise CapacityError(f"graph enumeration capped at {CLASS_CAP} vertices, got {n}")
    maps = _pair_maps(n)
    seen = bytearray(1 << (n * (n - 1) // 2))
    out = []
    code = 0
    while code >= 0:
        images = _moved_codes(code, maps.values())
        for image in images:
            seen[image] = 1
        out.append((code, tuple(perm for perm, image in zip(maps, images) if image == code)))
        code = seen.find(0, code + 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# the two graph text formats
#
# builtin spec: atoms such as "cycle:5" or "random_regular:8,3,1000",
# joined by "+" into a disjoint union, labelled by its stripped atoms
# joined by "+".
# Edge list: first line "n m", then m lines "u v".


def _parse_builtin_atom(spec: str) -> Graph:
    # builders are called by their module-level names, so anything that
    # rebinds a builder in this module (the bench's tracing) sees the call
    name, colon, params = spec.partition(":")
    args = params.split(",") if colon else []
    if "" in args:  # "cycle:,5", "complete:4,," and a bare "petersen:"
        raise UsageError(f"empty parameter in builtin spec {spec!r}")
    try:
        if name == "complete":
            (n,) = map(int, args)
            return make_complete(n)
        if name == "bipartite":
            a, b = map(int, args)
            return make_complete_bipartite(a, b)
        if name == "cycle":
            (n,) = map(int, args)
            return make_cycle(n)
        if name == "petersen":
            if args:
                raise UsageError("petersen takes no parameters")
            return make_petersen()
        if name == "prism":
            (k,) = map(int, args)
            return make_prism(k)
        if name == "random_regular":
            n, d, seed = map(int, args)
            return make_random_regular(n, d, seed)
    except UsageError:
        raise  # a builder's own reason, e.g. "prism needs k >= 3"
    except ValueError as exc:
        raise UsageError(f"bad parameters in builtin spec {spec!r}") from exc
    raise UsageError(f"unknown builtin graph {name!r}")


def parse_builtin(spec: str) -> Graph:
    """Builtin graph spec: atoms joined by '+' form a disjoint union,
    labelled by its stripped atoms joined by '+'."""
    atoms = [atom.strip() for atom in spec.split("+")]
    if "" in atoms:
        raise UsageError(f"empty term in builtin spec {spec!r}")
    graph = _parse_builtin_atom(atoms[0])
    for atom in atoms[1:]:
        graph = disjoint_union(graph, _parse_builtin_atom(atom))
    return graph.relabel("+".join(atoms))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format; raises ParseError naming the bad line,
    or CapacityError when the header declares more than VERTEX_CAP
    vertices."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {raw!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError(f"bad header counts {a} {b}", lineno)
            _check_vertex_cap(a)
            header = (a, b)
            continue
        n, m = header
        if len(edges) >= m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"vertex out of range 0..{n - 1}: {raw!r}", lineno)
        if a == b:
            raise ParseError(f"self-loop on vertex {a}", lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(f"duplicate edge {key[0]} {key[1]}", lineno)
        seen.add(key)
        edges.append(key)
    if header is None:
        raise ParseError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"declared {m} edges but found {len(edges)}")
    return from_edges(n, edges)

