"""Exact Widom-Rowlinson partition polynomials.

A colouring assigns each vertex 0 (unoccupied), 1 or 2, and is valid when
no edge joins a 1 to a 2.  The single-activity partition polynomial
collects one monomial per valid colouring, weighted by the activity to
the number of coloured vertices; the two-activity version keeps the two
colour counts in separate variables.

Both polynomials come from dynamic programs that place the vertices one
at a time, in one greedy elimination order that keeps the boundary (the
unplaced vertices with a placed neighbour) small; WR colourings are
homomorphisms to a looped path on three vertices, so they have this
transfer-matrix form (Diaz-Serna-Thilikos, "Counting H-colorings of
partial k-trees", TCS 2002).  Their cost grows with the boundary width,
not with 2^n.  The two programs share no state space:

- the two-activity one counts the valid colourings directly, its state
  being the unplaced vertices already barred from colour 2 and from
  colour 1, both masks in one int, the second shifted up by n;
- the single-activity one sums the subset-component identity instead:
  choose the coloured set S first, and every component of the induced
  subgraph is then monochromatic, so S contributes 2**c(S) * lam**|S|.
  Its state is the set of components of S still open to growth, and each
  placed vertex updates a state in one pass over its components.

Each state carries its polynomial packed into one int, so an update is a
shift and an add; the two-activity program builds no tuple per state.

So comparing the diagonal of the first with the second stays a real
check.  The local polynomials of a neighbourhood configuration
(configurations.local_partition_functions) use neither: they walk the
colour-1 sets allowed by the per-vertex colour lists.

valid_colourings, a product over each vertex's allowed colours filtered
by is_valid_colouring, is the one reference enumerator: the 3^n oracle
here runs on it, as do the exact Glauber kernel
(dynamics.transition_distribution), the tests' replay of the sampler and
their enumeration checks of the local layer's list colourings.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .errors import CapacityError, VerificationError
from .graphs import Graph
from .numerics import BivariatePolynomial, IntPolynomial

EXACT_CAP = 24  # the elimination programs are exponential in the boundary width
BRUTE_CAP = 12  # direct enumeration is 3^n


def is_valid_colouring(g: Graph, colouring: Sequence[int]) -> bool:
    """True when no edge joins colour 1 to colour 2."""
    mask1 = 0
    mask2 = 0
    for v, c in enumerate(colouring):
        if c == 1:
            mask1 |= 1 << v
        elif c == 2:
            mask2 |= 1 << v
    rest = mask1
    while rest:
        low = rest & -rest
        if g.adj[low.bit_length() - 1] & mask2:
            return False
        rest ^= low
    return True


def valid_colourings(
    g: Graph, options: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """The reference enumerator: every assignment drawing vertex v's colour
    from options[v], in product order, that is a valid colouring of g."""
    return (c for c in product(*options) if is_valid_colouring(g, c))


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise CapacityError(f"{what} capped at {cap} vertices, got {g.n}")


@lru_cache(maxsize=512)
def _elimination_order(g: Graph) -> tuple[tuple[int, int], ...]:
    """The order both dynamic programs place the vertices in, as pairs
    (v, unplaced): the vertex, then the mask of vertices still unplaced.

    The boundary is the set of unplaced vertices with a placed neighbour.
    While it is non-empty the next vertex comes from it, so components are
    finished one at a time; among the candidates, the vertex whose placing
    leaves the smallest boundary wins, the lowest index breaking ties.
    Both programs keep their states on the boundary, so a small boundary
    keeps the states few."""
    adj = g.adj
    unplaced = (1 << g.n) - 1
    boundary = 0
    order = []
    while unplaced:
        best = None
        rest = boundary or unplaced
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            after = (boundary | adj[v] & unplaced) & ~low
            if best is None or after.bit_count() < best[1].bit_count():
                best = (v, after)
            rest ^= low
        v, boundary = best
        unplaced ^= 1 << v
        order.append((v, unplaced))
    return tuple(order)


def _slot_width(n: int) -> int:
    """Bits per coefficient when a polynomial is packed into one int.

    Every coefficient of either polynomial is at most 3^n < 2^(2n).  A
    state's coefficients never exceed the final ones, since leaving every
    remaining vertex unoccupied completes any state, so slots of this
    width never carry into each other."""
    return 2 * n + 2


def _final_slots(states: dict, empty, width: int, count: int) -> list[int]:
    """The first count slots, width bits each, of the int packed in the
    one state left once every vertex is placed, which must be the empty
    state."""
    if list(states) != [empty]:
        raise VerificationError(
            f"elimination ended in {len(states)} states, not the single empty state"
        )
    mask = (1 << width) - 1
    return [(states[empty] >> (width * k)) & mask for k in range(count)]


@lru_cache(maxsize=512)
def wr_partition(g: Graph) -> IntPolynomial:
    """Exact single-activity partition polynomial via the subset-component
    identity, summed by a dynamic program over the elimination order.

    A state is the sorted tuple of the open components of the occupied set
    placed so far, each stored as the mask of its unplaced neighbours.
    Occupying v merges it with every component whose mask holds v.  A
    component whose mask empties is closed: nothing can join it, and it
    doubles the weight for its choice of colour.  Each state's polynomial
    in lam is packed into one int, one slot per power.

    Each state is read in one pass over its masks, which splits off the
    ones that hold v, counts those that close and merges the rest; the
    state tuple is reused as the key when no mask holds v, and only a key
    whose masks changed is sorted.
    """
    _check_cap(g, EXACT_CAP, "exact partition computation")
    width = _slot_width(g.n)
    states: dict[tuple[int, ...], int] = {(): 1}
    for v, unplaced in _elimination_order(g):
        bit = 1 << v
        nbrs = g.adj[v] & unplaced
        nxt: dict[tuple[int, ...], int] = {}
        for comps, poly in states.items():
            # one pass: the masks that miss v, and, of those that hold it,
            # the count that close (hold only v) and the rest without v
            others = []
            kept = []
            closed = 0
            merged = nbrs
            for c in comps:
                if not c & bit:
                    others.append(c)
                elif c == bit:
                    closed += 1
                else:
                    c ^= bit
                    kept.append(c)
                    merged |= c
            # v unoccupied: it leaves every mask, and emptied masks close
            if kept:
                key = tuple(sorted(others + kept))
            elif closed:
                key = tuple(others)
            else:
                key = comps
            nxt[key] = nxt.get(key, 0) + (poly << closed)
            # v occupied: it joins every component that touches it
            if merged:
                others.append(merged)
                others.sort()
                key = tuple(others)
                nxt[key] = nxt.get(key, 0) + (poly << width)
            else:
                key = tuple(others)
                nxt[key] = nxt.get(key, 0) + (poly << (width + 1))
        states = nxt
    return IntPolynomial(_final_slots(states, (), width, g.n + 1))


def wr_partition_brute(g: Graph) -> IntPolynomial:
    """Oracle: enumerate all 3^n assignments and keep the valid ones."""
    _check_cap(g, BRUTE_CAP, "brute-force partition computation")
    coeffs = [0] * (g.n + 1)
    for colouring in valid_colourings(g, [(0, 1, 2)] * g.n):
        coeffs[g.n - colouring.count(0)] += 1
    return IntPolynomial(coeffs)


@lru_cache(maxsize=256)
def wr_partition_bivariate(g: Graph) -> BivariatePolynomial:
    """Exact two-activity partition polynomial: a dynamic program over the
    elimination order that counts the valid colourings themselves.

    A state is a pair of masks A1 and A2, kept as the one int A1 | A2 << n:
    Ai holds the unplaced vertices that already have a placed neighbour of
    colour i, so colour c is open to v unless v is in A(3-c).  It shares
    no state with wr_partition, so comparing the diagonal with that
    polynomial stays a real check.  Each state's polynomial is packed into
    one int, the slot of x**i * y**j at index i*(n+1) + j; the final one
    is unpacked a row of n + 1 slots at a time, reading only the slots
    with i + j <= n, since no colouring has more than n coloured vertices.
    """
    _check_cap(g, EXACT_CAP, "exact partition computation")
    n = g.n
    width = _slot_width(n)
    y_shift = width
    x_shift = width * (n + 1)
    full = (1 << 2 * n) - 1
    states: dict[int, int] = {0: 1}
    for v, unplaced in _elimination_order(g):
        bit = 1 << v
        bit2 = bit << n
        keep = full ^ bit ^ bit2
        nbrs1 = g.adj[v] & unplaced
        nbrs2 = nbrs1 << n
        nxt: dict[int, int] = {}
        for state, poly in states.items():
            base = state & keep
            nxt[base] = nxt.get(base, 0) + poly
            if not state & bit2:
                key = base | nbrs1
                nxt[key] = nxt.get(key, 0) + (poly << x_shift)
            if not state & bit:
                key = base | nbrs2
                nxt[key] = nxt.get(key, 0) + (poly << y_shift)
        states = nxt
    # one shift per row x**i, then the row's slots y**j with i + j <= n
    rows = _final_slots(states, 0, x_shift, n + 1)
    mask = (1 << width) - 1
    coeffs = {}
    for i, row in enumerate(rows):
        for j in range(n + 1 - i):
            c = (row >> (width * j)) & mask
            if c:
                coeffs[i, j] = c
    return BivariatePolynomial(coeffs)
