"""Exact Widom-Rowlinson partition polynomials.

A colouring assigns each vertex 0 (unoccupied), 1 or 2, and is valid when
no edge joins a 1 to a 2.  The single-activity partition polynomial
collects one monomial per valid colouring, weighted by the activity to
the number of coloured vertices; the two-activity version keeps the two
colour counts in separate variables.

The production computation uses the subset-component identity: choose
the coloured set S first; every component K of the induced subgraph is
then monochromatic, in colour 1 or 2.  One walk over the 2^n subsets
counts the subsets S with each tuple of component sizes, and both
polynomials reduce that census: S contributes 2**c(S) * lam**|S| to one,
and the product of x**|K| + y**|K| over its components to the other.
The single-activity reduction is deliberately not the diagonal of the
two-activity one, so that comparing them stays a real check.  The same
identity, with per-vertex colour lists, gives the local polynomials of a
neighbourhood configuration (configurations.local_partition_functions).

valid_colourings, a product over each vertex's allowed colours filtered
by is_valid_colouring, is the one reference enumerator: the 3^n oracle
here and the enumeration checks of the local layer all run on it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .errors import CapacityError
from .graphs import Graph, component_masks
from .numerics import BivariatePolynomial, IntPolynomial

EXACT_CAP = 24  # subset enumeration is 2^n
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


@lru_cache(maxsize=256)
def _component_sizes(g: Graph) -> dict[tuple[int, ...], int]:
    """Census of the subset-component identity: each sorted tuple of
    induced component sizes mapped to the number of vertex subsets with
    those sizes (sorted, the keys stay integer partitions of at most n).
    The graph layer's one 2^n subset walk; both polynomials reduce it."""
    _check_cap(g, EXACT_CAP, "exact partition computation")
    masks = component_masks
    census: dict[tuple[int, ...], int] = {}
    for subset in range(1 << g.n):
        sizes = tuple(sorted(map(int.bit_count, masks(g, subset))))
        census[sizes] = census.get(sizes, 0) + 1
    return census


@lru_cache(maxsize=512)
def wr_partition(g: Graph) -> IntPolynomial:
    """Exact single-activity partition polynomial via the subset-component sum."""
    coeffs = [0] * (g.n + 1)
    for sizes, count in _component_sizes(g).items():
        coeffs[sum(sizes)] += count << len(sizes)
    return IntPolynomial(coeffs)


def wr_partition_brute(g: Graph) -> IntPolynomial:
    """Oracle: enumerate all 3^n assignments and keep the valid ones."""
    _check_cap(g, BRUTE_CAP, "brute-force partition computation")
    coeffs = [0] * (g.n + 1)
    for colouring in valid_colourings(g, [(0, 1, 2)] * g.n):
        coeffs[g.n - colouring.count(0)] += 1
    return IntPolynomial(coeffs)


@lru_cache(maxsize=256)
def wr_partition_bivariate(g: Graph) -> BivariatePolynomial:
    """Exact two-activity partition polynomial.

    Each induced component K independently takes colour 1 or 2,
    contributing x**|K| + y**|K|; the product over components is expanded
    once per census entry, keyed on the colour-1 count only, since the
    colour-2 count is determined by |S|.
    """
    out: dict[tuple[int, int], int] = {}
    for sizes, count in _component_sizes(g).items():
        total = sum(sizes)
        ones_count = {0: count}
        for s in sizes:
            nxt: dict[int, int] = {}
            for i, c in ones_count.items():
                nxt[i] = nxt.get(i, 0) + c
                nxt[i + s] = nxt.get(i + s, 0) + c
            ones_count = nxt
        for i, c in ones_count.items():
            key = (i, total - i)
            out[key] = out.get(key, 0) + c
    return BivariatePolynomial(out)
