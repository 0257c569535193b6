"""Exact Widom-Rowlinson partition polynomials.

A colouring assigns each vertex 0 (unoccupied), 1 or 2, and is valid when
no edge joins a 1 to a 2.  The single-activity partition polynomial
collects one monomial per valid colouring, weighted by the activity to
the number of coloured vertices; the two-activity version keeps the two
colour counts in separate variables.

The production computation uses the subset-component identity: choosing
the coloured set S first, every connected component of the induced
subgraph must be monochromatic, so S contributes 2**c(S) colourings (and,
with two activities, a factor of x**|K| + y**|K| per component K).  That
is O(2^n) instead of O(3^n) and is independently checkable against the
direct 3^n enumeration kept here as the oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

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


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise CapacityError(f"{what} capped at {cap} vertices, got {g.n}")


@lru_cache(maxsize=512)
def wr_partition(g: Graph) -> IntPolynomial:
    """Exact single-activity partition polynomial via the subset-component sum."""
    _check_cap(g, EXACT_CAP, "exact partition computation")
    n = g.n
    masks = component_masks
    coeffs = [0] * (n + 1)
    for subset in range(1 << n):
        coeffs[subset.bit_count()] += 1 << len(masks(g, subset))
    return IntPolynomial(coeffs)


def wr_partition_brute(g: Graph) -> IntPolynomial:
    """Oracle: enumerate all 3^n assignments and keep the valid ones."""
    _check_cap(g, BRUTE_CAP, "brute-force partition computation")
    n = g.n
    edges = g.edges()
    coeffs = [0] * (n + 1)
    for colouring in product((0, 1, 2), repeat=n):
        ok = True
        for u, v in edges:
            if colouring[u] + colouring[v] == 3:
                ok = False
                break
        if ok:
            coeffs[n - colouring.count(0)] += 1
    return IntPolynomial(coeffs)


@lru_cache(maxsize=256)
def wr_partition_bivariate(g: Graph) -> BivariatePolynomial:
    """Exact two-activity partition polynomial.

    Per coloured subset, each induced component K independently takes
    colour 1 or 2, contributing x**|K| + y**|K|; the product over
    components is expanded keyed on the colour-1 count only, since the
    colour-2 count is determined by |S|.
    """
    _check_cap(g, EXACT_CAP, "exact partition computation")
    n = g.n
    masks = component_masks
    out: dict[tuple[int, int], int] = {}
    for subset in range(1 << n):
        total = subset.bit_count()
        ones_count = {0: 1}
        for comp in masks(g, subset):
            s = comp.bit_count()
            nxt: dict[int, int] = {}
            for i, c in ones_count.items():
                nxt[i] = nxt.get(i, 0) + c
                nxt[i + s] = nxt.get(i + s, 0) + c
            ones_count = nxt
        for i, c in ones_count.items():
            key = (i, total - i)
            out[key] = out.get(key, 0) + c
    return BivariatePolynomial(out)


def hom_count_wr(g: Graph) -> int:
    """Number of valid colourings (the partition polynomial at activity 1)."""
    _check_cap(g, EXACT_CAP, "exact partition computation")
    return int(wr_partition(g).eval(1))
