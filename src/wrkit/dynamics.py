"""Single-site heat-bath (Glauber) dynamics for the Widom-Rowlinson model.

One step picks a uniform vertex and resamples its colour from the
model's conditional law given every other vertex: colour i is available
only when no neighbour carries the other colour, and available options
are weighted 1 (uncoloured) and lam per colour.  The chain therefore
preserves validity at every step, and its stationary law is the model
distribution at activity lam.  transition_distribution is this
definition in exact arithmetic, its candidates drawn from
partition.valid_colourings, so it shares no validity rule with the
sampler's masks.

The sampler keeps two colour-class masks, the vertices coloured 1 and
the vertices coloured 2, as Python ints beside the colouring.  A step
tests the updated vertex's adjacency mask against each: two n-bit ANDs,
so its cost does not grow with the degree.  Validity then narrows what
the step can change.  With both colours blocked the vertex is
uncoloured and stays so; the step only draws its second uniform.  With
colour 1 blocked it holds 0 or 2, so only the colour-2 mask and the
coloured count can change, and the colour-2 case mirrors this.  Only a
step with both colours free can swap 1 and 2.  The masks change only
when a vertex's colour does.  Each recorded sample is one of the n + 1
coloured fractions c / n, built once per chain, so a long chain keeps
one pointer per sample rather than one float.

The heat-bath rule inverts a uniform r against the cumulative weights:
r * total < 1.0 leaves v uncoloured, and with both colours free
r * total2 < total1 picks colour 1.  For a fixed total each test is
r < tau, tau the least float x with x * total no longer below the bound,
since rounding is monotone in x; _threshold finds the three taus once
per chain, so the colour draw multiplies nothing.  The bound over
the total is often not tau itself, so _threshold steps from it with
nextafter.  The vertex is floor(rand() * scale) with scale = float(n),
the same product as with the int n, and a float-by-float multiply on
CPython's fast path.  The steps that record come from one bool
schedule: burn_in False, then per sample thinning - 1 False and one
True, chained from itertools over a tuple of length thinning.  It holds
one pointer per unit of thinning, as the samples hold one per sample,
and makes no int per step.  A chain of more than sys.maxsize steps,
which itertools cannot count, or a schedule that cannot be allocated is
a CapacityError before the chain starts.

Sampling is plain floating point for throughput; transition_distribution,
like the rest of the package, is exact.  estimate_occupancy is the
sampler's one activity gate.  Randomness comes from the CPython Mersenne
Twister (random.Random) with an explicit seed, so runs are reproducible;
the algorithm identifier is exported for run logs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from math import floor, inf, nextafter, sqrt

from .errors import CapacityError, DomainError, UsageError
from .graphs import Graph, check_vertices
from .numerics import check_activity, number_text
from .partition import is_valid_colouring, valid_colourings

RNG_ALGORITHM = "mt19937"


def transition_distribution(
    colouring: tuple[int, ...], graph: Graph, lam: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """Exact one-step kernel of the sampler in estimate_occupancy, for
    verification: a uniform vertex v, then the model's conditional law at
    v.  Its candidates are the valid colourings, from valid_colourings,
    that fix every other vertex and leave v free; each weighs 1 when v is
    uncoloured and lam when it is coloured.  A state that is not a valid
    colouring of the graph is a UsageError.
    """
    lam = check_activity(lam)
    check_vertices(graph)
    n = graph.n
    shaped = len(colouring) == n and set(colouring) <= {0, 1, 2}
    if not (shaped and is_valid_colouring(graph, colouring)):
        raise UsageError(f"state is not a valid colouring: want {n} colours 0-2, no 1-2 edge")
    out: dict[tuple[int, ...], Fraction] = {}
    for v in range(n):
        options = [(c,) for c in colouring]
        options[v] = (0, 1, 2)
        moves = list(valid_colourings(graph, options))
        weights = [lam if move[v] else Fraction(1) for move in moves]
        total = n * sum(weights)
        for move, weight in zip(moves, weights):
            out[move] = out.get(move, 0) + weight / total
    return out


def _threshold(t: float, c: float) -> float:
    """The least float x with not x * t < c, for finite t, c > 0: since
    rounding is monotone in x, x * t < c exactly when x < _threshold(t, c).
    c / t is within a few steps of it, and nextafter takes them."""
    x = c / t
    while x * t < c:
        x = nextafter(x, inf)
    while not nextafter(x, -inf) * t < c:
        x = nextafter(x, -inf)
    return x


def estimate_occupancy(
    graph: Graph,
    lam: Fraction | float,
    burn_in: int,
    samples: int,
    thinning: int = 1,
    seed: int = 0,
    series_out: list[tuple[int, float]] | None = None,
) -> tuple[float, float]:
    """Time-average coloured fraction with a batch-means standard error.

    Runs burn_in steps, then records the coloured fraction every
    `thinning` steps, `samples` times.  Deterministic for a fixed seed.
    When series_out is given, (step, fraction) pairs are appended to it.

    The activity passes check_activity, then runs as float(lam); one so
    small that 1.0 + lam == 1.0 (0.0 included), or so large that
    1.0 + 2 * lam is infinite, is refused with a DomainError, since the
    chain would not be the heat-bath chain.
    """
    try:
        lam_float = float(check_activity(lam))
    except OverflowError:
        lam_float = inf
    # heat-bath totals with two colours and with one allowed; each equals
    # 1.0 + lam * (ok1 + ok2) bit for bit
    total2 = 1.0 + lam_float * 2
    total1 = 1.0 + lam_float
    # with total1 == 1.0 the draw rand() * total1 always falls below 1.0
    # and no vertex is ever coloured; with total2 infinite the draw
    # rand() * total2 would never fall below total1, so colour 1 would
    # never be placed
    if total1 == 1.0 or total2 == inf:
        size = "large" if total2 == inf else "small"
        raise DomainError(
            f"activity {number_text(lam)} is too {size} for the sampler's floats"
        )
    check_vertices(graph)
    if burn_in < 1 or samples < 1 or thinning < 1:
        raise UsageError("burn_in, samples and thinning must all be >= 1")
    steps = burn_in + samples * thinning
    if steps > sys.maxsize:
        raise CapacityError(f"chain capped at {sys.maxsize} steps, got {steps}")
    rng = random.Random(seed)
    rand = rng.random
    n = graph.n
    scale = float(n)  # rand() * scale == rand() * n, with a float multiply
    adj = graph.adj
    colouring = [0] * n
    on1 = 0  # mask of the vertices coloured 1
    on2 = 0  # mask of the vertices coloured 2
    coloured = 0

    # a sample records one of these shared floats and allocates nothing
    fraction = [c / n for c in range(n + 1)]
    values = []
    record = values.append
    # r * total1 < 1.0, r * total2 < 1.0 and r * total2 < total1, each
    # as r < threshold
    keep1 = _threshold(total1, 1.0)
    keep0 = _threshold(total2, 1.0)
    keep01 = _threshold(total2, total1)
    # one bool per step, True at the steps that record
    try:
        gap = (False,) * (thinning - 1) + (True,)
    except MemoryError:
        raise CapacityError(f"no memory for a schedule of thinning {thinning}") from None
    schedule = chain(repeat(False, burn_in), islice(cycle(gap), samples * thinning))
    # hot loop: the one Glauber kernel, kept inline.  It draws rand()
    # twice per step and makes the comparisons of the heat-bath rule in
    # transition_distribution, through the thresholds; a step-for-step
    # replay test, drawing among the same candidates, pins it.  Each
    # branch changes only what validity lets it
    for due in schedule:
        v = floor(rand() * scale)
        nbrs = adj[v]
        if nbrs & on2:  # colour 1 blocked: v is 0 or 2
            if nbrs & on1:  # colour 2 blocked too: v is 0 and stays 0
                rand()
            elif rand() < keep1:
                if colouring[v]:
                    colouring[v] = 0
                    on2 ^= 1 << v
                    coloured -= 1
            elif not colouring[v]:
                colouring[v] = 2
                on2 |= 1 << v
                coloured += 1
        elif nbrs & on1:  # colour 2 blocked: v is 0 or 1
            if rand() < keep1:
                if colouring[v]:
                    colouring[v] = 0
                    on1 ^= 1 << v
                    coloured -= 1
            elif not colouring[v]:
                colouring[v] = 1
                on1 |= 1 << v
                coloured += 1
        else:  # both colours free: the only branch where 1 and 2 swap
            r = rand()
            old = colouring[v]
            if r < keep0:
                if old:
                    colouring[v] = 0
                    if old == 1:
                        on1 ^= 1 << v
                    else:
                        on2 ^= 1 << v
                    coloured -= 1
            elif r < keep01:
                if old != 1:
                    colouring[v] = 1
                    on1 |= 1 << v
                    if old:
                        on2 ^= 1 << v
                    else:
                        coloured += 1
            elif old != 2:
                colouring[v] = 2
                on2 |= 1 << v
                if old:
                    on1 ^= 1 << v
                else:
                    coloured += 1
        if due:
            record(fraction[coloured])

    estimate = sum(values) / len(values)

    # batch means: nearly independent once batches outlast the
    # autocorrelation time, which is tiny for these chain lengths
    batches = min(100, len(values))
    size = len(values) // batches
    means = [
        sum(values[i * size : (i + 1) * size]) / size for i in range(batches)
    ]
    if batches > 1:
        centre = sum(means) / batches
        var = sum((m - centre) ** 2 for m in means) / (batches - 1)
        stderr = sqrt(var / batches)
    else:
        stderr = float("inf")

    if series_out is not None:
        start = burn_in + thinning
        series_out.extend(
            (start + i * thinning, value) for i, value in enumerate(values)
        )
    return estimate, stderr
