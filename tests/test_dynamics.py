"""Glauber dynamics: kernel exactness, validity, determinism, estimates."""

import random
import sys
import tracemalloc
from fractions import Fraction
from math import inf, nextafter, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrkit.dynamics import _threshold, estimate_occupancy, transition_distribution
from wrkit.errors import CapacityError, DomainError, UsageError
from wrkit.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_petersen,
    make_random_regular,
)
from wrkit.partition import is_valid_colouring, valid_colourings

from test_properties import graphs

F = Fraction


def all_valid_colourings(g):
    return list(valid_colourings(g, [(0, 1, 2)] * g.n))


def replay_chain(g, lam, seed, steps, updates=None):
    """The heat-bath update written out over a list colouring, drawing
    randomness in the sampler's order; yields (step, colouring).  The
    vertex's candidates are the kernel's: the valid colourings with every
    other vertex fixed.  When updates is a set, each step adds its
    (ok1, ok2, old, new) to it."""
    rng = random.Random(seed)
    colouring = [0] * g.n
    for step in range(1, steps + 1):
        v = int(rng.random() * g.n)
        options = [(c,) for c in colouring]
        options[v] = (0, 1, 2)
        colours = [move[v] for move in valid_colourings(g, options)]
        old = colouring[v]
        # invert the CDF of weights (1, lam, lam) in colour order; the
        # total is the sampler's total1 or total2 bit for bit
        r = rng.random() * (1.0 + lam * (len(colours) - 1))
        colouring[v] = colours[(r >= 1.0) + (r >= 1.0 + lam)]
        if updates is not None:
            updates.add((1 in colours, 2 in colours, old, colouring[v]))
        yield step, colouring


def stationary_from_kernel(g, lam):
    """Solve pi T = pi, sum pi = 1 exactly by Gaussian elimination."""
    states = all_valid_colourings(g)
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    # rows of (T^t - I), plus the normalisation row
    matrix = [[F(0)] * size + [F(0)] for _ in range(size)]
    for i, state in enumerate(states):
        for target, prob in transition_distribution(state, g, lam).items():
            matrix[index[target]][i] += prob
        matrix[i][i] -= 1
    matrix.append([F(1)] * size + [F(1)])

    # Gaussian elimination with partial pivoting by first nonzero
    pivot_row = 0
    for col in range(size):
        pivot = next(
            (r for r in range(pivot_row, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        head = matrix[pivot_row][col]
        matrix[pivot_row] = [v / head for v in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    v - factor * p for v, p in zip(matrix[r], matrix[pivot_row])
                ]
        pivot_row += 1
    solution = [F(0)] * size
    for r in range(pivot_row):
        lead = next((c for c in range(size) if matrix[r][c] != 0), None)
        if lead is not None:
            solution[lead] = matrix[r][size]
    return states, solution


def test_kernel_probabilities_isolated_vertex():
    g = Graph(1, (0,))
    lam = F(3, 2)
    dist = transition_distribution((0,), g, lam)
    total = 1 + 2 * lam
    assert dist[(0,)] == 1 / total
    assert dist[(1,)] == lam / total
    assert dist[(2,)] == lam / total


def test_kernel_blocks_conflicting_colour():
    # a neighbour coloured 1 forbids colour 2 at the updated vertex
    g = make_complete(2)
    dist = transition_distribution((0, 1), g, F(1))
    assert (2, 1) not in dist
    assert (1, 1) in dist and (0, 0) in dist


def test_kernel_refusals():
    # the kernel takes its activity from check_activity and only a valid
    # colouring of the graph as its state
    g = make_complete(2)
    for lam in (F(-1), float("nan")):
        with pytest.raises(DomainError, match="^activity must be strictly positive"):
            transition_distribution((0, 0), g, lam)
    for state in ((0,), (0, 0, 0), (0, 3), (-1, 0), (1, 2)):
        with pytest.raises(UsageError) as info:
            transition_distribution(state, g, F(1))
        assert str(info.value) == (
            "state is not a valid colouring: want 2 colours 0-2, no 1-2 edge"
        ), state


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=5, min_n=1), st.fractions(min_value=F(1, 100), max_value=100))
def test_kernel_rows_and_reversibility(g, lam):
    # each row is a probability law, and the chain is reversible for
    # pi(x) proportional to lam^|x|: pi(x) T(x, y) = pi(y) T(y, x)
    states = all_valid_colourings(g)
    kernel = {x: transition_distribution(x, g, lam) for x in states}
    weight = {x: lam ** (g.n - x.count(0)) for x in states}
    for x, row in kernel.items():
        assert sum(row.values()) == 1
        for y, prob in row.items():
            assert prob > 0
            assert weight[x] * prob == weight[y] * kernel[y][x]


def test_stationary_law_k2():
    # exact stationary solve over all 7 valid states must match the model
    g = make_complete(2)
    for lam in (F(1), F(2, 3)):
        states, pi = stationary_from_kernel(g, lam)
        weights = [lam ** sum(1 for c in s if c) for s in states]
        total = sum(weights)
        for state, value, weight in zip(states, pi, weights):
            assert value == weight / total, state


def test_stationary_law_path3():
    g = Graph(3, (0b010, 0b101, 0b010))  # path on 3 vertices
    lam = F(1, 2)
    states, pi = stationary_from_kernel(g, lam)
    weights = [lam ** sum(1 for c in s if c) for s in states]
    total = sum(weights)
    assert pi == [w / total for w in weights]


def test_glauber_step_preserves_validity():
    g = make_cycle(6)
    seen = set()
    for step, colouring in replay_chain(g, 1.5, seed=99, steps=2000):
        assert is_valid_colouring(g, colouring)
        seen.update(colouring)
    assert step == 2000
    assert seen == {0, 1, 2}


def test_irreducibility_uncolouring_path():
    # any valid colouring walks to all-uncoloured through valid states
    g = make_cycle(4)
    for colouring in all_valid_colourings(g):
        work = list(colouring)
        while any(work):
            v = next(i for i, c in enumerate(work) if c)
            work[v] = 0
            assert is_valid_colouring(g, work)


def replay_series(g, lam, seed, burn_in, samples, thinning=1, updates=None):
    """The (step, coloured fraction) pairs the sampler records, replayed."""
    steps = burn_in + samples * thinning
    return [
        (step, sum(1 for c in colouring if c) / g.n)
        for step, colouring in replay_chain(g, lam, seed, steps, updates)
        if step > burn_in and (step - burn_in) % thinning == 0
    ]


def batch_means_summary(values):
    """Mean and batch-means standard error over up to 100 equal batches,
    each a left-to-right sum, as the sampler computes them; one sample
    makes one batch and an infinite error."""
    estimate = sum(values) / len(values)
    if len(values) == 1:
        return estimate, inf
    batches = min(100, len(values))
    size = len(values) // batches
    means = [sum(values[i * size : (i + 1) * size]) / size for i in range(batches)]
    centre = sum(means) / batches
    var = sum((m - centre) ** 2 for m in means) / (batches - 1)
    return estimate, sqrt(var / batches)


# every (ok1, ok2, old, new) a valid step can make: with both colours
# blocked v is uncoloured and stays so; with one blocked v holds 0 or
# the other colour; with both free any colour may follow any other
ALL_UPDATES = (
    {(False, False, 0, 0)}
    | {(False, True, old, new) for old in (0, 2) for new in (0, 2)}
    | {(True, False, old, new) for old in (0, 1) for new in (0, 1)}
    | {(True, True, old, new) for old in range(3) for new in range(3)}
)


def test_estimate_deterministic_and_matches_steps():
    g = make_cycle(5)
    a = estimate_occupancy(g, 1.0, burn_in=500, samples=2000, seed=4)
    b = estimate_occupancy(g, 1.0, burn_in=500, samples=2000, seed=4)
    assert a == b

    # the inline sampler draws randomness and moves exactly like the
    # replay: on small graphs, when thinning skips steps, at the edges of
    # the record schedule (one burn-in step and one sample), when the
    # colour-class masks span several 30-bit digits, when every step
    # sees the whole graph, and at activities so low or so high that
    # nearly every step leaves v uncoloured or blocks a colour
    petersen = make_petersen()
    cases = (
        (g, 1.5, 10, 300, 1),
        (petersen, 0.5, 10, 300, 1),
        (g, 1.5, 10, 300, 3),
        (petersen, 1.5, 10, 300, 7),
        (g, 1.5, 1, 1, 1),
        (petersen, 0.5, 1, 1, 7),
        (make_random_regular(100, 3, 8), 1.0, 500, 1000, 3),
        (make_complete(12), 2.0, 10, 1000, 1),
        (petersen, 1 / 1000, 10, 2000, 1),
        (petersen, 1000.0, 10, 2000, 1),
        (g, 1 / 1000, 10, 2000, 1),
        (g, 1000.0, 10, 2000, 1),
    )
    updates = set()
    for graph, lam, burn_in, samples, thinning in cases:
        series: list[tuple[int, float]] = []
        summary = estimate_occupancy(
            graph, lam, burn_in=burn_in, samples=samples, thinning=thinning,
            seed=11, series_out=series,
        )
        replayed = replay_series(graph, lam, 11, burn_in, samples, thinning, updates)
        assert series == replayed
        # the summary is the replayed series' summary, bit for bit
        assert summary == batch_means_summary([value for _, value in replayed])
    # the cases reach every branch of the sampler's update
    assert updates == ALL_UPDATES


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=2.0**-52, max_value=1e307),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(2.0**-52, 0.5)
@example(1e-9, 0.5)
@example(8e307, 0.5)
def test_threshold_splits_the_products_exactly(lam, x):
    # each heat-bath comparison r * t < c the sampler makes is r < tau:
    # at tau, at its neighbours, at x and at a point near tau's scale
    total1 = 1.0 + lam
    total2 = 1.0 + lam * 2
    for t, c in ((total1, 1.0), (total2, 1.0), (total2, total1)):
        tau = _threshold(t, c)
        for y in (tau, nextafter(tau, -inf), nextafter(tau, inf), x, 2 * x * tau):
            assert (y * t < c) == (y < tau), (lam, t, c, y)


def test_recorded_samples_share_their_floats():
    # each sample is one of the n + 1 coloured fractions, not a new float:
    # 150,000 samples peak at 1.3 MB, about their list of pointers, where
    # a new float per sample peaked at 4.9 MB
    g = make_petersen()
    tracemalloc.start()
    try:
        estimate_occupancy(g, 1.0, burn_in=10, samples=150_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_estimate_thinning_series():
    g = make_cycle(3)
    series: list[tuple[int, float]] = []
    estimate_occupancy(g, 1.0, burn_in=4, samples=5, thinning=3, seed=2, series_out=series)
    assert [step for step, _ in series] == [7, 10, 13, 16, 19]
    assert series == replay_series(g, 1.0, 2, 4, 5, 3)


def test_estimate_accuracy_quick():
    exact = 42 / 83
    est, err = estimate_occupancy(make_cycle(5), 1.0, burn_in=5000, samples=200_000, seed=3)
    assert abs(est - exact) < max(0.01, 4 * err)


def test_estimate_usage_errors():
    with pytest.raises(UsageError):
        estimate_occupancy(make_cycle(3), 1.0, burn_in=0, samples=10)
    with pytest.raises(UsageError):
        estimate_occupancy(make_cycle(3), 1.0, burn_in=10, samples=0)


def test_chains_itertools_cannot_count_or_schedule_are_capacity_errors():
    # more than sys.maxsize steps in all, from any of the three counts;
    # and a thinning within that count whose schedule tuple is too long
    # to allocate, refused by the tuple's own size check before any
    # memory is taken
    huge = 10**20
    for counts in ((huge, 10, 1), (10, huge, 1), (10, 10, huge)):
        with pytest.raises(CapacityError, match=f"^chain capped at {sys.maxsize} steps"):
            estimate_occupancy(make_cycle(3), 1.0, *counts)
    with pytest.raises(CapacityError, match="^no memory for a schedule of thinning 2305"):
        estimate_occupancy(make_cycle(3), 1.0, 1, 1, 2**61)


def test_activity_too_large_for_floats():
    # above about 9e307 the two-colour total 1.0 + 2*lam overflows to inf
    # and the chain could never place colour 1
    for lam in (1e308, F(10**308), 10**400):
        with pytest.raises(DomainError, match="too large for the sampler's floats"):
            estimate_occupancy(make_cycle(5), lam, burn_in=10, samples=10)
    # an exact activity is named by its order of magnitude, not in full
    with pytest.raises(DomainError) as info:
        estimate_occupancy(make_cycle(5), F(10**400), burn_in=10, samples=10)
    message = str(info.value)
    assert len(message) < 100
    assert "1e400" in message and "too large for the sampler" in message
    est, _ = estimate_occupancy(make_cycle(5), 8e307, burn_in=10, samples=10)
    assert 0 <= est <= 1


def test_activity_too_small_for_floats():
    # an activity with 1.0 + lam == 1.0 would never colour a vertex: one
    # that rounds to 0.0, the smallest positive float and 2**-53 alike
    with pytest.raises(DomainError) as info:
        estimate_occupancy(make_cycle(5), F(1, 10**400), burn_in=10, samples=10)
    assert str(info.value) == "activity about 1e-400 is too small for the sampler's floats"
    for lam in (5e-324, 1e-300, 2.0**-53):
        with pytest.raises(DomainError) as info:
            estimate_occupancy(make_cycle(5), lam, burn_in=10, samples=10)
        assert str(info.value) == f"activity {lam} is too small for the sampler's floats"
    # 2**-52 is the smallest power of two that 1.0 + lam still sees
    est, _ = estimate_occupancy(make_cycle(5), 2.0**-52, burn_in=10, samples=10)
    assert 0 <= est <= 1


def test_k2_has_seven_states():
    assert len(all_valid_colourings(make_complete(2))) == 7


def test_low_activity_band():
    # near zero activity the coloured fraction collapses towards
    # 2*lam/(1+2*lam); on a sparse graph it stays well under 0.05
    est, _ = estimate_occupancy(
        make_cycle(5), 0.01, burn_in=2000, samples=50_000, seed=6
    )
    assert est < 0.05
