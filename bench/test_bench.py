"""Tests for the benchmark harness's own logic (not for wrkit)."""

from __future__ import annotations

import functools
import random
import sys
import types
from fractions import Fraction

import pytest

import bench_jobs
import bench_targets
import bench_trace


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench_trace.tail_percentile(range(10)) is None
    value, percentile, count = bench_trace.tail_percentile([5.0] + [9.0] * 10)
    assert (value, count) == (5.0, 11)
    assert percentile == pytest.approx(100 / 11)
    samples = list(range(1, 101))
    random.Random(1).shuffle(samples)
    assert bench_trace.tail_percentile(samples) == (90, 90.0, 100)


def test_tail_rank_does_not_depend_on_the_pass_count():
    import run

    jobs = [types.SimpleNamespace(id=f"job {j}") for j in range(4)]

    def one_pass(factor):
        p = run.PassResult(traced=False)
        p.wall = [factor * cost for cost in (1.0, 2.0, 3.0, 4.0)]
        p.cpu, p.scale = list(p.wall), [1.0] * 4
        return p

    # 3 passes = 12 runs, rank 2: the second run of job 0; later, faster
    # passes must not move the rank to another job
    passes = [one_pass(1.0), one_pass(1.01), one_pass(0.99)]
    _, tail = run.end_to_end(passes, 0.1, jobs, tail_passes=3)
    for extra in range(1, 5):
        more = passes + [one_pass(0.5)] * extra
        metrics, again = run.end_to_end(more, 0.1, jobs, tail_passes=3)
        assert again == tail == {"percentile": 100 * 2 / 12, "jobs": 12, "passes": 3,
                                 "job": "job 0"}
        assert metrics["job_tail_s"][0] == 1.0


def test_tail_passes_put_eleven_runs_under_the_rule():
    import wrkit
    import wrkit.cli

    for workload in bench_jobs.WORKLOADS:
        jobs = bench_jobs.make_jobs(wrkit, workload, 0)
        assert bench_jobs.TAIL_PASSES[workload] * len(jobs) >= 11


def test_self_time_subtracts_children_only_inside_the_parent():
    #   0: [0, 10]  children 1: [1, 4] and 2: [5, 7]
    #   1: [1, 4]   child 3: [2, 3]
    #   4: [20, 30] child 5: [25, 35] runs past its parent and is clipped
    start = [0.0, 1.0, 5.0, 2.0, 20.0, 25.0]
    end = [10.0, 4.0, 7.0, 3.0, 30.0, 35.0]
    parent = [-1, 0, 0, 1, -1, 4]
    assert bench_trace.self_times(start, end, parent) == [5.0, 2.0, 2.0, 1.0, 5.0, 10.0]


def test_recorder_nests_spans_and_self_times_add_up():
    rec = bench_trace.Recorder()
    rec.active = True
    outer = bench_trace.make_wrapper(lambda: inner(), bench_trace.Target("m", "f", "a"), rec)
    inner = bench_trace.make_wrapper(lambda: sum(range(1000)), bench_trace.Target("m", "g", "b"), rec)
    outer()
    assert [rec.names[i] for i in rec.name] == ["a", "b"]
    assert list(rec.parent) == [-1, 0]
    selfs = bench_trace.self_times(rec.start, rec.end, rec.parent)
    assert sum(selfs) == pytest.approx(rec.end[0] - rec.start[0])


@pytest.fixture
def fake_package(monkeypatch):
    @functools.lru_cache(maxsize=None)
    def top(x):
        return x

    @functools.cache
    def hidden(x):
        return x

    @functools.wraps(hidden)
    def decorated(x):
        return hidden(x)

    class Holder:
        @staticmethod
        @functools.lru_cache(maxsize=4)
        def method(x):
            return x

    Holder.__module__ = "fakepkg.sub"
    pkg = types.ModuleType("fakepkg")
    pkg.top = top
    pkg.value = 3
    sub = types.ModuleType("fakepkg.sub")
    sub.decorated = decorated
    sub.Holder = Holder
    sub.top_again = top
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    return top, hidden, Holder.method


def test_cache_discovery_walks_modules_classes_and_wrappers(fake_package):
    found = bench_trace.discover_caches("fakepkg")
    assert {id(c) for c in found} == {id(c) for c in fake_package}


def test_cache_discovery_finds_wrkit_caches_through_trace_wrappers():
    import wrkit
    import wrkit.cli

    expected = {
        wrkit.partition.wr_partition,
        wrkit.partition.wr_partition_bivariate,
        wrkit.configurations.local_partition_functions,
        wrkit.configurations.enumerate_configs,
        wrkit.graphs.graphs_up_to_iso,
    }
    assert expected <= set(bench_trace.discover_caches("wrkit"))
    install = bench_trace.Installation("wrkit", bench_targets.targets(), bench_trace.Recorder())
    try:
        assert expected <= set(bench_trace.discover_caches("wrkit"))
    finally:
        install.undo()


def test_wrapping_rebinds_every_import_and_counts_hits():
    import wrkit
    import wrkit.cli
    from wrkit import extremal, occupancy, partition

    original = partition.wr_partition
    rec = bench_trace.Recorder()
    install = bench_trace.Installation("wrkit", bench_targets.targets(), rec)
    try:
        for module in (partition, occupancy, extremal, wrkit.cli, wrkit):
            assert module.wr_partition is not original
        graph = wrkit.make_cycle(7)
        original.cache_clear()
        rec.active = True
        occupancy.occupancy_fraction(graph, Fraction(1))
        extremal.verify_partition_bound(graph, 2, Fraction(2))
        rec.active = False
    finally:
        install.undo()
    for module in (partition, occupancy, extremal, wrkit.cli, wrkit):
        assert module.wr_partition is original

    names = [rec.names[i] for i in rec.name]
    uni = [i for i, name in enumerate(names) if name == "partition.uni"]
    parents = {rec.parent_name(i) for i in uni}
    assert {"occupancy", "extremal"} <= parents
    # one miss for cycle:7; the rest (including complete:3) are hits or
    # separate misses, and every call left a span
    assert rec.counts["partition.uni.misses"] < len(uni)
    assert rec.counts["partition.uni.subsets"] == (1 << 7) + (1 << 3)


def test_a_missing_traced_function_stops_installation():
    import wrkit
    from wrkit import partition

    original = partition.wr_partition
    targets = bench_targets.targets() + [
        bench_trace.Target("wrkit.partition", "no_such_function", "partition.gone")
    ]
    with pytest.raises(LookupError, match="wrkit.partition.no_such_function"):
        bench_trace.Installation("wrkit", targets, bench_trace.Recorder())
    assert partition.wr_partition is original and wrkit.wr_partition is original


def test_job_lists_depend_only_on_the_seed():
    import wrkit
    import wrkit.cli

    for workload in bench_jobs.WORKLOADS:
        first = [j.spec for j in bench_jobs.make_jobs(wrkit, workload, 5)]
        again = [j.spec for j in bench_jobs.make_jobs(wrkit, workload, 5)]
        other = [j.spec for j in bench_jobs.make_jobs(wrkit, workload, 6)]
        assert first == again and first != other
