"""Tracing for the benchmark, applied from outside the program.

wrkit is not instrumented.  A traced run replaces every module-level
binding of a chosen public function with a wrapper that records a span,
so a function re-imported by several modules (``wr_partition`` lives in
``partition``, ``occupancy``, ``extremal`` and ``cli``) is timed whichever
module calls it.  ``lru_cache`` objects are wrapped themselves, so cache
hits count as calls, and the wrapper reads ``cache_info()`` around each
call to tell a hit from a miss.

Spans are kept in memory (name, start, end, parent span, job id) and
written out when the run ends.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable


class Recorder:
    """In-memory span store for one run.

    Spans are recorded only while ``active`` is set, which the harness
    does around each job's timed region; correctness checks and cache
    clearing between jobs leave no spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.tag = array("i")  # size tag id, or -1
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.job_id = -1
        self.active = False

    def intern(self, text: str) -> int:
        ident = self._ids.get(text)
        if ident is None:
            ident = self._ids[text] = len(self.names)
            self.names.append(text)
        return ident

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.tag.append(-1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self, index: int) -> str | None:
        parent = self.parent[index]
        return None if parent < 0 else self.names[self.name[parent]]

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: Path, header: str) -> None:
        """Write every span as a tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# {header}\n")
            out.write("span\tname\tstart\tend\tparent\tjob\ttag\n")
            for i in range(len(self.start)):
                tag = self.names[self.tag[i]] if self.tag[i] >= 0 else ""
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\t{tag}\n"
                )


def self_times(
    start: Iterable[float], end: Iterable[float], parent: Iterable[int]
) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    start, end, parent = list(start), list(end), list(parent)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_of(name: str) -> str:
    """The module a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# wrapping


@dataclass(frozen=True)
class Target:
    """One public function to trace.

    work(rec, args, kwargs, result, missed) adds work counters when the
    call enters the span from outside it; size(args) gives the size tag
    (n or d) for the per-size table.  Cached functions are tagged only on
    misses, so the table times computations, not lookups.
    """

    module: str
    function: str
    span: str
    work: Callable | None = None
    size: Callable | None = None


def make_wrapper(fn: Callable, target: Target, rec: Recorder) -> Callable:
    """``fn`` recording one span per call while ``rec.active`` is set."""
    name_id = rec.intern(target.span)
    layer = layer_of(target.span)
    cache_info = getattr(fn, "cache_info", None)
    work, size = target.work, target.size

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        misses = cache_info().misses if cache_info else 0
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(index)
            if layer_of(rec.parent_name(index) or "") != layer:
                rec.add(f"{layer}.raised", 1)
            raise
        rec.close(index)
        missed = cache_info is not None and cache_info().misses > misses
        if size is not None and (cache_info is None or missed):
            rec.tag[index] = rec.intern(size(args))
        if cache_info is not None:
            rec.add(f"{target.span}.misses", missed)
        if work is not None and rec.parent_name(index) != target.span:
            work(rec, args, kwargs, result, missed)
        return result

    return functools.update_wrapper(traced, fn)


def package_modules(package: str) -> list:
    """The package and every loaded submodule, in name order."""
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == package or name.startswith(package + ".")
    ]


class Installation:
    """Wrappers installed over every binding of each target; undo restores.

    A target the program no longer defines raises ``LookupError`` before
    anything is wrapped: its metrics would otherwise read zero, which for
    a lower-is-better metric looks like a gain.
    """

    def __init__(self, package: str, targets: Iterable[Target], rec: Recorder):
        self.saved: list[tuple[object, str, object]] = []
        targets = list(targets)
        missing = [
            f"{t.module}.{t.function}"
            for t in targets
            if getattr(sys.modules.get(t.module), t.function, None) is None
        ]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        modules = package_modules(package)
        for target in targets:
            original = getattr(sys.modules[target.module], target.function)
            wrapper = make_wrapper(original, target, rec)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


# ---------------------------------------------------------------------------
# cache discovery


def discover_caches(package: str) -> list:
    """Every object with ``cache_clear`` bound in the package's modules or
    in their classes, looking through ``__wrapped__`` chains, so caches a
    later version adds are found without a list to maintain."""
    found: dict[int, object] = {}

    def visit(value: object) -> None:
        for _ in range(16):  # a bounded walk, in case a chain loops
            if value is None:
                return
            if callable(getattr(value, "cache_clear", None)):
                found.setdefault(id(value), value)
            value = getattr(value, "__wrapped__", None)

    for module in package_modules(package):
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith(package):
                for member in list(vars(value).values()):
                    visit(getattr(member, "__func__", member))
            else:
                visit(value)
    return list(found.values())


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples: Iterable[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None with fewer than
    eleven samples.  The value is the (n-10)-th smallest, so exactly ten
    samples rank above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n
