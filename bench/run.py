"""wrkit benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload catalog-sweep --seed 0 --seconds 15 --trace 0

Run from a checkout: wrkit is imported from ``src/`` beside this
directory, never from an installed copy.  The seed generates the job
list; wrkit receives only the generated graph specs and activities.  The
harness repeats passes over the job list while another pass should end
within ``--seconds``, sending each job only after the previous one
returned.  It makes at least two measured passes, and at least the
workload's ``TAIL_PASSES``, over which the tail latency is taken.  Every
job starts cold: each ``lru_cache`` in wrkit is cleared before it.  Each job's verdict, an
independent route where one exists, and the SHA-256 of its exact output
are checked after its timer stops.  Reported times are scaled to a
reference core speed (see bench_speed.py); the process pins itself to one
core so that a job and its calibration run on the same one.  Traced
passes calibrate before and after each job only, so that no calibration
time falls inside a traced span.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead; the spans are written to
``.bench_out/<workload>.spans.tsv.gz``.  The last line of stdout is the
JSON result; the lines before it are a readable summary and a replay
record (environment and job list).  Exit code 2 means wrkit could not be
loaded, or a traced function is missing, and no result was printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import bench_jobs
import bench_speed
import bench_targets
import bench_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 7


@dataclass
class PassResult:
    """Per job: raw wall and CPU seconds of the timed region, and the
    speed scale (reference kernel time over measured kernel time)."""

    traced: bool
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    steps: int = 0
    layers: dict = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        return [w * s for w, s in zip(self.wall, self.scale)]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def cpu_s(self) -> float:
        return sum(c * s for c, s in zip(self.cpu, self.scale))

    @property
    def raw_wall_s(self) -> float:
        return sum(self.wall)


def fail(message: str) -> None:
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_wrkit():
    """Import wrkit from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "wrkit" / "__init__.py").is_file():
        fail(f"{src / 'wrkit'} not found; run from a wrkit checkout")
    sys.path.insert(0, str(src))
    import wrkit
    import wrkit.cli

    if not Path(wrkit.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported wrkit from {wrkit.__file__}, not from {src}")
    return wrkit


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(wrkit, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "wrkit_version": wrkit.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import wrkit, build the
    job list and find the caches, then exit; each scaled by the median of
    the kernel times measured just before and after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times: list[float] = []
    before = [bench_speed.kernel_seconds() for _ in range(3)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
        elapsed = perf_counter() - start
        after = [bench_speed.kernel_seconds() for _ in range(3)]
        times.append(elapsed * bench_speed.REFERENCE_S / median(before + after))
        before = after
    return median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(jobs, caches, rec, traced: bool, first_digests: dict,
             job_scales: list[float]) -> PassResult:
    """One pass over the jobs.  Spans carry the index of the job run in
    ``job_scales``, which receives each run's speed scale."""
    result = PassResult(traced)
    start_span = len(rec)
    rec.counts = {}
    install = (
        bench_trace.Installation("wrkit", bench_targets.targets(), rec) if traced else None
    )
    try:
        for job in jobs:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            rec.job_id = len(job_scales)
            with bench_speed.SpeedSampler(None if traced else 0.5) as speed:
                rec.active = traced
                wall0, cpu0 = perf_counter(), process_time()
                try:
                    outcome = job.run()
                    error = None
                except Exception as exc:  # a raising job is a failed job, not a crash
                    outcome, error = None, f"raised {type(exc).__name__}: {exc}"
                cpu = process_time() - cpu0 - speed.spent_cpu
                wall = perf_counter() - wall0 - speed.spent
                rec.active = False
            result.wall.append(wall)
            result.cpu.append(cpu)
            result.scale.append(speed.scale(bench_speed.kernel_seconds()))
            job_scales.append(result.scale[-1])
            result.steps += job.steps
            try:
                problems = [error] if error else job.check(outcome)
            except Exception as exc:  # output the check cannot read is wrong output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if outcome is not None:
                text_digest = digest(outcome.text)
                if first_digests.setdefault(job.id, text_digest) != text_digest:
                    problems.append("output differs from the expected digest")
            job.problems.append(problems)
    finally:
        if install:
            install.undo()
    if traced:
        result.layers = pass_layers(rec, start_span, job_scales)
    return result


def pass_layers(rec, start: int, job_scales: list[float]) -> dict:
    """Per-pass totals: <span>.self_s (scaled like its job), <span>.calls
    and the work counters."""
    selfs = bench_trace.self_times(rec.start[start:], rec.end[start:],
                                   [p - start if p >= 0 else -1 for p in rec.parent[start:]])
    out = dict(rec.counts)
    for offset, self_s in enumerate(selfs):
        i = start + offset
        name = rec.names[rec.name[i]]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s * job_scales[rec.job[i]]
        if rec.parent_name(i) != name:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    return out


def size_table(rec, passes: int, job_scales: list[float]) -> list[tuple]:
    """(span, size, computations per pass, self seconds per pass,
    median inclusive seconds per computation), scaled like their jobs."""
    selfs = bench_trace.self_times(rec.start, rec.end, rec.parent)
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for i, self_s in enumerate(selfs):
        if rec.tag[i] >= 0:
            key = (rec.names[rec.name[i]], rec.names[rec.tag[i]])
            scale = job_scales[rec.job[i]]
            groups.setdefault(key, []).append(
                (self_s * scale, (rec.end[i] - rec.start[i]) * scale))
    return [
        (name, tag, len(v) / passes, sum(s for s, _ in v) / passes, median(t for _, t in v))
        for (name, tag), v in sorted(groups.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))
    ]


def print_trace_summary(workload: str, traced: list[PassResult], metrics: dict, rec,
                        job_scales: list[float]) -> None:
    names = sorted({k[: -len(".self_s")] for p in traced for k in p.layers if k.endswith(".self_s")})
    rows = []
    for name in names:
        self_s = median(p.layers.get(f"{name}.self_s", 0.0) for p in traced)
        calls = median(p.layers.get(f"{name}.calls", 0) for p in traced)
        work, ratio = bench_targets.WORK.get(name, (None, None))
        work_text = f"{work}={metrics[work][0]:g}" if work in metrics else ""
        ratio_text = f"{ratio}={metrics[ratio][0]:.4g}" if ratio in metrics else ""
        rows.append((self_s, name, calls, work_text, ratio_text))
    print(f"\ntraced layers, {workload}, median per pass over {len(traced)} traced passes:")
    print(f"  {'layer':28} {'calls':>9} {'self_s':>10}  work, ratio")
    for self_s, name, calls, work_text, ratio_text in sorted(rows, reverse=True):
        print(f"  {name:28} {calls:9g} {self_s:10.4f}  {work_text} {ratio_text}")
    table = size_table(rec, len(traced), job_scales)
    if table:
        print("\nby size: computations and self time per traced pass, "
              "median inclusive time per computation:")
        print(f"  {'layer':28} {'size':>10} {'count':>8} {'self_s':>10} {'incl_s':>10}")
        for name, tag, count, self_s, incl_s in table:
            print(f"  {name:28} {tag:>10} {count:8g} {self_s:10.4f} {incl_s:10.4f}")


def end_to_end(untraced: list[PassResult], setup_s: float, jobs, tail_passes: int
               ) -> tuple[dict, dict]:
    # the tail over a fixed number of passes, so its rank is fixed
    runs = [(t, j) for p in untraced[:tail_passes] for j, t in enumerate(p.latencies)]
    tail = bench_trace.tail_percentile(t for t, _ in runs)
    if tail is None:
        fail("fewer than 11 job runs; no tail percentile")
    value, percentile, count = tail
    # each job's latency is its median over all the passes
    per_job = [median(p.latencies[j] for p in untraced) for j in range(len(jobs))]
    metrics = {
        "wall_s": (median(p.wall_s for p in untraced), "s"),
        "cpu_s": (median(p.cpu_s for p in untraced), "s"),
        "job_p50_s": (median(per_job), "s"),
        "job_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    at = next(j for t, j in runs if t == value)
    return metrics, {"percentile": percentile, "jobs": count, "passes": tail_passes,
                     "job": jobs[at].id}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"run one pass at seed {DEFAULT_SEED} and store its digests")
    args = parser.parse_args(argv)

    wrkit = load_wrkit()
    jobs = bench_jobs.make_jobs(wrkit, args.workload, args.seed)
    caches = bench_trace.discover_caches("wrkit")
    if args.setup_only:
        return 0
    # one core for the jobs, the kernel that calibrates them and the setup
    # probes (which inherit it); the last one, as the first usually also
    # serves device interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    rec = bench_trace.Recorder()
    if args.trace:
        try:  # a traced function that is gone fails the run, not its metrics
            bench_trace.Installation("wrkit", bench_targets.targets(), rec).undo()
        except LookupError as exc:
            fail(str(exc))
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            fail(f"digests are recorded at seed {DEFAULT_SEED}")
        digests: dict = {}
        run_pass(jobs, caches, rec, False, digests, [])
        failed = [job.id for job in jobs if any(job.problems)]
        if failed:
            fail(f"jobs failed, digests not stored: {failed}")
        stored[args.workload] = digests
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"stored {len(digests)} digests for {args.workload}")
        return 0

    setup_s = 0.0 if args.trace else measure_setup(args)
    expected = dict(stored.get(args.workload, {})) if args.seed == DEFAULT_SEED else {}
    tail_passes = bench_jobs.TAIL_PASSES[args.workload]
    passes: list[PassResult] = []
    job_scales: list[float] = []
    start = perf_counter()
    while True:
        # traced runs go U T T U U T ..., so warm-up favours neither side
        traced = bool(args.trace) and len(passes) % 4 in (1, 2)
        passes.append(run_pass(jobs, caches, rec, traced, expected, job_scales))
        untraced = [p for p in passes if not p.traced]
        traced_passes = [p for p in passes if p.traced]
        if args.trace:
            enough = untraced and traced_passes
        else:
            enough = len(untraced) >= max(2, tail_passes)
        elapsed = perf_counter() - start
        # start another pass only if it should end within the budget
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    attempted = sum(len(job.problems) for job in jobs)
    failed = sum(1 for job in jobs for problems in job.problems if problems)
    for job in jobs:
        for problems in {tuple(p) for p in job.problems if p}:
            print(f"FAILED {job.id}: {'; '.join(problems)}", file=sys.stderr)

    untraced_wall_s = median(p.wall_s for p in untraced)
    untraced_steps_per_s = sum(p.steps for p in untraced) / sum(p.wall_s for p in untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(jobs)} jobs per pass, {failed} of {attempted} job runs failed")
    tail = None
    if args.trace:
        metrics = bench_targets.layer_metrics([p.layers for p in traced_passes])
        metrics["trace_overhead_frac"] = (
            median(p.wall_s for p in traced_passes) / untraced_wall_s - 1, "ratio")
        metrics["steps_per_s"] = (untraced_steps_per_s, "1/s")
        metrics["fail_frac"] = (failed / attempted, "ratio")
        print_trace_summary(args.workload, traced_passes, metrics, rec, job_scales)
        print(f"  trace_overhead_frac {metrics['trace_overhead_frac'][0]:.4f}")
        spans = ROOT / ".bench_out" / f"{args.workload}.spans.tsv.gz"
        rec.dump(spans, f"workload={args.workload} seed={args.seed}")
        print(f"  {len(rec)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, tail = end_to_end(untraced, setup_s, jobs, tail_passes)
        for name, (value, unit) in metrics.items():
            print(f"  {name:12} {value:12.6g} {unit}")
        print(f"  job_tail_s is the p{tail['percentile']:.1f} of {tail['jobs']} job runs "
              f"in the first {tail_passes} passes, a run of {tail['job']}")

    record = {
        "environment": environment(wrkit, args),
        "tail": tail,
        "fail_frac": failed / attempted,
        "steps_per_s": untraced_steps_per_s,
        "speed_scale": median(job_scales),
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "raw_wall_s": p.raw_wall_s}
            for p in passes
        ],
        "jobs": [job.spec for job in jobs],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
