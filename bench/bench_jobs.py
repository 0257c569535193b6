"""The four workloads: job lists generated from a seed, and per-job checks.

Each job is one closed-loop request to wrkit: a CLI invocation through
``wrkit.cli.main`` with stdout captured, or a library call where the CLI
does not take the input.  ``run`` is the timed part.  ``check`` runs after
the timer stops, while the job's cache entries are still present, and
returns a list of problems (empty when the job passed).

Why these workloads:

- catalog-sweep: the shipped ``verify``/``scan --catalog all`` traffic,
  many small graphs where exact evaluation, big-rational powers and
  formatting weigh as much as the subset loop.
- large-graphs: graphs near the top of the exact cap, where the 2^n
  subset loops of the partition engine dominate.
- lp-certificate: the configuration, LP, simplex and canonical-form
  layers; the partition engine does no work here.
- glauber: the only workload that runs the sampler; its user metric is
  throughput rather than time to verdict.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

WORKLOADS = ("catalog-sweep", "large-graphs", "lp-certificate", "glauber")

# job_tail_s is taken over the runs of exactly this many untraced passes,
# the first ones, so that the rank it reads, and the job at that rank, do
# not depend on how many passes the time budget allows.  Each count puts
# the rank among jobs of similar cost, away from a gap in the sorted runs
# (jobs per pass: 44, 5, 35 and 11): catalog-sweep, rank 254 of 264, the
# n = 14 graphs; large-graphs, rank 10 of 20, the middle of the twelve
# runs of prism:8, the random cubic graph and the clique union;
# lp-certificate, rank 60 of 70, the d = 3 LPs; glauber, rank 34 of 44,
# the validation chains.
TAIL_PASSES = {"catalog-sweep": 6, "large-graphs": 4, "lp-certificate": 2, "glauber": 4}

# Snapshot of extremal.full_catalog() as builtin specs, so the sweep stays
# the same yardstick if the shipped catalog grows.
CATALOG_D2 = tuple(f"cycle:{n}" for n in range(3, 13)) + (
    "cycle:3+cycle:3",
    "cycle:3+cycle:3+cycle:3",
    "cycle:3+cycle:4",
    "cycle:4+cycle:6",
    "cycle:5+cycle:5",
    "cycle:6+cycle:8",
)
CATALOG_D3 = (
    "complete:4",
    "bipartite:3,3",
    "petersen",
    "prism:3",
    "prism:4",
    "prism:5",
    "prism:6",
    "complete:4+complete:4",
) + tuple(f"random_regular:{(8, 10, 14)[i % 3]},3,{1000 + i}" for i in range(20))

# Exact occupancy fractions of the sampler validation graphs, computed
# with occupancy_fraction and kept here so the sampler check does not
# depend on the exact layers it is compared against.
VALIDATION_EXACT = {
    ("cycle:12", "1/2"): Fraction(788815, 2082777),
    ("cycle:12", "1"): Fraction(19602, 39203),
    ("cycle:12", "2"): Fraction(89380, 143781),
    ("petersen", "1/2"): Fraction(39019, 112937),
    ("petersen", "1"): Fraction(1702, 3637),
    ("petersen", "2"): Fraction(98444, 157537),
    ("prism:6", "1/2"): Fraction(466019, 1344417),
    ("prism:6", "1"): Fraction(8856, 18995),
    ("prism:6", "2"): Fraction(1028044, 1669377),
}


@dataclass
class Outcome:
    """What a job returned: exit code, exact output text, library results."""

    code: int
    text: str
    data: object = None


@dataclass
class Job:
    """One request.  ``spec`` is the replay record: everything wrkit receives."""

    id: str
    spec: dict
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]
    steps: int = 0  # Glauber updates, for throughput
    problems: list[list[str]] = field(default_factory=list)  # one entry per run


def cli_call(wrkit, argv: list[str]) -> Outcome:
    """Run ``wrkit.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wrkit.cli.main(argv)
    return Outcome(code, out.getvalue() + err.getvalue())


def rational(p: int, q: int) -> str:
    return str(Fraction(p, q))


# Activity strata.  Exact evaluation and the big rational powers cost
# more as p and q grow, so every job draws one activity per stratum, where
# a stratum fixes the larger of p and q and offers partners of nearly the
# same size: the activities vary with the seed, the cost of a job hardly.
STRATA = ((2, (1,)), (5, (3, 4)), (8, (5, 7)), (10, (7, 9)))


def stratified_rationals(rng: random.Random) -> list[str]:
    """One activity h/b or b/h per stratum (h, partners), all <= 10."""
    out = []
    for height, partners in STRATA:
        b = rng.choice(partners)
        out.append(rational(height, b) if rng.random() < 0.5 else rational(b, height))
    return out


# ---------------------------------------------------------------------------
# graph jobs: verify checks plus the two-activity scan, for one graph


def graph_job(wrkit, spec: str, d: int, lambdas: list[str], pairs: list[str]) -> Job:
    argv = ["verify", "--builtin", spec, "--d", str(d)]
    for lam in lambdas:
        argv += ["--lambda", lam]
    grid_text = ";".join(pairs)

    def run() -> Outcome:
        verify = cli_call(wrkit, argv)
        graph = wrkit.cli.parse_builtin(spec)
        grid = [
            wrkit.ActivityPair(Fraction(a), Fraction(b))
            for a, b in (pair.split(",") for pair in pairs)
        ]
        findings = wrkit.extremal.conjecture_scan([(graph, d)], grid)
        text = verify.text + wrkit.extremal.findings_csv(findings)
        return Outcome(verify.code, text, (graph, findings))

    def check(outcome: Outcome) -> list[str]:
        problems = []
        if outcome.code != 0:
            problems.append(f"verify exit code {outcome.code}")
        lines = outcome.text.splitlines()
        reports = [line for line in lines if " lambda=" in line and " d=" in line]
        expected = 2 * len(lambdas) + 1
        if len(reports) != expected or not all(r.endswith(" ok") for r in reports):
            problems.append("verify: a bound report is missing or not ok")
        if f"{expected} checks, 0 mismatches" not in lines:
            problems.append("verify: summary line missing")
        graph, findings = outcome.data
        if len(findings) != 2 * len(pairs) or any(f.violation for f in findings):
            problems.append("scan: missing rows or a violation")
        # independent route: the bivariate diagonal is the univariate polynomial
        if wrkit.wr_partition_bivariate(graph).diagonal() != wrkit.wr_partition(graph):
            problems.append("bivariate diagonal differs from the univariate polynomial")
        return problems

    return Job(
        id=f"graph {spec} d={d}",
        spec={"graph": spec, "d": d, "lambdas": lambdas, "pairs": grid_text},
        run=run,
        check=check,
    )


def catalog_sweep(wrkit, rng: random.Random) -> list[Job]:
    catalog = [(s, 2) for s in CATALOG_D2] + [(s, 3) for s in CATALOG_D3]
    return [graph_activity_job(wrkit, rng, spec, d) for spec, d in catalog]


def graph_activity_job(wrkit, rng: random.Random, spec: str, d: int) -> Job:
    """Verify at four activities and scan at four pairs; each stratum
    appears once in each role."""
    lambdas = stratified_rationals(rng)
    first, second = stratified_rationals(rng), stratified_rationals(rng)
    pairs = [f"{first[i]},{second[3 - i]}" for i in range(4)]
    return graph_job(wrkit, spec, d, lambdas, pairs)


def large_graphs(wrkit, rng: random.Random) -> list[Job]:
    specs = [
        (f"random_regular:16,3,{rng.randrange(10**6)}", 3),
        (f"random_regular:16,4,{rng.randrange(10**6)}", 4),
        ("prism:8", 3),
        ("cycle:8+cycle:10", 2),
        ("+".join(["complete:4"] * 4), 3),
    ]
    return [graph_activity_job(wrkit, rng, spec, d) for spec, d in specs]


# ---------------------------------------------------------------------------
# LP certificate jobs


def lp_job(wrkit, d: int, lam: str) -> Job:
    def check(outcome: Outcome) -> list[str]:
        problems = [] if outcome.code == 0 else [f"lp exit code {outcome.code}"]
        expected = wrkit.format_rational(wrkit.alpha_K(d, Fraction(lam)))
        for solver in ("simplex", "enumeration"):
            if f"{solver} optimum {expected}" not in outcome.text.splitlines():
                problems.append(f"{solver} optimum is not alpha_K({d}, {lam})")
        return problems

    return Job(
        id=f"lp d={d} lambda={lam}",
        spec={"command": "lp", "d": d, "lambda": lam},
        run=lambda: cli_call(wrkit, ["lp", "--d", str(d), "--lambda", lam]),
        check=check,
    )


def uniqueness_job(wrkit, d: int, lam: str) -> Job:
    def run() -> Outcome:
        return Outcome(0, "", wrkit.lp.uniqueness_check(d, Fraction(lam)))

    def check(outcome: Outcome) -> list[str]:
        report = outcome.data
        # rendered here, after the timer: key_text re-canonicalises
        lines = [f"optimum {wrkit.format_rational(report.optimum)}"]
        lines += [f"tight {c.key_text()}" for c in report.tight_set]
        lines += [f"simplex {c.key_text()}" for c in report.simplex_support]
        lines += [f"enumeration {c.key_text()}" for c in report.enumeration_support]
        outcome.text = "\n".join(lines) + "\n"
        if report.optimum != wrkit.alpha_K(d, Fraction(lam)):
            return [f"uniqueness optimum is not alpha_K({d}, {lam})"]
        return []

    return Job(
        id=f"uniqueness d={d} lambda={lam}",
        spec={"call": "lp.uniqueness_check", "d": d, "lambda": lam},
        run=run,
        check=check,
    )


def dualcert_job(wrkit, d: int, lam: str) -> Job:
    def check(outcome: Outcome) -> list[str]:
        problems = [] if outcome.code == 0 else [f"dualcert exit code {outcome.code}"]
        expected = wrkit.format_rational(wrkit.alpha_K(d, Fraction(lam)))
        first = outcome.text.splitlines()[0] if outcome.text else ""
        if not first.startswith(f"Lambda_p={expected} ") or " violations=0 " not in first:
            problems.append("dual certificate is not alpha_K or has violations")
        return problems

    return Job(
        id=f"dualcert d={d} lambda={lam}",
        spec={"command": "dualcert", "d": d, "lambda": lam},
        run=lambda: cli_call(wrkit, ["dualcert", "--d", str(d), "--lambda", lam]),
        check=check,
    )


def lp_certificate(wrkit, rng: random.Random) -> list[Job]:
    # lambda >= 1 keeps the vertex-enumeration pair count, and with it the
    # cost of a pass, nearly the same for every seed
    pool = [rational(p, q) for p in range(1, 11) for q in range(1, p + 1) if gcd(p, q) == 1]
    first, second, third = rng.sample(pool, 3)
    # the cheap d=3 LP at every lambda of the pool, so that the jobs the
    # tail and median latencies fall on are the same for every seed; one
    # heavy job at each of three seeded lambdas, as all three heavy jobs
    # at every lambda would not fit a run
    return [lp_job(wrkit, 3, lam) for lam in pool] + [
        lp_job(wrkit, 4, first),
        uniqueness_job(wrkit, 4, second),
        dualcert_job(wrkit, 5, third),
    ]


# ---------------------------------------------------------------------------
# Glauber chains

_ESTIMATE = re.compile(r"^estimate (\S+) stderr (\S+) ", re.M)


def sample_job(
    wrkit,
    spec: str,
    lam: str,
    burnin: int,
    samples: int,
    seed: int,
    exact: Fraction | None,
    d: int = 0,
) -> Job:
    argv = ["sample", "--builtin", spec, "--lambda", lam, "--burnin", str(burnin)]
    argv += ["--samples", str(samples), "--seed", str(seed)]

    def check(outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"sample exit code {outcome.code}"]
        match = _ESTIMATE.search(outcome.text)
        if not match:
            return ["sample printed no estimate"]
        estimate, stderr = float(match.group(1)), float(match.group(2))
        tolerance = max(0.01, 4 * stderr)
        if exact is not None and abs(estimate - float(exact)) > tolerance:
            return [f"estimate {estimate} is not within {tolerance} of {float(exact)}"]
        # the theorem itself: no d-regular graph beats the clique union
        if d and estimate > float(wrkit.alpha_K(d, Fraction(lam))) + tolerance:
            return [f"estimate {estimate} exceeds alpha_K({d}, {lam})"]
        return []

    return Job(
        id=f"sample {spec} lambda={lam} seed={seed}",
        spec={"graph": spec, "lambda": lam, "burnin": burnin, "samples": samples, "seed": seed},
        run=lambda: cli_call(wrkit, argv),
        check=check,
        steps=burnin + samples,
    )


def glauber(wrkit, rng: random.Random) -> list[Job]:
    jobs = []
    for (spec, lam), exact in VALIDATION_EXACT.items():
        jobs.append(
            sample_job(wrkit, spec, lam, 10_000, 150_000, rng.randrange(10**6), exact)
        )
    # shorter than the validation chains, so the tail rank (TAIL_PASSES)
    # falls among the validation chains
    for n, burnin, samples in ((100, 30_000, 60_000), (1000, 40_000, 40_000)):
        spec = f"random_regular:{n},3,{rng.randrange(10**6)}"
        jobs.append(
            sample_job(wrkit, spec, "1", burnin, samples, rng.randrange(10**6), None, d=3)
        )
    return jobs


GENERATORS = {
    "catalog-sweep": catalog_sweep,
    "large-graphs": large_graphs,
    "lp-certificate": lp_certificate,
    "glauber": glauber,
}


def make_jobs(wrkit, workload: str, seed: int) -> list[Job]:
    """The job list for one workload; the same seed gives the same list."""
    return GENERATORS[workload](wrkit, random.Random(f"{workload}:{seed}"))
