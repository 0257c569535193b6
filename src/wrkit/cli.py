"""Command-line surface for reproducible verification runs and CSV sweeps.

Exit codes: 0 success, 1 usage or parse error, 2 capacity exceeded,
3 verification mismatch, 4 conjecture counterexample found.

A command is one COMMANDS entry: its help text, a function that adds its
flags and its handler.  The tree of parsers is built once, at import, as
PARSER, and every call parses through it.  Only configs writes the
per-class report; dualcert counts the violated signatures, each named
by its first class in the certificate's table, so a failed certificate
exits 3 at every degree the reduced route takes, and counts its tight
classes without listing a graph.  An unknown command is named alone on
one line, not with all eight.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import dynamics, extremal, lp
from .configurations import enumerate_configs
from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    UsageError,
    VerificationError,
)
# the bench traces parse_builtin through this binding
from .graphs import Graph, parse_builtin, parse_edge_list
from .numerics import check_activity, csv_text, format_rational, parse_rational
from .occupancy import (
    ActivityPair,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
)
from .partition import wr_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_MISMATCH = 3
EXIT_COUNTEREXAMPLE = 4

DEFAULT_LAMBDA_GRID = ("1/4", "1/2", "1", "2", "10")
DEFAULT_PAIR_GRID = "1,1;2,1;10,1;1,1/2"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _check_value(self, action, value):
        # argparse refuses an unknown command by listing all eight, past
        # one short line; name it alone, cut to 40 characters
        if action.dest == "command" and value not in action.choices:
            name = ascii(value)
            name = name if len(name) <= 40 else name[:36] + "..."
            raise UsageError(f"unknown command {name} (see wrkit --help)")
        super()._check_value(action, value)


def _load_graph(args) -> Graph:
    if args.builtin is not None and args.file is not None:
        raise UsageError("give either --builtin or --file, not both")
    if args.builtin is not None:
        return parse_builtin(args.builtin)
    if args.file is not None:
        if not args.file:
            raise UsageError("cannot read an empty --file path")
        path = Path(args.file)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read {path}: not UTF-8 text") from exc
        return parse_edge_list(text).relabel(str(path))
    raise UsageError("a graph source is required: --builtin or --file")


def _add_graph_flags(sub) -> None:
    sub.add_argument("--builtin", help="builtin graph, e.g. complete:4 or cycle:5+cycle:3")
    sub.add_argument("--file", help="edge-list file ('n m' header, then 'u v' lines)")


def _parse_pair_grid(text: str) -> list[ActivityPair]:
    grid = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad activity pair {chunk!r} (want p/q,p/q)")
        grid.append(ActivityPair(parse_rational(parts[0]), parse_rational(parts[1])))
    if not grid:
        raise UsageError("empty activity grid")
    return grid


def _check_csv_target(csv_path: str) -> None:
    """Refuse a --csv destination that cannot be written, before any work."""
    if not csv_path:
        raise UsageError("cannot write an empty --csv path")
    target = Path(csv_path)
    if target.is_dir():
        raise UsageError(f"cannot write {csv_path}: it is a directory")
    if not (target.parent.is_dir() and os.access(target.parent, os.W_OK)):
        raise UsageError(f"cannot write {csv_path}: no writable directory {target.parent}")


def _write_or_print(text: str, csv_path: str | None) -> None:
    if csv_path is not None:
        try:
            Path(csv_path).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {csv_path}: {exc.strerror or exc}") from exc
        print(f"wrote {csv_path}")
    else:
        sys.stdout.write(text)


def cmd_partition(args) -> int:
    graph = _load_graph(args)
    # a bad activity is refused before anything is printed
    lam = None if args.lam is None else check_activity(parse_rational(args.lam))
    poly = wr_partition(graph)
    print(f"graph {graph.label}: n={graph.n} m={graph.m}")
    print(f"P coefficients (low to high): {poly.to_text()}")
    print(f"P = {poly.pretty()}")
    print(f"hom count P(1) = {poly.eval(1)}")
    if lam is not None:
        print(f"P({format_rational(lam)}) = {format_rational(poly.eval(lam))}")
    return EXIT_OK


def cmd_occupancy(args) -> int:
    if args.lam is not None and (args.lambda1 is not None or args.lambda2 is not None):
        raise UsageError("give either --lambda or --lambda1/--lambda2, not both")
    graph = _load_graph(args)
    if args.lambda1 is not None or args.lambda2 is not None:
        if args.lambda1 is None or args.lambda2 is None:
            raise UsageError("--lambda1 and --lambda2 must be given together")
        act = ActivityPair(parse_rational(args.lambda1), parse_rational(args.lambda2))
        a1, a2 = occupancy_by_colour(graph, act)
        weighted = weighted_occupancy(graph, act)
        print(f"graph {graph.label}: n={graph.n}")
        print(f"alpha_1 = {format_rational(a1)}")
        print(f"alpha_2 = {format_rational(a2)}")
        print(f"weighted = {format_rational(weighted)}")
        return EXIT_OK
    if args.lam is None:
        raise UsageError("--lambda (or --lambda1/--lambda2) is required")
    lam = parse_rational(args.lam)
    value = occupancy_fraction(graph, lam)
    print(f"graph {graph.label}: n={graph.n}")
    print(f"occupancy({format_rational(lam)}) = {format_rational(value)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    explicit = args.builtin is not None or args.file is not None
    if args.d is not None and not explicit:
        raise UsageError("--d is for an explicit graph (--builtin or --file)")
    if explicit:
        if args.catalog is not None:
            raise UsageError("give either --catalog or --builtin/--file, not both")
        if args.d is None:
            raise UsageError("--d is required with an explicit graph")
        catalog = [(_load_graph(args), args.d)]
    else:
        catalog = extremal.catalog("all" if args.catalog is None else args.catalog)
    lams = [parse_rational(t) for t in (args.lam or list(DEFAULT_LAMBDA_GRID))]
    reports = [r for graph, d in catalog for r in extremal.verify_bounds(graph, d, lams)]
    bad = [r for r in reports if not r.ok]
    for r in reports:
        status = "ok" if r.ok else "MISMATCH"
        print(
            f"{r.graph} d={r.d} {r.check} lambda={r.activity}: "
            f"{format_rational(r.lhs)} {r.relation} {format_rational(r.rhs)} "
            f"(equality expected: {'yes' if r.equality_expected else 'no'}) {status}"
        )
    if args.csv is not None:
        _write_or_print(extremal.bound_reports_csv(reports), args.csv)
    print(f"{len(reports)} checks, {len(bad)} mismatches")
    return EXIT_MISMATCH if bad else EXIT_OK


def cmd_lp(args) -> int:
    lam = parse_rational(args.lam)
    proof = lp.uniqueness_check(args.d, lam)
    report = proof.feasibility
    print(f"d={args.d} lambda={format_rational(lam)}: {len(report.rows)} configurations")
    print(f"simplex optimum {format_rational(proof.optimum)}")
    for config, weight in zip(proof.simplex_support, proof.simplex_weights):
        print(f"  support {config.key_text()} weight {format_rational(weight)}")
    print(f"enumeration optimum {format_rational(proof.optimum)}")
    tight_texts = sorted(c.key_text() for c in report.tight_set)
    print(f"tight constraints ({len(tight_texts)}):")
    for text in tight_texts:
        print(f"  {text}")
    return EXIT_OK


def cmd_dualcert(args) -> int:
    lam = parse_rational(args.lam)
    cert, report = lp.feasibility(args.d, lam)
    print(
        f"Lambda_p={format_rational(cert.lambda_p)} "
        f"Lambda_c={format_rational(cert.lambda_c)} "
        f"violations={len(report.violations)} tight={report.tight_count}"
    )
    return EXIT_MISMATCH if report.violations else EXIT_OK


def cmd_configs(args) -> int:
    if args.csv is not None and args.lam is None:
        raise UsageError("--csv writes the --lambda report; give --lambda too")
    # a bad activity is refused before the class count is printed
    lam = None if args.lam is None else check_activity(parse_rational(args.lam))
    configs = enumerate_configs(args.d)
    print(f"d={args.d}: {len(configs)} configuration classes")
    if lam is not None:
        _, report = lp.feasibility(args.d, lam)
        _write_or_print(lp.config_report_csv(report), args.csv)
    else:
        for config in configs:
            print(config.key_text())
    return EXIT_OK


def cmd_sample(args) -> int:
    graph = _load_graph(args)
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad activity {args.lam!r}") from exc
    burnin = args.burnin if args.burnin is not None else 1000 * graph.n
    series: list[tuple[int, float]] | None = [] if args.csv is not None else None
    estimate, stderr = dynamics.estimate_occupancy(
        graph,
        lam,
        burn_in=burnin,
        samples=args.samples,
        thinning=args.thin,
        seed=args.seed,
        series_out=series,
    )
    print(f"graph {graph.label}: n={graph.n}")
    print(f"rng {dynamics.RNG_ALGORITHM} seed={args.seed}")
    print(
        f"estimate {estimate:.6f} stderr {stderr:.6f} "
        f"(burnin={burnin} samples={args.samples} thin={args.thin})"
    )
    if args.csv is not None:
        rows = ((step, f"{value:.6f}") for step, value in series)
        _write_or_print(csv_text("step,coloured_fraction", rows), args.csv)
    return EXIT_OK


def cmd_scan(args) -> int:
    catalog = extremal.catalog(args.catalog)
    grid = _parse_pair_grid(args.grid)
    findings = extremal.conjecture_scan(catalog, grid)
    violations = [f for f in findings if f.violation]
    _write_or_print(extremal.findings_csv(findings), args.csv)
    print(f"{len(findings)} comparisons, {len(violations)} violations")
    for f in violations:
        print(
            f"COUNTEREXAMPLE {f.graph} d={f.d} ({f.lambda1},{f.lambda2}) "
            f"{f.check}: {format_rational(f.lhs)} > {format_rational(f.rhs)}"
        )
    return EXIT_COUNTEREXAMPLE if violations else EXIT_OK


def _partition_flags(p) -> None:
    _add_graph_flags(p)
    p.add_argument("--lambda", dest="lam", help="activity as p/q")


def _occupancy_flags(p) -> None:
    _add_graph_flags(p)
    p.add_argument("--lambda", dest="lam", help="activity as p/q")
    p.add_argument("--lambda1", help="colour-1 activity as p/q")
    p.add_argument("--lambda2", help="colour-2 activity as p/q")


def _verify_flags(p) -> None:
    _add_graph_flags(p)
    p.add_argument("--catalog", help=extremal.catalog_choices())
    p.add_argument("--d", type=int, help="degree for an explicit graph")
    p.add_argument(
        "--lambda", dest="lam", action="append", help="activity p/q (repeatable)"
    )
    p.add_argument("--csv", help="write CSV report here")


def _certificate_flags(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="activity as p/q")


def _configs_flags(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", help="activity as p/q for the per-class report")
    p.add_argument("--csv", help="write the per-class report here; no other command does")


def _sample_flags(p) -> None:
    _add_graph_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, help="activity (float ok)")
    p.add_argument("--burnin", type=int, default=None, help="default 1000*n")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write (step, fraction) time series here")


def _scan_flags(p) -> None:
    p.add_argument("--catalog", default="all", help=extremal.catalog_choices())
    p.add_argument("--grid", default=DEFAULT_PAIR_GRID, help="pairs 'p/q,p/q;p/q,p/q'")
    p.add_argument("--csv", help="write findings CSV here")


class Command(NamedTuple):
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


COMMANDS = {
    "partition": Command("exact partition polynomial", _partition_flags, cmd_partition),
    "occupancy": Command("exact occupancy fraction", _occupancy_flags, cmd_occupancy),
    "verify": Command("extremality checks over a catalog", _verify_flags, cmd_verify),
    "lp": Command(
        "solve the local relaxation and certify its optimum", _certificate_flags, cmd_lp
    ),
    "dualcert": Command(
        "dual certificate and feasibility check", _certificate_flags, cmd_dualcert
    ),
    "configs": Command("enumerate configuration classes", _configs_flags, cmd_configs),
    "sample": Command("Glauber-dynamics occupancy estimate", _sample_flags, cmd_sample),
    "scan": Command("two-activity conjecture scan", _scan_flags, cmd_scan),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser with every command's subparser."""
    # the help shows the docstring's first two paragraphs (none under -OO)
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = _Parser(prog="wrkit", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command.add_flags(sub.add_parser(name, help=command.help))
    return parser


# parsing reads the tree and never modifies it, so every call shares one
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = PARSER.parse_args(argv)
        if getattr(args, "csv", None) is not None:
            _check_csv_target(args.csv)
        return COMMANDS[args.command].run(args)
    except (UsageError, ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
