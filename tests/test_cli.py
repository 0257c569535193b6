"""CLI surface: flags, output shapes, exit codes, determinism."""

import argparse
import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from wrkit.cli import (
    EXIT_CAPACITY,
    EXIT_COUNTEREXAMPLE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    COMMANDS,
    DEFAULT_LAMBDA_GRID,
    build_parser,
    main,
    parse_builtin,
)
from wrkit.errors import CapacityError
from wrkit.graphs import VERTEX_CAP, check_regular


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parse_builtin_is_the_graphs_parser():
    # one parser; the bench traces it through the cli binding
    import wrkit.cli
    import wrkit.graphs

    assert wrkit.cli.parse_builtin is wrkit.graphs.parse_builtin


def test_parse_builtin():
    assert parse_builtin("complete:4").n == 4
    assert parse_builtin("bipartite:3,3").m == 9
    assert parse_builtin("cycle:5+cycle:3").n == 8
    check_regular(parse_builtin("prism:4"), 3)
    assert parse_builtin("random_regular:10,3,7").n == 10
    assert parse_builtin("petersen").n == 10


def test_union_spacing_does_not_change_the_report(capsys):
    # a union's label is its stripped atoms joined by '+'
    reports = [
        run(capsys, "partition", "--builtin", spec, "--lambda", "1")
        for spec in ("cycle:5+cycle:3", "cycle:5 + cycle:3")
    ]
    assert reports[0] == reports[1]
    assert reports[0][0] == EXIT_OK and "cycle:5+cycle:3" in reports[0][1]


def test_partition_command(capsys):
    code, out, _ = run(capsys, "partition", "--builtin", "complete:4")
    assert code == EXIT_OK
    assert "1,8,12,8,2" in out
    assert "hom count P(1) = 31" in out
    assert "1 + 8*lam + 12*lam^2 + 8*lam^3 + 2*lam^4" in out


def test_partition_with_activity(capsys):
    code, out, _ = run(capsys, "partition", "--builtin", "cycle:4", "--lambda", "1")
    assert code == EXIT_OK
    assert "P(1) = 35" in out


def test_partition_refuses_a_bad_activity_before_printing(capsys):
    # the polynomial has a value there, but no Widom-Rowlinson activity does
    for bad in ("-1", "0"):
        code, out, err = run(capsys, "partition", "--builtin", "cycle:4", "--lambda", bad)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: activity must be strictly positive, got {bad}\n"
    # a malformed one too: the error line is all the call writes
    for bad in ("1.5", "1/0"):
        code, out, err = run(capsys, "partition", "--builtin", "cycle:4", "--lambda", bad)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_partition_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "partition", "--file", str(bad))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_a_file_that_is_not_utf8_is_one_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for flags in (
        ("partition",),
        ("occupancy", "--lambda", "1"),
        ("verify", "--d", "2", "--lambda", "1"),
        ("sample", "--lambda", "1"),
    ):
        code, out, err = run(capsys, *flags, "--file", str(binary))
        assert (code, out) == (EXIT_USAGE, ""), flags
        assert err == f"error: cannot read {binary}: not UTF-8 text\n", flags


def test_partition_capacity(capsys):
    code, _, err = run(capsys, "partition", "--builtin", "cycle:30")
    assert code == EXIT_CAPACITY
    assert "capacity" in err


def test_occupancy_command(capsys):
    code, out, _ = run(capsys, "occupancy", "--builtin", "cycle:5", "--lambda", "1")
    assert code == EXIT_OK
    assert "occupancy(1) = 42/83" in out


def test_occupancy_two_activities(capsys):
    code, out, _ = run(
        capsys, "occupancy", "--builtin", "complete:2",
        "--lambda1", "1", "--lambda2", "2",
    )
    assert code == EXIT_OK
    assert "alpha_1 = 1/6" in out
    assert "alpha_2 = 1/2" in out
    assert "weighted = 5/18" in out


def test_occupancy_refuses_both_activity_forms(capsys):
    pairs = (("--lambda1", "2", "--lambda2", "3"), ("--lambda1", "2"), ("--lambda2", "3"))
    for pair in pairs:
        code, out, err = run(
            capsys, "occupancy", "--builtin", "cycle:4", "--lambda", "1", *pair
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_occupancy_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    for flags in (("--lambda", "1"), ("--lambda1", "1", "--lambda2", "2")):
        code, out, err = run(capsys, "occupancy", "--file", str(empty), *flags)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "occupancy" not in out


def test_lp_command(capsys):
    code, out, _ = run(capsys, "lp", "--d", "2", "--lambda", "1")
    assert code == EXIT_OK
    assert "simplex optimum 8/15" in out
    assert "lists=12,12" in out


def test_dualcert_command(capsys):
    code, out, _ = run(capsys, "dualcert", "--d", "2", "--lambda", "1")
    assert code == EXIT_OK
    assert "Lambda_p=8/15 Lambda_c=1/5 violations=0" in out


# SHA-256 of the outputs before the LP ran over distinct columns: the
# rework must leave every byte of the report as it was
LP_D4_LAMBDA2_STDOUT = "9d3c1d7d311877c61a360726c974336cf162a0494bfca655a22aa7884f8ff04a"
DUALCERT_D4_LAMBDA3_2_CSV = "2a668a7357ef14447db496d704917da92d3af5caaa7641b92ecbefb8099e1050"
# and before lp, dualcert and configs shared one certificate-and-report
# path and scan printed its CSV through _write_or_print
CONFIGS_D3_LAMBDA2_STDOUT = "b2b3b9709348ad3293eaab23214eed98d48504eb4962d6f74306707e27bb76d1"
SCAN_D2_STDOUT = "b5dd041d802e4ce5aac795ff1440f448c3538f5cf8d49472ab263cf2fdba9c87"
# and before the local polynomials came from the list-aware subset walk
# and the LP instance held only its distinct columns
DUALCERT_D5_LAMBDA1_CSV = "99598d73c81c219a339fc52ee35f87f3442793918adbc75a3d5b6da6dee122b8"
# and before lp printed its report from one uniqueness_check run
LP_D5_LAMBDA1_STDOUT = "1d4511cc2be9646baf725be692d8fda4ff6f11e7bd712718de2df4fdddc48a5e"
LP_D3_LAMBDA7_5_CSV = "d25ab71ec19f6e488ece3bd378637a17c5cb5a33090c2699308f7e548ae49b7b"

# and before the Glauber kernel kept colour-class masks
SAMPLE_K60_STDOUT = "e56fc6fdef60308fb4df4e490a51335c6e4c44cafe0fbb33ccce5441b43088b2"
SAMPLE_PETERSEN_STDOUT = "83ac7857fadf3bdba6676ce380422d65e8b8c2d9a2c463025fb8052e86c6649e"
# stdout without its last line, "wrote <path>"
SAMPLE_RR1000_STDOUT = "f525b495eda6594d6c306d051183ffb7d47cb893b2b744b5b2880380f59cfcb3"
SAMPLE_RR1000_CSV = "5112ef878a00121a6d79df56a013362aeb45a4ded997afd5883a2fdf7c440eca"
# and before every clique comparison came from one record builder and
# every CSV from numerics.csv_text
VERIFY_ALL_STDOUT = "017d555b6e167afae4d03797d103fbfa84681820c9ad4b0902fbb252674c79e5"
VERIFY_ALL_CSV = "2d697b7b0b3cf200244b143a601ca3ecef93ff8fe718e48eff0b2770c1e6a838"
SCAN_ALL_CSV = "a25c21e055b99bddd5abc4bd0b35e5643701a7790f31b38d28f93d1ddb04c5d8"


def test_lp_stdout_pinned(capsys):
    code, out, _ = run(capsys, "lp", "--d", "4", "--lambda", "2")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == LP_D4_LAMBDA2_STDOUT


def test_lp_d5_stdout_pinned(capsys):
    code, out, _ = run(capsys, "lp", "--d", "5", "--lambda", "1")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == LP_D5_LAMBDA1_STDOUT


def test_lp_csv_pinned(tmp_path, capsys):
    # the lp report's per-class CSV, which only configs writes
    target = tmp_path / "lp.csv"
    code, out, _ = run(capsys, "configs", "--d", "3", "--lambda", "7/5", "--csv", str(target))
    assert code == EXIT_OK
    assert out.endswith(f"wrote {target}\n")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == LP_D3_LAMBDA7_5_CSV


def test_sample_stdout_pinned(capsys):
    code, out, _ = run(
        capsys, "sample", "--builtin", "complete:60", "--lambda", "1",
        "--samples", "20000", "--seed", "3",
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_K60_STDOUT
    code, out, _ = run(
        capsys, "sample", "--builtin", "petersen", "--lambda", "1/2",
        "--samples", "50000", "--seed", "9",
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_PETERSEN_STDOUT


def test_sample_csv_pinned(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run(
        capsys, "sample", "--builtin", "random_regular:1000,3,5", "--lambda", "2",
        "--burnin", "20000", "--samples", "20000", "--thin", "3", "--csv", str(target),
    )
    assert code == EXIT_OK
    wrote = f"wrote {target}\n"
    assert out.endswith(wrote)
    head = out.removesuffix(wrote)
    assert hashlib.sha256(head.encode()).hexdigest() == SAMPLE_RR1000_STDOUT
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SAMPLE_RR1000_CSV

def assert_lp_refused(capsys):
    code, out, err = run(capsys, "lp", "--d", "2", "--lambda", "1")
    assert code == EXIT_MISMATCH
    assert err.startswith("verification error: ") and err.count("\n") == 1
    assert out == ""


def test_lp_refuses_solvers_that_agree_on_a_wrong_optimum(monkeypatch, capsys):
    from wrkit import lp, simplex

    def wrong(instance):
        # both solvers agree on the first column, at a value below alpha_K
        support = ((instance.configs[0], Fraction(1)),)
        return lp.LPSolution(simplex.OPTIMAL, Fraction(1, 2), support)

    monkeypatch.setattr(lp, "simplex_solve", wrong)
    monkeypatch.setattr(lp, "vertex_enumeration_solve", wrong)
    assert_lp_refused(capsys)


def test_lp_refuses_an_infeasible_certificate(monkeypatch, capsys):
    import dataclasses

    from wrkit import lp

    checked = lp.verify_dual_feasibility

    def one_violation(cert, d, lam):
        report = checked(cert, d, lam)
        return dataclasses.replace(report, violations=(report.rows[-1].config,))

    monkeypatch.setattr(lp, "verify_dual_feasibility", one_violation)
    assert_lp_refused(capsys)


def test_lp_pivot_cap_is_a_verification_error(monkeypatch, capsys):
    from wrkit import simplex

    monkeypatch.setattr(simplex, "ITERATION_CAP", 1)
    code, out, err = run(capsys, "lp", "--d", "3", "--lambda", "1")
    assert code == EXIT_MISMATCH
    assert err == "verification error: exceeded 1 pivots\n"
    assert out == ""


def test_dualcert_csv_pinned(tmp_path, capsys):
    # the dualcert report's per-class CSV, which only configs writes
    target = tmp_path / "dualcert.csv"
    code, _, _ = run(
        capsys, "configs", "--d", "4", "--lambda", "3/2", "--csv", str(target)
    )
    assert code == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DUALCERT_D4_LAMBDA3_2_CSV


def test_dualcert_d5_csv_pinned(tmp_path, capsys):
    code, out, _ = run(capsys, "dualcert", "--d", "5", "--lambda", "1")
    assert code == EXIT_OK
    assert out == "Lambda_p=64/127 Lambda_c=31/127 violations=0 tight=103\n"
    # the same report's per-class CSV, which only configs writes
    target = tmp_path / "dualcert.csv"
    code, out, _ = run(
        capsys, "configs", "--d", "5", "--lambda", "1", "--csv", str(target)
    )
    assert code == EXIT_OK
    assert out == f"d=5: 12208 configuration classes\nwrote {target}\n"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DUALCERT_D5_LAMBDA1_CSV


def test_configs_report_stdout_pinned(capsys):
    code, out, _ = run(capsys, "configs", "--d", "3", "--lambda", "2")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CONFIGS_D3_LAMBDA2_STDOUT


def test_scan_stdout_pinned(capsys):
    code, out, _ = run(capsys, "scan", "--catalog", "d2")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_D2_STDOUT


def test_verify_all_pinned(tmp_path, capsys):
    # with no graph, the whole catalog is the default
    for catalog in (("--catalog", "all"), ()):
        code, out, _ = run(capsys, "verify", *catalog)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_STDOUT
    target = tmp_path / "verify.csv"
    code, out, _ = run(capsys, "verify", "--catalog", "all", "--csv", str(target))
    assert code == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == VERIFY_ALL_CSV


def test_scan_all_csv_pinned(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--catalog", "all", "--csv", str(target))
    assert code == EXIT_OK
    assert out.startswith(f"wrote {target}\n")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SCAN_ALL_CSV


CSV_COMMANDS = (
    ("verify", "--builtin", "cycle:5", "--d", "2", "--lambda", "1"),
    ("scan", "--catalog", "d2"),
    ("configs", "--d", "2", "--lambda", "1"),
    ("sample", "--builtin", "cycle:5", "--lambda", "1", "--samples", "10"),
)


def test_csv_to_unwritable_path(tmp_path, capsys):
    # refused before the command's work: nothing reaches stdout
    (tmp_path / "file").write_text("")
    targets = {
        str(tmp_path / "missing" / "x.csv"): f"no writable directory {tmp_path / 'missing'}",
        str(tmp_path / "file" / "x.csv"): f"no writable directory {tmp_path / 'file'}",
        str(tmp_path): "it is a directory",
    }
    assert {argv[0] for argv in CSV_COMMANDS} == {
        name for name, command in COMMANDS.items() if takes_csv(command)
    }
    for argv in CSV_COMMANDS:
        for target, reason in targets.items():
            code, out, err = run(capsys, *argv, "--csv", target)
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert err == f"error: cannot write {target}: {reason}\n"


def takes_csv(command):
    parser = argparse.ArgumentParser()
    command.add_flags(parser)
    return "--csv" in parser.format_usage()


def test_csv_write_failure_after_the_report(tmp_path, capsys, monkeypatch):
    # a destination that passes the early check can still fail to write
    from wrkit import cli

    monkeypatch.setattr(cli, "_check_csv_target", lambda path: None)
    target = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, "configs", "--d", "2", "--lambda", "1", "--csv", target)
    assert code == EXIT_USAGE
    assert out == "d=2: 20 configuration classes\n"
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


EMPTY_VALUES = (
    ("verify", "--catalog", "d2", "--lambda", "1", "--csv="),
    ("configs", "--d", "2", "--lambda", "1", "--csv="),
    ("sample", "--builtin", "cycle:5", "--lambda", "1", "--samples", "10", "--csv="),
    ("scan", "--csv="),
    ("occupancy", "--builtin", "cycle:5", "--lambda1=", "--lambda2", "1"),
    ("occupancy", "--builtin", "cycle:5", "--lambda1", "1", "--lambda2="),
    ("verify", "--builtin=", "--d", "2"),
    ("verify", "--catalog=", "--lambda", "1"),
    ("partition", "--builtin="),
    ("partition", "--file="),
    ("occupancy", "--file=", "--lambda", "1"),
    ("verify", "--file=", "--d", "2", "--lambda", "1"),
    ("sample", "--file=", "--lambda", "1", "--samples", "10"),
    ("sample", "--builtin", "cycle:5", "--lambda="),
)


def test_an_empty_value_is_a_given_flag(tmp_path, monkeypatch, capsys):
    # an empty value reaches its own check and is refused there, never
    # read as a missing flag: one short error line, no stdout, no file
    monkeypatch.chdir(tmp_path)
    for argv in EMPTY_VALUES:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert len(err.encode()) < 100, argv
        assert list(tmp_path.iterdir()) == [], argv
        if "--file=" in argv:
            assert err == "error: cannot read an empty --file path\n", argv
    assert {argv[0] for argv in EMPTY_VALUES if argv[-1] == "--csv="} == {
        name for name, command in COMMANDS.items() if takes_csv(command)
    }
    code, _, err = run(capsys, "configs", "--d", "2", "--lambda", "1", "--csv=")
    assert err == "error: cannot write an empty --csv path\n"


def test_a_new_catalog_is_one_table_entry(monkeypatch, capsys):
    from wrkit import cli, extremal

    tiny = ("cycle:3", "cycle:4")
    monkeypatch.setattr(extremal, "CATALOGS", {**extremal.CATALOGS, "tiny": (2, tiny)})
    code, out, _ = run(capsys, "verify", "--catalog", "tiny")
    assert code == EXIT_OK
    assert [line.split()[0] for line in out.splitlines()[:-1]] == [
        spec for spec in tiny for _ in range(2 * len(DEFAULT_LAMBDA_GRID) + 1)
    ]
    code, out, _ = run(capsys, "scan", "--catalog", "tiny", "--grid", "1,1")
    assert code == EXIT_OK
    assert [line.split(",")[0] for line in out.splitlines()[1:-1]] == [
        spec for spec in tiny for _ in range(2)
    ]
    assert [(g.label, d) for g, d in extremal.catalog("all")[-2:]] == [
        (spec, 2) for spec in tiny
    ]
    # the help reads the table when the tree is built
    monkeypatch.setattr(cli, "PARSER", build_parser())
    for name in ("verify", "scan"):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        assert "d2, d3, tiny or all" in capsys.readouterr().out, name
    code, out, err = run(capsys, "verify", "--catalog", "d4", "--lambda", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: unknown catalog 'd4' (want d2, d3, tiny or all)\n"


def test_configs_command(capsys):
    code, out, _ = run(capsys, "configs", "--d", "2")
    assert code == EXIT_OK
    assert "20 configuration classes" in out


def test_configs_csv(tmp_path, capsys):
    target = tmp_path / "configs.csv"
    code, _, _ = run(
        capsys, "configs", "--d", "1", "--lambda", "1", "--csv", str(target)
    )
    assert code == EXIT_OK
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "key,a1,a2,alpha_v,alpha_u,slack,tight"
    assert len(lines) == 5


def test_configs_refuses_a_csv_without_an_activity(tmp_path, capsys):
    # the CSV is the --lambda report; without one it would be ignored
    target = tmp_path / "configs.csv"
    code, out, err = run(capsys, "configs", "--d", "2", "--csv", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_verify_command(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "cycle:5", "--d", "2", "--lambda", "1"
    )
    assert code == EXIT_OK
    assert "0 mismatches" in out


def test_verify_catalog_small(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "d2", "--lambda", "1")
    assert code == EXIT_OK
    assert "MISMATCH" not in out


def test_verify_requires_degree(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "cycle:5")
    assert code == EXIT_USAGE


def test_verify_refuses_a_degree_without_an_explicit_graph(capsys):
    # the catalogs carry their own degrees; --d would be ignored
    for argv in (("--catalog", "d2", "--d", "3", "--lambda", "1"), ("--d", "2")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_refusals_come_in_order(capsys):
    # regularity before the activity, and the activity before the degree
    # floor, each alone on one stderr line
    for argv, message in (
        (("cycle:5", "--d", "3", "--lambda", "0"),
         "graph 'cycle:5' is not 3-regular: vertex 0 has degree 2"),
        (("cycle:5", "--d", "2", "--lambda", "0"), "activity must be strictly positive, got 0"),
        (("complete:1", "--d", "0", "--lambda", "1"), "degree must be >= 1, got 0"),
    ):
        code, out, err = run(capsys, "verify", "--builtin", *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n"), argv


def test_verify_refuses_a_catalog_with_an_explicit_graph(tmp_path, capsys):
    # the catalog would be ignored, even one that does not exist
    edges = tmp_path / "c3.txt"
    edges.write_text("3 3\n0 1\n1 2\n0 2\n")
    for source in (("--builtin", "cycle:5"), ("--file", str(edges))):
        for catalog in ("d3", "all", "bogus"):
            code, out, err = run(
                capsys, "verify", *source, "--d", "2", "--catalog", catalog, "--lambda", "1"
            )
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error: give either --catalog or --builtin/--file, not both\n"


def test_scan_command(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "scan", "--catalog", "d2", "--grid", "1,1;2,1", "--csv", str(target)
    )
    assert code == EXIT_OK
    header = target.read_text().splitlines()[0]
    assert header == "graph,n,d,lambda1,lambda2,check,lhs,rhs,relation,equality_expected"
    assert "0 violations" in out


def test_scan_counterexample_exit_path(capsys, monkeypatch):
    # fabricate a violating finding to pin the distinguished exit status
    from wrkit import cli, extremal
    from fractions import Fraction

    fake = extremal.ScanFinding(
        graph="x", n=3, d=2, lambda1=Fraction(1), lambda2=Fraction(1),
        check="partition", lhs=Fraction(2), rhs=Fraction(1),
        relation=">", equality_expected=False,
    )
    monkeypatch.setattr(cli.extremal, "conjecture_scan", lambda catalog, grid: [fake])
    code, out, _ = run(capsys, "scan", "--catalog", "d2", "--grid", "1,1")
    assert code == EXIT_COUNTEREXAMPLE
    assert "COUNTEREXAMPLE" in out


def test_sample_command_deterministic(capsys):
    args = (
        "sample", "--builtin", "cycle:5", "--lambda", "1",
        "--burnin", "1000", "--samples", "5000", "--seed", "7",
    )
    code, out1, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert "mt19937" in out1
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_rejects_nonpositive_activity(capsys):
    # the exact activity is named, as every exact command names it
    for lam in ("-1", "0"):
        code, out, err = run(
            capsys, "sample", "--builtin", "cycle:5", "--lambda", lam, "--samples", "10"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: activity must be strictly positive, got {lam}\n"


def test_sample_rejects_activity_out_of_float_range(capsys):
    # 1e400 overflows a float, 1e-400 underflows to 0.0 and 1.0 + 1e-300
    # rounds to 1.0; the exact activity is named by its order of magnitude
    for lam, size in (("1e400", "large"), ("1e-400", "small"), ("1e-300", "small")):
        code, out, err = run(
            capsys, "sample", "--builtin", "cycle:5", "--lambda", lam, "--samples", "10"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: activity about {lam} is too {size} for the sampler's floats\n"


def test_sample_rejects_activity_too_large_for_the_sampler(capsys):
    # 1e308 is a float, but 1.0 + 2 * 1e308 is not
    code, out, err = run(
        capsys, "sample", "--builtin", "cycle:5", "--lambda", "1e308", "--samples", "10"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: activity about 1e308 is too large for the sampler's floats\n"


def test_huge_nonpositive_activity_is_named_in_one_short_line(capsys):
    for argv in (
        ("sample", "--builtin", "cycle:5", "--lambda=-1e30"),
        ("partition", "--builtin", "cycle:4", "--lambda=-1" + "0" * 30),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: activity must be strictly positive, got about -1e30\n"
        assert len(err.encode()) < 100


def test_sample_counts_past_the_chain_cap_are_capacity_errors(capsys):
    # each count at 10^20 takes the chain past sys.maxsize steps
    for flag in ("--burnin", "--samples", "--thin"):
        code, out, err = run(
            capsys, "sample", "--builtin", "cycle:5", "--lambda", "1", flag, str(10**20)
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err.startswith(f"capacity error: chain capped at {sys.maxsize} steps, got ")
        assert err.count("\n") == 1


def test_sample_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    for flags in ((), ("--burnin", "5")):
        code, out, err = run(capsys, "sample", "--file", str(empty), "--lambda", "1", *flags)
        assert code == EXIT_USAGE
        assert "estimate" not in out
        assert err == "error: graph has no vertices\n"


def test_sample_series_csv(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, _, _ = run(
        capsys, "sample", "--builtin", "cycle:3", "--lambda", "0.5",
        "--burnin", "10", "--samples", "20", "--seed", "1", "--csv", str(target),
    )
    assert code == EXIT_OK
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "step,coloured_fraction"
    assert len(lines) == 21


def test_usage_errors(capsys):
    code, _, err = run(capsys, "partition", "--builtin", "nonsense:3")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "lp", "--d", "2", "--lambda", "0")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "lp", "--d", "2", "--lambda", "1.5")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "partition", "--builtin", "complete:3", "--file", "x")
    assert code == EXIT_USAGE


def test_builtin_size_errors_keep_the_builders_reason(capsys):
    refused = {
        "prism:2": "prism needs k >= 3",
        "complete:0": "complete graph needs n >= 1",
        "cycle:2": "cycle needs n >= 3",
        "bipartite:0,3": "complete bipartite graph needs both sides >= 1",
        "random_regular:5,3,1": "n*d must be even, got n=5, d=3",
        "random_regular:4,4,0": "need 0 <= d < n, got d=4, n=4",
        "petersen:1": "petersen takes no parameters",
        # unparsable or wrong-arity parameters keep the generic message
        "cycle:x": "bad parameters in builtin spec 'cycle:x'",
        "cycle:3,4": "bad parameters in builtin spec 'cycle:3,4'",
        # empty parameters and empty union terms are refused, not skipped
        "cycle:,5": "empty parameter in builtin spec 'cycle:,5'",
        "complete:4,,": "empty parameter in builtin spec 'complete:4,,'",
        "petersen:": "empty parameter in builtin spec 'petersen:'",
        "cycle:5+": "empty term in builtin spec 'cycle:5+'",
        "cycle:5++cycle:3": "empty term in builtin spec 'cycle:5++cycle:3'",
    }
    for spec, reason in refused.items():
        code, out, err = run(capsys, "partition", "--builtin", spec)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {reason}\n"), spec


def test_configs_refuses_a_bad_activity_before_printing(capsys):
    for bad in ("1/0", "0", "-1", "1.5"):
        code, out, err = run(capsys, "configs", "--d", "3", "--lambda", bad)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1


def test_degree_errors_come_before_any_class_work(monkeypatch, capsys):
    # the reduced route refuses past its cap of 7, naming the route, before
    # any graph enumeration starts or any certificate arithmetic, whose
    # (1 + lam)^d alone takes seconds at d = 10^6
    from wrkit import configurations, lp

    def refuse(*args):
        raise AssertionError(f"work started on {args}")

    monkeypatch.setattr(configurations, "graphs_up_to_iso", refuse)
    monkeypatch.setattr(lp, "dual_certificate", refuse)
    for command in ("lp", "dualcert"):
        code, out, err = run(capsys, command, "--d", "0", "--lambda", "1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: degree must be >= 1, got 0\n")
        for d in ("8", "1000000"):
            code, out, err = run(capsys, command, "--d", d, "--lambda", "7/3")
            assert (code, out) == (EXIT_CAPACITY, "")
            assert err == f"capacity error: reduced class enumeration capped at 7, got {d}\n"
    for d in (8, 10**6):
        with pytest.raises(CapacityError) as refused:
            lp.uniqueness_check(d, Fraction(7, 3))
        assert str(refused.value) == f"reduced class enumeration capped at 7, got {d}"


def test_configs_refuses_d7_before_writing(monkeypatch, tmp_path, capsys):
    # the full route, and with it the per-class report, keeps its cap of 6
    from wrkit import configurations

    def refuse(*args):
        raise AssertionError(f"work started on {args}")

    monkeypatch.setattr(configurations, "graphs_up_to_iso", refuse)
    target = str(tmp_path / "out.csv")
    for flags in ((), ("--lambda", "1"), ("--lambda", "1", "--csv", target)):
        code, out, err = run(capsys, "configs", "--d", "7", *flags)
        assert (code, out) == (EXIT_CAPACITY, ""), flags
        assert err == "capacity error: configuration enumeration capped at 6, got 7\n"
    assert list(tmp_path.iterdir()) == []


def test_lp_and_dualcert_take_no_csv(tmp_path, capsys):
    # the per-class report is configs' alone
    target = str(tmp_path / "out.csv")
    for command in ("lp", "dualcert"):
        code, out, err = run(capsys, command, "--d", "3", "--lambda", "1", "--csv", target)
        assert (code, out) == (EXIT_USAGE, ""), command
        assert err == f"error: unrecognized arguments: --csv {target}\n"
    assert list(tmp_path.iterdir()) == []


def test_activity_errors_come_before_degree_errors(capsys):
    for command in ("lp", "dualcert", "configs"):
        code, out, err = run(capsys, command, "--d", "0", "--lambda", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: activity must be strictly positive, got -1\n"


def test_capacity_exit(capsys):
    code, _, err = run(capsys, "configs", "--d", "7")
    assert code == EXIT_CAPACITY


def test_vertex_cap_covers_builtin_specs(capsys):
    # refused before the adjacency is built, for an atom and for a union
    # of atoms each under the cap
    for spec in ("cycle:200000", "cycle:6000+cycle:6000"):
        code, out, err = run(capsys, "partition", "--builtin", spec)
        assert code == EXIT_CAPACITY
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert f"capped at {VERTEX_CAP} vertices" in err
        assert out == ""


def test_pairing_model_exhaustion_is_a_capacity_error(monkeypatch, capsys):
    import wrkit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "_PAIRING_RETRY_CAP", 0)
    code, out, err = run(capsys, "partition", "--builtin", "random_regular:10,3,0")
    assert code == EXIT_CAPACITY
    assert err.startswith("capacity error: pairing model failed ")
    assert err.count("\n") == 1
    assert out == ""


def test_huge_header_vertex_count_is_a_capacity_error(tmp_path, capsys):
    # rejected from the header alone, before a vertex table is allocated
    huge = tmp_path / "huge.txt"
    huge.write_text("100000000000 0\n")
    code, out, err = run(capsys, "partition", "--file", str(huge))
    assert code == EXIT_CAPACITY
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    assert "100000000000" in err
    assert out == ""


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "wrkit.cli", "dualcert", "--d", "1", "--lambda", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "violations=0" in result.stdout


def test_the_tree_builds_without_docstrings():
    # python -OO strips __doc__, which the top-level help reads at import
    result = subprocess.run(
        [sys.executable, "-OO", "-m", "wrkit.cli", "lp", "--d", "2", "--lambda", "1"],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "simplex optimum 8/15" in result.stdout


# For each command: a valid call, --flag=value, an abbreviation, "--", a
# negative number, an unknown flag, a missing required flag (or value),
# a stray positional and -h
PARSER_CASES = {
    "partition": [
        ["--builtin", "cycle:4", "--lambda", "1"],
        ["--builtin=cycle:4", "--lambda=2"],
        ["--bui", "cycle:4", "--lam", "1/2"],
        ["--builtin", "cycle:4", "--", "--lambda", "1"],
        ["--builtin", "cycle:4", "--lambda", "-1"],
        ["--builtin", "cycle:4", "--bogus"],
        ["--builtin"],
        ["--builtin", "cycle:4", "extra"],
        ["-h"],
    ],
    "occupancy": [
        ["--builtin", "cycle:4", "--lambda", "1"],
        ["--builtin=cycle:4", "--lambda1=1", "--lambda2=2"],
        ["--bui", "cycle:4", "--lam", "1"],
        ["--", "--builtin", "cycle:4", "--lambda", "1"],
        ["--builtin", "cycle:4", "--lambda", "-2"],
        ["--builtin", "cycle:4", "--lambda", "1", "--bogus=3"],
        ["--builtin", "cycle:4"],
        ["extra", "--builtin", "cycle:4", "--lambda", "1"],
        ["--help"],
    ],
    "verify": [
        ["--builtin", "cycle:4", "--d", "2", "--lambda", "1"],
        ["--builtin=cycle:4", "--d=2", "--lambda=1", "--lambda=2"],
        ["--bu", "cycle:4", "--d", "2", "--lam", "1"],
        ["--builtin", "cycle:4", "--d", "2", "--lambda", "1", "--"],
        ["--builtin", "cycle:4", "--d", "-2", "--lambda", "1"],
        ["--catalog", "d2", "--bogus"],
        ["--builtin", "cycle:4", "--lambda", "1"],
        ["--builtin", "cycle:4", "--d", "2", "extra"],
        ["-h"],
    ],
    "lp": [
        ["--d", "2", "--lambda", "1"],
        ["--d=2", "--lambda=3/2"],
        ["--d", "2", "--lam", "1"],
        ["--", "--d", "2", "--lambda", "1"],
        ["--d", "-1", "--lambda", "1"],
        ["--d", "2", "--lambda", "1", "--bogus"],
        ["--d", "2"],
        ["--d", "2", "--lambda", "1", "extra"],
        ["--help"],
    ],
    "dualcert": [
        ["--d", "2", "--lambda", "1"],
        ["--d=3", "--lambda=1/3"],
        ["--lam", "1", "--d", "2"],
        ["--d", "2", "--lambda", "1", "--"],
        ["--d", "2", "--lambda", "-1"],
        ["--d", "2", "--lambda", "1", "-x"],
        ["--lambda", "1"],
        ["extra", "--d", "2", "--lambda", "1"],
        ["-h"],
    ],
    "configs": [
        ["--d", "2"],
        ["--d=1", "--lambda=2"],
        ["--d", "1", "--lam", "1"],
        ["--d", "1", "--", "extra"],
        ["--d", "-3"],
        ["--d", "1", "--bogus"],
        [],
        ["--d", "1", "extra"],
        ["--help"],
    ],
    "sample": [
        ["--builtin", "cycle:4", "--lambda", "1", "--samples", "10", "--burnin", "5"],
        ["--builtin=cycle:4", "--lambda=0.5", "--samples=10", "--burnin=5", "--seed=3"],
        ["--builtin", "cycle:4", "--lam", "1", "--sam", "10", "--burn", "5"],
        ["--builtin", "cycle:4", "--lambda", "1", "--samples", "10", "--"],
        ["--builtin", "cycle:4", "--lambda", "1", "--samples", "-10"],
        ["--builtin", "cycle:4", "--lambda", "1", "--bogus"],
        ["--builtin", "cycle:4"],
        ["--builtin", "cycle:4", "--lambda", "1", "extra"],
        ["-h"],
    ],
    "scan": [
        ["--catalog", "d2", "--grid", "1,1"],
        ["--catalog=d2", "--grid=1,2"],
        ["--cat", "d2", "--gr", "1,1"],
        ["--catalog", "d2", "--grid", "1,1", "--"],
        ["--catalog", "d2", "--grid", "-1,1"],
        ["--catalog", "d2", "--bogus"],
        ["--catalog"],
        ["--catalog", "d2", "extra"],
        ["--help"],
    ],
}


def outcome(capsys, argv):
    """main's exit code (or SystemExit code), stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_tree_matches_a_fresh_one(monkeypatch, capsys):
    # parsing never modifies the tree: every argv, in order and then in
    # reverse, has the outcome it has through a tree built for it alone
    from wrkit import cli

    monkeypatch.setenv("COLUMNS", "80")
    assert list(PARSER_CASES) == list(COMMANDS)
    argvs = [[name, *rest] for name, cases in PARSER_CASES.items() for rest in cases]
    assert len(argvs) == 72
    for argv in argvs + argvs[::-1]:
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "PARSER", build_parser())
            expected = outcome(capsys, argv)
        assert outcome(capsys, argv) == expected, argv
        if argv[1:] in (["-h"], ["--help"]):
            assert expected[0] == ("exit", 0)
            assert expected[1].startswith(f"usage: wrkit {argv[0]} "), argv


def test_no_call_builds_a_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, err = run(capsys, "lp", "--d", "2", "--lambda", "1")
    assert (code, err) == (EXIT_OK, "")
    assert "simplex optimum 8/15" in out
    code, out, err = run(capsys, "lp", "--d", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: the following arguments are required: --lambda\n"
    code, out, _ = outcome(capsys, ["lp", "--help"])
    assert code == ("exit", 0)
    assert out.startswith("usage: wrkit lp ")


def test_an_unknown_command_is_named_on_one_short_line(capsys):
    # argparse would list all eight commands, on one line of 145 bytes
    for argv, name in (
        (["bogus"], "'bogus'"),
        (["LP", "--d", "2"], "'LP'"),
        (["--d", "2"], "'2'"),
        (["x" * 100], "'" + "x" * 35 + "..."),
        (["d\u00e9j\u00e0"], "'d\\xe9j\\xe0'"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: unknown command {name} (see wrkit --help)\n"
        assert len(err.encode()) < 100


def test_calls_without_a_command_get_the_tree(capsys):
    for argv in ([], ["bogus"], ["--d", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = outcome(capsys, ["-h"])
    assert code == ("exit", 0)
    assert out.startswith("usage: wrkit ")
    assert all(name in out for name in COMMANDS)


def test_rationals_round_trip_in_output(capsys):
    # every printed rational uses the p/q text format
    code, out, _ = run(capsys, "occupancy", "--builtin", "cycle:4", "--lambda", "1/3")
    assert code == EXIT_OK
    assert "occupancy(1/3) = " in out
    from wrkit.numerics import parse_rational

    value = out.strip().splitlines()[-1].split(" = ")[1]
    parse_rational(value)  # must parse back
