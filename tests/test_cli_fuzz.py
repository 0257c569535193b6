"""A grammar fuzzer for the command line: random argvs for the eight
commands, good and bad values in random flag orders, sometimes under a
command name outside the eight, sent through cli.main in-process.  Each
run must exit 0-4, and a refused run must say why on one stderr line of
under 100 bytes, with no traceback.

The grammar is bounded so that each run is cheap: degrees up to 5,
graphs up to 16 vertices, sampler runs up to 10^3 samples.  The huge
values (10^20 samples, d = 8) are left to the refusal loop in CI, which
checks them without running them.  A fixed hypothesis seed keeps the
examples the same from run to run.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wrkit import cli

# each pool is (good values, bad values); a flag takes a good one three
# times in four
RATIONALS = (
    ("1", "2", "1/3", "7/3", "10", "1000000/999999", "1/1000000", "+3/2", "2 "),
    ("1/0", "0", "-1", "0/5", "x", "1.5", ""),
)
# the sampler takes float text as well
FLOATS = (
    RATIONALS[0] + ("0.5", "3e2"),
    RATIONALS[1] + ("1e-300", "1e-400", "-1e30", "nan", "inf"),
)
DEGREES = (("1", "2", "3", "4", "5"), ("-1", "0", "x", "", "2.5"))
SPECS = (
    (
        "complete:4", "cycle:5", "cycle:5+cycle:3", "petersen", "prism:4", "bipartite:3,3",
        "random_regular:10,3,1", "random_regular:16,3,2", "complete:16",
    ),
    (
        "complete:0", "prism:2", "petersen:1", "cycle:", "cycle:5+", "bogus", "",
        "random_regular:9,3,1",
    ),
)
# edge-list files in the run's directory (see FILES), a missing one, an
# empty path and a directory
FILE_PATHS = (("good.txt",), ("bad.txt", "empty.txt", "binary.txt", "missing.txt", "", "."))
FILES = {
    "good.txt": b"5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "bad.txt": b"3 1\n0 5\n",
    "empty.txt": b"0 0\n",
    "binary.txt": b"\xff\xfe",
}
CSV_PATHS = (("out.csv",), ("nodir/out.csv", "", "."))
CATALOGS = (("d2", "d3", "all"), ("d4", ""))
GRIDS = (("1,1;2,1", "1/3,3", "7/3,3/7", "1,1;"), ("", "1,1,1", "x,1", "1,0", "1/0,1", ";"))
COUNTS = (("1", "10", "1000"), ("0", "-1", "x"))
THINS = (("1", "2", "3"), ("0", "-1"))
SEEDS = (("0", "7", "-3"), ("x",))

GRAPH = {"--builtin": SPECS, "--file": FILE_PATHS}
# a graph command's sources: mostly one, sometimes none or both
SOURCES = (("--builtin",), ("--builtin",), ("--file",), (), ("--builtin", "--file"))
FLAGS = {
    "partition": {**GRAPH, "--lambda": RATIONALS},
    "occupancy": {**GRAPH, "--lambda": RATIONALS, "--lambda1": RATIONALS, "--lambda2": RATIONALS},
    "verify": {
        **GRAPH, "--catalog": CATALOGS, "--d": DEGREES, "--lambda": RATIONALS, "--csv": CSV_PATHS,
    },
    "lp": {"--d": DEGREES, "--lambda": RATIONALS},
    "dualcert": {"--d": DEGREES, "--lambda": RATIONALS},
    "configs": {"--d": DEGREES, "--lambda": RATIONALS, "--csv": CSV_PATHS},
    "sample": {
        **GRAPH, "--lambda": FLOATS, "--burnin": COUNTS, "--samples": COUNTS,
        "--thin": THINS, "--seed": SEEDS, "--csv": CSV_PATHS,
    },
    "scan": {"--catalog": CATALOGS, "--grid": GRIDS, "--csv": CSV_PATHS},
}
STRAYS = ("--bogus", "extra", "--d", "--lambda=1", "-x")
# command names outside the eight: a typo, another case, an empty one, a
# long one, one outside ASCII
UNKNOWN_COMMANDS = ("bogus", "LP", "certify", "lp2", "", "partition" * 12, "d\u00e9j\u00e0")


@st.composite
def argvs(draw):
    """One command, a graph source as SOURCES draws it, and each of its
    other flags with even odds, in any order, each as "--flag value" or
    "--flag=value" (verify's --lambda sometimes twice), and sometimes one
    stray token; one time in eight the command's name is replaced by one
    outside the eight."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    names = [name for name in sorted(flags) if name not in GRAPH and draw(st.booleans())]
    if "--builtin" in flags:
        names += draw(st.sampled_from(SOURCES))
    if command == "verify" and "--lambda" in names and draw(st.booleans()):
        names.append("--lambda")
    argv = [command]
    for name in draw(st.permutations(names)):
        good, bad = flags[name]
        value = draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.integers(0, 5)) == 5:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAYS)))
    if draw(st.integers(0, 7)) == 7:
        argv[0] = draw(st.sampled_from(UNKNOWN_COMMANDS))
    return argv


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
# a zero denominator in each activity parser, always tried
@example(argv=["lp", "--d", "3", "--lambda", "1/0"])
@example(argv=["occupancy", "--builtin", "cycle:5", "--lambda1=1/0", "--lambda2", "1"])
@example(argv=["scan", "--catalog", "d2", "--grid", "1,1/0"])
@example(argv=["sample", "--builtin", "cycle:5", "--lambda", "1/0", "--samples", "10"])
# an unknown command, which argparse would refuse by listing all eight
@example(argv=["bogus"])
def test_fuzzed_argvs_exit_cleanly(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, content in FILES.items():
        (tmp_path / name).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(5), (argv, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        assert len(err.getvalue().encode()) < 100, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
