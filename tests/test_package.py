"""Package-wide source rules."""

import ast
import io
import re
import shlex
import tokenize
import types
from pathlib import Path

import wrkit
from wrkit.cli import main

PACKAGE = Path(wrkit.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_library_example_runs():
    # README's python block runs, and each "# value" comment is the repr of
    # the expression it follows, on its own line or on the line above
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    namespace = {}
    value = None
    checked = 0
    for line in text[start:text.index("```", start)].splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((tok.string for tok in tokens if tok.type == tokenize.COMMENT), "")
        code = line.removesuffix(comment).strip()
        if code:
            try:
                expression = compile(code, "README.md", "eval")
            except SyntaxError:
                exec(code, namespace)
                value = None
            else:
                value = repr(eval(expression, namespace))
        if comment:
            assert value == comment[1:].strip(), line
            checked += 1
    assert checked == 4


def test_readme_shell_examples_exit_0(monkeypatch, tmp_path, capsys):
    # every "wrkit ..." line of README's sh blocks runs through main, in a
    # scratch directory for the CSVs it writes, and exits 0
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("wrkit ")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    assert len(commands) == 11


def test_no_unused_imports():
    # every top-level import binding of a module (the package's __init__,
    # which re-exports, aside) is read as a name somewhere in that module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


EXPORTS = (
    "ActivityPair", "BivariatePolynomial", "BoundReport", "ConfigStats",
    "Configuration", "DualCertificate", "Graph", "IntPolynomial",
    "LPInstance", "ScanFinding", "alpha_K", "alpha_u", "alpha_v",
    "binomial_power", "build_primal", "canonical_labelled_form", "catalog",
    "check_regular", "complete_neighbourhood_config", "conjecture_scan",
    "count_configs", "disjoint_union", "dual_certificate",
    "empty_lists_config", "enumerate_configs", "estimate_occupancy",
    "format_rational", "is_union_of_complete", "is_valid_colouring",
    "local_partition_functions", "make_complete", "make_complete_bipartite",
    "make_cycle", "make_petersen", "make_prism", "make_random_regular",
    "occupancy_by_colour", "occupancy_fraction", "parse_edge_list",
    "parse_rational", "simplex_solve", "single_colour_config",
    "uniqueness_check", "verify_dual_feasibility", "verify_hom_bound",
    "verify_occupancy_bound", "verify_partition_bound",
    "vertex_enumeration_solve", "weighted_occupancy", "wr_partition",
    "wr_partition_bivariate", "wr_partition_brute",
)


def test_the_export_list_is_exactly_this():
    # a name joins or leaves the package's top level only through this list
    exported = sorted(
        name for name, value in vars(wrkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(exported) == EXPORTS
