"""The checked-in mutant list: each entry deletes or weakens one
cross-check guard, silences a violated dual constraint, breaks one state
update of the partition engine, misaligns the batched walk of the full
classes, names a batch's first class for a later pair's failed check,
drops a part of the certificate's one-vertex augmentation, slips one
term of a closed form, misreads verify's one pass per graph, or lets an
exception escape the command line, and names the tests that must kill
it.

An entry is (file, old text, new text, test node ids), the file and the
node ids relative to the repository root; the old text occurs exactly
once in its file (test_cross_checks checks that without running
anything).  Run the list from the repository root with

    python tests/mutants.py

It copies src/ and tests/ to a temporary directory and requires every
named test to pass there.  Then, per entry, it applies the one mutant to
a fresh copy and requires its named tests to fail (pytest exit code 1).
It prints one line per mutant and exits 1 if the unmutated tests fail or
any mutant survives.  pytest does not collect this file: its name does
not start with test_.

A change that adds a cross-check adds its mutant here; one that deletes
a check deletes its mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LP = "src/wrkit/lp.py"
CROSS = "tests/test_cross_checks.py::"
CONFIGURATIONS = "src/wrkit/configurations.py"
SHARED_VALUES = "tests/test_lp.py::test_shared_values_match_direct_evaluation"
AUGMENTED = "tests/test_configurations.py::test_augmented_signatures_are_the_reduced_classes"
PARTITION = "src/wrkit/partition.py"
PARTITION_TESTS = "tests/test_partition.py::"
EXTREMAL = "src/wrkit/extremal.py"
VERIFY_ONCE = "tests/test_extremal.py::test_each_graph_is_checked_once_against_the_direct_routes"

MUTANTS = (
    (
        LP,
        "elif (slack > 0) != (slack2 > 0) or (slack == 0) != (slack2 == 0):",
        "elif False:",
        [CROSS + "test_slack_routes_disagree_on_a_flipped_sign"],
    ),
    (
        LP,
        "elif (slack > 0) != (slack2 > 0) or (slack == 0) != (slack2 == 0):",
        "elif (slack > 0) != (slack2 > 0):",
        [CROSS + "test_slack_routes_disagree_on_the_zero_set"],
    ),
    (
        LP,
        "if form_a != form_b:",
        "if False:",
        [CROSS + "test_closed_forms_of_lambda_c_disagree"],
    ),
    (
        LP,
        "if slack:",
        "if False:",
        [CROSS + "test_empty_list_constraint_not_tight"],
    ),
    (
        LP,
        "if key not in predicted:",
        "if False:",
        [CROSS + "test_a_tight_class_outside_the_predicted_cases"],
    ),
    (
        LP,
        "if key not in tight:",
        "if False:",
        [CROSS + "test_a_predicted_tight_class_that_is_not_tight"],
    ),
    (
        LP,
        "if not x_u < x_v:",
        "if False:",
        [CROSS + "test_uniqueness_needs_alpha_u_below_alpha_v"],
    ),
    (
        LP,
        "if list(sol.support) != [(complete, 1)]:",
        "if False:",
        [CROSS + "test_uniqueness_needs_each_solver_on_the_complete_neighbourhood"],
    ),
    (
        LP,
        "if slack < 0:",
        "if False:",
        [CROSS + "test_a_violation_is_named_by_its_first_class"],
    ),
    (
        LP,
        "if walked != len(report.rows):",
        "if False:",
        [CROSS + "test_report_rows_need_the_counted_classes"],
    ),
    (
        LP,
        "bound = (1 + lam) * _clique_ratio(d, lam)",
        "bound = (1 + lam) * _clique_ratio(d + 1, lam)",
        ["tests/test_lp.py::test_verify_dual_feasibility_no_violations"],
    ),
    (
        CONFIGURATIONS,
        "if packed & low_mask != low:",
        "if False:",
        [
            "tests/test_configurations.py::test_stats_errors_name_the_class",
            "tests/test_lp.py::test_signature_table_errors_name_the_reduced_class",
        ],
    ),
    (
        CONFIGURATIONS,
        "if has_dichromatic != (packed != one_colour[a1] + one_colour[a2] - 1):",
        "if False:",
        ["tests/test_configurations.py::test_a_wrong_dichromatic_flag_is_a_verification_error"],
    ),
    (
        CONFIGURATIONS,
        'f"{name(i).key_text()}: low coefficients',
        'f"{name(0).key_text()}: low coefficients',
        ["tests/test_configurations.py::test_a_later_pairs_failure_names_its_class"],
    ),
    (
        CONFIGURATIONS,
        "for c in batch]",
        "for c in batch[::-1]]",
        [SHARED_VALUES],
    ),
    (
        CONFIGURATIONS,
        "lambda config: config.graph",
        "lambda config: config.d",
        [SHARED_VALUES],
    ),
    (
        CONFIGURATIONS,
        "moment12 = p * (a1 * t1 + a2 * t2) // s",
        "moment12 = p * (a1 * t1 + a1 * t2) // s",
        [SHARED_VALUES],
    ),
    (
        CONFIGURATIONS,
        "for graph, lists in parents:",
        "for graph, lists in parents[:-1]:",
        [AUGMENTED],
    ),
    (
        CONFIGURATIONS,
        "for n in range(bit - 1, -1, -1):",
        "for n in range(bit - 2, -1, -1):",
        [AUGMENTED],
    ),
    (
        CONFIGURATIONS,
        "(BOTH_COLOURS, (base + via_1 + via_2, *both)),",
        "(BOTH_COLOURS, None),",
        [AUGMENTED],
    ),
    (
        CONFIGURATIONS,
        "if signature(a1, a2, packed) != firsts[i]:",
        "if False:",
        ["tests/test_configurations.py::test_a_signature_off_its_walk_names_its_class"],
    ),
    (
        CONFIGURATIONS,
        "sum(c // 2 for c in cycles)",
        "sum((c + 1) // 2 for c in cycles)",
        ["tests/test_configurations.py::test_count_configs_matches_the_burnside_oracle"],
    ),
    (
        "src/wrkit/numerics.py",
        "except ZeroDivisionError as exc:",
        "except ValueError as exc:",
        ["tests/test_cli_fuzz.py::test_fuzzed_argvs_exit_cleanly"],
    ),
    (
        PARTITION,
        "if list(states) != [empty]:",
        "if False:",
        [
            PARTITION_TESTS
            + "test_an_elimination_left_with_open_states_is_a_verification_error"
        ],
    ),
    (
        PARTITION,
        "poly << closed",
        "poly",
        [PARTITION_TESTS + "test_elimination_matches_census_oracle"],
    ),
    (
        PARTITION,
        "state & bit2",
        "state & bit",
        [PARTITION_TESTS + "test_elimination_matches_census_oracle"],
    ),
    (
        PARTITION,
        "for j in range(n + 1 - i):",
        "for j in range(n - i):",
        [PARTITION_TESTS + "test_elimination_matches_census_oracle"],
    ),
    (
        "src/wrkit/simplex.py",
        "if remainder:",
        "if False:",
        ["tests/test_simplex.py::test_a_wrong_determinant_is_a_verification_error"],
    ),
    (
        EXTREMAL,
        "value_g ** (d + 1)",
        "value_g ** d",
        [VERIFY_ONCE],
    ),
    (
        EXTREMAL,
        "n, expected = g.n, is_union_of_complete(g, d + 1)",
        "n, expected = g.n, is_union_of_complete(g, d)",
        [VERIFY_ONCE],
    ),
)


def copy_tree(into: Path) -> None:
    """src/ and tests/ of the repository, without bytecode, under into."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for the named tests on the tree."""
    env = {**os.environ, "PYTHONPATH": "src"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        code = run_tests(Path(tmp), named)
    if code != 0:
        print(f"the named tests fail on the unmutated tree (pytest exit {code})")
        return 1
    survivors = 0
    for path, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            target = Path(tmp) / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"{path}: {old!r} does not occur exactly once")
                return 1
            target.write_text(text.replace(old, new))
            code = run_tests(Path(tmp), tests)
        killed = code == 1
        survivors += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict} (pytest exit {code}): {path}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
