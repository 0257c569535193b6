"""Fault injection: each cross-check of the certificate fires when one of
its routes is patched to disagree, with the message that names the class
where the guard does.  Deleting any one of these guards makes its test
fail, as tests/mutants.py checks.  Then a violation planted in both slack
forms is named by its reduced classes: dualcert exits 3 and lists no full
class.  Last, the mutant list's texts and test names are checked against
the files they name."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from wrkit import cli, configurations, lp
from wrkit.configurations import (
    count_configs,
    empty_lists_config,
    reduced_config,
    signature,
    signature_classes,
)
from wrkit.errors import VerificationError
from wrkit.occupancy import alpha_K

F = Fraction


def slack_forms(d, lam):
    """Both slack forms per signature at (d, lam), unpatched."""
    cert = lp.dual_certificate(d, lam)
    return list(lp._slack_numerators(cert, (s[4:] for s in lp._signature_table(d, lam))))


def first_slack_signature(d, lam, after=-1):
    """The index of the first signature past index after whose lists are
    not all empty and whose dual constraint is slack."""
    return next(
        i for i, (s, _, _, den2) in enumerate(slack_forms(d, lam))
        if i > after and s > 0 and den2 > 0
    )


def plant(monkeypatch, j, change):
    """Patch _slack_numerators so that signature j's forms are
    change(cert, column, forms); the others are left as computed."""
    numerators = lp._slack_numerators

    def planted(cert, columns):
        columns = list(columns)
        for i, (column, forms) in enumerate(zip(columns, numerators(cert, columns))):
            yield change(cert, column, forms) if i == j else forms

    monkeypatch.setattr(lp, "_slack_numerators", planted)


def disagreement(d, lam, j):
    """The pattern of the slack routes' disagreement on signature j's first class."""
    return f"^slack routes disagree on {re.escape(lp._signature_table(d, lam)[j][0].key_text())}: "


def test_slack_routes_disagree_on_a_flipped_sign(monkeypatch):
    d, lam = 3, F(1)
    j = first_slack_signature(d, lam)
    plant(monkeypatch, j, lambda cert, column, f: (f[0], f[1], -f[2], f[3]))
    with pytest.raises(VerificationError, match=disagreement(d, lam, j)):
        lp.feasibility(d, lam)


def test_slack_routes_disagree_on_the_zero_set(monkeypatch):
    # the claims form is zero on a class that is not tight, where the
    # alpha form reads violated: neither form is positive, so only the
    # zero sets disagree
    d, lam = 3, F(1)
    j = first_slack_signature(d, lam)
    plant(monkeypatch, j, lambda cert, column, f: (-f[0], f[1], 0, f[3]))
    with pytest.raises(VerificationError, match=disagreement(d, lam, j)):
        lp.feasibility(d, lam)


def test_a_tight_class_outside_the_predicted_cases(monkeypatch):
    # a slack signature planted at 0 in both forms: its first class is
    # tight but none of the four the certificate predicts
    d, lam = 3, F(1)
    j = first_slack_signature(d, lam)
    plant(monkeypatch, j, lambda cert, column, f: (0, f[1], 0, f[3]))
    message = f"^tight class {re.escape(lp._signature_table(d, lam)[j][0].key_text())} "
    with pytest.raises(VerificationError, match=message + "outside the predicted cases$"):
        lp.feasibility(d, lam)


def test_a_predicted_tight_class_that_is_not_tight(monkeypatch):
    # the signature of the independent set listed {1}, which its swap
    # listed {2} shares, found by its key from the canonical listing,
    # planted slack in both forms
    d, lam = 3, F(1)
    firsts, classes, _ = signature_classes(d)
    _, a1, a2, p0 = firsts[next(i for entry, i in classes if entry[3] == (1,) * d)]
    j = configurations.certificate_signatures(d)[1][configurations.signature(a1, a2, p0)]
    plant(monkeypatch, j, lambda cert, column, f: (1, f[1], 1, f[3]))
    with pytest.raises(
        VerificationError, match=r"^predicted tight class d=3;edges=;lists=1,1,1 is not tight$"
    ):
        lp.feasibility(d, lam)


def test_closed_forms_of_lambda_c_disagree(monkeypatch):
    monkeypatch.setattr(lp, "alpha_K", lambda d, lam: alpha_K(d, lam) + F(1, 10**9))
    with pytest.raises(VerificationError, match="^closed forms of lambda_c disagree: "):
        lp.dual_certificate(3, F(1))


def test_empty_list_constraint_not_tight(monkeypatch):
    # the empty lists' constraint priced with a lambda_c off by 1/7: a
    # certificate fitted elsewhere leaves it slack
    d, lam = 3, F(1)
    signatures = lp._signature_table(d, lam)
    j = next(i for i, (_, a1, a2, *_) in enumerate(signatures) if not a1 + a2)
    numerators = lp._slack_numerators

    def shifted(cert, column, forms):
        moved = replace(cert, lambda_c=cert.lambda_c + F(1, 7))
        return next(numerators(moved, [column]))

    plant(monkeypatch, j, shifted)
    with pytest.raises(VerificationError, match="^empty-list constraint not tight; "):
        lp.feasibility(d, lam)


def test_uniqueness_needs_alpha_u_below_alpha_v(monkeypatch):
    # the independent set listed {1} read with the complete
    # neighbourhood's signature, whose column has alpha_u = alpha_v
    signatures = lp.tight_reduced_signatures

    def swapped(d):
        empty, single, swap, complete = signatures(d)
        return empty, complete, swap, complete

    monkeypatch.setattr(lp, "tight_reduced_signatures", swapped)
    with pytest.raises(
        VerificationError, match=r"^expected alpha_u < alpha_v on d=3;edges=;lists=1,1,1$"
    ):
        lp.uniqueness_check(3, F(1))


def test_uniqueness_needs_each_solver_on_the_complete_neighbourhood(monkeypatch):
    # the enumeration solver reaches the optimum's value on another support
    solve = lp.vertex_enumeration_solve

    def elsewhere(instance):
        solution = solve(instance)
        return lp.LPSolution(solution.status, solution.value, ((empty_lists_config(3), F(1)),))

    monkeypatch.setattr(lp, "vertex_enumeration_solve", elsewhere)
    with pytest.raises(
        VerificationError, match="^enumeration solver support is not the complete neighbourhood$"
    ):
        lp.uniqueness_check(3, F(1))


def test_report_rows_need_the_counted_classes(monkeypatch):
    monkeypatch.setattr(lp, "count_configs", lambda d: count_configs(d) + 1)
    _, report = lp.feasibility(3, F(1))
    with pytest.raises(VerificationError, match="^120 classes enumerated, 121 counted$"):
        report.rows[0]


def name_a_planted_violation(monkeypatch, capsys, d, j):
    """Plant signature j of the certificate's table negative in both slack
    forms: dualcert must exit 3, list no full class and count exactly the
    reduced classes of that signature, found in the canonical listing by
    the row's key, since the two order their signatures differently."""
    lam = F(1)

    def refuse(d):
        raise AssertionError(f"full classes enumerated at d = {d}")

    for module in (configurations, cli):
        monkeypatch.setattr(module, "enumerate_configs", refuse)
    plant(monkeypatch, j, lambda cert, column, f: (-f[0], f[1], -f[2], f[3]))
    assert cli.main(["dualcert", "--d", str(d), "--lambda", "1"]) == cli.EXIT_MISMATCH
    out = capsys.readouterr().out
    count = int(re.fullmatch(r"Lambda_p=\S+ Lambda_c=\S+ violations=(\d+) tight=\d+\n", out)[1])
    _, report = lp.feasibility(d, lam)
    _, a1, a2, packed = lp._signature_table(d, lam)[j][:4]
    _, classes, index = signature_classes(d)
    i = index[signature(a1, a2, packed)]
    expected = tuple(reduced_config(*entry) for entry, k in classes if k == i)
    assert count == len(report.violations) >= 1
    assert report.violations == expected
    return i


def test_a_violation_is_named_by_its_reduced_classes(monkeypatch, capsys):
    # one slack signature planted negative in both forms: dualcert names
    # the violation from the reduced classes and exits 3, where listing the
    # full classes would trip the refusal (and, at d = 7, the full route's
    # capacity error)
    d = 6
    name_a_planted_violation(monkeypatch, capsys, d, first_slack_signature(d, F(1)))


def test_a_violation_past_index_2_is_named_by_its_key(monkeypatch, capsys):
    # from index 2 on, a signature's index in the certificate's table is
    # not its index in the canonical listing, so only its key names it
    d = 4
    j = first_slack_signature(d, F(1), after=2)
    assert name_a_planted_violation(monkeypatch, capsys, d, j) != j


def test_each_mutant_names_its_text_and_tests():
    # tests/mutants.py, read without running it: each old text occurs
    # exactly once in its file, and each named test is defined in its file
    from mutants import MUTANTS, ROOT

    for path, old, new, tests in MUTANTS:
        assert old != new
        assert (ROOT / path).read_text().count(old) == 1, (path, old)
        for node in tests:
            test_file, name = node.split("::")
            source = (ROOT / test_file).read_text()
            assert re.search(rf"^def {name}\(", source, re.MULTILINE), node
