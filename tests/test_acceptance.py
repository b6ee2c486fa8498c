"""Acceptance criteria, one test per criterion, one printed line per check.

Two criteria contain sub-assertions of literature values that the
computation refutes (criterion 4's width multiset and criterion 7's
component count); those tests fail on purpose, with the analysis in
README "Known discrepancies".  Every other check must pass exactly.
"""

import pytest

from nielsen_forge.goldens import CRITERIA, KNOWN_DISCREPANCIES


def _run(key):
    checks = CRITERIA[key]()
    lines = []
    failures = []
    for c in checks:
        status = "pass" if c.ok else "FAIL"
        lines.append(f"{key}: {c.name}: {status} ({c.detail})")
        if not c.ok:
            failures.append(c)
    print()
    for line in lines:
        print(line)
    if failures:
        noted = [c.name for c in failures if c.name in KNOWN_DISCREPANCIES]
        msg = "; ".join(f"{c.name}: {c.detail}" for c in failures)
        if noted and len(noted) == len(failures):
            msg += "  [documented discrepancy; see README 'Known discrepancies']"
        pytest.fail(msg)


def test_c01_a4_level0():
    _run("c1")


def test_c02_sh_incidence_tables():
    _run("c2")


def test_c03_gamma_fixed_points():
    _run("c3")


def test_c04_a5_c34():
    # widths-as-stated contradict Riemann-Hurwitz; fails by design
    _run("c4")


def test_c05_a5_c53_r3():
    _run("c5")


def test_c06_dihedral_towers():
    _run("c6")


def test_c07_lattice_family():
    # component count as stated is half the computed truth; fails by design
    _run("c7")


def test_c08_hm_existence():
    _run("c8")


def test_c09_obstruction_fiber():
    _run("c9")


def test_c10_spin_and_factorization():
    _run("c10")


def test_c11_frattini_checks():
    _run("c11")


def test_c12_jennings():
    _run("c12")


def test_c13_congruence_screens():
    _run("c13")


def test_c14_property_suites():
    _run("c14")


def test_c14_reads_only_its_typed_errors_as_failed_checks(monkeypatch):
    # a cusp-type defect is a failed sub-check; an unrelated error is not
    import nielsen_forge.goldens as goldens
    from nielsen_forge.errors import InconsistentType

    def raising(exc):
        def classify_cusp(cusp, p):
            raise exc

        return classify_cusp

    monkeypatch.setattr(goldens, "classify_cusp", raising(KeyError(0)))
    with pytest.raises(KeyError):
        goldens.criterion_14()
    monkeypatch.setattr(goldens, "classify_cusp", raising(InconsistentType("mixed")))
    failed = [c.name for c in goldens.criterion_14() if not c.ok]
    assert failed == ["c14.cusp-type-constancy"]
