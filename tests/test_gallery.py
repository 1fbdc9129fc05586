"""The counterexample gallery as a regression suite."""

import pytest

from latring import UnknownCase, gallery
from latring.gallery import CASE_IDS, load_expected, run_all, run_case


def test_all_cases_pass():
    for case_id in CASE_IDS:
        report = run_case(case_id)
        assert report.passed, f"{case_id}: {report.diffs}"


def test_case_ids_are_the_shipped_four():
    assert set(CASE_IDS) == {
        "A_product_identity",
        "B_zero_mult_identity",
        "C_linfty_product_vs_norm",
        "D_fring_failure_matrix",
    }


def test_unknown_case_rejected():
    with pytest.raises(UnknownCase):
        run_case("E_no_such_case")


def test_corrupted_expectation_surfaces_as_named_diff():
    expected = load_expected()
    expected["A_product_identity"] = dict(expected["A_product_identity"])
    flags = dict(expected["A_product_identity"]["flags"])
    flags["continuous"] = False
    expected["A_product_identity"]["flags"] = flags
    report = run_case("A_product_identity", expected)
    assert not report.passed
    assert any(d.startswith("flags.continuous") for d in report.diffs)


def test_run_all_aggregates_cases_and_laws():
    suite = run_all(seed=0, cases=60)
    assert suite.passed
    assert len(suite.cases) == 4
    assert any(r.name == "positive-part-vertex-oracle" for r in suite.law_results)
    assert any(r.name.endswith("f-ring-counterexample") for r in suite.law_results)


def test_narratives_present():
    for case_id in CASE_IDS:
        report = run_case(case_id)
        assert len(report.narrative) > 40


def test_run_cases_reads_the_expectations_once(monkeypatch):
    reads = []
    monkeypatch.setattr(gallery, "load_expected", lambda: reads.append(1) or load_expected())
    reports = gallery.run_cases()
    assert [r.case_id for r in reports] == list(CASE_IDS) and all(r.passed for r in reports)
    assert len(reads) == 1
