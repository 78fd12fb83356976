import json

import pytest

from bweyl import VerificationError
from bweyl.suites import (
    SWEEP_POINTS,
    default_sweep_points,
    run_suite,
    suite_atlas_ellparts,
    suite_cyclotomic_lemma,
    suite_hl_structure,
    suite_mutation,
    suite_tits_core,
    suite_wreath,
)
from bweyl.tits import ExtendedWeylGroup


def test_sweep_points_admissible():
    for (d0, t_l, m, d) in SWEEP_POINTS:
        assert 2 * d0 * t_l <= 18
        assert d in (d0, 2 * d0)
    assert (5, 1, 0, 5) in SWEEP_POINTS
    assert all(p[0] != 5 or p[1] == 1 for p in SWEEP_POINTS)


def test_default_sweep_is_ordered():
    pts = default_sweep_points()
    assert pts == sorted(pts, key=lambda p: (p[0], p[1], p[2], p[3]))


def test_cyclotomic_suite_small():
    report = suite_cyclotomic_lemma(ells=(5,), q_max=12, k_max=10)
    assert report.passed
    assert {c.check_id for c in report.checks} == {
        "valuation-inequality", "index-set"}


def test_tits_core_suite_small():
    report = suite_tits_core(random_triples=200)
    assert report.passed


# products made by suite_tits_core(random_triples=2000), counted once the
# exhaustive rank-2 axioms read the closure's Cayley table, the random
# elements are word lifts, not chains of products, and the closures multiply
# by the generators alone
TITS_CORE_2000_MUL_CEILING = 14363


def test_tits_core_mul_calls_do_not_grow(monkeypatch):
    calls = []
    mul = ExtendedWeylGroup.mul
    monkeypatch.setattr(ExtendedWeylGroup, "mul",
                        lambda self, x, y: calls.append(None) or mul(self, x, y))
    assert suite_tits_core(random_triples=2000).passed
    assert len(calls) <= TITS_CORE_2000_MUL_CEILING


# products made by the default suite_hl_structure(), counted once each
# context builds only the group, v_l and h_0 that the rank check reads, one
# context per (l, d) serves both q, and the twisted Frobenius of a torus
# element is the Weyl action alone; the rank solve itself makes 414 of them
# per q
HL_STRUCTURE_MUL_CEILING = 1412


def test_hl_structure_mul_calls_do_not_grow(monkeypatch):
    calls = []
    mul = ExtendedWeylGroup.mul
    monkeypatch.setattr(ExtendedWeylGroup, "mul",
                        lambda self, x, y: calls.append(None) or mul(self, x, y))
    assert suite_hl_structure().passed
    assert len(calls) <= HL_STRUCTURE_MUL_CEILING


def test_hl_structure_context_that_fails_to_build_fails_every_q(monkeypatch):
    from bweyl import supplement

    def broken(l, d, m):
        raise VerificationError("twist orbits do not have the expected shape",
                                {"l": l, "d": d})

    monkeypatch.setattr(supplement, "SupplementContext", broken)
    report = suite_hl_structure(d0_values=(1,), l_cap=2, q_values=(3, 5))
    assert [c.check_id for c in report.checks] == [
        "hl-rank-l2-d1-q3", "hl-rank-l2-d1-q5", "hl-rank-l2-d2-q3", "hl-rank-l2-d2-q5"]
    assert not any(c.passed for c in report.checks)
    assert [c.counterexample for c in report.checks[:2]] == [
        {"l": 2, "d": 1, "error": "twist orbits do not have the expected shape"}] * 2
    assert [c.counterexample for c in report.checks[2:]] == [
        {"l": 2, "d": 2, "error": "twist orbits do not have the expected shape"}] * 2


def test_hl_structure_builds_one_context_per_l_and_d(monkeypatch):
    from bweyl import supplement

    builds = []
    build = supplement.SupplementContext
    monkeypatch.setattr(supplement, "SupplementContext",
                        lambda *args: builds.append(args) or build(*args))
    assert suite_hl_structure(d0_values=(1,), l_cap=4, q_values=(3, 5, 7)).passed
    assert builds == [(2, 1, 0), (2, 2, 0), (4, 1, 0), (4, 2, 0)]


def test_atlas_suite_that_checked_no_row_fails():
    # every q a multiple of every ell: no row is enumerated
    report = suite_atlas_ellparts(n_max=4, ells=(5,), q_values=(5,))
    assert report.params["rows"] == 0
    footnote = next(c for c in report.checks if c.check_id == "footnote-and-ellpart")
    assert not footnote.passed and footnote.counterexample["rows"] == 0
    assert not report.passed


# l-part evaluations of suite_atlas_ellparts at the atlas arguments of the
# verify-cli benchmark workload: two per Levi datum (case, n, d, m) and
# (ell, q), 1,026 data over the 10,152 rows
ATLAS_VERIFY_CLI_ELL_PART_CEILING = 2052


def test_atlas_ell_part_evaluations_do_not_grow(monkeypatch):
    from bweyl import atlas

    calls = []
    evaluate = atlas.generic_order_eval_ell_part
    monkeypatch.setattr(atlas, "generic_order_eval_ell_part",
                        lambda g, ctx: calls.append(None) or evaluate(g, ctx))
    report = suite_atlas_ellparts(n_max=11, ells=(5, 7, 11, 13),
                                  q_values=(2, 3, 4, 5, 7, 8, 9))
    assert report.passed and report.params["rows"] == 10152
    assert len(calls) <= ATLAS_VERIFY_CLI_ELL_PART_CEILING


def test_tits_core_detects_broken_cocycle():
    report = suite_tits_core(random_triples=200, cocycle_rule="ascent")
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert all(c.counterexample for c in failing)


def test_hl_suite_small():
    report = suite_hl_structure(d0_values=(1,), l_cap=6, q_values=(3,))
    assert report.passed
    assert len(report.checks) == 6  # l in {2,4,6} x two parities


def test_suite_that_checked_nothing_does_not_pass():
    report = suite_hl_structure(d0_values=())
    assert report.checks == []
    assert not report.passed
    assert report.as_dict()["passed"] is False


def test_hl_suite_passes_at_l28():
    # 2^28 order-2 torus vectors: the rank is solved for, not enumerated
    report = suite_hl_structure(d0_values=(7,), l_cap=28, q_values=(3,))
    assert [c.check_id for c in report.checks] == [
        "hl-rank-l14-d7-q3", "hl-rank-l14-d14-q3",
        "hl-rank-l28-d7-q3", "hl-rank-l28-d14-q3"]
    assert report.passed


def test_wreath_suite():
    assert suite_wreath(m_max=3, t_max=3).passed


def test_wreath_degrees_off_their_order_are_a_failed_check(monkeypatch):
    from bweyl import charext

    # every tableau count 1: wrong only for the shape (2, 1), so at t = 3
    monkeypatch.setattr(charext, "standard_tableaux_count", lambda shape: 1)
    report = suite_wreath(m_max=2, t_max=3)
    [check] = report.checks
    assert check.check_id == "sum-of-squares" and not report.passed
    assert check.counterexample == {"failures": [(1, 3), (2, 3)]}


def test_mutation_suite():
    report = suite_mutation(rank=2)
    assert report.passed


def test_point_suite_dispatch():
    report = run_suite("supplement", point=(1, 1, 0, 1))
    assert report.passed
    with pytest.raises(ValueError):
        run_suite("supplement")
    with pytest.raises(ValueError):
        run_suite("made-up")


def test_report_serialization():
    report = suite_wreath(m_max=2, t_max=2)
    blob = json.dumps(report.as_dict(), sort_keys=True)
    assert '"suite": "wreath"' in blob
    md = report.to_markdown()
    assert md.startswith("### wreath")


def test_supplement_frobenius_budget_error_is_a_failed_check(monkeypatch):
    from bweyl import BudgetExceededError, supplement

    def refuse(ctx):
        raise BudgetExceededError("2^30 order-2 torus vectors exceed the budget")

    monkeypatch.setattr(supplement, "check_frobenius_conventions", refuse)
    report = run_suite("supplement", point=(1, 1, 0, 1))
    by_id = {c.check_id: c for c in report.checks}
    conv = by_id["frobenius-convention"]
    assert not report.passed and not conv.passed
    assert conv.counterexample["error"].startswith("budget exceeded")
    assert by_id["supplement-identities"].passed


def test_supplement_frobenius_pass_keeps_its_details():
    report = run_suite("supplement", point=(1, 1, 0, 1))
    conv = next(c for c in report.checks if c.check_id == "frobenius-convention")
    assert conv.passed
    assert conv.counterexample["conjugate_by_twist"] == conv.counterexample["expected_rank"]
    assert set(conv.counterexample) == {"expected_rank", "conjugate_by_twist",
                                        "conjugate_by_inverse_twist", "both_pass"}
