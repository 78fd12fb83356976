"""Acceptance criteria, one test per criterion.

Every check is exact (integer arithmetic only, zero numeric tolerance); the
stated wall-clock budgets are part of the criteria and are asserted.  Run
with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import hashlib
import json
import time

import pytest

from bweyl.suites import (
    SWEEP_POINTS,
    suite_atlas_ellparts,
    suite_charext,
    suite_commutators,
    suite_cyclotomic_lemma,
    suite_extmap_hypotheses,
    suite_graph_action,
    suite_hl_structure,
    suite_mutation,
    suite_supplement,
    suite_tits_core,
    suite_wreath,
)


# SHA-256 of json.dumps([r.as_dict() for r in reports], sort_keys=True) for
# each point suite over SWEEP_POINTS, in their order.  A passing check
# carries no details in as_dict, so a digest pins the reports' suites,
# parameters and each check's id, statement and verdict: a change that keeps
# every report byte-identical keeps these
SWEEP_REPORT_DIGESTS = {
    "supplement": "886ff5ab2d808c13809993ba3cd89cf0f8618a90de9998809dd4dc39d9a36cae",
    "commutators": "f36af57c02bc1cd05f4e76129f101a9eab5ac73c562be7868d82a07992a9bcc1",
    "graph-action": "666f8313c3e7f6bfd52e8ca47ee7d2db6a3842689ccf169bd644d97a58f952ac",
    "extmap-hypotheses": "5d7849e0257c8d982cbf8400427b9a29858f708798dfbe40aee5ff6b883cfab2",
    "charext": "76dcf76c0da36e6a1abf18dbb475fd248ff029f78d47dcdd7d7e644315cd07f9",
}


def _assert_sweep_digest(suite: str, reports):
    assert [r.suite for r in reports] == [suite] * len(SWEEP_POINTS)
    blob = json.dumps([r.as_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SWEEP_REPORT_DIGESTS[suite]


def _report(number: int, name: str, passed: bool, elapsed: float, budget: float):
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {state} ({elapsed:.1f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _fail_text(reports):
    return "; ".join(
        f"{r.suite}{r.params}: {[c.check_id for c in r.checks if not c.passed]}"
        for r in reports if not r.passed
    )


def test_criterion_1_cyclotomic_lemma():
    t0 = time.time()
    report = suite_cyclotomic_lemma(ells=(5, 7, 11, 13), q_max=50, k_max=30)
    _report(1, "cyclotomic lemma sweep", report.passed, time.time() - t0, 5.0)


def test_criterion_2_tits_core():
    t0 = time.time()
    report = suite_tits_core(random_triples=10_000)
    _report(2, "extended Weyl group core", report.passed, time.time() - t0, 30.0)


def test_criterion_3_hl_structure():
    t0 = time.time()
    report = suite_hl_structure(d0_values=(1, 3, 5), l_cap=18, q_values=(3, 5))
    _report(3, "order-2 torus fixed-point rank", report.passed,
            time.time() - t0, 60.0)


def test_criterion_4_supplement():
    t0 = time.time()
    reports = [suite_supplement(*point) for point in SWEEP_POINTS]
    ok = all(r.passed for r in reports)
    if not ok:
        print(_fail_text(reports))
    _report(4, f"supplement suite over {len(reports)} points", ok,
            time.time() - t0, 600.0)
    _assert_sweep_digest("supplement", reports)


def test_criterion_5_commutators_and_graph():
    t0 = time.time()
    reports = [suite_commutators(*point) for point in SWEEP_POINTS]
    reports += [suite_graph_action(*point) for point in SWEEP_POINTS]
    ok = all(r.passed for r in reports)
    if not ok:
        print(_fail_text(reports))
    _report(5, "commutator and graph-action suite", ok, time.time() - t0, 120.0)
    _assert_sweep_digest("commutators", reports[:len(SWEEP_POINTS)])
    _assert_sweep_digest("graph-action", reports[len(SWEEP_POINTS):])


def test_criterion_6_extension_maps():
    t0 = time.time()
    reports = [suite_charext(*point) for point in SWEEP_POINTS]
    reports += [suite_extmap_hypotheses(*point) for point in SWEEP_POINTS]
    ok = all(r.passed for r in reports)
    if not ok:
        print(_fail_text(reports))
    _report(6, "extension-map suite", ok, time.time() - t0, 300.0)
    _assert_sweep_digest("charext", reports[:len(SWEEP_POINTS)])
    _assert_sweep_digest("extmap-hypotheses", reports[len(SWEEP_POINTS):])


def test_criterion_7_atlas():
    t0 = time.time()
    report = suite_atlas_ellparts(
        n_max=12, ells=(5, 7, 11, 13), q_values=(2, 3, 4, 5, 7, 8, 9, 11, 13)
    )
    _report(7, f"atlas over {report.params['rows']} rows", report.passed,
            time.time() - t0, 120.0)


def test_criterion_8_wreath_combinatorics():
    t0 = time.time()
    report = suite_wreath(m_max=6, t_max=5)
    _report(8, "wreath character degrees", report.passed, time.time() - t0, 5.0)


def test_criterion_9_mutation_robustness():
    t0 = time.time()
    report = suite_mutation(rank=3)
    _report(9, "mutation robustness", report.passed, time.time() - t0, 300.0)
