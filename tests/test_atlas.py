import dataclasses
import json
from collections import Counter

import pytest

from bweyl import atlas
from bweyl.atlas import (
    IsolatedBlockRow,
    LeviDatum,
    build_case2_levi,
    case13_levi,
    center_disconnection_torsion,
    center_generic_order,
    check_isolated_center_ell_part,
    defect_order,
    enumerate_rows,
    levi_rational_type,
    realize_row,
    relative_weyl_ell_valuation,
    row_report,
    rows_to_json,
    rows_to_markdown,
)
from bweyl.cyclo import EllContext, GenericOrder, ell_valuation
from bweyl.sperm import SignedPermutation
from bweyl.suites import suite_atlas_ellparts


def test_enumerate_rows_case_gate():
    # q = 3, ell = 5: d = 4, d0 = 2 even, so case 2 cannot occur
    rows = enumerate_rows(4, EllContext(q=3, ell=5))
    assert sorted({r.case_no for r in rows}) == [1, 3]
    # d0 = 1: case 2 occurs at n = 2 with m = 0, a = 2, t_l = 1
    rows = enumerate_rows(2, EllContext(q=4, ell=5))
    case2 = [r for r in rows if r.case_no == 2]
    assert len(case2) == 1 and case2[0].m == 0 and case2[0].a == 2


def reference_rows(n, ctx):
    """The rows of enumerate_rows as they were built for every context."""
    d, d0, rows = ctx.d, ctx.d0, []
    for m in range(n + 1):
        if (n - m) % d0 == 0:
            a = (n - m) // d0
            rows += [IsolatedBlockRow(1, n, d, d0, m, a, (-1) ** d, l_split, a1)
                     for l_split in range(m + 1) for a1 in range(a + 1)]
            if m % 2 == 0 and n % 2 == 0 and a >= 1 and d0 % 2 == 1 and a % 2 == 0:
                rows.append(IsolatedBlockRow(2, n, d, d0, m, a, (-1) ** d))
            if m % 2 == 0 and n % 2 == 0 and a >= 1 and d0 % 2 == 0:
                rows.append(IsolatedBlockRow(3, n, d, d0, m, a, (-1) ** d))
    return rows


def test_enumerate_rows_match_the_reference_and_are_fresh():
    # the 26 contexts of the benchmark's `bweyl verify`
    contexts = [EllContext(q=q, ell=ell) for ell in (5, 7, 11, 13)
                for q in (2, 3, 4, 5, 7, 8, 9) if q % ell]
    assert len(contexts) == 26
    for ctx in contexts:
        for n in range(2, 13):
            rows = enumerate_rows(n, ctx)
            assert rows == reference_rows(n, ctx)
            rows.append(None)
            again = enumerate_rows(n, ctx)
            assert again is not rows and again == reference_rows(n, ctx)


def test_enumerate_rows_rejects():
    with pytest.raises(ValueError):
        enumerate_rows(2, EllContext(q=4, ell=3))


def test_footnote_identities():
    for q, ell in [(2, 5), (3, 7), (4, 5), (5, 11)]:
        ctx = EllContext(q=q, ell=ell)
        for n in range(2, 9):
            for row in enumerate_rows(n, ctx):
                assert row.a * row.d0 + row.m == row.n
                assert row.eps == (-1) ** row.d
                if row.case_no == 2:
                    assert row.d0 % 2 == 1 and row.a % 2 == 0
                if row.case_no == 3:
                    assert row.d0 % 2 == 0


def test_row_constructor_rejects():
    with pytest.raises(ValueError):
        IsolatedBlockRow(1, 4, 1, 1, 2, 1, -1)  # a d0 + m != n
    with pytest.raises(ValueError):
        IsolatedBlockRow(2, 4, 2, 2, 0, 2, 1)  # case 2 with even d0
    with pytest.raises(ValueError):
        IsolatedBlockRow(2, 4, 1, 1, 1, 3, -1)  # case 2 with odd m


def test_levi_rational_type_strings():
    assert levi_rational_type(case13_levi(3, 1, 2)) == "B_1(q) (q+1)^2"
    assert levi_rational_type(build_case2_levi(4, 2, 1)) == "A_1(q) B_2(q) (q-1)"
    assert levi_rational_type(build_case2_levi(6, 0, 3)) == "A_1(q^3) (q^3-1)"
    # m = n: pure block, trivial torus part
    assert levi_rational_type(case13_levi(3, 3, 2)) == "B_3(q)"


def test_center_generic_orders():
    # case 2, t_l = 1, d0 = 1: q^2 - 1
    g = center_generic_order(build_case2_levi(2, 0, 1))
    assert dict(g.cyclo_factors) == {1: 1, 2: 1}
    # case 1, a = 2, d0 = 1, eps = -1: (q - 1)^2
    g = center_generic_order(case13_levi(3, 1, 1))
    assert dict(g.cyclo_factors) == {1: 2}
    # case 3, d0 = 2, a = 1: q^2 + 1
    g = center_generic_order(case13_levi(4, 2, 4))
    assert dict(g.cyclo_factors) == {4: 1}


def test_twist_stability():
    for datum in [case13_levi(3, 1, 2), case13_levi(6, 2, 4),
                  build_case2_levi(4, 2, 2), build_case2_levi(6, 0, 3)]:
        moved = {datum.twist.act_on_root(a) for a in datum.root_subset.roots}
        assert moved == set(datum.root_subset.roots)


def _every_root_stable(subset, twist):
    """Reference: the twist maps every root of the subset into it."""
    return {twist.act_on_root(a) for a in subset.roots} == subset.roots


def _atlas_data(n_max):
    """Every (root subset, twist) the atlas realizes up to rank n_max."""
    pairs = set()
    for n in range(2, n_max + 1):
        for d in range(1, 2 * n + 1):
            for row in atlas._rows(n, d, d if d % 2 else d // 2):
                datum = realize_row(row)
                pairs.add((datum.root_subset, datum.twist))
    return pairs


def test_twist_stability_matches_every_root_over_the_atlas():
    # each twist of the atlas up to rank 12, and each of them composed with
    # a swap of two neighbouring coordinates: 816 of these are unstable
    pairs = _atlas_data(12)
    assert len(pairs) > 200
    verdicts = Counter()
    for subset, twist in pairs:
        assert atlas._twist_stable(subset, twist) and _every_root_stable(subset, twist)
        n = subset.ambient_rank
        for i in range(1, n):
            swap = SignedPermutation.from_mapping(n, {i: i + 1, i + 1: i})
            for planted in (twist * swap, swap * twist):
                verdict = _every_root_stable(subset, planted)
                assert atlas._twist_stable(subset, planted) is verdict
                verdicts[verdict] += 1
    assert verdicts[False] > 800 and verdicts[True] > 0


def test_unstable_twist_rejected_after_stable_datum_on_same_subset():
    stable = case13_levi(3, 1, 2)  # roots +-e_3
    dataclasses.replace(stable, row=stable.row)  # re-checked, and stable
    swap = SignedPermutation((3, 2, 1))  # moves e_3 to e_1
    for _ in range(2):
        with pytest.raises(ValueError, match="twist-stable"):
            LeviDatum(stable.row, stable.root_subset, swap, stable.center_order)


@pytest.mark.parametrize("q,ell", [(4, 5), (2, 5), (3, 7), (4, 3)])
def test_ell_part_identity_small(q, ell):
    if ell < 5:
        return  # atlas rows need ell >= 5
    ctx = EllContext(q=q, ell=ell)
    for n in range(2, 7):
        for row in enumerate_rows(n, ctx):
            assert check_isolated_center_ell_part(realize_row(row), ctx), row


def test_defect_order_examples():
    # case 2, d0 = 1, t_l = 1 at q = 4, ell = 3: relative Weyl part is
    # v_3(2) = 0, center part is v_3(q^2 - 1) = v_3(15) = 1
    ctx = EllContext(q=4, ell=3)
    datum = build_case2_levi(2, 0, 1)
    # the wreath order is (2 d0)^t * t! = 2, so the relative part vanishes
    assert relative_weyl_ell_valuation(datum.row, ctx) == 0


def test_defect_order_formula():
    ctx = EllContext(q=4, ell=3)
    datum = build_case2_levi(2, 0, 1)
    # |W_rel| = 2, v_3(2) = 0; center (q^2-1) = 15, v_3 = 1
    assert defect_order(datum, ctx) == 0 + 1
    # ell divides neither part
    ctx = EllContext(q=2, ell=7)  # d = 3
    datum = build_case2_levi(6, 0, 3)
    assert defect_order(datum, ctx) == ell_valuation(2**6 - 1, 7)
    # t_l = ell contributes v_ell(t_l!) = 1
    ctx5 = EllContext(q=11, ell=5)  # d = 1
    row = IsolatedBlockRow(2, 10, 1, 1, 0, 10, -1)
    assert relative_weyl_ell_valuation(row, ctx5) == 1


def test_defect_monotone_in_m():
    ctx = EllContext(q=4, ell=5)  # d = 2, d0 = 1
    n = 8
    vals = {}
    for row in enumerate_rows(n, ctx):
        if row.case_no == 2:
            vals[row.m] = defect_order(realize_row(row), ctx)
    ms = sorted(vals)
    assert all(vals[a] >= vals[b] for a, b in zip(ms, ms[1:]))


def test_case13_levi_examples():
    datum = case13_levi(3, 1, 2)
    assert datum.row.levi_type() == "B_1(q) (q+1)^2"
    datum = case13_levi(3, 3, 2)
    assert datum.row.levi_type() == "B_3(q)"
    assert datum.twist.is_identity()
    with pytest.raises(ValueError):
        case13_levi(4, 1, 4)  # d does not divide 2(n - m)


def test_case2_center_torsion_even():
    for (n, m, d) in [(2, 0, 1), (4, 2, 2), (6, 0, 3), (8, 2, 3)]:
        torsion = center_disconnection_torsion(build_case2_levi(n, m, d))
        assert any(t > 1 and t % 2 == 0 for t in torsion), (n, m, d)


def test_center_torsion_returns_a_fresh_list():
    datum = build_case2_levi(4, 2, 2)
    torsion = center_disconnection_torsion(datum)
    expected = list(torsion)
    torsion[0] += 1
    torsion.append(3)
    assert center_disconnection_torsion(datum) == expected
    assert center_disconnection_torsion(realize_row(datum.row)) == expected


def test_json_roundtrip_and_markdown():
    ctx = EllContext(q=4, ell=5)
    rows = enumerate_rows(3, ctx)
    blob = rows_to_json(rows, ctx)
    parsed = json.loads(blob)
    assert parsed["schema"] == "isolated-block-atlas/1"
    assert len(parsed["rows"]) == len(rows)
    for rep in parsed["rows"]:
        assert rep["ell_part_identity"] is True
        assert set(rep["params"]) == {
            "n", "d", "d0", "m", "a", "eps", "l_split", "a1"}
    md = rows_to_markdown(rows, ctx)
    assert md.count("\n") == len(rows) + 1


def test_row_report_case2_contains_torsion():
    ctx = EllContext(q=4, ell=5)
    row = [r for r in enumerate_rows(2, ctx) if r.case_no == 2][0]
    rep = row_report(row, ctx)
    assert any(t % 2 == 0 and t > 1 for t in rep["center_torsion"])


# -- the atlas suite against a per-row reference ---------------------------------


def reference_atlas_payloads(n_max, ells, q_values):
    """The counterexample payloads of suite_atlas_ellparts as they were
    computed before the verdicts were shared per Levi datum: every row is
    realized and checked on its own."""
    bad_rows, bad_torsion, rows_checked = [], [], 0
    for ell in ells:
        for q in q_values:
            if q % ell == 0:
                continue
            ctx = EllContext(q=q, ell=ell)
            for n in range(2, n_max + 1):
                for row in atlas.enumerate_rows(n, ctx):
                    rows_checked += 1
                    if row.a * row.d0 + row.m != row.n or row.eps != (-1) ** row.d:
                        bad_rows.append((ell, q, n, row))
                        continue
                    datum = atlas.realize_row(row)
                    if not atlas.check_isolated_center_ell_part(datum, ctx):
                        bad_rows.append((ell, q, n, row))
                    if row.case_no == 2:
                        torsion = atlas.center_disconnection_torsion(datum)
                        if not any(t > 1 and t % 2 == 0 for t in torsion):
                            bad_torsion.append((ell, q, n, row))
    return [{"failures": bad_rows[:3], "rows": rows_checked},
            {"failures": bad_torsion[:3]}]


# d in {1, 2, 3, 4, 6, 12}: both parities of d and of d0, so all three cases
ATLAS_SWEEP = {"n_max": 8, "ells": (5, 7, 13), "q_values": (2, 3, 4, 5, 6)}


def _faulty(row) -> bool:
    return (row.n + row.m) % 3 == 1


def _assert_suite_matches_reference():
    report = suite_atlas_ellparts(**ATLAS_SWEEP)
    expected = reference_atlas_payloads(**ATLAS_SWEEP)
    assert [c.counterexample for c in report.checks] == expected
    assert report.passed == (not expected[0]["failures"] and not expected[1]["failures"])
    return expected


def test_atlas_suite_matches_per_row_reference():
    expected = _assert_suite_matches_reference()
    assert expected[0]["failures"] == expected[1]["failures"] == []


@pytest.mark.parametrize("case", [1, 2, 3])
def test_atlas_suite_matches_reference_under_wrong_center_order(monkeypatch, case):
    true_order = atlas.center_generic_order

    def wrong(datum):
        order = true_order(datum)
        if datum.row.case_no == case and _faulty(datum.row):
            # q^{2 d0} - 1 has a positive l-part, since d divides 2 d0
            factors = Counter(dict(order.cyclo_factors))
            factors.update(dict(GenericOrder.q_power_minus_one(2 * datum.row.d0).cyclo_factors))
            return GenericOrder.from_factors(order.q_power, factors)
        return order

    monkeypatch.setattr(atlas, "center_generic_order", wrong)
    expected = _assert_suite_matches_reference()
    assert expected[0]["failures"]
    assert all(row.case_no == case for *_, row in expected[0]["failures"])


def test_atlas_suite_matches_reference_under_odd_torsion(monkeypatch):
    true_torsion = atlas.center_disconnection_torsion
    monkeypatch.setattr(atlas, "center_disconnection_torsion",
                        lambda datum: [1, 3] if _faulty(datum.row) else true_torsion(datum))
    expected = _assert_suite_matches_reference()
    assert expected[1]["failures"] and not expected[0]["failures"]
