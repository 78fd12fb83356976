import dataclasses
import math

import pytest

from bweyl import BudgetExceededError, VerificationError
from bweyl.charext import (
    _linear_characters,
    check_multiplicative,
    extend_character,
    extension_report,
    inertia_decomposition,
    irr_of_hprime,
    multipartitions,
    partitions,
    standard_tableaux_count,
    verify_equivariance,
    wreath_character_degrees,
)
from bweyl.supplement import build_supplement


@pytest.fixture(scope="module")
def data_t1():
    return build_supplement(2, 1, 0)


@pytest.fixture(scope="module")
def data_t2():
    return build_supplement(4, 2, 0)


@pytest.fixture(scope="module")
def data_t3():
    return build_supplement(6, 1, 0)


def test_character_counts(data_t1, data_t3):
    assert len(irr_of_hprime(data_t1)) == 2
    assert len(irr_of_hprime(data_t3)) == 8
    trivial = irr_of_hprime(data_t1)[0]
    assert all(v == 0 for _, v in trivial.table)


def test_character_values_are_signs(data_t2):
    for lam in irr_of_hprime(data_t2):
        assert all(v in (0, 1) for _, v in lam.table)


def test_inertia_trivial_character(data_t2):
    lam = irr_of_hprime(data_t2)[0]
    _, p_stab = inertia_decomposition(data_t2, lam)
    assert len(p_stab) == len(data_t2.p_closure.elements)


def test_inertia_orbit_structure(data_t3):
    # at t_l = 3 the symmetric part moves some sign patterns
    sizes = set()
    for lam in irr_of_hprime(data_t3):
        _, p_stab = inertia_decomposition(data_t3, lam)
        sizes.add(len(p_stab))
    assert len(sizes) > 1  # some characters have proper inertia


def test_extension_primitive_fourth_root(data_t1):
    lam = [c for c in irr_of_hprime(data_t1) if c.signs == (1,)][0]
    ext = extend_character(data_t1, lam)
    c1p = data_t1.c_primes[0]
    val = ext.value(c1p)
    # a primitive fourth root: its square is the value of h_0 = (c_1')^2
    assert ext.modulus % 4 == 0
    assert val * 2 % ext.modulus == ext.modulus // 2
    g = data_t1.ctx.group
    assert ext.value(g.mul(c1p, c1p)) == ext.modulus // 2  # equals lam(h_0) = -1


def test_trivial_extension_is_trivial(data_t1):
    lam = irr_of_hprime(data_t1)[0]
    ext = extend_character(data_t1, lam)
    g = data_t1.ctx.group
    for c in data_t1.c_closure.elements:
        assert ext.value(c) == 0
    for p in ext.p_stab:
        assert ext.value(p) == 0


def test_value_table_matches_decomposition(data_t3):
    g = data_t3.ctx.group
    lam = max(irr_of_hprime(data_t3), key=lambda c: c.signs)
    ext = extend_character(data_t3, lam)
    assert len(ext.p_stab) < len(data_t3.p_closure.elements)
    scale = ext.modulus // (4 * data_t3.ctx.d0)
    for c in data_t3.c_closure.elements:
        for p in ext.p_stab:
            want = (ext.theta_exp * ext.csum[c] * scale + ext.mu[p]) % ext.modulus
            assert ext.value(g.mul(c, p)) == want
    outside = next(p for p in data_t3.p_closure.elements if p not in ext.p_stab)
    with pytest.raises(ValueError):
        ext.value(outside)


def test_value_table_rejects_two_values(data_t1):
    g = data_t1.ctx.group
    lam = [c for c in irr_of_hprime(data_t1) if c.signs == (1,)][0]
    ext = extend_character(data_t1, lam)
    # listing c_1' in the symmetric part too decomposes c_1' as c_1' * 1
    # and as 1 * c_1'; give the second a different value
    c1p = data_t1.c_primes[0]
    corrupt = dataclasses.replace(
        ext, p_stab=list(ext.p_stab) + [c1p],
        mu={**ext.mu, c1p: (ext.value(c1p) + 1) % ext.modulus},
    )
    with pytest.raises(VerificationError):
        corrupt.value(g.identity)


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (2, 2, 1), (4, 1, 0), (4, 2, 1), (6, 3, 0)])
def test_restriction_and_multiplicativity(l, d, m):
    data = build_supplement(l, d, m)
    for lam in irr_of_hprime(data):
        ext = extend_character(data, lam)
        # restriction to the head is rechecked inside extend_character;
        # verify multiplicativity across the inertia subgroup as well
        assert check_multiplicative(data, ext) > 0


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (4, 1, 1), (6, 1, 0), (6, 3, 0)])
def test_equivariance(l, d, m):
    data = build_supplement(l, d, m)
    report = verify_equivariance(data)
    assert report["characters"] == 2 ** data.ctx.t_l
    assert report["equivariance_probes"] > 0
    assert sum(len(o) for o in report["orbits"]) == report["characters"]


def test_head_basis_with_hidden_relation_is_rejected(monkeypatch):
    from bweyl import charext

    # a copy of the cached supplement starts with an empty memo
    data = dataclasses.replace(build_supplement(4, 1, 0))
    basis = charext._hprime_basis
    monkeypatch.setattr(charext, "_hprime_basis",
                        lambda d: [d.ctx.h0] + basis(d))
    with pytest.raises(VerificationError, match="head subgroup has hidden relations"):
        irr_of_hprime(data)


def test_partitions_and_multipartitions():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(3, 2)) == 9


def test_hook_lengths():
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((3, 2)) == 5
    assert standard_tableaux_count(()) == 1


def test_wreath_degrees_examples():
    assert wreath_character_degrees(2, 1) == [1, 1]
    assert wreath_character_degrees(2, 2) == [1, 1, 1, 1, 2]
    assert wreath_character_degrees(1, 3) == [1, 1, 2]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_wreath_sum_of_squares(m, t):
    degrees = wreath_character_degrees(m, t)
    assert sum(d * d for d in degrees) == m**t * math.factorial(t)


def test_extension_report_schema(data_t2):
    import json

    report = extension_report(data_t2)
    blob = json.dumps(report)  # JSON-serializable
    assert json.loads(blob)["equivariant"] is True
    assert len(report["characters"]) == 4
    for entry in report["characters"]:
        assert {"signs", "inertia_order", "value_modulus",
                "values_on_generators"} <= set(entry)
        assert entry["inertia_order"] in (16, 32)


def test_wreath_budget():
    with pytest.raises(ValueError):
        wreath_character_degrees(10, 10, budget=100)


def test_linear_characters_runaway_order_is_a_budget_error():
    # mul(a, b) = a with trivial inverses: the commutators are trivial and
    # 1 generates the abelianization, but its powers never reach 0
    with pytest.raises(BudgetExceededError):
        _linear_characters([0, 1], lambda a, b: a, 0, lambda x: 0, 2)
