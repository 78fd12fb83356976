import dataclasses
import math

import pytest

from bweyl import BudgetExceededError, VerificationError
from bweyl import charext, supplement
from bweyl.charext import (
    _check_restriction,
    _conj_action_on_characters,
    _decomposition,
    _head_action,
    _linear_characters,
    check_multiplicative,
    extend_character,
    inertia_decomposition,
    irr_of_hprime,
    multipartitions,
    partitions,
    standard_tableaux_count,
    verify_equivariance,
    wreath_character_degrees,
)
from bweyl.sperm import broken_edge
from bweyl.suites import SWEEP_POINTS, suite_charext
from bweyl.supplement import build_supplement
from bweyl.tits import ExtendedWeylGroup, GeneratedSubgroup


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
    assert all(trivial.value(h) == 0 for h in data_t1.h_prime.elements)


def test_character_values_are_signs(data_t2):
    for lam in irr_of_hprime(data_t2):
        assert all(lam.value(h) in (0, 1) for h in data_t2.h_prime.elements)


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
    lam = [c for c in irr_of_hprime(data_t1) if c.signs == (1,)][0]
    ext = extend_character(data_t1, lam)
    # c_1' listed in the symmetric part, with a value of its own; V'
    # decomposes c_1' as c_1' * 1, so it is not in P'
    c1p = data_t1.c_primes[0]
    corrupt = dataclasses.replace(
        ext, p_stab=list(ext.p_stab) + [c1p],
        mu={**ext.mu, c1p: (ext.value(c1p) + 1) % ext.modulus},
    )
    with pytest.raises(VerificationError, match="not multiplicative") as err:
        check_multiplicative(data_t1, corrupt)
    assert err.value.counterexample["decomposition"] == (
        c1p, data_t1.ctx.group.identity)


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (2, 2, 1), (4, 1, 0), (4, 2, 1), (6, 3, 0)])
def test_restriction_and_multiplicativity(l, d, m):
    data = build_supplement(l, d, m)
    for lam in irr_of_hprime(data):
        ext = extend_character(data, lam)
        # restriction to the head is rechecked inside extend_character;
        # verify multiplicativity across the inertia subgroup as well
        assert check_multiplicative(data, ext) > 0


def _nontrivial_extension(data):
    lam = next(c for c in irr_of_hprime(data) if c.signs[0] == 1)
    ext = extend_character(data, lam)
    assert ext.theta_exp == 1
    return ext


def test_multiplicativity_rejects_corrupted_mu(data_t2):
    ext = _nontrivial_extension(data_t2)
    g = data_t2.ctx.group
    p = next(p for p in ext.p_stab if p != g.identity)
    corrupt = dataclasses.replace(
        ext, mu={**ext.mu, p: (ext.mu[p] + 1) % ext.modulus})
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(data_t2, corrupt)


def test_multiplicativity_rejects_mu_outside_the_inertia_group(data_t3):
    # value answers wherever mu is defined, so mu must not reach past P'_lam
    lam = max(irr_of_hprime(data_t3), key=lambda c: c.signs)
    ext = extend_character(data_t3, lam)
    outside = next(p for p in data_t3.p_closure.elements if p not in ext.p_stab)
    corrupt = dataclasses.replace(ext, mu={**ext.mu, outside: 0})
    assert corrupt.value(outside) == 0
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(data_t3, corrupt)


def test_multiplicativity_rejects_corrupted_theta(data_t2):
    # any theta_exp gives a homomorphism theta_exp * csum on C', so a wrong
    # one is multiplicative; theta_exp = 2 sends h_0 to +1 while lam(h_0) is
    # -1, so the extension no longer restricts to lam
    ext = _nontrivial_extension(data_t2)
    corrupt = dataclasses.replace(ext, theta_exp=2)
    assert check_multiplicative(data_t2, corrupt) > 0
    with pytest.raises(VerificationError, match="does not restrict"):
        _check_restriction(data_t2, ext.lam, corrupt)


def test_multiplicativity_rejects_corrupted_conjugation(data_t2, monkeypatch):
    ext = _nontrivial_extension(data_t2)
    check_multiplicative(data_t2, ext)
    g = data_t2.ctx.group
    p = next(p for p in ext.p_stab if p != g.identity)
    c = data_t2.c_primes[-1]
    conj = g.conj

    def corrupt(x, y):
        # p c_i' p^{-1} sent to the identity, which has theta-value 0
        return g.identity if (x, y) == (p, c) else conj(x, y)

    monkeypatch.setattr(g, "conj", corrupt)
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(data_t2, ext)


def test_multiplicativity_rejects_symmetric_part_meeting_cyclic_part(data_t2):
    ext = _nontrivial_extension(data_t2)
    g = data_t2.ctx.group
    h0 = data_t2.ctx.h0
    # P'_lam x <h_0> with mu extended by the value of h_0 in C': a closed
    # symmetric part with a homomorphic mu, but h_0 lies in C', so the new
    # elements decompose as h_0 * p and are not in P'
    extra = {g.mul(p, h0): (ext.mu[p] + ext.value(h0)) % ext.modulus
             for p in ext.p_stab}
    assert not set(extra) & set(ext.p_stab)
    corrupt = dataclasses.replace(
        ext, p_stab=list(ext.p_stab) + list(extra), mu={**ext.mu, **extra})
    with pytest.raises(VerificationError, match="not multiplicative") as err:
        check_multiplicative(data_t2, corrupt)
    assert err.value.counterexample["decomposition"][0] == h0


def test_cyclic_part_moving_a_head_character_is_rejected(data_t3):
    # p_1' listed among the c_i' moves some head character
    p1 = data_t3.p_primes[0]
    data = dataclasses.replace(data_t3, c_primes=list(data_t3.c_primes) + [p1])
    lam = next(lam for lam in irr_of_hprime(data)
               if _conj_action_on_characters(data, p1, lam) != lam)
    with pytest.raises(VerificationError, match="cyclic part does not fix"):
        inertia_decomposition(data, lam)


def test_inertia_disagreeing_with_brute_force_is_rejected(data_t3, monkeypatch):
    data = dataclasses.replace(data_t3)
    assert data.v_prime_order <= charext.BRUTE_CAP
    g = data.ctx.group
    moved = set(data.p_closure.elements) - {g.identity}
    conj = charext._conj_action_on_characters

    def corrupt(d, x, lam):
        # every non-identity element of P' claims to move every character
        if x in moved:
            return charext.HPrimeCharacter(tuple(1 - s for s in lam.signs), d)
        return conj(d, x, lam)

    monkeypatch.setattr(charext, "_conj_action_on_characters", corrupt)
    with pytest.raises(VerificationError,
                       match="not the expected semidirect product"):
        inertia_decomposition(data, irr_of_hprime(data)[0])


def test_conjugation_leaving_the_head_is_rejected(data_t3):
    data = dataclasses.replace(data_t3)
    with pytest.raises(VerificationError, match="left the head subgroup"):
        _head_action(data, data.ctx.group.simple_lift(3))


def test_ambiguous_decomposition_is_rejected(data_t3):
    # P' together with its h_0-translates: h_0 * p and 1 * (p h_0) are one
    # element, h_0 being central
    g = data_t3.ctx.group
    h0 = data_t3.ctx.h0
    closure = data_t3.p_closure
    translates = tuple(g.mul(p, h0) for p in closure.elements)
    data = dataclasses.replace(data_t3, p_closure=dataclasses.replace(
        closure, elements=closure.elements + translates))
    with pytest.raises(VerificationError, match="two decompositions"):
        _decomposition(data)


def test_decomposition_built_once_and_values_are_lookups(data_t3, monkeypatch):
    data = dataclasses.replace(data_t3)
    g = data.ctx.group
    builds = []
    decomposition = charext._decomposition

    def recording(d):
        if "decomposition" not in d.memo:
            builds.append(d)
        return decomposition(d)

    monkeypatch.setattr(charext, "_decomposition", recording)
    exts = [extend_character(data, lam) for lam in irr_of_hprime(data)]
    for ext in exts:
        check_multiplicative(data, ext)
    assert len(builds) == 1
    v_prime = list(data.memo["decomposition"])
    assert len(v_prime) == data.v_prime_order
    muls = []
    mul = g.mul
    monkeypatch.setattr(g, "mul", lambda x, y: muls.append((x, y)) or mul(x, y))
    for ext in exts:
        inside = 0
        for x in v_prime:
            try:
                ext.value(x)
                inside += 1
            except ValueError:
                pass
        assert inside == len(data.c_closure.elements) * len(ext.p_stab)
    assert muls == []
    outside = g.simple_lift(3)
    assert outside not in data.memo["decomposition"]
    for ext in exts:
        with pytest.raises(ValueError):
            ext.value(outside)


def _cayley_edge_verdict(data, ext):
    """Reference: the value table is a homomorphism when every Cayley edge
    over c_primes plus a generating sequence of P'_lam adds the value of
    its generator, and 1 has value 0."""
    g = data.ctx.group
    gens, span = [], {g.identity}
    for p in ext.p_stab:
        if p not in span:
            gens.append(p)
            span = set(GeneratedSubgroup.generate(g, gens).elements)
    moves = list(data.c_primes) + gens
    products = [g.mul(c, p) for c in data.c_closure.elements for p in ext.p_stab]
    table = {x: ext.value(x) for x in products}
    if table.get(g.identity) != 0:
        return False
    return broken_edge(table, moves, g.mul,
                       lambda v, s: (v + table[s]) % ext.modulus) is None


def _exact_verdict(data, ext):
    try:
        check_multiplicative(data, ext)
    except VerificationError:
        return False
    return True


@pytest.mark.parametrize("point", [p for p in SWEEP_POINTS if p[0] == 1])
def test_exact_multiplicativity_matches_cayley_edges(point):
    d0, t_l, m, d = point
    data = build_supplement(2 * d0 * t_l, d, m)
    g = data.ctx.group
    for lam in irr_of_hprime(data):
        ext = extend_character(data, lam)
        assert _exact_verdict(data, ext) is _cayley_edge_verdict(data, ext) is True
        # one mu value off: both verdicts reject it
        p = ext.p_stab[-1]
        corrupt = dataclasses.replace(
            ext, mu={**ext.mu, p: (ext.mu[p] + 1) % ext.modulus})
        assert _exact_verdict(data, corrupt) is _cayley_edge_verdict(data, corrupt) is False


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (4, 1, 1), (6, 1, 0), (6, 3, 0)])
def test_equivariance(l, d, m):
    data = build_supplement(l, d, m)
    report = verify_equivariance(data)
    assert report["characters"] == 2 ** data.ctx.t_l
    assert report["equivariance_probes"] > 0
    assert sum(len(o) for o in report["orbits"]) == report["characters"]


def test_head_basis_with_hidden_relation_is_rejected(monkeypatch):
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


def extension_report(data):
    """Machine-readable summary per head character: sign vector, inertia
    order, extension value table on the supplement generators, and the
    equivariance verdict."""
    per_character = []
    for lam in irr_of_hprime(data):
        ext = extend_character(data, lam)
        _, p_stab = inertia_decomposition(data, lam)
        p_set = set(p_stab)
        gens = list(data.c_primes) + [p for p in data.p_primes if p in p_set]
        per_character.append({
            "signs": list(lam.signs),
            "inertia_order": len(data.c_closure.elements) * len(p_stab),
            "value_modulus": ext.modulus,
            "values_on_generators": [
                {"torus": list(x.torus), "weyl": list(x.weyl.images),
                 "exponent": ext.value(x)}
                for x in gens
            ],
        })
    equi = verify_equivariance(data)
    return {
        "d0": data.ctx.d0,
        "t_l": data.ctx.t_l,
        "m": data.ctx.m,
        "d": data.ctx.d,
        "characters": per_character,
        "orbits": equi["orbits"],
        "equivariant": True,
        "outer_action": equi["outer_action"],
    }


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


# cold-cache products of suite_charext(3, 2, 0, 3), counted after the fused
# kernel, the conjugator-inverse memo, the cached twist powers of iota_1 (whose
# k = 0 factor is x itself) and one inverse per element or generator in the
# commutator and equivariance loops
CHAREXT_3203_MUL_CEILING = 6733


def test_charext_mul_calls_do_not_grow(monkeypatch):
    # a fresh supplement, hence a fresh group with empty caches; the count
    # repeats exactly, so redundant products fail here without any timing
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    calls = []
    mul = ExtendedWeylGroup.mul
    monkeypatch.setattr(ExtendedWeylGroup, "mul",
                        lambda self, x, y: calls.append(None) or mul(self, x, y))
    assert suite_charext(3, 2, 0, 3).passed
    assert len(calls) <= CHAREXT_3203_MUL_CEILING
