import dataclasses
import gc
import hashlib
import json
import math
import weakref
from collections import Counter
from itertools import product as iproduct

import pytest

from bweyl import BudgetExceededError, VerificationError
from bweyl import charext, supplement
from bweyl.charext import (
    CharacterTables,
    _act_on_signs,
    _check_restriction,
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
from bweyl.sperm import orbit
from bweyl.suites import SWEEP_POINTS, suite_charext
from bweyl.supplement import SupplementContext, SupplementData, build_supplement
from bweyl.tits import ExtendedWeylGroup, GeneratedSubgroup
from test_supplement import broken_edge, c_prime_closure, reference_cyclic_sums


@pytest.fixture(scope="module")
def tables_t1():
    return CharacterTables(build_supplement(2, 1, 0))


@pytest.fixture(scope="module")
def tables_t2():
    return CharacterTables(build_supplement(4, 2, 0))


@pytest.fixture(scope="module")
def tables_t3():
    return CharacterTables(build_supplement(6, 1, 0))


def test_character_counts(tables_t1, tables_t3):
    assert len(irr_of_hprime(tables_t1)) == 2
    assert len(irr_of_hprime(tables_t3)) == 8
    trivial = irr_of_hprime(tables_t1)[0]
    assert all(trivial.value(h) == 0 for h in tables_t1.data.head_coordinates)


def test_character_values_are_signs(tables_t2):
    for lam in irr_of_hprime(tables_t2):
        assert all(lam.value(h) in (0, 1) for h in tables_t2.data.head_coordinates)


def test_inertia_trivial_character(tables_t2):
    lam = irr_of_hprime(tables_t2)[0]
    p_stab = inertia_decomposition(tables_t2, lam)
    assert len(p_stab) == len(tables_t2.p_elements) == tables_t2.data.p_order


def test_inertia_orbit_structure(tables_t3):
    # at t_l = 3 the symmetric part moves some sign patterns
    sizes = set()
    for lam in irr_of_hprime(tables_t3):
        p_stab = inertia_decomposition(tables_t3, lam)
        sizes.add(len(p_stab))
    assert len(sizes) > 1  # some characters have proper inertia


def test_extension_primitive_fourth_root(tables_t1):
    lam = [c for c in irr_of_hprime(tables_t1) if c.signs == (1,)][0]
    ext = extend_character(tables_t1, lam)
    c1p = tables_t1.data.c_primes[0]
    val = ext.value(c1p)
    # a primitive fourth root: its square is the value of h_0 = (c_1')^2
    assert ext.modulus % 4 == 0
    assert val * 2 % ext.modulus == ext.modulus // 2
    g = tables_t1.data.ctx.group
    assert ext.value(g.mul(c1p, c1p)) == ext.modulus // 2  # equals lam(h_0) = -1


def test_trivial_extension_is_trivial(tables_t1):
    lam = irr_of_hprime(tables_t1)[0]
    ext = extend_character(tables_t1, lam)
    for c in c_prime_closure(tables_t1.data).elements:
        assert ext.value(c) == 0
    for p in inertia_decomposition(tables_t1, lam):
        assert ext.value(p) == 0


def test_value_table_matches_decomposition(tables_t3):
    data = tables_t3.data
    g = data.ctx.group
    lam = max(irr_of_hprime(tables_t3), key=lambda c: c.signs)
    ext = extend_character(tables_t3, lam)
    p_stab = inertia_decomposition(tables_t3, lam)
    assert len(p_stab) < data.p_order
    scale = ext.modulus // (4 * data.ctx.d0)
    for c, csum in reference_cyclic_sums(data).items():
        for p in p_stab:
            want = (ext.theta_exp * csum * scale
                    + ext.mu[p]) % ext.modulus
            assert ext.value(g.mul(c, p)) == want
    outside = next(p for p in tables_t3.p_elements if p not in p_stab)
    with pytest.raises(ValueError):
        ext.value(outside)


def test_value_table_rejects_two_values(tables_t1):
    lam = [c for c in irr_of_hprime(tables_t1) if c.signs == (1,)][0]
    ext = extend_character(tables_t1, lam)
    # mu given a value on c_1', which V' decomposes as c_1' * 1, so it is
    # not in P'_lam and theta already gives it a value
    c1p = tables_t1.data.c_primes[0]
    assert tables_t1.decompose(c1p) == (c1p, tables_t1.data.ctx.group.identity)
    corrupt = dataclasses.replace(
        ext, mu={**ext.mu, c1p: (ext.value(c1p) + 1) % ext.modulus})
    with pytest.raises(VerificationError, match="not multiplicative") as err:
        check_multiplicative(tables_t1, corrupt)
    assert err.value.counterexample["mu_domain"] == len(ext.mu) + 1
    assert _all_pairs_verdict(tables_t1, corrupt) is False


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (2, 2, 1), (4, 1, 0), (4, 2, 1), (6, 3, 0)])
def test_restriction_and_multiplicativity(l, d, m):
    tables = CharacterTables(build_supplement(l, d, m))
    for lam in irr_of_hprime(tables):
        ext = extend_character(tables, lam)
        # restriction to the head is rechecked inside extend_character;
        # verify multiplicativity across the inertia subgroup as well
        assert check_multiplicative(tables, ext) > 0


def _nontrivial_extension(tables):
    lam = next(c for c in irr_of_hprime(tables) if c.signs[0] == 1)
    ext = extend_character(tables, lam)
    assert ext.theta_exp == 1
    return ext


def test_multiplicativity_rejects_corrupted_mu(tables_t2):
    ext = _nontrivial_extension(tables_t2)
    g = tables_t2.data.ctx.group
    p = next(p for p in inertia_decomposition(tables_t2, ext.lam)
             if p != g.identity)
    corrupt = dataclasses.replace(
        ext, mu={**ext.mu, p: (ext.mu[p] + 1) % ext.modulus})
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(tables_t2, corrupt)
    assert _all_pairs_verdict(tables_t2, corrupt) is False


def test_multiplicativity_rejects_mu_outside_the_inertia_group(tables_t3):
    # value answers wherever mu is defined, so mu must not reach past P'_lam
    lam = max(irr_of_hprime(tables_t3), key=lambda c: c.signs)
    ext = extend_character(tables_t3, lam)
    outside = next(p for p in tables_t3.p_elements if p not in ext.mu)
    corrupt = dataclasses.replace(ext, mu={**ext.mu, outside: 0})
    assert corrupt.value(outside) == 0
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(tables_t3, corrupt)
    assert _all_pairs_verdict(tables_t3, corrupt) is False


def test_multiplicativity_rejects_mu_consistent_on_a_spanning_tree_only(tables_t3):
    # mu propagated in BFS order from generator values that define no linear
    # character (one value shifted by 1): mu equals its own orbit labels, so
    # only a Cayley edge off the BFS tree shows that it is no homomorphism
    lam = irr_of_hprime(tables_t3)[0]
    ext = tables_t3.extension(lam)
    g = tables_t3.data.ctx.group
    gens = tables_t3.inertia_generators[lam.signs]
    mu = orbit({g.identity: 0}, gens, g.mul, len(ext.mu),
               lambda v, s: (v + ext.mu[s] + (s == gens[0])) % ext.modulus)
    corrupt = dataclasses.replace(ext, mu=mu)
    assert set(mu) == set(ext.mu)
    with pytest.raises(VerificationError, match="not multiplicative"):
        check_multiplicative(tables_t3, corrupt)
    assert _all_pairs_verdict(tables_t3, corrupt) is False


def test_multiplicativity_rejects_corrupted_theta(tables_t2):
    # any theta_exp gives a homomorphism theta_exp * csum on C', so a wrong
    # one is multiplicative; theta_exp = 2 sends h_0 to +1 while lam(h_0) is
    # -1, so the extension no longer restricts to lam
    ext = _nontrivial_extension(tables_t2)
    corrupt = dataclasses.replace(ext, theta_exp=2)
    assert check_multiplicative(tables_t2, corrupt) > 0
    with pytest.raises(VerificationError, match="does not restrict"):
        _check_restriction(corrupt)


def test_multiplicativity_rejects_corrupted_conjugation(tables_t2, monkeypatch):
    ext = _nontrivial_extension(tables_t2)
    check_multiplicative(tables_t2, ext)
    g = tables_t2.data.ctx.group
    p = tables_t2.inertia_generators[ext.lam.signs][0]
    c = tables_t2.data.c_primes[-1]
    conj = g.conj

    def corrupt(x, y):
        # the image of c_i' under a generator of P'_lam sent to the
        # identity, which has theta-value 0
        return g.identity if (x, y) == (p, c) else conj(x, y)

    monkeypatch.setattr(g, "conj", corrupt)
    with pytest.raises(VerificationError, match="not multiplicative") as err:
        check_multiplicative(tables_t2, ext)
    assert err.value.counterexample["p"] == p
    assert _all_pairs_verdict(tables_t2, ext) is False


def test_multiplicativity_rejects_symmetric_part_meeting_cyclic_part(tables_t2):
    ext = _nontrivial_extension(tables_t2)
    data = tables_t2.data
    g = data.ctx.group
    h0 = data.ctx.h0
    # P' x <h_0> as the symmetric part, and mu extended to P'_lam x <h_0> by
    # the value of h_0 in C': a closed symmetric part with a homomorphic mu,
    # but h_0 lies in C', so the new elements also decompose as h_0 * p
    tables = _tables_with_h0_translates(tables_t2)
    lam = charext.HPrimeCharacter(ext.lam.signs, tables)
    extra = {g.mul(p, h0): (ext.mu[p] + ext.value(h0)) % ext.modulus for p in ext.mu}
    assert not set(extra) & set(ext.mu)
    corrupt = dataclasses.replace(ext, tables=tables, lam=lam, mu={**ext.mu, **extra})
    assert set(corrupt.mu) == set(inertia_decomposition(tables, lam))
    with pytest.raises(VerificationError, match="two decompositions") as err:
        check_multiplicative(tables, corrupt)
    assert {c for c, _ in err.value.counterexample["decompositions"]} == {g.identity, h0}
    with pytest.raises(VerificationError, match="two decompositions"):
        _reference_decomposition(tables)


class _H0Translates(SupplementData):
    """A supplement whose K is all of H': its normal form lists P' x <h_0>."""

    @property
    def p_kernel(self):
        return tuple(self.head_coordinates)


def _tables_with_h0_translates(tables):
    """Tables over the normal form of P' with all of H' in place of K."""
    data, g = tables.data, tables.data.ctx.group
    planted = CharacterTables(_H0Translates(**vars(data)))
    assert planted.data.p_order == 2 * data.p_order
    assert set(planted.p_elements) == set(tables.p_elements) | {
        g.mul(p, data.ctx.h0) for p in tables.p_elements}
    return planted


def test_cyclic_part_moving_a_head_character_is_rejected(tables_t3):
    # p_1' listed among the c_i' moves some head character
    data = tables_t3.data
    p1 = data.p_primes[0]
    tables = CharacterTables(
        dataclasses.replace(data, c_primes=list(data.c_primes) + [p1]))
    lam = next(lam for lam in irr_of_hprime(tables)
               if _act_on_signs(tables.head_action(p1), lam.signs) != lam.signs)
    with pytest.raises(VerificationError, match="cyclic part does not fix"):
        inertia_decomposition(tables, lam)


def test_inertia_disagreeing_with_its_orbit_is_rejected(tables_t3, monkeypatch):
    tables = CharacterTables(tables_t3.data)
    g = tables.data.ctx.group
    moved = set(tables.p_elements) - {g.identity}
    head_action = tables.head_action

    def corrupt(x):
        # every non-identity element of P' claims to send H' to 1, which
        # moves every nontrivial character
        rows = head_action(x)
        return tuple((0,) * len(row) for row in rows) if x in moved else rows

    monkeypatch.setattr(tables, "head_action", corrupt)
    # lam(h_0) = -1 and trivial elsewhere: h_0 is central, so V' fixes lam
    lam = charext.HPrimeCharacter((1,) + (0,) * (len(tables.data.ctx.head_basis) - 1), tables)
    with pytest.raises(VerificationError,
                       match="not the expected semidirect product"):
        inertia_decomposition(tables, lam)


def test_inertia_filter_keeping_only_the_torus_is_rejected(monkeypatch):
    # |V'| = 6144: the size of P'_lam is checked at every point, however large
    tables = CharacterTables(build_supplement(8, 1, 0))
    assert tables.data.v_prime_order == 6144
    head_action = tables.head_action
    non_torus = {p for p in tables.p_elements if not p.weyl.is_identity()}

    def corrupt(x):
        # every element of P' off the torus claims to move lam = (1, 0, 0, 0)
        rows = head_action(x)
        return ((0,) * len(rows),) + rows[1:] if x in non_torus else rows

    monkeypatch.setattr(tables, "head_action", corrupt)
    lam = charext.HPrimeCharacter((1, 0, 0, 0), tables)
    with pytest.raises(VerificationError,
                       match="not the expected semidirect product"):
        inertia_decomposition(tables, lam)


# the points with |V'| = 2 (2 d0)^t_l * 2^(t_l - 1) t_l! at most 3000
BRUTE_FORCE_POINTS = [(d0, t_l, m, d) for d0, t_l, m, d in SWEEP_POINTS
                      if (4 * d0) ** t_l * math.factorial(t_l) <= 3000]


@pytest.mark.parametrize("d0,t_l,m,d", BRUTE_FORCE_POINTS)
def test_inertia_matches_the_brute_force_stabilizer(d0, t_l, m, d):
    # reference: the head action of every c * p formed with mul, and for each
    # lam the c * p that fix it counted
    tables = CharacterTables(build_supplement(2 * d0 * t_l, d, m))
    data = tables.data
    g = data.ctx.group
    actions = Counter(tables.head_action(g.mul(c, p))
                      for c in c_prime_closure(data).elements
                      for p in tables.p_elements)
    assert sum(actions.values()) == data.v_prime_order
    for lam in irr_of_hprime(tables):
        stabilizer = sum(n for rows, n in actions.items()
                         if _act_on_signs(rows, lam.signs) == lam.signs)
        assert stabilizer == data.c_order * len(inertia_decomposition(tables, lam))


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(1, 5, 0, 1)])
def test_p_elements_list_the_closure_of_p_prime(monkeypatch, d0, t_l, m, d):
    # the reference: P' closed over the p_i'; the listing adds torus parts
    # where the reference forms each k l(w) with mul
    if (d0, t_l, m, d) not in SWEEP_POINTS:
        monkeypatch.setattr(supplement, "_supplement_cache", {})
    tables = CharacterTables(build_supplement(2 * d0 * t_l, d, m))
    data, g = tables.data, tables.data.ctx.group
    assert tables.p_elements == tuple(g.mul(k, x) for k in data.p_kernel
                                      for x in data.p_labels.values())
    closure = GeneratedSubgroup.generate(g, data.p_primes, budget=data.p_order)
    assert len(tables.p_elements) == len(closure) == data.p_order
    assert set(tables.p_elements) == set(closure.elements)


def test_conjugation_leaving_the_head_is_rejected(tables_t3):
    tables = CharacterTables(tables_t3.data)
    with pytest.raises(VerificationError, match="left the head subgroup"):
        tables.head_action(tables.data.ctx.group.simple_lift(3))


def test_ambiguous_decomposition_is_rejected(tables_t3):
    # P' together with its h_0-translates: h_0 * p and 1 * (p h_0) are one
    # element, h_0 being central
    tables = _tables_with_h0_translates(tables_t3)
    with pytest.raises(VerificationError, match="two decompositions"):
        tables.decompose(tables_t3.p_elements[-1])
    with pytest.raises(VerificationError, match="two decompositions"):
        _reference_decomposition(tables)


def test_values_read_the_decomposition(tables_t3):
    # every extension answers on its inertia subgroup of V' and nowhere else
    tables = CharacterTables(tables_t3.data)
    g = tables.data.ctx.group
    v_prime = _reference_decomposition(tables)
    assert len(v_prime) == tables.data.v_prime_order
    for lam in irr_of_hprime(tables):
        ext = tables.extension(lam)
        inside = 0
        for x in v_prime:
            try:
                ext.value(x)
                inside += 1
            except ValueError:
                pass
        assert inside == len(c_prime_closure(tables.data).elements) * len(ext.mu)
        assert ext.tables is tables
    outside = g.simple_lift(3)
    assert tables.decompose(outside) is None
    for ext in tables.extensions.values():
        with pytest.raises(ValueError):
            ext.value(outside)


def test_each_element_is_decomposed_once_per_tables(monkeypatch, tables_t3):
    # the equivariance probes ask again for elements already decomposed;
    # the bucket of each is searched on its first call only
    tables = CharacterTables(tables_t3.data)
    tables._p_by_blocks  # index P' before counting
    calls, trials = [], []
    decompose, blocks_moved = CharacterTables.decompose, CharacterTables._blocks_moved
    monkeypatch.setattr(CharacterTables, "decompose",
                        lambda self, x: calls.append(x) or decompose(self, x))
    monkeypatch.setattr(CharacterTables, "_blocks_moved",
                        lambda self, x: trials.append(x) or blocks_moved(self, x))
    verify_equivariance(tables)
    assert len(calls) > len(set(calls))
    assert Counter(trials) == Counter(set(calls))
    fresh = CharacterTables(tables.data)
    assert all(tables.decompose(x) == fresh.decompose(x) for x in set(calls))


def _reference_decomposition(tables):
    """Reference: the factors (c, p) of every x = c * p in V', from all
    |C'|·|P'| products; two equal products make it ambiguous."""
    g = tables.data.ctx.group
    decomp = {}
    for c in c_prime_closure(tables.data).elements:
        for p in tables.p_elements:
            x = g.mul(c, p)
            if decomp.setdefault(x, (c, p)) != (c, p):
                raise VerificationError(
                    "supplement element has two decompositions as c * p",
                    {"element": x, "decompositions": (decomp[x], (c, p))},
                )
    return decomp


def _all_pairs_verdict(tables, ext):
    """Reference: ext is multiplicative by the semidirect-product criterion
    checked on all of P'_lam: mu is defined on P'_lam exactly, each p of it
    decomposes as 1 * p, mu(pq) = mu(p) + mu(q) for all pairs, and each p
    keeps the theta-value of every c_i'."""
    data = tables.data
    g = data.ctx.group
    p_stab = inertia_decomposition(tables, ext.lam)
    if set(ext.mu) != set(p_stab):
        return False
    decomp = _reference_decomposition(tables)
    if any(decomp.get(p) != (g.identity, p) for p in p_stab):
        return False
    for p in p_stab:
        for q in p_stab:
            pq = g.mul(p, q)
            if pq not in ext.mu or (ext.mu[pq] - ext.mu[p] - ext.mu[q]) % ext.modulus:
                return False
    c_set = reference_cyclic_sums(data)
    return all(
        g.conj(p, c) in c_set and ext.theta(g.conj(p, c)) == ext.theta(c)
        for p in p_stab for c in data.c_primes
    )


def _reference_derived_subgroup(elements, mul, identity, inverse):
    """Reference: the closure of the commutators of all pairs."""
    inv = {x: inverse(x) for x in elements}
    comms = {mul(mul(inv[x], inv[y]), mul(x, y)) for x in elements for y in elements}
    return set(orbit({identity: None}, comms, mul, len(elements)))


def _cayley_edge_verdict(tables, ext):
    """Reference: the value table is a homomorphism when every Cayley edge
    over c_primes plus a generating sequence of P'_lam adds the value of
    its generator, and 1 has value 0."""
    data = tables.data
    g = data.ctx.group
    p_stab = inertia_decomposition(tables, ext.lam)
    gens, span = [], {g.identity}
    for p in p_stab:
        if p not in span:
            gens.append(p)
            span = set(GeneratedSubgroup.generate(g, gens).elements)
    moves = list(data.c_primes) + gens
    products = [g.mul(c, p) for c in c_prime_closure(data).elements for p in p_stab]
    table = {x: ext.value(x) for x in products}
    if table.get(g.identity) != 0:
        return False
    return broken_edge(table, moves, g.mul,
                       lambda v, s: (v + table[s]) % ext.modulus) is None


def _exact_verdict(tables, ext):
    try:
        check_multiplicative(tables, ext)
    except VerificationError:
        return False
    return True


D0_1_POINTS = [p for p in SWEEP_POINTS if p[0] == 1]


@pytest.mark.parametrize("point", D0_1_POINTS)
def test_exact_multiplicativity_matches_cayley_edges(point):
    d0, t_l, m, d = point
    tables = CharacterTables(build_supplement(2 * d0 * t_l, d, m))
    for lam in irr_of_hprime(tables):
        ext = extend_character(tables, lam)
        assert (_exact_verdict(tables, ext) is _cayley_edge_verdict(tables, ext)
                is _all_pairs_verdict(tables, ext) is True)
        # one mu value off: every verdict rejects it
        p = inertia_decomposition(tables, lam)[-1]
        corrupt = dataclasses.replace(
            ext, mu={**ext.mu, p: (ext.mu[p] + 1) % ext.modulus})
        assert (_exact_verdict(tables, corrupt) is _cayley_edge_verdict(tables, corrupt)
                is _all_pairs_verdict(tables, corrupt) is False)


@pytest.mark.parametrize("point", D0_1_POINTS)
def test_decomposition_and_derived_subgroup_match_the_references(point):
    d0, t_l, m, d = point
    tables = CharacterTables(build_supplement(2 * d0 * t_l, d, m))
    g = tables.data.ctx.group
    decomp = _reference_decomposition(tables)
    assert all(tables.decompose(x) == cp for x, cp in decomp.items())
    assert tables.decompose(g.simple_lift(g.n)) is None
    for lam in irr_of_hprime(tables):
        ext = tables.extension(lam)
        p_stab = inertia_decomposition(tables, lam)
        modulus, chars = _linear_characters(p_stab, tables.inertia_generators[lam.signs],
                                            g.mul, g.identity, g.inv, 4 * tables.data.ctx.d0)
        assert modulus == ext.modulus
        # the derived subgroup is where every linear character vanishes
        kernel = {x for x in p_stab if all(chi[x] == 0 for chi in chars)}
        assert kernel == _reference_derived_subgroup(p_stab, g.mul, g.identity, g.inv)
        assert len(chars) * len(kernel) == len(p_stab)


@pytest.mark.parametrize("l,d,m", [(2, 1, 0), (4, 1, 1), (6, 1, 0), (6, 3, 0)])
def test_equivariance(l, d, m):
    tables = CharacterTables(build_supplement(l, d, m))
    report = verify_equivariance(tables)
    assert report["characters"] == 2 ** tables.data.ctx.t_l
    assert report["equivariance_probes"] > 0
    assert sum(len(o) for o in report["orbits"]) == report["characters"]


def test_equivariance_rejects_an_extension_that_is_no_class_function(tables_t3):
    # the trivial character's extension shifted on one generator of P': a
    # generator of V' conjugates it to an element with the old value, which
    # a probe on the generators of P'_nu sees and one on the c_i' does not
    tables = CharacterTables(tables_t3.data)
    lam = irr_of_hprime(tables)[0]
    ext = tables.extension(lam)
    s = tables.inertia_generators[lam.signs][0]
    tables.extensions[lam.signs] = dataclasses.replace(
        ext, mu={**ext.mu, s: (ext.mu[s] + 1) % ext.modulus})
    with pytest.raises(VerificationError, match="not equivariant"):
        verify_equivariance(tables)


def per_character_extensions(tables):
    """Reference: every head character extended and certified on its own,
    `extend_character` then `check_multiplicative`, with no transport."""
    exts = {}
    for lam in irr_of_hprime(tables):
        exts[lam.signs] = extend_character(tables, lam)
        check_multiplicative(tables, exts[lam.signs])
    return exts


def _materialised(tables, ext):
    """ext with its mu read off its values on P'_lam, no transporter left."""
    p_stab = inertia_decomposition(tables, ext.lam)
    return dataclasses.replace(ext, transporter=None,
                               mu={p: ext.value(p) for p in p_stab})


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(1, 5, 0, 1)])
def test_transported_extensions_match_the_per_character_path(monkeypatch, d0, t_l, m, d):
    if (d0, t_l, m, d) not in SWEEP_POINTS:
        monkeypatch.setattr(supplement, "_supplement_cache", {})
    tables = CharacterTables(build_supplement(2 * d0 * t_l, d, m))
    for lam in irr_of_hprime(tables):
        ext = tables.extension(lam)
        rep = min(tables.orbits[lam.signs])
        assert (ext.transporter is None) is (lam.signs == rep)
        if ext.transporter is None:
            continue
        # a transported extension is certified as a representative's is,
        # once its mu is a table on P'_lam
        plain = _materialised(tables, ext)
        assert check_multiplicative(tables, plain) > 0
        _check_restriction(plain)
        assert all(plain.value(c) == ext.value(c) for c in tables.data.c_primes)
    assert set(per_character_extensions(tables)) == set(tables.extensions)


def _tables_with_mover(data, signs, mover_of):
    """Fresh tables whose orbits give `signs` the mover mover_of(orbit)."""
    tables = CharacterTables(data)
    orb = tables.orbits[signs]
    orb[signs] = mover_of(orb)
    return tables


# at t_l = 3, (0, 1, 0) lies in the orbit of (0, 0, 1) together with
# (0, 1, 1), and its mover and that mover's inverse act differently
PLANTED_MOVERS = {
    "another sign vector's mover": lambda g, orb: orb[(0, 1, 1)],
    "a mover without its inverse": lambda g, orb: g.inv(orb[(0, 1, 0)]),
}


@pytest.mark.parametrize("planted", PLANTED_MOVERS)
def test_transport_along_a_wrong_mover_is_rejected(tables_t3, planted):
    g = tables_t3.data.ctx.group
    tables = _tables_with_mover(tables_t3.data, (0, 1, 0),
                                lambda orb: PLANTED_MOVERS[planted](g, orb))
    lam = charext.HPrimeCharacter((0, 1, 0), tables)
    with pytest.raises(VerificationError, match="does not restrict to the head character"):
        tables.extension(lam)


@pytest.mark.parametrize("planted", PLANTED_MOVERS)
def test_conjugated_inertia_generator_outside_the_inertia_group_is_rejected(
        tables_t3, planted):
    g = tables_t3.data.ctx.group
    tables = _tables_with_mover(tables_t3.data, (0, 1, 0),
                                lambda orb: PLANTED_MOVERS[planted](g, orb))
    lam = charext.HPrimeCharacter((0, 1, 0), tables)
    with pytest.raises(VerificationError, match="conjugated inertia generator lies outside"):
        inertia_decomposition(tables, lam)


def test_extensions_are_certified_once_per_orbit(monkeypatch):
    # 16 head characters in 6 orbits at (1, 4, 0, 1)
    calls = Counter()
    for name in ("extend_character", "check_multiplicative", "_generating_sequence"):
        original = getattr(charext, name)
        monkeypatch.setattr(charext, name, lambda *args, _f=original, _n=name:
                            calls.update([_n]) or _f(*args))
    tables = CharacterTables(build_supplement(8, 1, 0))
    assert suite_charext(1, 4, 0, 1).passed
    assert len({min(orb) for orb in tables.orbits.values()}) == 6
    assert len(irr_of_hprime(tables)) == 16
    # the inertia groups of the 6 representatives and their abelianizations
    assert calls == {"extend_character": 6, "check_multiplicative": 6,
                     "_generating_sequence": 12}


def test_linear_characters_reject_an_exponent_vector_inconsistent_on_an_edge():
    # Z/2 x Z/4 on the generators (1, 1) and (0, 1), both of order 4: of the
    # 16 exponent vectors, the 8 that are consistent on every Cayley edge
    # are its characters
    def mul(x, y):
        return (x[0] + y[0]) % 2, (x[1] + y[1]) % 4

    elements = [(a, b) for a in range(2) for b in range(4)]
    gens = [(1, 1), (0, 1)]
    modulus, chars = _linear_characters(elements, gens, mul, (0, 0),
                                        lambda x: (-x[0] % 2, -x[1] % 4), 1)
    assert modulus == 4
    consistent = []
    for exps in iproduct(range(4), range(4)):
        def step(v, i, exps=exps):
            return (v + exps[i]) % 4

        labels = orbit({(0, 0): 0}, range(2), lambda x, i: mul(x, gens[i]), 8, step)
        if broken_edge(labels, range(2), lambda x, i: mul(x, gens[i]), step) is None:
            consistent.append(labels)
    assert len(consistent) == 8
    assert sorted(map(sorted, (c.items() for c in chars))) == sorted(
        map(sorted, (c.items() for c in consistent)))


def test_head_basis_with_hidden_relation_is_rejected(monkeypatch):
    # (p_1')^2 planted as h_0 in cold supplements: the head closes to half
    # its 2^t_l elements
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    basis = SupplementContext.head_basis.func
    monkeypatch.setattr(SupplementContext, "head_basis",
                        property(lambda ctx: [ctx.h0, ctx.h0] + basis(ctx)[2:]))
    for l, d, m in [(4, 1, 0), (6, 1, 1), (12, 3, 0)]:
        with pytest.raises(VerificationError, match="H' is elementary abelian of rank t_l"):
            build_supplement(l, d, m)


def test_suite_charext_drops_its_tables(monkeypatch):
    # one set of tables per point, unreachable once the suite returns: the
    # cached supplement keeps none of them
    made = []
    init = CharacterTables.__init__

    def recording(self, data):
        made.append(weakref.ref(self))
        init(self, data)

    monkeypatch.setattr(CharacterTables, "__init__", recording)
    assert suite_charext(1, 2, 0, 1).passed
    gc.collect()
    assert len(made) == 1
    assert all(ref() is None for ref in made)


def test_partitions_and_multipartitions():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(3, 2)) == 9


def reference_multipartitions(m, t):
    """Reference: the recursion over the first part's size and partition,
    the rest recomputed for each."""
    if m == 1:
        return [(p,) for p in partitions(t)]
    return [(p,) + rest for first in range(t + 1) for p in partitions(first)
            for rest in reference_multipartitions(m - 1, t - first)]


def test_multipartitions_match_the_recursion():
    # every (m, t) of the default wreath suite, lists equal in order
    for m in range(1, 7):
        for t in range(1, 6):
            assert multipartitions(m, t) == reference_multipartitions(m, t), (m, t)


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


def extension_report(tables):
    """Machine-readable summary per head character: sign vector, inertia
    order, extension value table on the supplement generators, and the
    equivariance verdict."""
    data = tables.data
    per_character = []
    for lam in irr_of_hprime(tables):
        ext = extend_character(tables, lam)
        p_stab = inertia_decomposition(tables, lam)
        p_set = set(p_stab)
        gens = list(data.c_primes) + [p for p in data.p_primes if p in p_set]
        per_character.append({
            "signs": list(lam.signs),
            "inertia_order": len(c_prime_closure(data).elements) * len(p_stab),
            "value_modulus": ext.modulus,
            "values_on_generators": [
                {"torus": list(x.torus), "weyl": list(x.weyl.images),
                 "exponent": ext.value(x)}
                for x in gens
            ],
        })
    equi = verify_equivariance(tables)
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


def test_extension_report_schema(tables_t2):
    import json

    report = extension_report(tables_t2)
    blob = json.dumps(report)  # JSON-serializable
    assert json.loads(blob)["equivariant"] is True
    assert len(report["characters"]) == 4
    for entry in report["characters"]:
        assert {"signs", "inertia_order", "value_modulus",
                "values_on_generators"} <= set(entry)
        assert entry["inertia_order"] in (16, 32)


def test_wreath_budget():
    with pytest.raises(ValueError):
        wreath_character_degrees(10, 10)


def test_linear_characters_runaway_order_is_a_budget_error():
    # mul(a, b) = a with trivial inverses: the commutators are trivial and
    # 1 generates the abelianization, but its powers never reach 0
    with pytest.raises(BudgetExceededError):
        _linear_characters([0, 1], [1], lambda a, b: a, 0, lambda x: 0, 2)


# cold-cache products of suite_charext(3, 2, 0, 3), counted after the fused
# kernel, the conjugator-inverse memo, the cached twist powers of iota_1 (whose
# k = 0 factor is x itself), one inverse per element or generator in the
# commutator and equivariance loops, g_1, g_2, the p_i' and the c_i' built
# once per context, torus conjugation by the Weyl action alone, closures
# over the generators alone, charext's checks on generators with the
# c * p decomposition found on demand, the value modulus taken from the
# abelianization's generators rather than the order of every element,
# iota_1's injectivity certified by its kernel rather than by closing its
# domain, the brute-force inertia count over Weyl parts (3,527 before the
# last two), C' read by its normal form rather than closed, P' closed once
# and no iota_1 products on generator pairs (1,511 before the last three),
# P' closed over its own generators with H' closed once (910 before), and
# the Frobenius-fixed lifts over orbit 1 read from one generator with each
# decomposition kept per table (881 before), and one extension and one
# generating set certified per orbit of head characters, each Cayley edge
# formed once (681 before)
CHAREXT_3203_MUL_CEILING = 662
# the same at (1, 4, 0, 1), where all-pairs checks and a stored map of V'
# took about 0.8 M products in charext alone (34,362 before the normal form,
# 33,317 before P' and H' were closed once each, 32,258 before the fixed
# lifts from one generator and the kept decompositions, 22,378 before the
# extensions per orbit)
CHAREXT_1401_MUL_CEILING = 10802


def _cold_charext_mul_calls(monkeypatch, point):
    # a fresh supplement, hence a fresh group with empty caches; the count
    # repeats exactly, so redundant products fail here without any timing
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    calls = []
    mul = ExtendedWeylGroup.mul
    monkeypatch.setattr(ExtendedWeylGroup, "mul",
                        lambda self, x, y: calls.append(None) or mul(self, x, y))
    assert suite_charext(*point).passed
    return len(calls)


def test_charext_mul_calls_do_not_grow(monkeypatch):
    assert _cold_charext_mul_calls(monkeypatch, (3, 2, 0, 3)) <= CHAREXT_3203_MUL_CEILING


def test_charext_mul_calls_at_1_4_0_1(monkeypatch):
    assert _cold_charext_mul_calls(monkeypatch, (1, 4, 0, 1)) <= CHAREXT_1401_MUL_CEILING


def _report_digest(report):
    return hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()


# SHA-256 of json.dumps(report.as_dict(), sort_keys=True) for the charext
# report at each point.  A passing check carries no details in as_dict, so
# the digest pins the suite, its parameters and each check's id, statement
# and verdict
CHAREXT_REPORT_DIGESTS = {
    (1, 4, 0, 1): "3d897ab4904c58c913b3187f851f85c5d6c274978d29df745222b179f11f7a1a",
    (1, 5, 0, 1): "3d85bcca1e6a10f62722af52d495ebe18423c1c2091dd6553e35f658ab1bf8ef",
}


def test_charext_report_at_1_4_0_1():
    assert _report_digest(suite_charext(1, 4, 0, 1)) == CHAREXT_REPORT_DIGESTS[1, 4, 0, 1]


def test_charext_passes_at_1_5_0_1(monkeypatch):
    # |P'| = 1920: the reach point that all-pairs checks could not finish;
    # its supplement is dropped with the monkeypatched cache
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    report = suite_charext(1, 5, 0, 1)
    assert report.passed
    assert _report_digest(report) == CHAREXT_REPORT_DIGESTS[1, 5, 0, 1]
