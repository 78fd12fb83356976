import functools
import math
import time

import pytest

from bweyl import BudgetExceededError, VerificationError, supplement
from bweyl.roots import levi_root_subset
from bweyl.sperm import (
    SignedPermutation,
    broken_edge,
    centralizer,
    closure as perm_closure,
    orbit,
    relative_weyl_centralizer,
)
from bweyl.suites import SWEEP_POINTS, run_suite
from bweyl.supplement import (
    FROBENIUS_Q,
    SupplementContext,
    _verify_c_structure,
    _verify_iota1,
    _verify_relative_weyl,
    build_supplement,
    build_twist,
    check_frobenius_conventions,
    verify_extmap_hypotheses,
)
from bweyl.tits import (
    ExtendedWeylGroup,
    GeneratedSubgroup,
    _f2_masks,
    least_reduced_word,
    root_character_eval,
    torsion_two_subgroup_fixed_rank,
)

SWEEP_SMALL = [
    (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (3, 1, 0), (3, 1, 1),
]


def c_prime_closure(data):
    """Reference: C' closed in the extended Weyl group, in BFS order."""
    return _closure(data.ctx.group, tuple(data.c_primes), 8 * (2 * data.ctx.d0) ** data.ctx.t_l)


def reference_cyclic_sums(data):
    """Reference: every element of C' labelled along the BFS orbit of 1,
    each c_i' adding 1 mod 4 d0, and the labels checked on every Cayley
    edge."""
    return _cyclic_sums(data.ctx.group, tuple(data.c_primes), 4 * data.ctx.d0)


# each reference is formed once per group and generators, for the whole test run
@functools.cache
def _closure(group, gens, budget):
    return GeneratedSubgroup.generate(group, gens, budget=budget)


@functools.cache
def _cyclic_sums(group, gens, mod):
    def step(v, c):
        return (v + 1) % mod

    sums = orbit({group.identity: 0}, gens, group.mul, 8 * (mod // 2) ** len(gens), step)
    assert broken_edge(sums, gens, group.mul, step) is None
    return sums


def test_build_twist_examples():
    g = ExtendedWeylGroup(2)
    v = build_twist(g, 2, 4)
    assert v.weyl.images == (2, -1)
    v1 = build_twist(g, 2, 1)
    assert v1.weyl.is_identity()
    with pytest.raises(ValueError):
        build_twist(g, 2, 3)


@pytest.mark.parametrize("l,d", [(2, 1), (2, 2), (6, 3), (6, 6), (4, 2)])
def test_twist_power_central(l, d):
    # v_l^{d0} commutes with every generator of the rank-l extended group
    ctx = SupplementContext(l, d, 0)
    g = ctx.group
    central = g.power(ctx.v_l, ctx.d0)
    for i in range(1, l + 1):
        m = g.simple_lift(i)
        assert g.mul(central, m) == g.mul(m, central)


def test_h_elements_l2():
    ctx = SupplementContext(2, 2, 0)
    g = ctx.group
    assert ctx.h0 == g.h_short(1, 2)
    assert ctx.h[1].torus == (1, 0)
    assert ctx.h[2].torus == (1, 2)
    assert g.mul(ctx.h[1], ctx.h[1]) == ctx.h0
    # d0 = 1 odd: h_1 has an odd coordinate, the product h_1 h_2 does not
    assert not g.in_torsion_two(ctx.h[1])
    assert g.in_torsion_two(g.mul(ctx.h[1], ctx.h[2]))


def test_fixed_torsion_is_h0_times_h1h2():
    ctx = SupplementContext(2, 2, 0)
    g = ctx.group
    gens = [g.torus((2, 0)), g.torus((0, 2))]
    sub = GeneratedSubgroup.generate(g, gens)
    fixed = {x for x in sub.elements if g.frobenius(x, 3, ctx.v_l) == x}
    h1h2 = g.mul(ctx.h[1], ctx.h[2])
    expected = set(
        GeneratedSubgroup.generate(g, [ctx.h0, h1h2]).elements
    )
    assert fixed == expected and len(fixed) == 4


@pytest.mark.parametrize("d0,t_l", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (3, 1), (5, 1), (3, 2)])
@pytest.mark.parametrize("parity", [1, 2])
def test_hl_rank_is_a_l(d0, t_l, parity):
    l = 2 * d0 * t_l
    ctx = SupplementContext(l, parity * d0, 0)
    assert torsion_two_subgroup_fixed_rank(ctx.group, l, FROBENIUS_Q, ctx.v_l) == ctx.a_l


def _gray_code_fixed_count(group, l, twist):
    """Reference: walk all 2^l order-2 torus vectors on the first l
    coordinates in Gray-code order, counting those the twist's Weyl action
    fixes mod 2; each step flips one coordinate, so the image of (M - 1)
    changes by one column."""
    cols = group.weyl_torus_matrix(twist.weyl)[:l]
    moved = [m ^ (1 << j) for j, m in enumerate(_f2_masks(c[:l] for c in cols))]
    image, count = 0, 1
    for step in range(1, 2**l):
        image ^= moved[(step & -step).bit_length() - 1]
        count += not image
    return count


@pytest.mark.parametrize("d0", [1, 3, 5])
def test_fixed_rank_matches_gray_code_enumeration(d0):
    # every hl-structure point with l <= 16
    for t_l in range(1, 16 // (2 * d0) + 1):
        l = 2 * d0 * t_l
        for d in (d0, 2 * d0):
            ctx = SupplementContext(l, d, 0)
            count = _gray_code_fixed_count(ctx.group, l, ctx.v_l)
            for q in (3, 5):
                rank = torsion_two_subgroup_fixed_rank(ctx.group, l, q, ctx.v_l)
                assert rank == ctx.a_l and count == 2**rank, (l, d, q)


def test_p_square_small():
    ctx = SupplementContext(2, 2, 0)
    g = ctx.group
    p1 = ctx.p[1]
    assert g.mul(p1, p1) == g.prod([ctx.h[1], ctx.h[2], ctx.h0])


def test_iota1_sends_simple_to_p():
    ctx = SupplementContext(4, 1, 0)
    assert ctx.iota1(ctx.group.simple_lift(2)) == ctx.p[1]
    ctx = SupplementContext(6, 3, 0)
    assert ctx.iota1(ctx.group.simple_lift(2)) == ctx.p[1]


# sweep points whose iota_1 domain <m_2, ..., m_{a_l}> is small enough to close
IOTA1_CLOSABLE = sorted({(2 * d0 * t_l, d, m) for d0, t_l, m, d in SWEEP_POINTS
                         if 2 ** (2 * t_l - 1) * math.factorial(2 * t_l) <= 2048})


@pytest.mark.parametrize("l,d,m", IOTA1_CLOSABLE)
def test_iota1_injective_by_closure(l, d, m):
    # reference for the kernel certificate of _verify_iota1: the domain has
    # the order 2^(a_l - 1) a_l! its torus kernel <m_i^2> gives it, and
    # iota_1 takes distinct values on all of it
    ctx = SupplementContext(l, d, m)
    g = ctx.group
    order = 2 ** (ctx.a_l - 1) * math.factorial(ctx.a_l)
    dom = GeneratedSubgroup.generate(
        g, [g.simple_lift(i) for i in range(2, ctx.a_l + 1)], budget=order)
    assert len(dom) == order
    assert len({ctx.iota1(x) for x in dom.elements}) == order


def test_iota1_with_an_untranslated_block_is_rejected():
    # the first conjugator of iota_1 replaced by 1: block 1 is block 0,
    # whose generators do not commute
    ctx = SupplementContext(12, 3, 0)
    g = ctx.group
    ctx._twist_powers = [(g.identity, g.identity)] + ctx._twist_powers[1:]
    with pytest.raises(VerificationError, match="translated blocks commute"):
        _verify_iota1(ctx)


def test_iota1_with_a_torus_kernel_is_rejected(monkeypatch):
    ctx = SupplementContext(12, 3, 0)
    monkeypatch.setattr(supplement, "_f2_rank", lambda vectors: ctx.a_l - 2)
    with pytest.raises(VerificationError, match="iota_1 has trivial torus kernel"):
        _verify_iota1(ctx)


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(1, 5, 0, 1)])
def test_p_prime_is_the_iota2_image_of_its_closed_domain(monkeypatch, d0, t_l, m, d):
    # reference for _verify_iota2: the domain <p_1, ..., p_{t_l - 1}>,
    # closed, has order 2^(t_l - 1) t_l!, and iota_2 maps its BFS order
    # onto P' as closed over the p_i', element for element
    if (d0, t_l, m, d) not in SWEEP_POINTS:
        # the reach supplement is dropped with the monkeypatched cache
        monkeypatch.setattr(supplement, "_supplement_cache", {})
    data = build_supplement(2 * d0 * t_l, d, m)
    ctx = data.ctx
    order = 2 ** (t_l - 1) * math.factorial(t_l)
    dom = GeneratedSubgroup.generate(ctx.group, [ctx.p[i] for i in range(1, t_l)], budget=order)
    assert len(dom) == order
    assert tuple(ctx.iota2(x) for x in dom.elements) == data.p_closure.elements


def _build_with_planted_p_closure(monkeypatch, l, d, m, plant):
    """A cold `build_supplement` whose closure of P' is
    plant(group, p_primes, budget) in place of the closure; returns it."""
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    contexts = []
    post_init = SupplementContext.__post_init__
    monkeypatch.setattr(SupplementContext, "__post_init__",
                        lambda self: contexts.append(self) or post_init(self))
    generate = GeneratedSubgroup.generate

    def planted(group, generators, budget=1_000_000):
        if generators is contexts[-1].p_primes:
            return plant(group, generators, budget)
        return generate(group, generators, budget)

    monkeypatch.setattr(GeneratedSubgroup, "generate", staticmethod(planted))
    return build_supplement(l, d, m)


@pytest.mark.parametrize("l,d,m", [(4, 1, 0), (6, 2, 1), (12, 3, 0)])
def test_p_prime_closure_of_the_wrong_size_is_caught(monkeypatch, l, d, m):
    generate = GeneratedSubgroup.generate
    planted = []

    def unchanged(group, gens, budget):
        planted.append(budget)
        return generate(group, gens, budget)

    def short(group, gens, budget):
        return GeneratedSubgroup(generate(group, gens, budget).elements[:-1])

    def stray(group, gens, budget):
        # h_0 lies in C', which meets P' trivially
        return generate(group, gens + [group.h_short(1, 2)], budget)

    data = _build_with_planted_p_closure(monkeypatch, l, d, m, unchanged)
    assert planted == [len(data.p_closure)]
    with pytest.raises(VerificationError, match="P' order"):
        _build_with_planted_p_closure(monkeypatch, l, d, m, short)
    with pytest.raises(BudgetExceededError):
        _build_with_planted_p_closure(monkeypatch, l, d, m, stray)


def test_twisted_frobenius_costs_two_products(monkeypatch):
    ctx = SupplementContext(6, 3, 0)
    g = ctx.group
    v_inv = g.inv(ctx.v_l)
    xs = [ctx.p[1], ctx.h[1], g.mul(ctx.p[1], ctx.h[2]), g.simple_lift(4)]
    want = [g.mul(g.mul(ctx.v_l, g.frobenius_q(x, FROBENIUS_Q)), v_inv) for x in xs]
    calls = []
    mul = g.mul
    monkeypatch.setattr(g, "mul", lambda x, y: calls.append(None) or mul(x, y))
    assert [ctx.frob(x) for x in xs] == want
    # the torus element h_1 costs no product, each other argument costs two,
    # and the first of them also inverts the twist, once
    assert [x.weyl.is_identity() for x in xs] == [False, True, False, False]
    assert len(calls) == 2 * 3 + 1
    calls.clear()
    assert [ctx.frob(x) for x in xs] == want
    assert len(calls) == 2 * 3
    calls.clear()
    assert ctx.frob(ctx.h[1]) == want[1] and calls == []


def test_g_factors_small():
    # t_l = 1: the first interleaver is empty, the second is p_1
    ctx = SupplementContext(2, 1, 0)
    g1, g2 = ctx.g1_g2
    assert g1 == ctx.group.identity
    assert g2 == ctx.p[1]
    # t_l = 2, d0 = 1: the displayed Weyl images
    ctx = SupplementContext(4, 1, 0)
    g1, g2 = ctx.g1_g2
    assert g1.weyl == SignedPermutation.from_mapping(4, {2: 3, 3: 2})
    assert g2.weyl == SignedPermutation.from_mapping(4, {1: 2, 2: 4, 4: 1})


def test_displayed_g_image_formula():
    # rho(g_1) composes the i-th transposition packets, i ascending applied
    # last; same for rho(g_2) with the even targets
    for (d0, t_l) in [(1, 2), (1, 3), (3, 2)]:
        l = 2 * d0 * t_l
        ctx = SupplementContext(l, d0, 0)
        a_l = ctx.a_l
        g1, g2 = ctx.g1_g2
        expected1 = SignedPermutation.identity(ctx.n)
        expected2 = SignedPermutation.identity(ctx.n)
        for i in range(1, t_l + 1):
            pack1, pack2 = {}, {}
            for k in range(d0):
                off = k * a_l
                if i != 2 * i - 1:
                    pack1[off + i] = off + 2 * i - 1
                    pack1[off + 2 * i - 1] = off + i
                pack2[off + i] = off + 2 * i
                pack2[off + 2 * i] = off + i
            expected1 = expected1 * SignedPermutation.from_mapping(ctx.n, pack1)
            expected2 = expected2 * SignedPermutation.from_mapping(ctx.n, pack2)
        assert g1.weyl == expected1
        assert g2.weyl == expected2


@pytest.mark.parametrize("d0,t_l,m", SWEEP_SMALL)
@pytest.mark.parametrize("parity", [1, 2])
def test_build_supplement_sweep_small(d0, t_l, m, parity):
    l = 2 * d0 * t_l
    data = build_supplement(l, parity * d0, m)
    assert data.v_prime_order == 2 * (2 * d0) ** t_l * 2 ** (t_l - 1) * math.factorial(t_l)
    assert len(data.head_coordinates) == 2**t_l
    assert data.c_order == len(c_prime_closure(data)) == 2 * (2 * d0) ** t_l


def test_supplement_examples():
    data = build_supplement(2, 1, 0)
    assert data.v_prime_order == 4
    assert data.c_order == len(c_prime_closure(data)) == 4
    assert len(data.p_closure.elements) == 1
    data = build_supplement(4, 1, 0)
    assert data.v_prime_order == 32  # 2 * (2 d0)^t * 2^(t-1) * t!
    g = data.ctx.group
    # (c_i')^{2 d0} == h_0 at d0 = 3
    data = build_supplement(6, 3, 0)
    g = data.ctx.group
    assert g.power(data.c_primes[0], 2 * 3) == data.ctx.h0


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(3, 4, 0, 3)])
def test_normal_form_matches_the_closure_of_c_prime(d0, t_l, m, d):
    # the reference: C' closed in the extended Weyl group, labelled by the
    # BFS orbit of 1; and P' closed from the p_i'
    data = build_supplement(2 * d0 * t_l, d, m)
    ctx, g = data.ctx, data.ctx.group
    closure = c_prime_closure(data)
    assert len(closure) == data.c_order == 2 * (2 * d0) ** t_l
    assert {c for c in closure.elements if c.weyl.is_identity()} == {g.identity, ctx.h0}
    sums = reference_cyclic_sums(data)
    assert list(sums) == list(closure.elements)
    assert all(ctx.cyclic_sum(c) == s for c, s in sums.items())
    # rho(c_1') with one sign flipped off the points 2i-1 the exponents are
    # read at: the two block cycles of c_1' then turn by different powers
    c1 = data.c_primes[0].weyl
    flip = SignedPermutation.from_mapping(ctx.n, {2: -2})
    assert [k for k, _ in ctx.c_exponents(c1)] == [1] + [0] * (t_l - 1)
    assert ctx.c_exponents(c1 * flip) is None
    p_closure = GeneratedSubgroup.generate(g, data.p_primes, budget=len(data.p_closure))
    assert data.p_closure.elements == p_closure.elements
    moved = [p for p in p_closure.elements if p != g.identity]
    assert all(ctx.cyclic_sum(p) is None for p in moved)
    # c * p for every c in C' and every p != 1 in P'; at (3, 4, 0, 3), in
    # place of those 2,592 x 191 products, every c against the p_i' and
    # every p against the c_i' and h_0
    if data.v_prime_order <= 100_000:
        pairs = [(c, p) for c in closure.elements for p in moved]
    else:
        pairs = ([(c, p) for c in closure.elements for p in data.p_primes]
                 + [(c, p) for c in data.c_primes + [ctx.h0] for p in moved])
    assert all(ctx.cyclic_sum(g.mul(c, p)) is None for c, p in pairs)


@pytest.mark.parametrize("l,d,m", [(4, 1, 0), (12, 3, 1), (6, 2, 2)])
def test_normal_form_reading_exponents_off_by_one_is_caught(monkeypatch, l, d, m):
    # every k_i read one too high: no conjugate p_j' c_i' p_j'^{-1} is
    # recognized as an element of C'
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    powers = SupplementContext.c_powers.func

    def shifted(self):
        return [dict(zip(table, list(table.values())[1:] + list(table.values())[:1]))
                for table in powers(self)]

    monkeypatch.setattr(SupplementContext, "c_powers", property(shifted))
    with pytest.raises(VerificationError, match="P' normalizes C'"):
        build_supplement(l, d, m)


@pytest.mark.parametrize("l,d,m", [(4, 1, 0), (12, 3, 1), (6, 6, 0)])
def test_overlapping_c_prime_supports_are_caught(l, d, m):
    # c_1' and its inverse commute and have the order and 2 d0-th power of
    # c_i', but together they generate 4 d0 elements, not 2 (2 d0)^2
    data = build_supplement(l, d, m)
    ctx, g = data.ctx, data.ctx.group
    bad = [data.c_primes[0], g.inv(data.c_primes[0])]
    assert len(GeneratedSubgroup.generate(g, bad)) == 4 * ctx.d0
    with pytest.raises(VerificationError, match="C' is the central product over <h_0>"):
        _verify_c_structure(ctx, bad)
    assert _verify_c_structure(ctx, data.c_primes) == data.c_order


@pytest.mark.parametrize("l,d,m", [(4, 1, 0), (4, 2, 1), (6, 1, 0)])
def test_c_prime_meeting_the_torus_beyond_h0_is_caught(l, d, m):
    # c_1' and a torus element x off its support with x^2 = h_0, at d0 = 1:
    # every premise but the last holds, and the group they generate has the
    # order 2 (2 d0)^2 but meets the torus in <h_0, x>
    data = build_supplement(l, d, m)
    ctx, g = data.ctx, data.ctx.group
    bad = [data.c_primes[0], g.h_short(3, 1)]
    closure = GeneratedSubgroup.generate(g, bad).elements
    assert len(closure) == 8 and sum(x.weyl.is_identity() for x in closure) == 4
    with pytest.raises(VerificationError, match="C' meets the torus in <h_0>"):
        _verify_c_structure(ctx, bad)


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS)
def test_c_prime_times_a_torus_element_is_rejected(d0, t_l, m, d):
    data = build_supplement(2 * d0 * t_l, d, m)
    ctx, g = data.ctx, data.ctx.group
    c1 = data.c_primes[0]
    closure = set(c_prime_closure(data).elements)
    for t in (g.torus((0, 2) + (0,) * (g.n - 2)), g.h_short(1, 1), ctx.h[1]):
        assert t not in (g.identity, ctx.h0)
        x = g.mul(c1, t)
        assert x not in closure and ctx.cyclic_sum(x) is None
    assert ctx.cyclic_sum(g.mul(c1, ctx.h0)) == 2 * d0 + 1


@pytest.mark.parametrize("d0,t_l,m,d", [(3, 5, 0, 3), (5, 4, 0, 5)])
def test_reach_supplements_never_close_c_prime(monkeypatch, d0, t_l, m, d):
    # built cold, and dropped with the monkeypatched cache
    monkeypatch.setattr(supplement, "_supplement_cache", {})
    calls = []
    generate = GeneratedSubgroup.generate

    def recording(group, generators, budget=1_000_000):
        calls.append(list(generators))
        return generate(group, calls[-1], budget)

    monkeypatch.setattr(GeneratedSubgroup, "generate", staticmethod(recording))
    data = build_supplement(2 * d0 * t_l, d, m)
    assert calls and not any(set(gens) & set(data.c_primes) for gens in calls)
    p_order = 2 ** (t_l - 1) * math.factorial(t_l)
    assert data.c_order == 2 * (2 * d0) ** t_l
    assert len(data.p_closure) == p_order
    assert data.v_prime_order == data.c_order * p_order
    assert data.relative_weyl_order == (2 * d0) ** t_l * math.factorial(t_l)


def test_c1_properties_examples():
    ctx = SupplementContext(2, 2, 0)
    assert ctx.cbar1.images == (-1, 2)
    assert ctx.is_frob_fixed(ctx.c1)
    g = ctx.group
    assert g.power(ctx.c1, 2) in (g.identity, ctx.h0)


def test_no_fixed_lift_error_payload():
    # sabotage: demand a lift of a cycle that is not twist-centralized
    ctx = SupplementContext(4, 2, 0)
    bad = SignedPermutation.from_mapping(ctx.n, {1: 2, 2: 1})
    ctx.cbar1 = bad
    with pytest.raises(VerificationError):
        ctx.c1


def test_subsystem_lifts_cover_the_subsystem_weyl_group():
    # the reference: every element of W(B_5) over orbit 1, lifted along its
    # BFS word in the simple-root lifts, filtered to those commuting with
    # the twist, times the orbit's torus, filtered to the Frobenius-fixed
    ctx = SupplementContext(10, 5, 0)
    g = ctx.group
    roots = ctx._subsystem_simple_roots(ctx.orbits[0])
    lifts = orbit({SignedPermutation.identity(ctx.n): g.identity},
                  [g.root_lift(a) for a in roots],
                  lambda w, lift: w * lift.weyl, 2**5 * 120, step=g.mul)
    assert set(lifts) == perm_closure([g.root_lift(a).weyl for a in roots])
    assert len(lifts) == 2**5 * 120 and all(x.weyl == u for u, x in lifts.items())
    torsion = GeneratedSubgroup.generate(g, [g.torus_of_root(a) for a in roots]).elements
    reference = {y for u, xu in lifts.items() if u * ctx.w_l == ctx.w_l * u
                 for y in (g.mul(h, xu) for h in torsion) if ctx.is_frob_fixed(y)}
    fixed = ctx.orbit_fixed
    assert len(fixed) == len(set(fixed)) and set(fixed) == reference


@pytest.mark.parametrize("d0,t_l", [(1, 1), (1, 2), (3, 1), (3, 2), (5, 1), (7, 1), (9, 1)])
@pytest.mark.parametrize("parity", [1, 2])
def test_fixed_translates_match_the_torus_enumeration(monkeypatch, d0, t_l, parity):
    # the reference filters all 2^{d0} translates h x by the orbit-1 torus;
    # in place of the solver it must give the same c_1, fixed set and
    # twist-centralized torus
    ctx, ref = (SupplementContext(2 * d0 * t_l, parity * d0, 0) for _ in range(2))
    g = ref.group
    roots = ref._subsystem_simple_roots(ref.orbits[0])
    torsion = GeneratedSubgroup.generate(g, [g.torus_of_root(a) for a in roots]).elements
    assert len(torsion) == 2**d0
    monkeypatch.setattr(ref, "fixed_translates", lambda x: [
        y for y in (g.mul(h, x) for h in torsion) if ref.is_frob_fixed(y)])
    solved, enumerated = ((c.c1, sorted(c.orbit_fixed), sorted(c.fixed_translates(c.group.identity)))
                          for c in (ctx, ref))
    assert solved == enumerated and len(solved[1]) == 4 * d0
    # c_1 is also the least fixed translate of the Coxeter lift of cbar_1
    x0 = g.prod([g.root_lift(a) for a in roots])
    assert x0.weyl == ref.cbar1
    assert ctx.c1 == min(ref.fixed_translates(x0), key=lambda y: y.torus)


def _orbit_fixed_per_element(ctx):
    """Reference: one fixed-coset solve per element of the twist's
    centralizer in W(B_{d0}), each lifted along its least reduced word in
    the orbit-1 simple-root lifts."""
    g, idx = ctx.group, sorted(ctx.orbits[0])
    pos = {i: k for k, i in enumerate(idx, start=1)}
    twist = SignedPermutation(tuple(
        pos[ctx.w_l(i)] if ctx.w_l(i) > 0 else -pos[-ctx.w_l(i)] for i in idx))
    lifts = [g.root_lift(a) for a in ctx._subsystem_simple_roots(ctx.orbits[0])]
    return [y for u in centralizer(twist, budget=2 * ctx.d0) for y in ctx.fixed_translates(
        g.prod([lifts[i - 1] for i in least_reduced_word(u.images)]))]


# (5, 1, 0, 5) is a sweep point
@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(7, 1, 0, 7), (9, 1, 0, 9)])
def test_orbit_fixed_matches_the_per_element_solves(d0, t_l, m, d):
    ctx = SupplementContext(2 * d0 * t_l, d, m)
    fixed, reference = ctx.orbit_fixed, _orbit_fixed_per_element(ctx)
    assert len(fixed) == len(set(fixed)) == len(reference) == 4 * d0
    assert set(fixed) == set(reference)
    assert ctx._orbit_generator.weyl == ctx.cbar1


@pytest.mark.parametrize("d0", [1, 3, 5])
def test_generator_of_lower_order_is_rejected(d0):
    # x^2 lies over the square of the generator, of order d0 or 1
    ctx = SupplementContext(2 * d0, d0, 0)
    x = ctx._orbit_generator
    ctx._orbit_generator = ctx.group.mul(x, x)
    with pytest.raises(VerificationError, match="generates the twist's centralizer"):
        ctx.orbit_fixed


def test_unfixed_generator_lift_is_rejected():
    # translating the solved lift by a torus element F moves (the coroot of
    # the last long simple root at -1) leaves it unfixed
    ctx = SupplementContext(6, 3, 0)
    g, solve = ctx.group, ctx.fixed_translates
    h = g.torus_of_root(ctx._subsystem_simple_roots(ctx.orbits[0])[-1])
    assert not ctx.is_frob_fixed(h)
    ctx.fixed_translates = lambda x: [g.mul(h, y) for y in solve(x)]
    with pytest.raises(VerificationError, match="lift is fixed by the twisted Frobenius"):
        ctx.orbit_fixed


def test_c1_does_not_enumerate_the_subsystem():
    ctx = SupplementContext(14, 7, 0)
    assert ctx.is_frob_fixed(ctx.c1) and ctx.c1.weyl == ctx.cbar1


@pytest.mark.parametrize("l,d,m", [(10, 5, 0), (10, 10, 1)])
def test_conjugated_generator_misses_the_relative_weyl_centralizer(l, d, m):
    # c_1' conjugated by a sign change of the first pair block: its image
    # still normalizes W_L, but its pair-block image does not commute with
    # the twist's image
    data = build_supplement(l, d, m)
    ctx, g = data.ctx, data.ctx.group
    flip = g.lift(SignedPermutation.from_mapping(ctx.n, {1: -1, 2: -2}))
    bad = g.conj(flip, data.c_primes[0])
    with pytest.raises(VerificationError, match="cover the relative Weyl centralizer"):
        _verify_relative_weyl(ctx, [bad], data.p_primes, data.relative_weyl_order)


@pytest.mark.parametrize("l,d,m", [(4, 1, 1), (6, 3, 0), (12, 6, 2)])
@pytest.mark.parametrize("factor", [2, 0.5])
def test_quotient_order_off_by_two_misses_the_trivial_meet(l, d, m, factor):
    # the images still generate the whole centralizer, so only the order
    # |V'|/|H'| of rho(V') tells whether rho(V') meets W_L
    data = build_supplement(l, d, m)
    quotient = data.v_prime_order // len(data.head_coordinates)
    with pytest.raises(VerificationError, match="meets the Levi Weyl group trivially"):
        _verify_relative_weyl(data.ctx, data.c_primes, data.p_primes, int(quotient * factor))
    assert _verify_relative_weyl(data.ctx, data.c_primes, data.p_primes, quotient) == quotient


def _factor_closures(monkeypatch, ctx, c_primes, p_primes, quotient):
    """The result of `_verify_relative_weyl` and the closures it forms."""
    formed = []

    def recording(gens, budget):
        formed.append(perm_closure(gens, budget=budget))
        return formed[-1]

    monkeypatch.setattr(supplement, "perm_closure", recording)
    return _verify_relative_weyl(ctx, c_primes, p_primes, quotient), formed


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS + [(3, 4, 0, 3)])
def test_factor_orders_match_one_closure_of_all_images(monkeypatch, d0, t_l, m, d):
    # the reference: one closure of every generator's pair-block image
    data = build_supplement(2 * d0 * t_l, d, m)
    ctx = data.ctx
    cg = relative_weyl_centralizer(ctx.n, levi_root_subset(ctx.n, m, d0, t_l), ctx.w_l)
    whole = perm_closure([cg.image(x.weyl) for x in data.c_primes + data.p_primes],
                         budget=cg.order)
    order, formed = _factor_closures(monkeypatch, ctx, data.c_primes, data.p_primes,
                                     data.relative_weyl_order)
    a, b = formed
    assert a | b <= whole
    assert len(a) * len(b) // len(a & b) == len(whole) == order


def test_relative_weyl_at_l30_closes_only_the_two_factors(monkeypatch):
    # (3, 5, 0, 3): |C| = 6^5 5! = 933,120, of which A holds 6^5 and B 5!
    ctx = SupplementContext(30, 3, 0)
    c_primes, p_primes = ctx.c_primes, ctx.p_primes
    t0 = time.perf_counter()
    order, formed = _factor_closures(monkeypatch, ctx, c_primes, p_primes,
                                     6**5 * math.factorial(5))
    assert time.perf_counter() - t0 <= 1.0
    assert order == 933_120
    assert sum(map(len, formed)) <= 7_776 + 120


@pytest.mark.parametrize("l,d,m", [(4, 1, 0), (12, 3, 1), (6, 2, 2)])
def test_non_normalizing_generators_are_caught(l, d, m):
    # c_1' alone: the p_j' images move its image out of the group it generates
    data = build_supplement(l, d, m)
    with pytest.raises(VerificationError, match="normalize the Weyl image of C'"):
        _verify_relative_weyl(data.ctx, data.c_primes[:1], data.p_primes,
                              data.relative_weyl_order)


def test_supplement_and_extmap_pass_at_l24():
    # (3, 4, 0, 3): l = 24, a relative Weyl centralizer of 31,104 elements
    for suite in ("supplement", "extmap-hypotheses"):
        assert run_suite(suite, point=(3, 4, 0, 3)).passed


def test_h_parity_centrality_in_levi():
    # h_i h_{i+1} pairs trivially with every Levi root exactly when i is odd
    for (d0, t_l, m) in [(1, 2, 1), (3, 1, 1), (1, 3, 0)]:
        l = 2 * d0 * t_l
        ctx = SupplementContext(l, d0, m)
        levi = levi_root_subset(ctx.n, m, d0, t_l)
        g = ctx.group
        for i in range(1, ctx.a_l):
            h = g.mul(ctx.h[i], ctx.h[i + 1])
            central = all(root_character_eval(a, h) == 0 for a in levi.roots)
            assert central == (i % 2 == 1), (d0, t_l, m, i)


def test_h_prime_central_in_levi():
    data = build_supplement(4, 1, 1)
    ctx = data.ctx
    levi = levi_root_subset(ctx.n, ctx.m, ctx.d0, ctx.t_l)
    for h in data.head_coordinates:
        assert all(root_character_eval(a, h) == 0 for a in levi.roots)


def test_extmap_hypotheses():
    report = verify_extmap_hypotheses(2, 1, 1)
    assert report["h_prime_central_in_levi"]
    assert report["v_prime_order"] // report["h_prime_order"] == report["relative_weyl_order"]
    report = verify_extmap_hypotheses(4, 2, 1)
    assert report["relative_weyl_order"] == 8


def test_frobenius_conventions_report():
    conv = check_frobenius_conventions(SupplementContext(6, 3, 0))
    assert conv["both_pass"]
    assert conv["conjugate_by_twist"] == conv["expected_rank"]
    # l = 24: past the 2^20 vectors an enumeration could walk
    conv = check_frobenius_conventions(SupplementContext(24, 3, 0))
    assert conv["conjugate_by_twist"] == conv["conjugate_by_inverse_twist"] == 8


def test_rejects_even_d0():
    with pytest.raises(ValueError):
        build_supplement(4, 4, 0)  # d = 4 gives d0 = 2
