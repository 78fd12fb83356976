import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bweyl import BudgetExceededError, sperm
from bweyl.roots import build_root_system, coroot, dot, levi_root_subset
from bweyl.sperm import (
    SignedPermutation,
    centralizer,
    centralizer_order,
    closure,
    orbit,
    orbits_on_support,
    reflection,
    relative_weyl_centralizer,
    sylow_twist,
    w_l_prime_parts,
)
from bweyl.suites import SWEEP_POINTS
from bweyl.supplement import build_supplement


def reference_reflection(n, a):
    """The reflection as it was computed before it read only the support of
    a: each of the n unit vectors dotted with the coroot."""
    cr = coroot(a)
    images = []
    for i in range(1, n + 1):
        e_i = tuple(1 if k == i - 1 else 0 for k in range(n))
        img = tuple(x - dot(e_i, cr) * y for x, y in zip(e_i, a))
        nz = [(k + 1, v) for k, v in enumerate(img) if v]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError(f"{a} does not define a signed-permutation reflection")
        images.append(nz[0][0] * nz[0][1])
    return SignedPermutation(tuple(images))


def test_reflection_matches_the_coordinate_formula():
    for n in range(2, 10):
        for a in sorted(build_root_system("B", n).roots):
            assert reflection(n, a) == reference_reflection(n, a), a
    # a root of type C, non-roots, and a root shorter than the rank
    assert reflection(3, (0, -2, 0)) == reference_reflection(3, (0, -2, 0))
    for n, a in [(2, (0, 0)), (3, (1, 1, 1)), (2, (2, 2)), (2, (1, 2)), (3, (1, 0))]:
        with pytest.raises(ValueError) as want:
            reference_reflection(n, a)
        with pytest.raises(ValueError) as got:
            reflection(n, a)
        assert str(got.value) == str(want.value)


def rand_perm(draw_images):
    return SignedPermutation(tuple(draw_images))


def _order(s: SignedPermutation) -> int:
    """The least k >= 1 with s^k = 1."""
    k, p = 1, s
    while not p.is_identity():
        p, k = p * s, k + 1
    return k


signed_perms = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).flatmap(
        lambda p: st.tuples(*[st.sampled_from([x, -x]) for x in p])
    )
).map(SignedPermutation)


def test_basic_action():
    w0 = sylow_twist(2, 4)  # the 4-cycle 1 -> 2 -> -1 -> -2
    assert w0.images == (2, -1)
    assert w0.act_on_root((1, 0)) == (0, 1)
    sq = w0 * w0
    assert sq.images == (-1, -2)


@given(signed_perms)
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip(s):
    assert (s * s.inverse()).is_identity()
    assert (s.inverse() * s).is_identity()


@given(signed_perms)
@settings(max_examples=60, deadline=None)
def test_action_respects_composition(s):
    t = s * s
    root = tuple([1] + [0] * (s.rank - 1))
    assert t.act_on_root(root) == s.act_on_root(s.act_on_root(root))


def test_sylow_twist_examples():
    assert sylow_twist(2, 4).images == (2, -1)
    assert sylow_twist(2, 1).is_identity()
    w = sylow_twist(3, 2)
    assert w.images == (-1, -2, -3)  # cube of the 6-cycle
    with pytest.raises(ValueError):
        sylow_twist(3, 4)


def test_sylow_twist_orders():
    for nprime in range(1, 7):
        w0 = sylow_twist(nprime, 2 * nprime)
        assert _order(w0) == 2 * nprime
        for d in range(1, 2 * nprime + 1):
            if (2 * nprime) % d == 0:
                assert _order(sylow_twist(nprime, d)) == d


def test_orbits_on_support():
    # l = 2, d0 = 1, d = 2: unsigned part of the twist is trivial
    v = sylow_twist(2, 2)
    assert orbits_on_support(v, 2) == [(1,), (2,)]
    # l = 6, d0 = 3, d = 3: two orbits of size 3
    v = sylow_twist(6, 3)
    assert orbits_on_support(v, 6) == [(1, 3, 5), (2, 4, 6)]
    assert orbits_on_support(SignedPermutation.identity(3), 3) == [(1,), (2,), (3,)]


@pytest.mark.parametrize(
    "l,d0,t_l",
    [(2, 1, 1), (4, 1, 2), (6, 1, 3), (6, 3, 1), (12, 3, 2), (10, 5, 1), (12, 1, 6)],
)
def test_twist_orbit_structure(l, d0, t_l):
    # a_l = 2 t_l orbits, each of size d0, for both d-parities
    for d in (d0, 2 * d0):
        w = sylow_twist(l, d)
        orbits = orbits_on_support(w, l)
        assert len(orbits) == 2 * t_l
        assert all(len(o) == d0 for o in orbits)


def test_w_l_prime_parts_example():
    w_l_prime, parts, taus = w_l_prime_parts(2, 1, 1)
    assert parts[0].images == (-1, -2)
    assert w_l_prime.images == (-1, -2)
    assert taus == []

    w_l_prime, parts, taus = w_l_prime_parts(4, 1, 2)
    assert taus[0].images == (3, 4, 1, 2)
    assert (taus[0] * taus[0]).is_identity()
    prod = parts[0] * parts[1]
    assert prod == w_l_prime


@pytest.mark.parametrize("l,d0,t_l", [(4, 1, 2), (6, 1, 3), (6, 3, 1), (12, 3, 2)])
def test_w_l_prime_consistency(l, d0, t_l):
    w_l_prime, parts, taus = w_l_prime_parts(l, d0, t_l)
    # the displayed product decomposition and the power-of-cycle agree
    w0 = sylow_twist(l, 2 * l)  # the full 2l-cycle
    power = SignedPermutation.identity(l)
    for _ in range(2 * t_l):
        power = power * w0
    assert power == w_l_prime
    for tau in taus:
        assert (tau * tau).is_identity()
        assert tau * w_l_prime == w_l_prime * tau
    for p in parts:
        assert _order(p) == 2 * d0


def is_in_WD(s: SignedPermutation) -> bool:
    """Membership in the index-2 type-D subgroup: evenly many sign changes."""
    return sum(x < 0 for x in s.images) % 2 == 0


def test_is_in_WD():
    assert is_in_WD(SignedPermutation.identity(3))
    assert not is_in_WD(SignedPermutation.from_mapping(2, {1: -1}))
    assert is_in_WD(SignedPermutation.from_mapping(2, {1: -1, 2: -2}))


def test_wd_index_two():
    group = closure(
        [SignedPermutation.simple_reflection(3, i) for i in (1, 2, 3)], budget=10**4
    )
    assert len(group) == 2**3 * 6
    inside = [g for g in group if is_in_WD(g)]
    assert len(inside) * 2 == len(group)


@pytest.mark.parametrize(
    "n,m,d0,t_l,d,expected",
    [
        (3, 1, 1, 1, 1, 2),
        (3, 1, 1, 1, 2, 2),
        (4, 0, 1, 2, 2, 8),
        (6, 0, 3, 1, 3, 6),
        (6, 0, 3, 1, 6, 6),
    ],
)
def test_relative_weyl_centralizer_orders(n, m, d0, t_l, d, expected):
    l = n - m
    levi = levi_root_subset(n, m, d0, t_l)
    w_l = sylow_twist(l, d, n)
    cg = relative_weyl_centralizer(n, levi, w_l)
    assert cg.order == expected == (2 * d0) ** t_l * _factorial(t_l)


def _factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


@pytest.mark.parametrize("n,m,d0,t_l,d", [(4, 0, 1, 2, 2), (6, 0, 1, 3, 1), (6, 0, 3, 1, 3)])
def test_relative_weyl_wreath_relations(n, m, d0, t_l, d):
    # images of the w'_{l,i} and tau_i generate the centralizer and satisfy
    # the wreath product relations
    l = n - m
    levi = levi_root_subset(n, m, d0, t_l)
    w_l = sylow_twist(l, d, n)
    cg = relative_weyl_centralizer(n, levi, w_l)
    _, parts, taus = w_l_prime_parts(l, d0, t_l, n)
    levi_group = closure([reflection(n, a) for a in levi.positive()])

    def canon(g):
        return min((g * h for h in levi_group), key=lambda s: s.images)

    images = [canon(p) for p in parts] + [canon(t) for t in taus]
    assert all(cg.image(img) * cg.twist == cg.twist * cg.image(img) for img in images)
    # closure of the images inside the quotient maps onto the centralizer
    generated = {canon(SignedPermutation.identity(n))}
    frontier = list(generated)
    while frontier:
        nxt = []
        for x in frontier:
            for g in list(parts) + list(taus):
                y = canon(x * g)
                if y not in generated:
                    generated.add(y)
                    nxt.append(y)
        frontier = nxt
    assert {cg.image(x) for x in generated} == set(centralizer(cg.twist, cg.order))
    assert len(generated) == cg.order
    # wreath relations: cyclic part of order 2*d0, blocks commute, taus are
    # involutions conjugating adjacent blocks into each other
    for p in parts:
        assert _order(p) == 2 * d0
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            assert p * q == q * p
    for i, tau in enumerate(taus):
        conj = tau * parts[i] * tau.inverse()
        assert canon(conj) == canon(parts[i + 1])


def orbit_stabilizer_cosets(n, levi_roots, w_l, budget=4_000_000):
    """The reference: N_W(W_L) as the stabilizer of the root set, grown from
    Schreier generators of its orbit under W(B_n) until it has the order
    |W| / |orbit|, partitioned into W_L-cosets named by their least element.
    Returns (every element of N -> its coset's name, the names centralizing
    the twist coset in increasing order, the name of the twist coset)."""
    gens = [SignedPermutation.simple_reflection(n, i) for i in range(1, n + 1)]

    def act(rootset, g):
        return frozenset(g.act_on_root(a) for a in rootset)

    identity = SignedPermutation.identity(n)
    transversal = orbit({frozenset(levi_roots.roots): identity}, gens, act,
                        budget, step=lambda u, g: g * u)
    target = 2**n * math.factorial(n) // len(transversal)
    schreier = (transversal[act(point, g)].inverse() * g * u
                for point, u in transversal.items() for g in gens)
    stab = {identity}
    essential = []
    for s in schreier:
        if len(stab) == target:
            break
        if s not in stab:
            essential.append(s)
            stab = closure(essential, budget=budget)
    assert len(stab) == target
    levi_group = closure([reflection(n, a) for a in levi_roots.positive()], budget=budget)
    canon, reps = {}, []
    for g in sorted(stab):
        if g in canon:
            continue
        coset = sorted(g * h for h in levi_group)
        reps.append(coset[0])
        for x in coset:
            canon[x] = coset[0]
    assert len(reps) * len(levi_group) == len(stab)
    twist_rep = canon[w_l]
    cent = tuple(r for r in reps if canon[r * w_l * r.inverse()] == twist_rep)
    return canon, cent, twist_rep


@pytest.mark.parametrize("d0,t_l,m,d", [p for p in SWEEP_POINTS
                                        if 2 * p[0] * p[1] + p[2] <= 8])
def test_relative_weyl_matches_orbit_stabilizer(d0, t_l, m, d):
    l = 2 * d0 * t_l
    n = l + m
    levi = levi_root_subset(n, m, d0, t_l)
    w_l = sylow_twist(l, d, n)
    _, cent, twist_rep = orbit_stabilizer_cosets(n, levi, w_l)
    cg = relative_weyl_centralizer(n, levi, w_l)
    assert cg.image(twist_rep) == cg.twist and len(cent) == cg.order
    assert {cg.image(r) for r in cent} == set(centralizer(cg.twist, cg.order))


@pytest.mark.parametrize("n,m,d0,t_l,d", [(5, 1, 1, 2, 1), (4, 2, 1, 1, 2)])
def test_canonical_names_every_coset_and_nothing_else(n, m, d0, t_l, d):
    levi = levi_root_subset(n, m, d0, t_l)
    canon, _, _ = orbit_stabilizer_cosets(n, levi, sylow_twist(n - m, d, n))
    cg = relative_weyl_centralizer(n, levi, sylow_twist(n - m, d, n))
    weyl = closure([SignedPermutation.simple_reflection(n, i) for i in range(1, n + 1)])
    assert {x for x in weyl if cg.image(x) is not None} == set(canon)
    # image and the reference's coset name determine each other on N_W(W_L)
    pairs = {(canon[x], cg.image(x)) for x in canon}
    assert len(pairs) == len(set(canon.values())) == len({p for _, p in pairs})


def enumerated_relative_weyl(n, levi_roots, w_l, budget=4_000_000):
    """The reference: the centralizer of the twist's image in W(B_{l/2}),
    lifted to the least representative of each W_L-coset, each lift checked
    to stabilize the root set and to centralize w_l modulo W_L."""
    cg = relative_weyl_centralizer(n, levi_roots, w_l)

    def least_lift(p):
        images = []
        for t in p.images:
            images += (2 * t - 1, 2 * t) if t > 0 else (2 * t, 2 * t + 1)
        return SignedPermutation(tuple(images) + tuple(range(-n, -2 * p.rank)))

    lifts = sorted(least_lift(c) for c in centralizer(cg.twist, budget))
    positive = levi_roots.positive()
    for r in lifts:
        assert all(r.act_on_root(a) in levi_roots.roots for a in positive)
        assert cg.image(r * w_l * r.inverse()) == cg.twist
    return lifts


@pytest.mark.parametrize("d0,t_l,m,d", SWEEP_POINTS)
def test_relative_weyl_order_matches_the_enumeration(d0, t_l, m, d):
    l = 2 * d0 * t_l
    n = l + m
    lifts = enumerated_relative_weyl(n, levi_root_subset(n, m, d0, t_l), sylow_twist(l, d, n))
    assert len(set(lifts)) == len(lifts) == build_supplement(l, d, m).relative_weyl_order


def test_relative_weyl_order_at_rank_30_enumerates_nothing(monkeypatch):
    def refuse(x, budget):
        raise AssertionError("the centralizer was enumerated")

    monkeypatch.setattr(sperm, "centralizer", refuse)
    cg = relative_weyl_centralizer(30, levi_root_subset(30, 0, 3, 5), sylow_twist(30, 3))
    assert cg.order == 933_120 == 6**5 * math.factorial(5)


def test_relative_weyl_rejects_other_levis():
    # s_3 swaps 2 and 3, so it moves the pair {1, 2} off the pair blocks
    with pytest.raises(ValueError):
        relative_weyl_centralizer(4, levi_root_subset(4, 0, 1, 2),
                                  SignedPermutation.simple_reflection(4, 3))
    # one short root and one pair root: not B_m x A_1^{l/2}
    odd = levi_root_subset(3, 1, 1, 1)
    with pytest.raises(ValueError):
        relative_weyl_centralizer(4, type(odd)(4, frozenset(a + (0,) for a in odd.roots)),
                                  SignedPermutation.identity(4))


def brute_force_centralizer(x):
    k = x.rank
    weyl = closure([SignedPermutation.simple_reflection(k, i) for i in range(1, k + 1)])
    return {g for g in weyl if g * x == x * g}


mixed_signed_perms = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).flatmap(
        lambda p: st.tuples(*[st.sampled_from([x, -x]) for x in p])
    )
).map(SignedPermutation)


@given(mixed_signed_perms)
@example(SignedPermutation((2, 3, -1)))  # one negative 3-cycle
@example(SignedPermutation((-2, 3, 1, 4)))  # a negative 3-cycle and a fixed point
@example(SignedPermutation((2, 1, -3, -4)))  # a positive 2-cycle and two negative 1-cycles
@example(SignedPermutation((3, 4, 1, 2)))  # two positive 2-cycles
@settings(max_examples=80, deadline=None)
def test_centralizer_matches_brute_force(x):
    cent = centralizer(x, budget=384)
    assert len(cent) == len(set(cent)) == centralizer_order(x)
    assert set(cent) == brute_force_centralizer(x)


def test_centralizer_budget():
    x = SignedPermutation.identity(4)  # centralizer is all 384 elements
    assert len(centralizer(x, budget=384)) == 384
    with pytest.raises(BudgetExceededError):
        centralizer(x, budget=383)


B3_GENS = [SignedPermutation.simple_reflection(3, i) for i in (1, 2, 3)]


def _b3_orbit(budget):
    return orbit({SignedPermutation.identity(3): ()}, range(3),
                 lambda x, i: x * B3_GENS[i], budget,
                 step=lambda word, i: word + (i,))


def test_orbit_bfs_order_and_labels():
    labels = _b3_orbit(48)
    points = list(labels)
    assert len(points) == 48
    assert points[0] == SignedPermutation.identity(3) and points[1:4] == B3_GENS
    index = {x: k for k, x in enumerate(points)}
    first_edge = {}
    for x in points:
        for i in range(3):
            first_edge.setdefault(x * B3_GENS[i], (index[x], i))
    # each point is discovered by the first edge into it, in edge order, and
    # is labelled by stepping its discoverer's label along that edge
    found = [first_edge[y] for y in points[1:]]
    assert found == sorted(found)
    for y, (parent, i) in zip(points[1:], found):
        assert labels[y] == labels[points[parent]] + (i,)
    # BFS words are reduced: their lengths count W(B_3) by Coxeter length
    counts = Counter(len(word) for word in labels.values())
    assert [counts[k] for k in range(10)] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


def test_orbit_and_closure_budget_boundary():
    assert len(_b3_orbit(48)) == 48
    with pytest.raises(BudgetExceededError):
        _b3_orbit(47)
    assert len(closure(B3_GENS, budget=48)) == 48
    with pytest.raises(BudgetExceededError):
        closure(B3_GENS, budget=47)


def _closure_over_inverses(generators, budget):
    """The closure as it was built before: BFS over the generators and their
    inverses."""
    gens = list(generators) + [g.inverse() for g in generators]
    identity = generators[0] * generators[0].inverse()
    return set(orbit({identity: None}, gens, operator.mul, budget))


def _random_signed_permutation(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return SignedPermutation(tuple(v if rng.random() < 0.5 else -v for v in images))


def test_closure_matches_the_closure_over_inverses():
    # one to three generators: random elements, and conjugates of simple
    # reflections, which keep many of the subgroups within the budget
    budget = 5000
    completed = 0
    for n in range(2, 9):
        rng = random.Random(61 + n)
        for _ in range(15):
            gens = []
            for _ in range(rng.randrange(1, 4)):
                x = _random_signed_permutation(n, rng)
                if rng.randrange(2):
                    s = SignedPermutation.simple_reflection(n, rng.randrange(1, n + 1))
                    x = x * s * x.inverse()
                gens.append(x)
            try:
                want = _closure_over_inverses(gens, budget)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    closure(gens, budget)
                continue
            assert closure(gens, budget) == want
            completed += 1
    assert completed >= 60
