import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bweyl import BudgetExceededError, VerificationError
from bweyl import tits
from bweyl.sperm import SignedPermutation, closure as perm_closure, orbit
from bweyl.suites import suite_tits_core
from bweyl.tits import (
    ExtendedWeylGroup,
    GeneratedSubgroup,
    MonomialElement,
    _f2_rank,
    _from_e,
    _to_e,
    fixed_coset,
    least_reduced_word,
    root_character_eval,
    torsion_two_subgroup_fixed_rank,
)


@pytest.fixture(scope="module")
def g2():
    return ExtendedWeylGroup(2)


@pytest.fixture(scope="module")
def g3():
    return ExtendedWeylGroup(3)


# -- reference kernel ------------------------------------------------------------
# The kernel as it was before the fused action, the one-pass fold and the
# resumed descent scan: each step goes through its own helper, the torus
# action round-trips through e-coordinates, and every least left descent is
# searched for from 1.


def _ref_inverse_table(images):
    n = len(images)
    inv = [0] * (n + 1)
    for pos, val in enumerate(images, start=1):
        if val > 0:
            inv[val] = pos
        else:
            inv[-val] = -pos
    return inv


def _ref_least_descent(inv, n):
    if inv[1] < 0:
        return 1
    for i in range(2, n + 1):
        a, b = inv[i], inv[i - 1]
        if (a < 0) if abs(a) > abs(b) else (b > 0):
            return i
    return 0


def _ref_apply_simple_left(images, inv, i):
    """In place: w <- s_i w, maintaining the inverse table."""
    if i == 1:
        p = inv[1]
        images[abs(p) - 1] = -images[abs(p) - 1]
        inv[1] = -p
    else:
        p, r = inv[i - 1], inv[i]
        images[abs(p) - 1] = i if p > 0 else -i
        images[abs(r) - 1] = (i - 1) if r > 0 else -(i - 1)
        inv[i - 1], inv[i] = r, p


def _ref_apply_simple_torus(t, i, n):
    """In place: t <- s_i . t on coroot coordinates."""
    if i == 1:
        t[0] = (t[1] if n > 1 else 0) - t[0]
    elif i == 2:
        t[1] = 2 * t[0] - t[1] + (t[2] if n > 2 else 0)
    else:
        t[i - 1] = t[i - 2] - t[i - 1] + (t[i] if i < n else 0)


def reference_least_reduced_word(images):
    """Strip the least left descent, rescanning from 1 each time."""
    word = []
    images = list(images)
    n = len(images)
    while True:
        inv = _ref_inverse_table(images)
        i = _ref_least_descent(inv, n)
        if i == 0:
            return tuple(word)
        word.append(i)
        _ref_apply_simple_left(images, inv, i)


def _ref_act_on_coroot_coords(images, c):
    """w.c over Z: the signed permutation w acting on e-coordinates."""
    moved = [0] * len(c)
    for image, v in zip(images, _to_e(c)):
        if image > 0:
            moved[image - 1] = v
        else:
            moved[-image - 1] = -v
    return _from_e(moved)


def _ref_fold(g, w1, w2):
    n = g.n
    t = [0] * n
    images = list(w2.images)
    inv = _ref_inverse_table(images)
    flip = g.cocycle_rule == "ascent"
    for i in reversed(reference_least_reduced_word(w1.images)):
        if i == 1:
            descent = inv[1] < 0
        else:
            a, b = inv[i], inv[i - 1]
            descent = (a < 0) if abs(a) > abs(b) else (b > 0)
        _ref_apply_simple_torus(t, i, n)
        if descent != flip:
            t[i - 1] += 2
        _ref_apply_simple_left(images, inv, i)
    return tuple(c % g.modulus for c in t), SignedPermutation(tuple(images))


def reference_mul(g, x, y):
    """(t1, w1)(t2, w2) = (t1 + w1.t2 + cocycle(w1, w2), w1 w2), uncached."""
    cocycle, product = _ref_fold(g, x.weyl, y.weyl)
    acted = _ref_act_on_coroot_coords(x.weyl.images, y.torus)
    return MonomialElement(
        tuple((a + b + c) % g.modulus for a, b, c in zip(x.torus, acted, cocycle)),
        product)


def weyl_act_torus(g, w, coords):
    """Action of w on torus coordinates, one simple reflection at a time
    along the reference reduced word: independent of mul."""
    t = list(coords)
    for i in reversed(reference_least_reduced_word(w.images)):
        _ref_apply_simple_torus(t, i, g.n)
    return tuple(c % g.modulus for c in t)


def random_signed_permutation(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return SignedPermutation(tuple(v if rng.random() < 0.5 else -v for v in images))


def random_element(g, rng):
    out = g.identity
    for _ in range(rng.randrange(1, 12)):
        out = g.mul(out, g.simple_lift(rng.randrange(1, g.n + 1)))
    t = tuple(rng.randrange(4) for _ in range(g.n))
    return g.mul(g.torus(t), out)


def test_simple_lift_squares(g3):
    for i in (1, 2, 3):
        m = g3.simple_lift(i)
        sq = g3.mul(m, m)
        assert sq == g3.h_simple(i)
        assert sq.weyl.is_identity()
        coords = [0, 0, 0]
        coords[i - 1] = 2
        assert sq.torus == tuple(coords)


def test_braid_relations(g3):
    m1, m2, m3 = (g3.simple_lift(i) for i in (1, 2, 3))
    lhs = g3.prod([m1, m2, m1, m2])
    rhs = g3.prod([m2, m1, m2, m1])
    assert lhs == rhs
    assert g3.prod([m2, m3, m2]) == g3.prod([m3, m2, m3])
    assert g3.mul(m1, m3) == g3.mul(m3, m1)


def test_rho_projection(g3):
    for i in (1, 2, 3):
        assert g3.simple_lift(i).weyl == SignedPermutation.simple_reflection(3, i)


def test_closure_order_small():
    g = ExtendedWeylGroup(2)
    v = GeneratedSubgroup.generate(g, [g.simple_lift(1), g.simple_lift(2)])
    assert len(v) == 2**2 * 8  # 2^n * |W(B_n)|
    g = ExtendedWeylGroup(3)
    v = GeneratedSubgroup.generate(g, [g.simple_lift(i) for i in (1, 2, 3)])
    assert len(v) == 2**3 * 48


def test_generate_budget_boundary(g2):
    gens = [g2.simple_lift(1), g2.simple_lift(2)]
    v = GeneratedSubgroup.generate(g2, gens, budget=32)
    assert len(v) == 32
    assert g2.simple_lift(2) in v.elements and g2.torus((1, 0)) not in v.elements
    with pytest.raises(BudgetExceededError):
        GeneratedSubgroup.generate(g2, gens, budget=31)


def test_closure_with_full_torsion():
    g = ExtendedWeylGroup(3)
    gens = [g.simple_lift(i) for i in (1, 2, 3)]
    gens += [g.torus((2 if j == i else 0 for j in range(3))) for i in range(3)]
    grp = GeneratedSubgroup.generate(g, gens)
    assert len(grp) == 2**3 * 2**3 * 6


def test_group_axioms_exhaustive_rank2(g2):
    grp = GeneratedSubgroup.generate(g2, [g2.simple_lift(1), g2.simple_lift(2)])
    elems = grp.elements
    for x in elems:
        assert g2.mul(x, g2.inv(x)) == g2.identity
        assert g2.mul(g2.inv(x), x) == g2.identity
    for x, y, z in itertools.product(elems, elems, elems):
        assert g2.mul(g2.mul(x, y), z) == g2.mul(x, g2.mul(y, z))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_group_axioms_randomized(n):
    g = ExtendedWeylGroup(n)
    rng = random.Random(1000 + n)
    for _ in range(2500 if n <= 4 else 1000):
        x, y, z = (random_element(g, rng) for _ in range(3))
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
        assert g.mul(x, g.inv(x)) == g.identity


def test_inverse_randomized():
    g = ExtendedWeylGroup(5)
    rng = random.Random(7)
    for _ in range(1000):
        x = random_element(g, rng)
        assert g.mul(x, g.inv(x)) == g.identity


def test_matsumoto_well_definedness():
    # all reduced words of w give the same canonical lift
    for n in (2, 3, 4):
        g = ExtendedWeylGroup(n)
        weyl = perm_closure(
            [SignedPermutation.simple_reflection(n, i) for i in range(1, n + 1)]
        )
        rng = random.Random(5)
        sample = sorted(weyl, key=lambda s: s.images)
        if n >= 3:
            sample = rng.sample(sample, 40 if n == 3 else 25)
        for w in sample:
            words = _all_reduced_words(g, w, cap=40)
            lifts = {
                g.prod([g.simple_lift(i) for i in word]) for word in words
            }
            assert len(lifts) == 1
            assert lifts.pop() == g.lift(w)


def _all_reduced_words(g, w, cap):
    if w.is_identity():
        return [()]
    words = []
    for i in range(1, g.n + 1):
        si = SignedPermutation.simple_reflection(g.n, i)
        shorter = si * w
        if len(g.reduced_word(shorter)) < len(g.reduced_word(w)):
            for rest in _all_reduced_words(g, shorter, cap):
                words.append((i,) + rest)
                if len(words) >= cap:
                    return words
    return words


def test_associativity_exhaustive_generators(g3):
    gens = [g3.simple_lift(i) for i in (1, 2, 3)]
    for x in gens:
        for y in gens:
            for z in gens:
                assert g3.mul(g3.mul(x, y), z) == g3.mul(x, g3.mul(y, z))


def test_fixed_subgroup_trivial_twist():
    g = ExtendedWeylGroup(2)
    gens = [g.torus((2, 0)), g.torus((0, 2))]
    sub = GeneratedSubgroup.generate(g, gens)
    fixed = [x for x in sub.elements if g.frobenius(x, 3, g.identity) == x]
    assert set(fixed) == set(sub.elements)


def test_frobenius_basics(g3):
    h0 = g3.h_short(1, 2)
    for q in (3, 5, 7, 9):
        assert g3.frobenius_q(h0, q) == h0
    m = g3.simple_lift(2)
    assert g3.frobenius_q(m, 3) == m
    with pytest.raises(ValueError):
        g3.frobenius_q(m, 4)


def test_torus_coordinate_conversion(g3):
    # 2 e_3 = coroot of e_3 = alpha_1^vee + 2 alpha_2^vee + 2 alpha_3^vee
    assert g3.coroot_coords((0, 0, 2)) == (1, 2, 2)
    assert _to_e((1, 2, 2)) == [0, 0, 2]
    with pytest.raises(ValueError):
        g3.coroot_coords((1, 0, 0))
    rng = random.Random(17)
    for n in range(1, 19):
        c = [rng.randrange(-9, 10) for _ in range(n)]
        assert _from_e(_to_e(c)) == c
        v = _to_e(c)
        assert sum(v) % 2 == 0 and _to_e(_from_e(v)) == v


def test_h_short_square(g3):
    h = g3.h_short(2)  # fourth-root exponent 1 on the coroot of e_2
    sq = g3.mul(h, h)
    assert sq == g3.h_short(2, 2)
    assert sq == g3.h_short(1, 2)  # the -1 value is the same central element


def test_root_character_eval(g3):
    h0 = g3.h_short(1, 2)
    # the order-2 element attached to e_1 pairs trivially with every root
    for a in [(1, 0, 0), (0, 1, 0), (-1, 1, 0), (1, 1, 0), (0, -1, 1)]:
        assert root_character_eval(a, h0) == 0
    h = g3.h_short(2, 1)
    assert root_character_eval((0, 1, 0), h) == 2  # acts by -1
    assert root_character_eval((1, 0, 0), h) == 0


def _coroot_basis_pairing(a, coords):
    """sum_i c_i <a, alpha_i^vee>, one coroot vector per coordinate."""
    n = len(coords)
    total = 0
    for i, c in enumerate(coords, start=1):
        if i == 1:
            cr = tuple(2 if j == 0 else 0 for j in range(n))
        else:
            cr = tuple(1 if j == i - 1 else -1 if j == i - 2 else 0 for j in range(n))
        total += c * sum(x * y for x, y in zip(a, cr))
    return total % 4


def test_root_character_eval_matches_coroot_sum():
    rng = random.Random(29)
    for n in range(2, 19):
        for _ in range(40):
            i, j = rng.sample(range(n), 2)
            a = [0] * n
            a[i] = rng.choice((1, -1))
            if rng.random() < 0.7:  # long root +-e_i +- e_j
                a[j] = rng.choice((1, -1))
            t = tuple(rng.randrange(4) for _ in range(n))
            assert root_character_eval(tuple(a), t) == _coroot_basis_pairing(a, t)


def test_root_lift_lands_in_rank_one(g3):
    for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 0), (1, 1, 0), (0, -1, 1)]:
        x = g3.root_lift(a)
        from bweyl.sperm import reflection

        assert x.weyl == reflection(3, a)
        sq = g3.mul(x, x)
        assert sq == g3.torus_of_root(a)


def test_weyl_act_torus_matches_fold(g3):
    rng = random.Random(3)
    for _ in range(50):
        x = random_element(g3, rng)
        t = tuple(rng.randrange(4) for _ in range(3))
        via_mul = g3.mul(g3.mul(x, g3.torus(t)), g3.inv(x))
        assert via_mul.weyl.is_identity()
        assert via_mul.torus == weyl_act_torus(g3, x.weyl, t)


@st.composite
def weyl_and_torus(draw):
    n = draw(st.integers(min_value=2, max_value=18))
    perm = draw(st.permutations(list(range(1, n + 1))))
    w = SignedPermutation(tuple(draw(st.sampled_from([x, -x])) for x in perm))
    t = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return n, w, t


@given(weyl_and_torus())
@settings(max_examples=200, deadline=None)
def test_mul_torus_action_matches_reduced_word(case):
    n, w, t = case
    g = ExtendedWeylGroup(n)
    acted = g.mul(g.lift(w), g.torus(t))
    assert acted.weyl == w
    assert acted.torus == weyl_act_torus(g, w, t)


@given(weyl_and_torus())
@settings(max_examples=100, deadline=None)
def test_weyl_torus_matrix_columns_match_reduced_word(case):
    n, w, _ = case
    g = ExtendedWeylGroup(n)
    cols = g.weyl_torus_matrix(w)
    assert len(cols) == n
    for i, col in enumerate(cols):
        assert col == weyl_act_torus(g, w, tuple(int(j == i) for j in range(n)))


def _random_torus(g, rng):
    return tuple(rng.randrange(g.modulus) for _ in range(g.n))


@pytest.mark.parametrize("cocycle_rule", ["descent", "ascent"])
def test_mul_matches_reference_kernel(cocycle_rule):
    rng = random.Random(82 + len(cocycle_rule))
    for n in range(2, 14):
        g = ExtendedWeylGroup(n, cocycle_rule=cocycle_rule)
        weyls = [random_signed_permutation(n, rng) for _ in range(12)]
        weyls += [g.identity.weyl, g.simple_lift(rng.randrange(1, n + 1)).weyl]
        zero = (0,) * n
        for _ in range(40):
            w1, w2 = rng.choice(weyls), rng.choice(weyls)
            # the first product of a Weyl pair fills its cocycle, the
            # second, on other tori, is a cache hit; canonical lifts (zero
            # tori) on either side or both take the paths without an action
            for zero_left, zero_right in ((False, False), (False, False),
                                          (True, False), (False, True),
                                          (True, True)):
                x = MonomialElement(zero if zero_left else _random_torus(g, rng), w1)
                y = MonomialElement(zero if zero_right else _random_torus(g, rng), w2)
                assert g.mul(x, y) == reference_mul(g, x, y)


@pytest.mark.parametrize("cocycle_rule", ["descent", "ascent"])
def test_translate_is_the_product_with_a_torus_element(cocycle_rule):
    rng = random.Random(7 + len(cocycle_rule))
    for n in range(2, 9):
        g = ExtendedWeylGroup(n, cocycle_rule=cocycle_rule)
        for _ in range(20):
            t = g.torus(_random_torus(g, rng))
            x = MonomialElement(_random_torus(g, rng), random_signed_permutation(n, rng))
            assert g.translate(t, x) == g.mul(t, x)
        with pytest.raises(ValueError, match="only a torus element translates"):
            g.translate(g.simple_lift(1), t)


def test_the_group_takes_no_torsion_exponent():
    # the normal form is over Z/4 alone: over Z/8 the product is not
    # associative, and torus conjugation leans on the group law
    with pytest.raises(TypeError):
        ExtendedWeylGroup(2, 3)


def test_conj_matches_the_two_products():
    for n in range(2, 14):
        g = ExtendedWeylGroup(n)
        rng = random.Random(53 + n)
        weyls = [random_signed_permutation(n, rng) for _ in range(10)]
        weyls.append(g.identity.weyl)
        for w in weyls:
            x = MonomialElement(_random_torus(g, rng), w)
            for h in (g.torus(_random_torus(g, rng)), random_element(g, rng)):
                assert g.conj(x, h) == g.mul(g.mul(x, h), g.inv(x))


def test_conj_of_a_torus_element_makes_no_product(monkeypatch):
    g = ExtendedWeylGroup(5)
    rng = random.Random(57)
    x, h = random_element(g, rng), g.torus(_random_torus(g, rng))
    calls = []
    mul = g.mul
    monkeypatch.setattr(g, "mul", lambda x, y: calls.append(None) or mul(x, y))
    g.conj(x, h)
    assert calls == [] and g._conjugator_inverses == {}
    g.conj(x, g.simple_lift(2))
    assert len(calls) == 3  # the kept inverse, then the two products


def _closure_over_inverses(group, gens, budget):
    """The closure as generate built it before: BFS over the generators and
    their inverses."""
    gens = list(gens) + [group.inv(x) for x in gens]
    return orbit({group.identity: None}, gens, group.mul, budget)


def _random_tits_generators(g, rng):
    """One to three elements of the Tits group <m_1, ..., m_n>: word lifts,
    conjugates of simple lifts and order-2 torus elements."""
    gens = []
    for _ in range(rng.randrange(1, 4)):
        lift = g.word_lift([rng.randrange(1, g.n + 1) for _ in range(rng.randrange(2 * g.n))])
        kind = rng.randrange(3)
        if kind == 0:
            gens.append(lift)
        elif kind == 1:
            gens.append(g.conj(lift, g.simple_lift(rng.randrange(1, g.n + 1))))
        else:
            gens.append(g.torus(2 * rng.randrange(2) for _ in range(g.n)))
    return gens


def test_generate_matches_the_closure_over_inverses():
    budget = 3000
    completed = 0
    for n in range(2, 7):
        g = ExtendedWeylGroup(n)
        rng = random.Random(59 + n)
        for _ in range(15):
            gens = _random_tits_generators(g, rng)
            try:
                want = _closure_over_inverses(g, gens, budget)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    GeneratedSubgroup.generate(g, gens, budget)
                continue
            got = GeneratedSubgroup.generate(g, gens, budget)
            assert len(got) == len(want) and set(got.elements) == set(want)
            completed += 1
    assert completed >= 60


def test_least_reduced_word_matches_reference():
    for n in (1, 2, 3, 4):
        for w in perm_closure([SignedPermutation.simple_reflection(n, i)
                               for i in range(1, n + 1)]):
            assert least_reduced_word(w.images) == reference_least_reduced_word(w.images)
    rng = random.Random(43)
    for n in range(5, 14):
        for _ in range(60):
            w = random_signed_permutation(n, rng)
            assert least_reduced_word(w.images) == reference_least_reduced_word(w.images)


def test_ascent_rule_fails_the_same_named_checks():
    report = suite_tits_core(random_triples=400, cocycle_rule="ascent")
    failed = {c.check_id: c.counterexample for c in report.checks if not c.passed}
    identity, flip = SignedPermutation((1, 2)), SignedPermutation((-1, 2))
    assert failed == {
        "lift-squares-braids": {"n": 2, "i": 1, "error": "lift square mismatch"},
        "closure-order": {"n": 2, "got": 16, "expected": 32,
                          "error": "extended Weyl group order mismatch"},
        "group-axioms": {"x": MonomialElement((0, 0), flip),
                         "y": MonomialElement((0, 0), identity),
                         "z": MonomialElement((0, 0), identity),
                         "error": "associativity failed"},
    }


def test_word_lift_matches_the_product_of_simple_lifts():
    rng = random.Random(47)
    for n in range(2, 9):
        g = ExtendedWeylGroup(n)
        for _ in range(40):
            letters = [rng.randrange(1, n + 1) for _ in range(rng.randrange(1, 16))]
            reduced = g.reduced_word(random_signed_permutation(n, rng))
            i = rng.randrange(1, n + 1)
            # random words, reduced words, and reduced words with a square inside
            for word in (letters, reduced, (*reduced[:2], i, i, *reduced[2:])):
                assert g.word_lift(word) == g.prod([g.simple_lift(j) for j in word])


def test_word_lift_of_the_empty_word_is_the_identity(g3):
    assert g3.word_lift(()) == g3.identity


@pytest.mark.parametrize("letter", [0, -1, 4])
def test_word_lift_rejects_letters_outside_the_rank(g3, letter):
    with pytest.raises(ValueError, match="no simple lift"):
        g3.word_lift([1, letter, 2])
    with pytest.raises(ValueError, match="no simple lift"):
        g3.simple_lift(letter)


def _reference_chain_element(g, rng):
    """The random element of suite_tits_core as a chain of products with
    simple lifts, as the suite built it before word lifts."""
    out = g.identity
    for _ in range(rng.randrange(1, 10)):
        out = g.mul(out, g.simple_lift(rng.randrange(1, g.n + 1)))
    return g.mul(g.torus(tuple(rng.randrange(4) for _ in range(g.n))), out)


def test_tits_core_random_elements_match_the_chain_reference(monkeypatch):
    from bweyl import suites

    drawn = []
    draw = suites._random_element
    monkeypatch.setattr(suites, "_random_element",
                        lambda g, rng: drawn.append((g.n, draw(g, rng))) or drawn[-1][1])
    assert suite_tits_core(random_triples=2000).passed
    rng = random.Random(2024)
    expected = []
    for n in (3, 4, 5, 6):
        g = ExtendedWeylGroup(n)
        expected += [(n, _reference_chain_element(g, rng)) for _ in range(3 * 500)]
    assert len(drawn) == 6000
    assert drawn == expected


def test_f2_rank_matches_span_size():
    rng = random.Random(31)
    for _ in range(300):
        bits = rng.randrange(1, 9)
        vectors = [rng.randrange(2**bits) for _ in range(rng.randrange(0, 10))]
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        assert len(span) == 2 ** _f2_rank(vectors)


def test_order_runaway_is_a_budget_error():
    g = ExtendedWeylGroup(2)
    g.mul = lambda x, y: g.simple_lift(1)  # powers never reach the identity
    with pytest.raises(BudgetExceededError):
        g.order(g.simple_lift(1))


def test_inv_rejects_corrupt_cocycle():
    g = ExtendedWeylGroup(3)
    w = SignedPermutation((2, -3, 1))
    winv = w.inverse()
    cocycle, _ = g._fold(winv, w)
    not_identity = SignedPermutation.simple_reflection(3, 1)
    g._cocycles[(winv.images, w.images)] = (cocycle, not_identity)
    with pytest.raises(VerificationError):
        g.inv(g.lift(w))


def test_fixed_subgroup_small():
    g = ExtendedWeylGroup(2)
    # the order-2 torus subgroup of rank 2
    gens = [g.torus((2, 0)), g.torus((0, 2))]
    sub = GeneratedSubgroup.generate(g, gens)
    assert len(sub) == 4
    v = g.prod([g.simple_lift(1), g.simple_lift(2)])
    v = g.mul(v, v)  # twist of order d = 2 on l = 2
    fixed = [x for x in sub.elements if g.frobenius(x, 3, v) == x]
    assert len(fixed) == 4  # all of it, rank a_l = 2


def test_torsion_fixed_rank_matches_enumeration():
    g = ExtendedWeylGroup(4)
    v = g.prod([g.simple_lift(i) for i in (1, 2, 3, 4)])  # order-8 twist image
    rank = torsion_two_subgroup_fixed_rank(g, 4, 3, v)
    # independent slow filter
    gens = [g.torus(tuple(2 if j == i else 0 for j in range(4))) for i in range(4)]
    sub = GeneratedSubgroup.generate(g, gens)
    fixed = [x for x in sub.elements if g.frobenius(x, 3, v) == x]
    assert len(fixed) == 2**rank


def _twist_at(l, d):
    from bweyl.supplement import SupplementContext

    ctx = SupplementContext(l, d, 0)
    return ctx.group, ctx.v_l


def _corrupt_solution(monkeypatch, corrupt):
    """Hand the certificate a solution corrupted by corrupt(h_x, pivots,
    kernel)."""
    solve = tits._solve_fixed_coset
    monkeypatch.setattr(tits, "_solve_fixed_coset",
                        lambda *args: corrupt(*solve(*args)))


def test_torsion_fixed_rank_cross_check_fires(monkeypatch):
    # a dropped kernel vector: pivots and kernel no longer fill rank 6
    g, v = _twist_at(6, 3)
    assert torsion_two_subgroup_fixed_rank(g, 6, 3, v) == 2
    _corrupt_solution(monkeypatch, lambda h_x, pivots, kernel: (h_x, pivots, kernel[1:]))
    with pytest.raises(VerificationError, match="do not form a basis of <gens>"):
        torsion_two_subgroup_fixed_rank(g, 6, 3, v)


def _unit_coset_case():
    """The rank-6 order-2 torus under the l = 6, d = 3 twist: four pivots
    and a kernel of rank 2."""
    g, v = _twist_at(6, 3)
    units = [g.torus(2 * (j == i) for j in range(6)) for i in range(6)]
    return g, units, lambda y: g.frobenius(y, 3, v)


@pytest.mark.parametrize("failure,corrupt", [
    ("h_x x is not frob-fixed",
     lambda g, h_x, pivots, kernel: (g.mul(h_x, pivots[0]), pivots, kernel)),
    ("the kernel vectors are dependent",
     lambda g, h_x, pivots, kernel: (h_x, pivots, kernel + kernel[:1])),
    ("the pivot images are dependent",
     lambda g, h_x, pivots, kernel: (h_x, pivots[:-1] + pivots[:1], kernel)),
    ("the target lies in the image",
     lambda g, h_x, pivots, kernel: (None, pivots, kernel)),
], ids=["perturbed-h_x", "repeated-kernel-vector", "dependent-pivot", "missed-solution"])
def test_fixed_coset_certificate_fires(monkeypatch, failure, corrupt):
    g, units, frob = _unit_coset_case()
    h_x, kernel = fixed_coset(g, units, frob, g.identity)
    assert h_x == g.identity and len(kernel) == 2
    _corrupt_solution(monkeypatch, lambda *solution: corrupt(g, *solution))
    with pytest.raises(VerificationError, match=failure):
        fixed_coset(g, units, frob, g.identity)


def test_fixed_coset_certificate_needs_an_endomorphism():
    # agrees with the twisted Frobenius on the units, not on their products
    g, units, frob = _unit_coset_case()

    def bent(y):
        return frob(y) if sum(map(bool, y.torus)) < 2 else g.mul(frob(y), units[0])

    with pytest.raises(VerificationError, match="a kernel vector is not frob-fixed"):
        fixed_coset(g, units, bent, g.identity)
    with pytest.raises(ValueError):
        fixed_coset(g, units, lambda y: g.simple_lift(1), g.identity)
    with pytest.raises(ValueError):
        fixed_coset(g, [g.simple_lift(1)], frob, g.identity)


def test_fixed_coset_is_none_without_a_fixed_translate():
    g, units, frob = _unit_coset_case()
    assert frob(units[1]) != units[1]
    assert fixed_coset(g, [], frob, units[1]) is None  # target outside the image
    assert fixed_coset(g, units, frob, g.simple_lift(2)) is None  # off the torus


def test_torsion_fixed_rank_memory_at_l18():
    g, v = _twist_at(18, 3)
    tracemalloc.start()
    try:
        rank = torsion_two_subgroup_fixed_rank(g, 18, 3, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 6
    assert peak < 4 * 2**20
