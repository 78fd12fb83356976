import random

import numpy as np
import pytest

from bweyl import VerificationError, chevsign
from bweyl.chevsign import (
    FormalRootTerm,
    _gram,
    _root_matrix,
    _weyl_rep,
    build_sign_table,
    check_sign_table_consistency,
    conjugate,
    twisted_frobenius_power,
    verify_commutator_lemmas,
    verify_graph_action,
    verify_twist_power_sign,
)
from bweyl.roots import build_root_system, coroot, dot, simple_roots
from bweyl.supplement import SupplementContext
from bweyl.tits import ExtendedWeylGroup


@pytest.fixture(scope="module")
def t3():
    return build_sign_table(3, full=True)


def test_matrices_preserve_form():
    for n in (2, 3):
        gram = _gram(n)
        for a in sorted(build_root_system("B", n).roots):
            for u in (1, -1, 2):
                x = _root_matrix(n, a, u)
                assert np.array_equal(x.T @ gram @ x, gram), (a, u)


def test_one_parameter_law():
    for a in sorted(build_root_system("B", 2).roots):
        for u in (1, -1, 2):
            for v in (1, 3):
                lhs = _root_matrix(2, a, u) @ _root_matrix(2, a, v)
                assert np.array_equal(lhs, _root_matrix(2, a, u + v))


def test_weyl_rep_squares():
    # n_a(1)^2 acts on x_b(u) by the root character of the order-2 element
    for n in (2, 3):
        table = build_sign_table(n, full=True)
        from bweyl.sperm import reflection

        for a in sorted(build_root_system("B", n).roots):
            refl = reflection(n, a)
            cr = coroot(a)
            for b in sorted(build_root_system("B", n).roots):
                prod = table(a, b) * table(a, refl.act_on_root(b))
                assert prod == (-1) ** dot(b, cr)


def test_table_consistency(t3):
    assert check_sign_table_consistency(t3) == []


def test_simple_rows_are_the_full_table_restricted():
    for n in range(2, 7):
        table = build_sign_table(n)
        simple = {b for b, _ in table.simples}
        assert simple == set(simple_roots("B", n))
        full = build_sign_table(n, full=True).eta
        assert table.eta == {k: v for k, v in full.items() if k[0] in simple}


def test_consistency_laws_need_full_table():
    with pytest.raises(ValueError):
        check_sign_table_consistency(build_sign_table(3))


def test_orthogonal_long_rule(t3):
    assert t3((-1, 1, 0), (1, 1, 0)) == 1  # same support, orthogonal long
    t4 = build_sign_table(4)
    assert t4((-1, 1, 0, 0), (0, 0, -1, 1)) == 1  # disjoint support


def test_rank_one_sign(t3):
    # conjugating x_b(u) by its own lift lands on x_{-b}(-u)
    for b in [(1, 0, 0), (-1, 1, 0), (1, 1, 0)]:
        assert t3(b, b) == -1


def test_every_flip_breaks_a_law(t3):
    keys = sorted(t3.eta)
    rng = random.Random(11)
    for key in rng.sample(keys, 60):
        flipped = t3.flipped(*key)
        assert check_sign_table_consistency(flipped) != []


def test_conjugate_roundtrip():
    g = ExtendedWeylGroup(3)
    table = build_sign_table(3)
    rng = random.Random(23)
    roots = sorted(build_root_system("B", 3).roots)
    for _ in range(1000):
        x = g.identity
        for _ in range(rng.randrange(1, 8)):
            x = g.mul(x, g.simple_lift(rng.randrange(1, 4)))
        x = g.mul(g.torus(tuple(rng.choice((0, 2)) for _ in range(3))), x)
        t = FormalRootTerm(rng.choice(roots), rng.choice((1, -1)), 0)
        back = conjugate(g, table, g.inv(x), conjugate(g, table, x, t))
        assert back == t


def test_conjugate_composition():
    g = ExtendedWeylGroup(3)
    table = build_sign_table(3)
    rng = random.Random(5)
    roots = sorted(build_root_system("B", 3).roots)
    for _ in range(1000):
        def rand():
            x = g.identity
            for _ in range(rng.randrange(1, 6)):
                x = g.mul(x, g.simple_lift(rng.randrange(1, 4)))
            return g.mul(g.torus(tuple(rng.choice((0, 2)) for _ in range(3))), x)

        x, y = rand(), rand()
        t = FormalRootTerm(rng.choice(roots))
        assert conjugate(g, table, g.mul(x, y), t) == conjugate(
            g, table, x, conjugate(g, table, y, t)
        )


def test_identity_conjugation():
    g = ExtendedWeylGroup(2)
    table = build_sign_table(2)
    t = FormalRootTerm((1, 0), -1, 2)
    assert conjugate(g, table, g.identity, t) == t


def test_torus_conjugation_sign():
    g = ExtendedWeylGroup(2)
    table = build_sign_table(2)
    h0 = g.h_short(1, 2)  # pairs trivially with everything
    for a in sorted(build_root_system("B", 2).roots):
        assert conjugate(g, table, h0, FormalRootTerm(a)) == FormalRootTerm(a)
    h = g.torus((0, 2))
    # the order-2 element on the second coroot flips the sign of roots
    # pairing to 2 mod 4 with it
    flipped = conjugate(g, table, h, FormalRootTerm((0, 1)))
    assert flipped.root == (0, 1)


def test_odd_torus_rejected():
    g = ExtendedWeylGroup(2)
    table = build_sign_table(2)
    # the second coroot pairs to 1 with e_2: a fourth root, not a sign
    with pytest.raises(ValueError):
        conjugate(g, table, g.torus((0, 1)), FormalRootTerm((0, 1)))


@pytest.mark.parametrize("l,d", [(2, 1), (2, 2), (4, 2), (6, 3), (6, 6), (10, 5)])
def test_twist_power_sign(l, d):
    report = verify_twist_power_sign(l, d)
    assert report["eps"] == (1 if d % 2 else -1)


def test_frobenius_power_zero_is_identity():
    g = ExtendedWeylGroup(2)
    table = build_sign_table(2)
    ctx = SupplementContext(2, 2, 0)
    t = FormalRootTerm((-1, 1))
    assert twisted_frobenius_power(g, table, t, 3, ctx.v_l, 0) == t


@pytest.mark.parametrize("l,d,m", [(4, 1, 1), (4, 2, 1), (2, 1, 2), (6, 3, 1)])
def test_commutator_lemmas(l, d, m):
    report = verify_commutator_lemmas(l, d, m)
    assert report["conjugations_checked"] > 0


@pytest.mark.parametrize("l,d,m", [(2, 1, 1), (2, 2, 1), (6, 3, 0), (4, 2, 2)])
def test_graph_action(l, d, m):
    verify_graph_action(l, d, m)


def test_commutator_detects_corruption(monkeypatch):
    # flips touching the folded conjugation paths break the suite directly;
    # every other flip is caught by the table consistency laws
    table = build_sign_table(5).flipped((-1, 1, 0, 0, 0), (0, 0, 0, 0, 1))
    monkeypatch.setattr(chevsign, "build_sign_table", lambda n: table)
    with pytest.raises(VerificationError):
        verify_commutator_lemmas(4, 1, 1)


def test_weyl_rep_is_monomial():
    for a in sorted(build_root_system("B", 2).roots):
        w = _weyl_rep(2, a)
        assert all(np.count_nonzero(w[r]) == 1 for r in range(5))
