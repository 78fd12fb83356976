import random

import pytest

from bweyl import VerificationError, chevsign
from bweyl.chevsign import (
    FormalRootTerm,
    _gram,
    _mat_mul,
    _nilpotent_part,
    _weyl_rep,
    build_sign_table,
    check_sign_table_consistency,
    conjugate,
    twisted_frobenius_power,
    verify_commutator_lemmas,
    verify_graph_action,
    verify_twist_power_sign,
)
from bweyl.roots import are_orthogonal_long, build_root_system, coroot, dot, simple_roots
from bweyl.sperm import reflection
from bweyl.supplement import SupplementContext
from bweyl.tits import ExtendedWeylGroup


def test_levi_factor_terms_chain_the_twisted_frobenius(monkeypatch):
    # term j is term j - 1 stepped once: 2 (d0 - 1) conjugations for the
    # two starts, where raising each start to the j-th power took d0 (d0 - 1)
    ctx = SupplementContext(10, 10, 1)
    g, table, d0 = ctx.group, build_sign_table(ctx.n), ctx.d0
    base = (1, -1) + (0,) * (ctx.n - 2)
    expected = [twisted_frobenius_power(g, table, FormalRootTerm(start), ctx.v_l, j)
                for start in (base, tuple(-x for x in base)) for j in range(d0)]
    calls = []
    monkeypatch.setattr(chevsign, "conjugate",
                        lambda *args: calls.append(None) or conjugate(*args))
    assert chevsign._levi_factor_terms(ctx, 1, table) == expected
    assert len(calls) == 2 * (d0 - 1) == 8


@pytest.fixture(scope="module")
def t3():
    return build_sign_table(3, full=True)


def _root_matrix(n, a, u):
    """x_a(u) = I + N as a sparse matrix."""
    return {(i, i): 1 for i in range(2 * n + 1)} | _nilpotent_part(n, a, u)


def _transpose(m):
    return {(j, i): v for (i, j), v in m.items()}


def test_matrices_preserve_form():
    for n in (2, 3):
        gram = _gram(n)
        for a in sorted(build_root_system("B", n).roots):
            for u in (1, -1, 2):
                x = _root_matrix(n, a, u)
                assert _mat_mul(_mat_mul(_transpose(x), gram), x) == gram, (a, u)


def test_one_parameter_law():
    for a in sorted(build_root_system("B", 2).roots):
        for u in (1, -1, 2):
            for v in (1, 3):
                lhs = _mat_mul(_root_matrix(2, a, u), _root_matrix(2, a, v))
                assert lhs == _root_matrix(2, a, u + v)


@pytest.mark.parametrize("a", [(0, 0), (2, 0), (1, -2), (1, 1, 1)])
def test_root_matrix_rejects_non_roots(a):
    with pytest.raises(ValueError):
        _root_matrix(len(a), a, 1)


def test_weyl_rep_squares():
    # n_a(1)^2 acts on x_b(u) by the root character of the order-2 element
    for n in (2, 3):
        table = build_sign_table(n, full=True)
        for a in sorted(build_root_system("B", n).roots):
            refl = reflection(n, a)
            cr = coroot(a)
            for b in sorted(build_root_system("B", n).roots):
                prod = table(a, b) * table(a, refl.act_on_root(b))
                assert prod == (-1) ** dot(b, cr)


def test_table_consistency(t3):
    assert check_sign_table_consistency(t3) == []


def test_simple_rows_are_the_full_table_restricted(monkeypatch):
    # a cold simple table holds no entry until one is read; every
    # simple-row entry is then certified through its first read
    monkeypatch.setattr(chevsign, "_sign_table_cache", {})
    for n in range(2, 7):
        table = build_sign_table(n)
        simple = [b for b, _ in table.simples]
        assert simple == list(simple_roots("B", n))
        roots = sorted(build_root_system("B", n).roots)
        assert table.eta == {}
        sign = table(simple[-1], roots[0])
        assert table.eta == {(simple[-1], roots[0]): sign}
        full = build_sign_table(n, full=True).eta
        read = {(b, a): table(b, a) for b in simple for a in roots}
        assert read == {k: v for k, v in full.items() if k[0] in simple}
        assert table.eta == read


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


def reference_consistency(table):
    """The consistency laws recomputed from the root system for every pair,
    as check_sign_table_consistency did before its laws were cached per
    rank."""
    n = table.rank
    bad = []
    roots = sorted(build_root_system("B", n).roots)
    for b in roots:
        refl = reflection(n, b)
        cr = coroot(b)
        for a in roots:
            square = table(b, a) * table(b, refl.act_on_root(a))
            if square != (-1) ** dot(a, cr):
                bad.append(("square-law", b, a))
            if table(b, a) != table(b, tuple(-x for x in a)):
                bad.append(("negation-symmetry", b, a))
            if are_orthogonal_long(a, b) and table(b, a) != 1:
                bad.append(("orthogonal-long", b, a))
    return bad


def test_consistency_matches_reference():
    for n in (2, 3):
        table = build_sign_table(n, full=True)
        assert check_sign_table_consistency(table) == reference_consistency(table) == []
        for key in sorted(table.eta):
            flipped = table.flipped(*key)
            assert check_sign_table_consistency(flipped) == reference_consistency(flipped)
    t4 = build_sign_table(4, full=True)
    keys = sorted(t4.eta)
    rng = random.Random(41)
    for _ in range(12):
        single = t4.flipped(*rng.choice(keys))
        double = single.flipped(*rng.choice(keys))
        for table in (single, double):
            assert check_sign_table_consistency(table) == reference_consistency(table)


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


def test_twist_power_sign_builds_no_supplement_elements(monkeypatch):
    # the check reads v_l and d0 alone; p_k, h_k and v_l' stay unbuilt
    contexts = []
    post_init = SupplementContext.__post_init__
    monkeypatch.setattr(SupplementContext, "__post_init__",
                        lambda self: contexts.append(self) or post_init(self))
    assert verify_twist_power_sign(6, 3)["eps"] == 1
    (ctx,) = contexts
    assert not {"p", "h", "v_l_prime"} & set(vars(ctx))


@pytest.mark.parametrize("l,d", [(6, 4), (1, 1), (4, 3)])
def test_twist_power_sign_validates_like_the_context(l, d):
    # the parameter errors of the SupplementContext it builds
    with pytest.raises(ValueError) as want:
        SupplementContext(l, d, 0)
    with pytest.raises(ValueError) as got:
        verify_twist_power_sign(l, d, 0)
    assert str(got.value) == str(want.value)


def test_frobenius_power_zero_is_identity():
    g = ExtendedWeylGroup(2)
    table = build_sign_table(2)
    ctx = SupplementContext(2, 2, 0)
    t = FormalRootTerm((-1, 1))
    assert twisted_frobenius_power(g, table, t, ctx.v_l, 0) == t


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
    eye = {(i, i): 1 for i in range(5)}
    for a in sorted(build_root_system("B", 2).roots):
        w = _weyl_rep(2, a, 1)
        assert sorted(r for r, _ in w) == sorted(c for _, c in w) == list(range(5))
        assert set(w.values()) <= {1, -1}
        assert _mat_mul(w, _weyl_rep(2, a, -1)) == eye


def _dense(n, m):
    size = 2 * n + 1
    return tuple(tuple(m.get((i, j), 0) for j in range(size)) for i in range(size))


def _dense_mul(x, y):
    cols = list(zip(*y))
    return tuple(tuple(sum(p * q for p, q in zip(row, col)) for col in cols)
                 for row in x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_table_matches_dense_reference(monkeypatch, n):
    # w x_a(1) w^{-1} by plain dense integer products, looked up among the
    # dense x_a(+-1); the sparse relabelling must give the same signs
    roots = sorted(build_root_system("B", n).roots)
    dense = {(a, u): _dense(n, _root_matrix(n, a, u)) for a in roots for u in (1, -1)}
    by_matrix = {m: key for key, m in dense.items()}
    eta = {}
    for b in roots:
        neg = tuple(-x for x in b)
        w = _dense_mul(_dense_mul(dense[b, 1], dense[neg, -1]), dense[b, 1])
        w_inv = _dense_mul(_dense_mul(dense[b, -1], dense[neg, 1]), dense[b, -1])
        for a in roots:
            target, sign = by_matrix[_dense_mul(_dense_mul(w, dense[a, 1]), w_inv)]
            assert target == reflection(n, b).act_on_root(a)
            eta[b, a] = sign
    monkeypatch.setattr(chevsign, "_sign_table_cache", {})
    assert build_sign_table(n, full=True).eta == eta
    # a cold simple table, read entry by entry
    table = build_sign_table(n)
    simple = [b for b, _ in table.simples]
    assert ({(b, a): table(b, a) for b in simple for a in roots}
            == {k: v for k, v in eta.items() if k[0] in simple})


# the fakes call the real functions through this module's imported names,
# which monkeypatching bweyl.chevsign leaves alone
PLANTED_SIGN_TABLE_DEFECTS = [
    # n_b(1)^{-1} replaced by -n_b(1)^{-1}
    ("inverse", "_weyl_rep",
     lambda n, a, u: {k: v * u for k, v in _weyl_rep(n, a, u).items()},
     "monomial matrix inverse failed"),
    # a form with distinct diagonal entries, which no transposition preserves
    ("orthogonal", "_gram", lambda n: {(i, i): i + 1 for i in range(2 * n + 1)},
     "monomial matrix is not orthogonal"),
    # x_b(1) in place of n_b(1): orthogonal and invertible, not monomial
    ("monomial", "_weyl_rep", _root_matrix, "monomial matrix is not a signed permutation"),
    # x_{e_2}(1) replaced by x_{e_2}(2), whose conjugates have no argument
    # +-1; no simple row lifts it, and in a full table the entries of the
    # first row, b = -e_1-e_2, read it before the rows +-e_2 lift it
    ("root-element", "_nilpotent_part", lambda n, a, u: _nilpotent_part(
        n, a, 2 if (a, u) == ((0, 1), 1) else u),
     "conjugate is not a root one-parameter element"),
    # n_{e_2}(1) in place of every n_b(1): its conjugates land on s_{e_2}(a)
    ("target-root", "_weyl_rep", lambda n, a, u: _weyl_rep(n, (0, 1), u),
     "conjugate landed on the wrong root"),
]


@pytest.mark.parametrize("target,fake,message,full", [
    pytest.param(target, fake, message, full, id=name + ("-full" if full else ""))
    for name, target, fake, message in PLANTED_SIGN_TABLE_DEFECTS
    for full in (False, True)
])
def test_sign_table_checks_fire(monkeypatch, target, fake, message, full):
    # a full table certifies everything at build; a simple table certifies
    # its rows at build and each entry on its first read
    monkeypatch.setattr(chevsign, "_sign_table_cache", {})
    monkeypatch.setattr(chevsign, target, fake)
    if full or message.startswith("monomial matrix"):
        with pytest.raises(VerificationError, match=message) as err:
            build_sign_table(2, full)
    else:
        table = build_sign_table(2)
        with pytest.raises(VerificationError, match=message) as err:
            for b, _ in table.simples:
                for a in sorted(build_root_system("B", 2).roots):
                    table(b, a)
    assert "b" in err.value.counterexample


# distinct sign-table entries that suite_commutators and suite_graph_action
# read at the nine points of the supplement-sign benchmark workload, ranks
# 2-8; filling every simple row at build would hold 2,590
SIGN_TABLE_ENTRIES_CEILING = 328


def test_sign_table_entries_do_not_grow(monkeypatch):
    from bweyl.suites import suite_commutators, suite_graph_action

    monkeypatch.setattr(chevsign, "_sign_table_cache", {})
    for t_l in (1, 2, 3):
        for m in (0, 1, 2):
            point = (1, t_l, m, 1 + (t_l + m) % 2)
            assert suite_commutators(*point).passed
            assert suite_graph_action(*point).passed
    simple = [t for (_, full), t in chevsign._sign_table_cache.items() if not full]
    assert [t.rank for t in simple] == list(range(2, 9))
    assert sum(len(t.eta) for t in simple) <= SIGN_TABLE_ENTRIES_CEILING
