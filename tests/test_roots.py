import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bweyl.roots import (
    Lattice,
    RootSubset,
    are_orthogonal_long,
    build_root_system,
    component_types,
    coroot,
    dot,
    levi_root_subset,
    quotient_torsion,
    root_lattice_doubled,
    simple_roots,
    smith_normal_form,
    weight_lattice_doubled,
)


def test_cardinalities():
    assert len(build_root_system("B", 2)) == 8
    d3 = build_root_system("D", 3)
    assert len(d3) == 12
    assert all(dot(a, a) == 2 for a in d3.roots)
    for n in range(2, 11):
        assert len(build_root_system("B", n)) == 2 * n * n
        assert len(build_root_system("C", n)) == 2 * n * n
        assert len(build_root_system("D", n)) == 2 * n * (n - 1)


def test_simple_roots_b2():
    assert simple_roots("B", 2) == ((1, 0), (-1, 1))


def test_build_rejects_small_rank():
    with pytest.raises(ValueError):
        build_root_system("B", 1)


def test_levi_examples():
    s = levi_root_subset(3, 1, 1, 1)
    assert s.roots == {(0, 0, 1), (0, 0, -1), (-1, 1, 0), (1, -1, 0)}
    s = levi_root_subset(2, 0, 1, 1)
    assert s.roots == {(-1, 1), (1, -1)}
    assert component_types(levi_root_subset(7, 1, 1, 3)) == [
        ("A", 1), ("A", 1), ("A", 1), ("B", 1)]


def test_levi_rejects():
    with pytest.raises(ValueError):
        levi_root_subset(5, 1, 1, 1)  # n - m = 4 != 2


def is_closed_subsystem_of(subset: RootSubset, ambient: RootSubset) -> bool:
    """alpha, beta in subset and alpha + beta in ambient imply the sum is in subset."""
    for a in subset.roots:
        for b in subset.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and s in ambient.roots and s not in subset.roots:
                return False
    return True


def test_levi_closure_properties():
    ambient = {n: build_root_system("B", n) for n in (4, 6, 7, 8)}
    for (n, m, d0, t_l) in [(4, 0, 1, 2), (6, 0, 3, 1), (7, 1, 1, 3), (8, 2, 3, 1)]:
        s = levi_root_subset(n, m, d0, t_l)
        assert is_closed_subsystem_of(s, ambient[n])
        # negation closure is enforced by the constructor; re-check anyway
        assert all(tuple(-x for x in a) in s.roots for a in s.roots)


def test_levi_component_count_general_d0():
    # l/2 pairwise blocks, grouped into t_l twist-orbits of d0 each.
    s = levi_root_subset(8, 2, 3, 1)
    types = component_types(s)
    assert types.count(("A", 1)) == 3
    assert ("B", 2) in types


def test_coroot():
    assert coroot((1, 0)) == (2, 0)
    assert coroot((-1, 1)) == (-1, 1)
    assert coroot((1, 1)) == (1, 1)
    assert coroot((2, 0)) == (1, 0)  # type C long root


def test_are_orthogonal_long():
    assert are_orthogonal_long((-1, 1, 0, 0), (0, 0, -1, 1))
    assert not are_orthogonal_long((1, 0), (0, 1))
    assert are_orthogonal_long((-1, 1), (1, 1))


def test_smith_normal_form_basics():
    assert smith_normal_form([[2, 0], [0, 1]]) == [1, 2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=2,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_smith_invariants_divide(mat):
    diag = smith_normal_form(mat)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # product of the first k invariants equals gcd of k x k minors (k = 1)
    flat_gcd = 0
    for row in mat:
        for x in row:
            flat_gcd = gcd(flat_gcd, x)
    if diag:
        assert diag[0] == abs(flat_gcd)


def gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def test_quotient_torsion_examples():
    # X = Z^2, sub = <2e_1, e_2>  (doubled coordinates throughout)
    x = Lattice(((2, 0), (0, 2)))
    sub = Lattice(((4, 0), (0, 2)))
    assert quotient_torsion(x, sub) == [1, 2]
    # full root lattice of B_3 against itself: no torsion
    zphi = root_lattice_doubled(build_root_system("B", 3))
    assert all(d == 1 for d in quotient_torsion(zphi, zphi))


def test_quotient_torsion_rejects_non_inclusion():
    x = Lattice(((2, 0), (0, 4)))
    sub = Lattice(((0, 2),))
    with pytest.raises(ValueError):
        quotient_torsion(x, sub)


def test_center_disconnectedness_witness():
    # Case-2 Levi data: the weight lattice modulo the Levi root lattice has
    # even torsion, witnessed by the half-sum vector.
    for (n, m, d0, t_l) in [(3, 1, 1, 1), (4, 0, 1, 2), (6, 0, 3, 1), (8, 2, 3, 1)]:
        x = weight_lattice_doubled(n)
        sub = root_lattice_doubled(levi_root_subset(n, m, d0, t_l))
        divisors = quotient_torsion(x, sub)
        assert any(d % 2 == 0 and d > 1 for d in divisors), (n, m, d0, t_l, divisors)
        # the explicit witness: half the sum of the B-block units and the pair
        # differences lies in X, its double lies in the Levi root lattice
        l = n - m
        witness = [0] * n
        for i in range(l + 1, n + 1):
            witness[i - 1] += 1
        for pair in range(1, l // 2 + 1):
            witness[2 * pair - 2] -= 1
            witness[2 * pair - 1] += 1
        # doubled coordinates: `witness` IS half the doubled vector
        from bweyl.roots import _express_in_basis

        assert _express_in_basis(x.basis, tuple(witness)) is not None
        in_sub = _express_in_basis(sub.basis, tuple(2 * w for w in witness))
        assert in_sub is not None
        assert _express_in_basis(sub.basis, tuple(witness)) is None


def test_rootsubset_rejects_unbalanced():
    with pytest.raises(ValueError):
        RootSubset(2, frozenset({(1, 0)}))
