import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bweyl import VerificationError
from bweyl.cyclo import (
    CycloPoly,
    EllContext,
    GenericOrder,
    cyclotomic_poly,
    e_set,
    ell_valuation,
    ell_valuation_phi,
    generic_order_eval_ell_part,
    multiplicative_order,
)


def naive_order(q, ell):
    # Independent oracle: multiply out residues until 1 appears.
    r, d = q % ell, 1
    while r != 1:
        r = r * q % ell
        d += 1
    return d


def test_multiplicative_order_examples():
    assert multiplicative_order(4, 3) == 1
    assert multiplicative_order(3, 5) == naive_order(3, 5) == 4
    assert multiplicative_order(2, 7) == naive_order(2, 7) == 3


@pytest.mark.parametrize("bad", [(10, 4), (10, 5), (14, 7), (3, 9)])
def test_multiplicative_order_rejects(bad):
    q, ell = bad
    with pytest.raises(ValueError):
        multiplicative_order(q, ell)


def test_cyclotomic_small():
    assert cyclotomic_poly(1).coefficients == (-1, 1)
    # Oracle for Phi_4: divide x^4 - 1 by Phi_1 * Phi_2 = x^2 - 1 by hand.
    assert cyclotomic_poly(4).coefficients == (1, 0, 1)
    # Moebius-formula oracle for Phi_12: prod (x^(12/d) - 1)^mu(d).
    assert cyclotomic_poly(12).coefficients == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("e", range(1, 61))
def test_cyclotomic_product_identity(e):
    # prod over f | e of Phi_f(x) == x^e - 1, as exact polynomials.
    prod = [1]
    for f in range(1, e + 1):
        if e % f == 0:
            coeffs = cyclotomic_poly(f).coefficients
            out = [0] * (len(prod) + len(coeffs) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(coeffs):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (e - 1) + [1]


def test_cyclotomic_degree_is_totient():
    totients = {1: 1, 2: 1, 6: 2, 12: 4, 30: 8, 36: 12}
    for e, phi in totients.items():
        assert len(cyclotomic_poly(e).coefficients) - 1 == phi


def test_monic_enforced():
    with pytest.raises(ValueError):
        CycloPoly(1, (1, 2))


def test_ell_valuation_phi_examples():
    ctx = EllContext(q=3, ell=5)
    assert ctx.d == 4 and ctx.d0 == 2
    assert cyclotomic_poly(4)(3) == 10
    assert ell_valuation_phi(4, ctx) == 1
    assert ell_valuation_phi(1, ctx) == 0
    # 20 = d * ell; big-integer oracle.
    assert ell_valuation(cyclotomic_poly(20)(3), 5) == 1
    assert ell_valuation_phi(20, ctx) == 1


def test_ell_valuation_phi_structure():
    for ell in (5, 7, 11):
        for q in (2, 3, 4, 6, 10):
            if q % ell == 0:
                continue
            ctx = EllContext(q=q, ell=ell)
            assert ell_valuation_phi(ctx.d, ctx) == ell_valuation(q**ctx.d - 1, ell)
            assert ell_valuation_phi(ctx.d * ell, ctx) == 1
            assert ell_valuation_phi(ctx.d * ell * ell, ctx) == 1


def test_e_set_examples():
    assert e_set(EllContext(q=3, ell=5), 25) == (4, 20)
    assert e_set(EllContext(q=4, ell=3), 9) == (1, 3, 9)
    assert e_set(EllContext(q=2, ell=7), 3) == (3,)


def split_degree_descent(d: int, k: int) -> int:
    """Split degree after replacing the field endomorphism by its k-th power."""
    if d < 1 or k < 1:
        raise ValueError("arguments must be positive")
    return d // math.gcd(d, k)


def test_split_degree_descent():
    assert split_degree_descent(4, 2) == 2
    for d in range(1, 20):
        assert split_degree_descent(d, 1) == d
    assert split_degree_descent(6, 4) == 3


def test_generic_order_eval_ell_part():
    ctx = EllContext(q=3, ell=5)
    g = GenericOrder.from_factors(0, {4: 2})
    assert g.evaluate(3) == 100
    assert generic_order_eval_ell_part(g, ctx) == 2
    assert generic_order_eval_ell_part(GenericOrder.from_factors(9), ctx) == 0
    assert generic_order_eval_ell_part(GenericOrder.from_factors(0, {1: 1, 2: 1}), ctx) == 0


def _times(*orders):
    """The product of generic orders: their exponents add."""
    factors = Counter()
    for g in orders:
        factors.update(dict(g.cyclo_factors))
    return GenericOrder.from_factors(sum(g.q_power for g in orders), factors)


def test_generic_order_algebra():
    g = GenericOrder.q_power_minus_one(6)
    assert g.evaluate(2) == 2**6 - 1
    h = GenericOrder.q_power_plus_one(6)
    assert h.evaluate(3) == 3**6 + 1
    prod = _times(g, h)
    assert prod.evaluate(5) == (5**6 - 1) * (5**6 + 1)
    # q^12 - 1: the degrees of its cyclotomic factors sum to 12
    assert sum(m * (len(cyclotomic_poly(e).coefficients) - 1)
               for e, m in prod.cyclo_factors) == 12
    assert _times(g, g, g).evaluate(2) == (2**6 - 1) ** 3


@given(
    q=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=120, deadline=None)
def test_qk_minus_one_factorization(q, k):
    assert GenericOrder.q_power_minus_one(k).evaluate(q) == q**k - 1
    assert GenericOrder.q_power_plus_one(k).evaluate(q) == q**k + 1


def sweep_cyclotomic_lemma(ells=(5, 7, 11, 13), qmax=50, kmax=30):
    """The l-part comparison sweep: both sides by independent big-integer
    arithmetic, with the divisibility characterization of equality."""
    failures = []
    for ell in ells:
        for q in range(2, qmax + 1):
            if q % ell == 0:
                continue
            ctx = EllContext(q=q, ell=ell)
            vd = ell_valuation_phi(ctx.d, ctx)
            for k in range(1, kmax + 1):
                if math.gcd(k, ell) != 1:
                    continue
                vm = ell_valuation(q**k - 1, ell) if q**k != 1 else 0
                vp = ell_valuation(q**k + 1, ell)
                ok_minus = vm <= vd and ((vm == vd) == (k % ctx.d == 0))
                ok_plus = vp <= vd and (
                    (vp == vd) == ((2 * k) % ctx.d == 0 and k % ctx.d != 0)
                )
                if not (ok_minus and ok_plus):
                    failures.append((ell, q, k, vm, vp, vd))
    return failures


def test_cyclotomic_lemma_spot():
    assert sweep_cyclotomic_lemma(ells=(5,), qmax=12, kmax=12) == []


def test_e_set_mismatch_raises(monkeypatch):
    ctx = EllContext(q=4, ell=3)
    import bweyl.cyclo as cyclo_mod

    monkeypatch.setattr(cyclo_mod, "ell_valuation_phi", lambda e, c: 1 if e == 2 else 0)
    with pytest.raises(VerificationError):
        cyclo_mod.e_set(ctx, 9)
