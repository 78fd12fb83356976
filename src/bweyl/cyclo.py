"""Exact cyclotomic arithmetic.

Multiplicative orders, cyclotomic polynomials with integer coefficients,
l-adic valuations of their values at integer arguments, and symbolic
generic orders (a power of q times a product of cyclotomic values).
Everything runs on arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import VerificationError

__all__ = [
    "CycloPoly",
    "EllContext",
    "GenericOrder",
    "cyclotomic_poly",
    "e_set",
    "ell_valuation",
    "ell_valuation_phi",
    "generic_order_eval_ell_part",
    "is_prime",
    "multiplicative_order",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def multiplicative_order(q: int, ell: int) -> int:
    """Least d >= 1 with q**d == 1 mod ell, for an odd prime ell not dividing q."""
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"ell must be an odd prime, got {ell}")
    if q % ell == 0:
        raise ValueError(f"ell = {ell} divides q = {q}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    r = q % ell
    d = 1
    while r != 1:
        r = (r * q) % ell
        d += 1
    return d


def ell_valuation(n: int, ell: int) -> int:
    """Exponent of the prime ell in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


# -- polynomials ------------------------------------------------------------
#
# Dense integer coefficient tuples, constant term first.


@dataclass(frozen=True)
class CycloPoly:
    """A cyclotomic polynomial Phi_e, coefficients lowest degree first."""

    index: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.coefficients[-1] != 1:
            raise ValueError("cyclotomic polynomials are monic")

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * q + c
        return acc


@lru_cache(maxsize=None)
def _phi_coeffs(e: int) -> tuple[int, ...]:
    """Phi_e = prod over d | e of (x^d - 1)^mu(e/d) (Lang, Algebra, VI 3):
    multiply by x^d - 1 wherever mu(e/d) = 1, then divide by x^d - 1
    wherever mu(e/d) = -1, each step O(deg) and each division checked."""
    # the squarefree k | e, each signed by mu(k)
    signed = [1]
    for p in range(2, e + 1):
        if e % p == 0 and is_prime(p):
            signed += [-k * p for k in signed]
    coeffs = [1]
    for k in sorted(signed, reverse=True):
        d = e // abs(k)
        if k > 0:
            coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
        else:
            coeffs = _divide_by_binomial(coeffs, d)
    return tuple(coeffs)


def _divide_by_binomial(coeffs: list, d: int) -> list:
    """p / (x^d - 1), ArithmeticError if inexact: p = q (x^d - 1) gives
    q[k] = q[k - d] - p[k] from the bottom, and p's top d must be q's."""
    q = []
    for k in range(len(coeffs) - d):
        q.append((q[k - d] if k >= d else 0) - coeffs[k])
    if ([0] * d + q)[len(q):] != coeffs[len(q):]:
        raise ArithmeticError("division was not exact")
    return q


def cyclotomic_poly(e: int) -> CycloPoly:
    """The e-th cyclotomic polynomial with exact integer coefficients."""
    if e < 1:
        raise ValueError(f"index must be positive, got {e}")
    return CycloPoly(e, _phi_coeffs(e))


# -- l-adic context ---------------------------------------------------------


@dataclass(frozen=True)
class EllContext:
    """An odd prime ell, an integer q >= 2 coprime to ell, and the derived
    parameters d (multiplicative order of q mod ell) and d0 (d for odd d,
    d/2 for even d)."""

    q: int
    ell: int
    d: int = 0
    d0: int = 0

    def __post_init__(self):
        d = multiplicative_order(self.q, self.ell)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d0", d if d % 2 == 1 else d // 2)


def ell_valuation_phi(e: int, ctx: EllContext) -> int:
    """v_ell of the big integer Phi_e(q)."""
    if e < 1:
        raise ValueError(f"index must be positive, got {e}")
    return ell_valuation(cyclotomic_poly(e)(ctx.q), ctx.ell)


def e_set(ctx: EllContext, bound: int) -> tuple[int, ...]:
    """All e <= bound with ell | Phi_e(q), verified to equal {d * ell^i}."""
    if bound < ctx.d:
        raise ValueError(f"bound {bound} is below d = {ctx.d}")
    found = tuple(e for e in range(1, bound + 1) if ell_valuation_phi(e, ctx) > 0)
    expected = []
    e = ctx.d
    while e <= bound:
        expected.append(e)
        e *= ctx.ell
    if found != tuple(expected):
        raise VerificationError(
            "indices with ell | Phi_e(q) do not form {d * ell^i}",
            {"q": ctx.q, "ell": ctx.ell, "found": found, "expected": tuple(expected)},
        )
    return found


# -- generic orders ----------------------------------------------------------


@dataclass(frozen=True)
class GenericOrder:
    """q^(q_power) times a product of cyclotomic values Phi_e(q)^mult.

    Immutable.  Evaluation at any integer q >= 2 is a positive integer.
    """

    q_power: int = 0
    cyclo_factors: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_factors(q_power: int = 0, factors: dict[int, int] | None = None) -> GenericOrder:
        items = tuple(sorted((e, m) for e, m in (factors or {}).items() if m))
        if q_power < 0 or any(e < 1 or m < 0 for e, m in items):
            raise ValueError("generic orders have nonnegative exponents")
        return GenericOrder(q_power, items)

    @staticmethod
    def q_power_minus_one(k: int, mult: int = 1) -> GenericOrder:
        """(q^k - 1)^mult as a product of cyclotomic factors."""
        return GenericOrder.from_factors(0, {e: mult for e in range(1, k + 1) if k % e == 0})

    @staticmethod
    def q_power_plus_one(k: int, mult: int = 1) -> GenericOrder:
        """(q^k + 1)^mult as a product of cyclotomic factors."""
        factors = {e: mult for e in range(1, 2 * k + 1) if (2 * k) % e == 0 and k % e != 0}
        return GenericOrder.from_factors(0, factors)

    def evaluate(self, q: int) -> int:
        if q < 2:
            raise ValueError("evaluation wants q >= 2")
        value = q**self.q_power
        for e, m in self.cyclo_factors:
            value *= cyclotomic_poly(e)(q) ** m
        return value


def generic_order_eval_ell_part(g: GenericOrder, ctx: EllContext) -> int:
    """v_ell of g evaluated at ctx.q, computed factorwise and cross-checked
    against the valuation of the evaluated big integer."""
    by_factors = sum(m * ell_valuation_phi(e, ctx) for e, m in g.cyclo_factors)
    direct = ell_valuation(g.evaluate(ctx.q), ctx.ell)
    if by_factors != direct:
        raise VerificationError(
            "factorwise l-part disagrees with direct valuation",
            {"generic_order": g, "q": ctx.q, "ell": ctx.ell,
             "factorwise": by_factors, "direct": direct},
        )
    return by_factors
