"""Twist-adapted elements of the extended Weyl group and the supplement of
the relative Weyl group.

Given l = 2*d0*t_l, a twist parity d in {d0, 2*d0}, and a type-B block of
rank m, this module constructs inside the rank-(l+m) extended Weyl group:
the Sylow twist v_l, the orbit torus elements h_k, the orbit-swapping lifts
p_k, the distinguished cycle lift c_1, the folding homomorphisms iota_1 and
iota_2, and the supplement V' = C' x| P' with V' cap H = H'.  Every claimed
identity is checked exactly; failures raise with a counterexample payload.

A `SupplementContext` builds the group, v_l and h_0 at once and every other
element on first use; `build_supplement` keeps one verified supplement per
(l, d, m) for the process.  The twisted Frobenius is the one of
q = `FROBENIUS_Q`.

Conjugation is written x^g = g x g^{-1} throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul, xor

from . import VerificationError
from .roots import levi_root_subset
from .sperm import (
    SignedPermutation,
    _signed_block_cycle,
    centralizer_order,
    closure as perm_closure,
    orbit,
    orbits_on_support,
    relative_weyl_centralizer,
    w_l_prime_parts,
)
from .tits import (
    ExtendedWeylGroup,
    GeneratedSubgroup,
    MonomialElement,
    _f2_masks,
    _f2_rank,
    fixed_coset,
    root_character_eval,
    torsion_two_subgroup_fixed_rank,
)

__all__ = [
    "SupplementContext",
    "build_supplement",
    "build_twist",
    "check_frobenius_conventions",
    "verify_extmap_hypotheses",
]

# the q of the twisted Frobenius v F_q v^{-1} of every supplement
FROBENIUS_Q = 3


def build_twist(group: ExtendedWeylGroup, l: int, d: int) -> MonomialElement:
    """v_l = (m_1 ... m_l)^(2l/d); requires d | 2l."""
    if d < 1 or (2 * l) % d != 0 or l > group.n:
        raise ValueError(f"need d | 2l and l <= rank, got l={l} d={d}")
    v_l0 = group.prod([group.simple_lift(i) for i in range(1, l + 1)])
    return group.power(v_l0, 2 * l // d)


@dataclass
class SupplementContext:
    """All twist-adapted elements for one (l, d, m) parameter point."""

    l: int
    d: int
    m: int
    group: ExtendedWeylGroup = field(init=False)
    d0: int = field(init=False)
    t_l: int = field(init=False)
    a_l: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        self.d0 = self.d if self.d % 2 else self.d // 2
        if self.l % (2 * self.d0) or self.l < 2:
            raise ValueError(f"l = {self.l} is not a multiple of 2*d0 = {2 * self.d0}")
        self.t_l = self.l // (2 * self.d0)
        self.a_l = 2 * self.t_l
        self.n = self.l + self.m
        self.group = ExtendedWeylGroup(max(self.n, 2))
        self.v_l = build_twist(self.group, self.l, self.d)
        self.w_l = self.v_l.weyl
        self.orbits = orbits_on_support(self.w_l, self.l)
        if len(self.orbits) != self.a_l or any(len(o) != self.d0 for o in self.orbits):
            raise VerificationError(
                "twist orbits do not have the expected shape",
                {"l": self.l, "d": self.d, "orbits": self.orbits},
            )
        self.h0 = self.group.h_short(1, 2)
        self._c_exponents_of: dict = {}  # Weyl part -> c_exponents
        self._c_by_exponents: dict = {}  # (k_1, ..., k_t) -> (c, c h_0)

    # -- twisted Frobenius ----------------------------------------------------

    def frob(self, x: MonomialElement) -> MonomialElement:
        return self.group.frobenius(x, FROBENIUS_Q, self.v_l)

    def is_frob_fixed(self, x: MonomialElement) -> bool:
        return self.frob(x) == x

    def pconj(self, x: MonomialElement, g: MonomialElement) -> MonomialElement:
        """The conjugation x^g = g x g^{-1} used in all element constructions.

        With the opposite direction the interleaved conjugates p_i^{g_1},
        p_j^{g_2} land on non-orthogonal root pairs and iota_2 stops being
        multiplicative, while this direction passes the entire identity suite.
        """
        return self.group.conj(g, x)

    # -- element constructions --------------------------------------------------

    @cached_property
    def _twist_powers(self) -> list[tuple[MonomialElement, MonomialElement]]:
        """The pairs (v_l^k, v_l^{-k}) for 0 < k < d0."""
        g = self.group
        powers = [g.power(self.v_l, k) for k in range(1, self.d0)]
        return [(vk, g.inv(vk)) for vk in powers]

    def iota1(self, x: MonomialElement) -> MonomialElement:
        """x |-> prod over k of x^(v_l^k) = v_l^k x v_l^{-k}; factors commute
        pairwise.  The k = 0 factor is x itself."""
        mul = self.group.mul
        return reduce(mul, [mul(mul(vk, x), vk_inv) for vk, vk_inv in self._twist_powers], x)

    @cached_property
    def v_l_prime(self) -> MonomialElement:
        """(m_1 ... m_l)^{a_l}, the twist of parity 2*d0."""
        return build_twist(self.group, self.l, 2 * self.d0)

    @cached_property
    def h(self) -> list:
        """[None, h_1, ..., h_{a_l}], h_k the short-root torus over orbit k."""
        g = self.group
        return [None] + [g.prod([g.h_short(i, 1) for i in o]) for o in self.orbits]

    @cached_property
    def p(self) -> list:
        """[None, p_1, ..., p_{a_l - 1}], p_k = iota_1(m_{k+1})."""
        return [None] + [self.iota1(self.group.simple_lift(k + 1))
                         for k in range(1, self.a_l)]

    @cached_property
    def cbar1(self) -> SignedPermutation:
        """The signed 2*d0-cycle 1 -> a_l+1 -> ... -> -1 -> ... through the
        first orbit.  For even d this is the twist cycle containing 1; for
        odd d it is the inverse of the product of the two mirrored d-cycles
        with the orbit sign flip (the orientation is pinned by the later
        requirement that c_1 c_1^{p_1} projects onto the first block cycle,
        and the displayed-form relation is asserted in the checks)."""
        return _signed_block_cycle(self.n, 1, self.a_l, self.d0)

    def displayed_cbar1(self) -> SignedPermutation:
        """The distinguished cycle in its two displayed case forms."""
        a_l, d, d0, n = self.a_l, self.d, self.d0, self.n
        if d % 2 == 0:
            u, out = 1, {}
            for _ in range(2 * d0):
                img = self.w_l(u)
                out[u] = img
                u = img
            return SignedPermutation.from_mapping(n, out)
        evens = [1 + 2 * k * a_l for k in range((d + 1) // 2)]
        odds = [-(1 + (2 * k + 1) * a_l) for k in range((d - 1) // 2)]
        cycle = evens + odds
        mapping = dict(zip(cycle, cycle[1:] + [cycle[0]]))
        cbar_pr = SignedPermutation.from_mapping(n, mapping)
        flip = SignedPermutation.from_mapping(
            n, {1 + k * a_l: -(1 + k * a_l) for k in range(d)}
        )
        return cbar_pr * flip

    def _subsystem_simple_roots(self, orbit) -> list[tuple]:
        idx = sorted(orbit)
        roots = [tuple(1 if j == idx[0] - 1 else 0 for j in range(self.n))]
        for a, b in zip(idx, idx[1:]):
            roots.append(
                tuple(1 if j == b - 1 else -1 if j == a - 1 else 0 for j in range(self.n))
            )
        return roots

    def fixed_translates(self, x: MonomialElement) -> list[MonomialElement]:
        """The twisted-Frobenius-fixed h x, h in the order-2 torus of the
        orbit-1 subsystem (its simple coroots at -1): one certified coset."""
        g = self.group
        torus = [g.torus_of_root(a) for a in self._subsystem_simple_roots(self.orbits[0])]
        h_x, kernel = fixed_coset(g, torus, self.frob, x) or (None, [])
        fixed = [] if h_x is None else [g.mul(h_x, x)]
        for k in kernel:
            fixed += [g.mul(k, y) for y in fixed]
        return fixed

    @cached_property
    def torus_fixed(self) -> list[MonomialElement]:
        """T_F, the twisted-Frobenius-fixed part of the orbit-1 order-2
        torus (`fixed_translates` of 1): one certified solve."""
        return self.fixed_translates(self.group.identity)

    @cached_property
    def _orbit_generator(self) -> MonomialElement:
        """The product of the orbit-1 simple-root lifts, in order: a lift of
        cbar_1, whose Weyl part `orbit_fixed` certifies a generator of the
        twist's centralizer."""
        g = self.group
        return g.prod([g.root_lift(a) for a in self._subsystem_simple_roots(self.orbits[0])])

    @cached_property
    def orbit_fixed(self) -> list[MonomialElement]:
        """Twisted-Frobenius-fixed elements of the subsystem group over orbit
        1, as t y^k for k < 2 d0 and t in T_F (`torus_fixed`), y a fixed
        translate of `_orbit_generator`: two certified solves in all.

        The subsystem Weyl group is W(B_{d0}) on the orbit's coordinates,
        where the twist acts as one signed d0-cycle, so its centralizer C has
        2 d0 elements (`centralizer_order`).  The generator x is a product of
        subsystem lifts; "the generator's Weyl part generates the twist's
        centralizer" checks that u = rho(x) commutes with the twist and has
        order |C|, so C = <u>.  Let y = h x be fixed, h in the orbit's
        order-2 torus T ("the generator's lift is fixed by the twisted
        Frobenius").  F is an endomorphism, so the fixed elements form a
        group, and y^k is a fixed element over u^k.  Any fixed z over u^k
        is t y^k with t = z y^{-k} fixed and in the subsystem group over 1,
        which meets the torus in T (Tits, Normalisateurs de tores I, 1966):
        t lies in T_F.  So the fixed elements over C are exactly the t y^k,
        and distinct pairs (k, t) give distinct elements."""
        g, idx = self.group, sorted(self.orbits[0])
        pos = {i: k for k, i in enumerate(idx, start=1)}
        twist = SignedPermutation(tuple(
            pos[self.w_l(i)] if self.w_l(i) > 0 else -pos[-self.w_l(i)] for i in idx))
        size, x = centralizer_order(twist), self._orbit_generator
        # the order of rho(x), None past |C|
        order = next((k for k, w in enumerate(accumulate([x.weyl] * size, mul), start=1)
                      if w.is_identity()), None)
        _expect(order == size and x.weyl * self.w_l == self.w_l * x.weyl,
                "the generator's Weyl part generates the twist's centralizer",
                {"generator": x.weyl.images, "order": order, "centralizer_order": size})
        y = next(iter(self.fixed_translates(x)), None)
        if y is None:
            raise VerificationError("no twisted-Frobenius-fixed lift of the generator exists",
                                    {"l": self.l, "d": self.d, "generator": x.weyl.images})
        _expect(self.is_frob_fixed(y), "the generator's lift is fixed by the twisted Frobenius",
                {"lift": y})
        powers = [g.identity, *accumulate([y] * (size - 2), g.mul, initial=y)]
        return [g.mul(t, yk) for yk in powers for t in self.torus_fixed]

    @cached_property
    def c1(self) -> MonomialElement:
        """The lift of cbar_1 in the orbit-1 subsystem fixed by the twisted
        Frobenius, with lexicographically least torus part."""
        over = [y for y in self.orbit_fixed if y.weyl == self.cbar1]
        if not over:
            raise VerificationError("no twisted-Frobenius-fixed lift of cbar_1 exists",
                                    {"l": self.l, "d": self.d, "cbar1": self.cbar1.images})
        return min(over, key=lambda c: c.torus)

    def word_conj(self, x: MonomialElement, word) -> MonomialElement:
        """Iterated conjugation x^{w_1 w_2 ...}, applying w_1 first."""
        for gelt in word:
            x = self.pconj(x, gelt)
        return x

    @cached_property
    def g1_g2(self) -> tuple[MonomialElement, MonomialElement]:
        """The two interleaving elements.  The i-th factor of g_1 carries the
        conjugator word p_{i+1} ... p_{2i-2}, which for i = 1 has negative
        length: that factor is absent (the Weyl image display forces this
        reading).  In g_2 the i = 1 factor is p_1 with an empty conjugator."""
        g = self.group
        factors1, factors2 = [], []
        for i in range(1, self.t_l + 1):
            if i >= 2:
                factors1.append(
                    self.word_conj(self.p[i], [self.p[j] for j in range(i + 1, 2 * i - 1)])
                )
            factors2.append(
                self.word_conj(self.p[i], [self.p[j] for j in range(i + 1, 2 * i)])
            )
        return g.prod(factors1), g.prod(factors2)

    def iota2(self, x: MonomialElement) -> MonomialElement:
        g1, g2 = self.g1_g2
        return self.group.mul(self.pconj(x, g1), self.pconj(x, g2))

    @cached_property
    def p_primes(self) -> list[MonomialElement]:
        return [self.iota2(self.p[i]) for i in range(1, self.t_l)]

    @cached_property
    def head_basis(self) -> list[MonomialElement]:
        """(h_0, (p_1')^2, ..., (p_{t_l - 1}')^2), the basis of the head H'."""
        return [self.h0] + [self.group.mul(p, p) for p in self.p_primes]

    @cached_property
    def c1_prime(self) -> MonomialElement:
        g = self.group
        return g.mul(self.c1, self.pconj(self.c1, self.p[1])) if self.a_l >= 2 else self.c1

    @cached_property
    def c_primes(self) -> list[MonomialElement]:
        return [
            self.word_conj(self.c1_prime, self.p_primes[: i - 1])
            for i in range(1, self.t_l + 1)
        ]

    @cached_property
    def c_powers(self) -> list[dict]:
        """Per c_i', (k, (c_i')^k) for k < 2 d0, keyed by where the Weyl
        part of the power sends 2i-1: C''s normal form reads k_i there."""
        g = self.group
        return [{u.weyl(2 * i - 1): (k, u) for k, u in enumerate(
                 accumulate([c] * (2 * self.d0 - 1), g.mul, initial=g.identity))}
                for i, c in enumerate(self.c_primes, start=1)]

    def c_exponents(self, w: SignedPermutation) -> tuple | None:
        """The (k_i, (c_i')^{k_i}) with w = prod rho(c_i')^{k_i}, each k_i
        read off where w sends 2i-1; None when w is no such product.
        Signed-permutation products only, once per w."""
        if w not in self._c_exponents_of:
            found = tuple(table.get(w(2 * i - 1)) for i, table in enumerate(self.c_powers, start=1))
            self._c_exponents_of[w] = None if None in found or reduce(
                mul, [u.weyl for _, u in found], SignedPermutation.identity(self.n)) != w else found
        return self._c_exponents_of[w]

    def cyclic_sum(self, x: MonomialElement) -> int | None:
        """sum k_i + 2 d0 e mod 4 d0 for x = prod (c_i')^{k_i} h_0^e in C',
        its normal form (unique by `_verify_c_structure`); None outside C'.
        c and c h_0 are formed once per exponent vector."""
        found = self.c_exponents(x.weyl)
        if found is None:
            return None
        ks = tuple(k for k, _ in found)
        if ks not in self._c_by_exponents:
            c = reduce(self.group.mul, [u for k, u in found if k] or [self.group.identity])
            self._c_by_exponents[ks] = (c, self.group.mul(c, self.h0))
        pair = self._c_by_exponents[ks]
        return (sum(ks) + 2 * self.d0 * pair.index(x)) % (4 * self.d0) if x in pair else None


def check_frobenius_conventions(ctx: SupplementContext) -> dict:
    """Fixed-point rank of the order-2 torus under both possible twisted
    Frobenius conventions; a correct convention must produce rank a_l."""
    g = ctx.group
    rank_left = torsion_two_subgroup_fixed_rank(g, ctx.l, FROBENIUS_Q, ctx.v_l)
    rank_right = torsion_two_subgroup_fixed_rank(g, ctx.l, FROBENIUS_Q, g.inv(ctx.v_l))
    return {
        "expected_rank": ctx.a_l,
        "conjugate_by_twist": rank_left,
        "conjugate_by_inverse_twist": rank_right,
        "both_pass": rank_left == ctx.a_l == rank_right,
    }


def _expect(condition: bool, label: str, payload: dict) -> None:
    if not condition:
        raise VerificationError(f"identity failed: {label}", payload)


def verify_h_elements(ctx: SupplementContext) -> None:
    g = ctx.group
    _expect(g.mul(ctx.h0, ctx.h0) == g.identity, "h_0^2 == 1", {})
    for k in range(1, ctx.a_l + 1):
        hk = ctx.h[k]
        sq = g.mul(hk, hk)
        _expect(
            sq == g.power(ctx.h0, len(ctx.orbits[k - 1])),
            "h_k^2 == h_0^(orbit size)",
            {"k": k, "square": sq},
        )
        conj = ctx.pconj(hk, ctx.v_l)
        expected = hk if ctx.d % 2 else g.mul(ctx.h0, hk)
        _expect(conj == expected, "h_k twisted by v_l", {"k": k, "got": conj})
        in_h = g.in_torsion_two(hk)
        _expect(in_h == (ctx.d0 % 2 == 0), "h_k order-2 membership", {"k": k})


def verify_p_elements(ctx: SupplementContext) -> None:
    g = ctx.group
    for k in range(1, ctx.a_l):
        pk = ctx.p[k]
        _expect(ctx.is_frob_fixed(pk), "p_k fixed by twisted Frobenius", {"k": k})
        sq = g.mul(pk, pk)
        expected = g.prod([ctx.h[k], ctx.h[k + 1], g.power(ctx.h0, ctx.d0)])
        _expect(sq == expected, "p_k^2 == h_k h_{k+1} h_0^{d0}", {"k": k, "got": sq})
        img = pk.weyl
        ok = set(img.unsigned()[i - 1] for i in ctx.orbits[k - 1]) == set(ctx.orbits[k])
        _expect(ok, "p_k swaps adjacent orbits", {"k": k})
    for k in range(1, ctx.a_l - 1):
        lhs = g.prod([ctx.p[k], ctx.p[k + 1], ctx.p[k]])
        rhs = g.prod([ctx.p[k + 1], ctx.p[k], ctx.p[k + 1]])
        _expect(lhs == rhs, "braid relation for p_k", {"k": k})
    for k in range(1, ctx.a_l):
        for j in range(k + 2, ctx.a_l):
            _expect(
                g.mul(ctx.p[k], ctx.p[j]) == g.mul(ctx.p[j], ctx.p[k]),
                "distant p_k commute",
                {"k": k, "j": j},
            )


def verify_c1(ctx: SupplementContext) -> None:
    """c_1 lifts cbar_1, which centralizes the twist and generates its
    displayed case form; c_1 is Frobenius-fixed with c_1^{2 d0} in <h_0>;
    and <h_1, h_0, c_1> compares with `orbit_fixed` times T_F, read from
    `SupplementContext.torus_fixed` with no solve of its own."""
    g = ctx.group
    _expect(ctx.c1.weyl == ctx.cbar1, "c_1 lifts cbar_1", {})
    # even d: the displayed form is the twist cycle through 1, which is
    # cbar_1 itself.  Odd d: the displayed two-mirrored-cycles-times-flip
    # form equals cbar_1^(d0 + 2); it generates the same cyclic group but
    # only the power used here makes c_1 c_1^{p_1} project onto the first
    # block cycle.
    displayed = ctx.displayed_cbar1()
    expected_power = 1 if ctx.d % 2 == 0 else ctx.d0 + 2
    acc = SignedPermutation.identity(ctx.n)
    for _ in range(expected_power):
        acc = acc * ctx.cbar1
    _expect(
        displayed == acc,
        "cbar_1 generates the displayed case form",
        {"displayed": displayed.images, "used": ctx.cbar1.images},
    )
    _expect(ctx.cbar1 * ctx.w_l == ctx.w_l * ctx.cbar1, "cbar_1 centralizes the twist", {})
    _expect(
        all(c % 2 == 0 for c in ctx.c1.torus), "c_1 has order-2 torus part", {}
    )
    _expect(ctx.is_frob_fixed(ctx.c1), "c_1 fixed by twisted Frobenius", {})
    pw = g.power(ctx.c1, 2 * ctx.d0)
    _expect(pw in (g.identity, ctx.h0), "c_1^{2 d0} lies in <h_0>", {"got": pw})
    # the generated comparison: the part of <h_1, h_0, c_1> with order-2
    # torus coordinates equals the product of the Frobenius-fixed part of
    # the orbit subsystem with the twist-centralized part of its torus.
    # h_1 itself has a fourth-root coordinate, so it contributes an index-2
    # overgroup on the left; both facts are asserted.
    lhs_full = set(
        GeneratedSubgroup.generate(g, [ctx.h[1], ctx.h0, ctx.c1], budget=64 * ctx.d0).elements
    )
    lhs = {x for x in lhs_full if all(c % 2 == 0 for c in x.torus)}
    rhs = {g.mul(a, b) for a in ctx.orbit_fixed for b in ctx.torus_fixed}
    _expect(
        lhs == rhs,
        "even part of <h_1, h_0, c_1> == (orbit fixed points) * (centralized torus)",
        {"lhs_order": len(lhs), "rhs_order": len(rhs)},
    )
    _expect(
        len(lhs_full) == 2 * len(rhs),
        "<h_1, h_0, c_1> extends the fixed-point product with index 2",
        {"lhs_order": len(lhs_full), "rhs_order": len(rhs)},
    )


@dataclass
class SupplementData:
    ctx: SupplementContext
    c_primes: list
    p_primes: list
    c_order: int
    p_closure: GeneratedSubgroup
    head_coordinates: dict  # H' in BFS order -> coordinates over ctx.head_basis
    v_prime_order: int
    relative_weyl_order: int


# Five separately called point suites read a point's supplement, and callers
# may run them suite-major, where an owner holding one point would rebuild it
# per suite: supplements live for the process (CharacterTables do not).
_supplement_cache: dict = {}


def build_supplement(l: int, d: int, m: int) -> SupplementData:
    """Construct and fully verify the supplement for one parameter point.

    Checks, in order: the h/p/c element identities, the iota homomorphism
    and injectivity properties (by iota_1's kernel and P''s order at every
    rank, see `_verify_iota1` and `_verify_iota2`), the Weyl images of the
    supplement generators, the conjugation table, the central product
    structure of C', the semidirect decomposition V' = C' x| P' with
    V' cap H = H', and the relative Weyl group by the pair-block map and the
    orders of its two factors, at every rank.  C' is never closed: generator
    checks certify its order and its meet with the torus
    (`_verify_c_structure`), and its normal form gives membership and
    cyclic sums (`SupplementContext.cyclic_sum`).  P' is closed once, over
    the p_i'.  H' is closed once, over `SupplementContext.head_basis`, each
    element labelled by its coordinates, which `_verify_semidirect`
    certifies.  A supplement is built once per (l, d, m).
    """
    key = (l, d, m)
    data = _supplement_cache.get(key)
    if data is not None:
        return data
    ctx = SupplementContext(l, d, m)
    if ctx.d0 % 2 == 0:
        raise ValueError("the supplement construction needs odd d0")
    g = ctx.group
    verify_h_elements(ctx)
    verify_p_elements(ctx)
    verify_c1(ctx)
    _verify_iota1(ctx)
    c_primes = ctx.c_primes
    p_primes = ctx.p_primes
    p_closure = _verify_iota2(ctx, p_primes)
    _verify_weyl_images(ctx, c_primes, p_primes)
    _verify_conjugation_table(ctx, c_primes, p_primes)
    c_order = _verify_c_structure(ctx, c_primes)
    basis = ctx.head_basis
    head_coordinates = orbit({g.identity: (0,) * len(basis)}, range(len(basis)),
                             lambda x, i: g.mul(x, basis[i]), 2 ** (ctx.t_l + 1),
                             lambda v, i: v[:i] + (1 - v[i],) + v[i + 1:])
    v_prime_order = _verify_semidirect(ctx, c_primes, p_primes, c_order, p_closure,
                                       head_coordinates)
    rel_order = _verify_relative_weyl(ctx, c_primes, p_primes,
                                      v_prime_order // len(head_coordinates))
    data = SupplementData(ctx, c_primes, p_primes, c_order, p_closure, head_coordinates,
                          v_prime_order, rel_order)
    _supplement_cache[key] = data
    return data


def _verify_iota1(ctx: SupplementContext) -> None:
    """iota_1 is an injective homomorphism on dom = <m_2, ..., m_{a_l}>, at
    every rank, by three checks.  B_k is dom conjugated by v_l^k, k < d0.

    - Homomorphism: "translated blocks commute" gives [B_0, B_k] = 1 on
      generators, so on the groups; conjugating by v_l^j gives every pair
      [B_j, B_{j+k}] = 1, and the factors of iota_1(x) iota_1(y) reorder
      into iota_1(xy).
    - Kernel inside ker rho: dom moves only block 0 = {1, ..., a_l}, and by
      "block supports are pairwise disjoint" the k-th factor of
      rho(iota_1(z)) moves only block k: on block 0 it is rho(z), so
      iota_1(z) = 1 forces rho(z) = 1.
    - Torus kernel: dom cap ker rho = <m_i^2 : 2 <= i <= a_l>, of order
      2^(a_l - 1) (Tits, Normalisateurs de tores I, 1966), where iota_1 is
      x -> sum_{k < d0} w_l^k x over F_2: "iota_1 has trivial torus
      kernel" shows it injective there."""
    g = ctx.group
    gens = [g.simple_lift(i) for i in range(2, ctx.a_l + 1)]
    for k, (vk, _) in enumerate(ctx._twist_powers, start=1):
        for x in gens:
            xc = ctx.pconj(x, vk)
            for y in gens:
                _expect(g.mul(y, xc) == g.mul(xc, y), "translated blocks commute", {"k": k})
    u = ctx.w_l.unsigned()
    supports = [frozenset(range(1, ctx.a_l + 1))]
    for _ in range(1, ctx.d0):
        supports.append(frozenset(u[i - 1] for i in supports[-1]))
    _expect(sum(len(s) for s in supports) == len(frozenset().union(*supports)),
            "block supports are pairwise disjoint", {"supports": supports})
    # the images sum_{k < d0} w^k unit_i, i = 2..a_l, are independent
    cols = _f2_masks(ctx.group.weyl_torus_matrix(ctx.w_l))
    image = []
    for i in range(1, ctx.a_l):
        v, acc = 1 << i, 0
        for _ in range(ctx.d0):
            acc ^= v
            v = reduce(xor, (c for j, c in enumerate(cols) if v >> j & 1), 0)
        image.append(acc)
    _expect(_f2_rank(image) == ctx.a_l - 1, "iota_1 has trivial torus kernel",
            {"l": ctx.l, "d": ctx.d})
    for i, x in enumerate(gens):
        _expect(ctx.iota1(x) == ctx.p[i + 1], "iota_1 sends the simple lift to p",
                {"index": i + 2})


def _verify_iota2(ctx: SupplementContext, p_primes: list) -> GeneratedSubgroup:
    """iota_2 is an injective homomorphism on dom = <p_1, ..., p_{t_l - 1}>;
    returns P' = <p_i'>, closed over the p_i' in BFS order, and {1} for
    t_l < 2.  dom is never closed.

    - Homomorphism: iota_2(x) = x^{g_1} x^{g_2}, so iota_2(xy) =
      iota_2(x) iota_2(y) says exactly [x^{g_2}, y^{g_1}] = 1: "iota_2
      multiplicative on generator pairs" makes dom^{g_2} and dom^{g_1}
      commute elementwise, and iota_2 is then a homomorphism on all of dom,
      whose image is P' = <iota_2(p_i)>.
    - |dom| = 2^(t_l - 1) t_l!: p_k = iota_1(m_{k+1}), and iota_1 is
      injective (`_verify_iota1`), so dom is isomorphic to
      <m_2, ..., m_{t_l}>.  That group maps onto S_{t_l} with kernel
      <m_i^2>, of order 2^(t_l - 1) (Tits, Normalisateurs de tores I, 1966).
    - Injective: "P' order" (`_verify_semidirect`) checks
      |P'| = 2^(t_l - 1) t_l! = |dom|, so the kernel is trivial.  The
      closure's budget is that order: a larger P' raises
      BudgetExceededError."""
    g = ctx.group
    if ctx.t_l < 2:
        return GeneratedSubgroup((g.identity,))
    dom_gens = [ctx.p[i] for i in range(1, ctx.t_l)]
    for x in dom_gens:
        for y in dom_gens:
            _expect(ctx.iota2(g.mul(x, y)) == g.mul(ctx.iota2(x), ctx.iota2(y)),
                    "iota_2 multiplicative on generator pairs", {})
    for i, pp in enumerate(p_primes, start=1):
        sq = g.mul(pp, pp)
        _expect(sq == g.prod([ctx.h[2 * i - 1], ctx.h[2 * i], ctx.h[2 * i + 1], ctx.h[2 * i + 2]]),
                "(p_i')^2 == h_{2i-1} h_{2i} h_{2i+1} h_{2i+2}", {"i": i, "got": sq})
    for i in range(len(p_primes) - 1):
        lhs = g.prod([p_primes[i], p_primes[i + 1], p_primes[i]])
        rhs = g.prod([p_primes[i + 1], p_primes[i], p_primes[i + 1]])
        _expect(lhs == rhs, "braid relation for p_i'", {"i": i + 1})
    for pp in p_primes:
        _expect(ctx.is_frob_fixed(pp), "p_i' fixed by twisted Frobenius", {})
    g1, g2 = ctx.g1_g2
    _expect(ctx.is_frob_fixed(g1), "g_1 fixed by twisted Frobenius", {})
    _expect(ctx.is_frob_fixed(g2), "g_2 fixed by twisted Frobenius", {})
    return GeneratedSubgroup.generate(
        g, p_primes, budget=2 ** (ctx.t_l - 1) * math.factorial(ctx.t_l))


def _verify_weyl_images(ctx, c_primes, p_primes) -> None:
    w_l_prime, parts, taus = w_l_prime_parts(ctx.l, ctx.d0, ctx.t_l, ctx.n)
    _expect(
        ctx.v_l_prime.weyl == w_l_prime,
        "v_l' projects to the product of block cycles",
        {"got": ctx.v_l_prime.weyl.images},
    )
    for i, c in enumerate(c_primes):
        _expect(
            c.weyl == parts[i],
            "c_i' projects to w'_{l,i}",
            {"i": i + 1, "got": c.weyl.images, "expected": parts[i].images},
        )
    for i, pp in enumerate(p_primes):
        _expect(
            pp.weyl == taus[i],
            "p_i' projects to tau_i",
            {"i": i + 1, "got": pp.weyl.images, "expected": taus[i].images},
        )


def _verify_conjugation_table(ctx, c_primes, p_primes) -> None:
    for i, c in enumerate(c_primes, start=1):
        for j, pp in enumerate(p_primes, start=1):
            got = ctx.pconj(c, pp)
            if j == i:
                expected = c_primes[i]
            elif j == i - 1:
                expected = c_primes[i - 2]
            else:
                expected = c
            _expect(
                got == expected,
                "conjugation table of c_i' under p_j'",
                {"i": i, "j": j, "got": got},
            )


def _verify_c_structure(ctx, c_primes) -> int:
    """|C'| = 2 (2 d0)^t and C' cap ker rho = <h_0>, with no element of C'
    enumerated; returns |C'|.

    By "C' abelian", "(c_i')^{2 d0} == h_0" and "c_i' has order 4 d0" (so
    h_0 has order 2), every x in C' is prod (c_i')^{k_i} h_0^e with
    0 <= k_i < 2 d0 and e in {0, 1}.  The 2 d0 powers of rho(c_i') send 2i-1
    to distinct points, so 2i-1 lies in the Weyl support of c_i'; these
    supports are pairwise disjoint, so rho(x) sends 2i-1 where
    rho(c_i')^{k_i} does.  So rho(x) determines every k_i, and x then
    determines e, h_0 being a torus element other than 1: this normal form
    is unique, |C'| = 2 (2 d0)^t, and rho(x) = 1 forces every k_i to 0, so
    C' cap ker rho = <h_0>.  `SupplementContext.cyclic_sum` reads it
    (collection to a normal form in the abelian case: Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 8)."""
    g = ctx.group
    for i, a in enumerate(c_primes):
        for b in c_primes[i + 1:]:
            _expect(g.mul(a, b) == g.mul(b, a), "C' abelian", {"i": i + 1})
        _expect(g.power(a, 2 * ctx.d0) == ctx.h0, "(c_i')^{2 d0} == h_0", {"i": i + 1})
        _expect(g.order(a) == 4 * ctx.d0, "c_i' has order 4 d0", {"i": i + 1})
    supports = [[j for j in range(1, ctx.n + 1) if a.weyl(j) != j] for a in c_primes]
    _expect(sum(map(len, supports)) == len(set().union(*supports)),
            "C' is the central product over <h_0>", {"supports": supports})
    one = SignedPermutation.identity(ctx.n)
    for i, a in enumerate(c_primes, start=1):
        images = {u(2 * i - 1) for u in accumulate([a.weyl] * (2 * ctx.d0 - 1), mul, initial=one)}
        _expect(len(images) == 2 * ctx.d0, "C' meets the torus in <h_0>", {"i": i})
    return 2 * (2 * ctx.d0) ** len(c_primes)


def _verify_semidirect(ctx, c_primes, p_primes, c_order, p_closure, head_coordinates) -> int:
    """V' = C' x| P' and V' cap H = H'; returns |V'|.  Every check runs over
    P' and the generators, C' by its normal form (`SupplementContext`).

    `head_coordinates` is H' closed over its basis b_1, ..., b_t
    (`SupplementContext.head_basis`, t = t_l) in BFS order, x b_i labelled
    by x's label plus the i-th unit vector over F_2.  "H' is elementary
    abelian of rank t_l" puts H' in the order-2 torus, so the b_i are
    commuting involutions, and makes |H'| = 2^t: v -> prod b_i^{v_i} is
    then a homomorphism from F_2^t onto H', a bijection, and by induction
    along the orbit every label is the coordinate vector of its element."""
    g = ctx.group
    p_elements = p_closure.elements
    _expect(all(p == g.identity or ctx.cyclic_sum(p) is None for p in p_elements),
            "C' cap P' == 1", {})
    expected_p = 2 ** (ctx.t_l - 1) * math.factorial(ctx.t_l)
    _expect(len(p_elements) == expected_p, "P' order", {"order": len(p_elements)})
    for c in c_primes:
        for pp in p_primes:
            _expect(ctx.cyclic_sum(ctx.pconj(c, pp)) is not None, "P' normalizes C'", {})
    v_prime_order = c_order * len(p_elements)
    expected_v = 2 * (2 * ctx.d0) ** ctx.t_l * expected_p
    _expect(v_prime_order == expected_v, "V' order from the semidirect decomposition",
            {"order": v_prime_order, "expected": expected_v})
    h_set = set(head_coordinates)
    _expect(len(h_set) == 2**ctx.t_l and all(g.in_torsion_two(x) for x in h_set),
            "H' is elementary abelian of rank t_l", {"order": len(h_set)})
    # V' cap H == H': both sides via the rho-kernels of the two factors
    intersection = {g.mul(c, p) for c in (g.identity, ctx.h0) for p in p_elements
                    if p.weyl.is_identity()}
    _expect(intersection == h_set, "V' cap H == H'",
            {"lhs": len(intersection), "rhs": len(h_set)})
    # rho(C') cap rho(P') is trivial, so the kernels assemble the intersection
    _expect(all(p.weyl.is_identity() or ctx.c_exponents(p.weyl) is None for p in p_elements),
            "Weyl images of C' and P' meet trivially", {})
    return v_prime_order


def _verify_relative_weyl(ctx, c_primes, p_primes, quotient_order) -> int:
    """rho(V') maps isomorphically onto the relative Weyl centralizer
    C = C_{N_W(W_L)/W_L}(w_l W_L), the centralizer of the twist's image in
    W(B_{l/2}) (`relative_weyl_centralizer`); returns |C|.

    Each generator normalizes W_L and its image commutes with the twist's,
    so the images generate a subgroup of C.  Let A and B be the groups
    generated by the images of the c_i' and of the p_i'.  Each p_j' image
    conjugates each c_i' image into A, so B normalizes A: AB is then the
    subgroup the images generate, of order |A| |B| / |A cap B|, and all of C
    when that is |C|.  rho(V') meets W_L trivially when its image has
    |rho(V')| elements, and |rho(V')| = |V'|/|H'| = `quotient_order` as
    V' cap ker rho = H': rho(c p) = 1 puts rho(c) in rho(C') cap rho(P') = 1,
    so c lies in C' cap ker rho = <h_0> and p in P' cap ker rho, and these
    products form H' (`_verify_c_structure`, `_verify_semidirect`)."""
    expected = (2 * ctx.d0) ** ctx.t_l * math.factorial(ctx.t_l)
    levi = levi_root_subset(ctx.n, ctx.m, ctx.d0, ctx.t_l)
    cg = relative_weyl_centralizer(ctx.n, levi, ctx.w_l)
    _expect(cg.order == expected, "relative Weyl centralizer order matches the wreath formula",
            {"order": cg.order, "expected": expected})
    cover = "supplement generators cover the relative Weyl centralizer"
    images = []
    for w in [x.weyl for x in c_primes + p_primes]:
        image = cg.image(w)
        _expect(image is not None and all(w.act_on_root(a) in levi.roots for a in levi.positive()),
                "supplement generators normalize the Levi Weyl group", {"element": w.images})
        _expect(image * cg.twist == cg.twist * image, cover, {"element": w.images})
        images.append(image)
    c_images, p_images = images[:len(c_primes)], images[len(c_primes):]
    a = perm_closure(c_images, budget=cg.order)
    b = perm_closure(p_images or [SignedPermutation.identity(cg.pairs)], budget=cg.order)
    for p in p_images:
        for c in c_images:
            _expect(p * c * p.inverse() in a, "Weyl images of P' normalize the Weyl image of C'",
                    {"p": p.images, "c": c.images})
    generated = len(a) * len(b) // len(a & b)
    _expect(generated == cg.order, cover, {"generated": generated, "expected": cg.order})
    _expect(generated == quotient_order, "Weyl image of V' meets the Levi Weyl group trivially",
            {"image": generated, "quotient": quotient_order})
    return cg.order


def verify_extmap_hypotheses(l: int, d: int, m: int) -> dict:
    """The group-theoretic extension-map hypotheses at the monomial level:
    the head subgroup meets the order-2 torus in H', H' centralizes every
    Levi root subgroup (checked through the root pairing), the supplement
    covers the relative Weyl quotient, and the index arithmetic matches."""
    data = build_supplement(l, d, m)
    ctx = data.ctx
    levi = levi_root_subset(ctx.n, ctx.m, ctx.d0, ctx.t_l)
    pairing_ok = all(
        root_character_eval(a, h) == 0
        for a in levi.roots
        for h in data.head_coordinates
    )
    _expect(pairing_ok, "H' centralizes all Levi root subgroups", {})
    index = data.v_prime_order // len(data.head_coordinates)
    _expect(
        index == data.relative_weyl_order,
        "index of H' in V' equals the relative Weyl order",
        {"index": index},
    )
    return {
        "l": l, "d": d, "m": m,
        "v_prime_order": data.v_prime_order,
        "h_prime_order": len(data.head_coordinates),
        "relative_weyl_order": data.relative_weyl_order,
        "h_prime_central_in_levi": pairing_ok,
    }
