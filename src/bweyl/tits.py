"""The extended Weyl group of type B with torus torsion, in normal form.

An element is a pair (t, w): a torsion torus element t (coordinate vector
over Z/4 in the coroot basis, recording exponents of a fixed primitive
fourth root of unity) times the canonical lift of the signed permutation w.
The canonical lift of w is the product of the simple-root lifts m_i along
any reduced word of w; products are computed by left-folding a reduced word
of the left factor through the right factor with the rule

    m_i * (t, w) = (s_i.t + [length drops] * 2*alpha_i^vee, s_i w),

which encodes m_i^2 = "coroot of alpha_i evaluated at -1".  Well-definedness
over the choice of reduced word is exercised by the test suite.

The fold result is affine in the right torus, so each group caches the
cocycle and product of every Weyl pair it has multiplied.  A cache fill is
one pass of the left rule over the reversed least reduced word of the left
factor: descent test, s_i on a torus list padded with a trailing 0, s_i on
the inverse table, and the correction.  The same pass, run from the
identity over any word, reduced or not, gives the lift of the word
(`word_lift`) without a `mul` or a cache fill.  A cache hit is the fused
action: one pass moves the e-coordinates of t2 by w1, and one suffix-sum
pass takes them back to coroot coordinates while adding t1 and the
cocycle mod 4.  A canonical lift on the right (t2 = 0, as in products
with simple lifts) skips the action: the product torus is t1 + cocycle
mod 4, or the cached cocycle itself when t1 = 0 too.  Least reduced
words strip the least left descent repeatedly; stripping s_i leaves no
descent below i - 1, so each scan resumes there instead of at 1.

Two group-law facts save products.  The torus is normal and abelian, so
(t, w)(s, 1)(t, w)^{-1} = (w.s, 1) (Tits, Normalisateurs de tores I, 1966):
`conj` of a torus element is the fused action alone.  A finite group is
closed under its generators alone, since g^{-1} = g^{ord(g) - 1} (Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 4.1):
`GeneratedSubgroup.generate` multiplies by the generators only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import sub
from typing import Iterable, NamedTuple

from . import BudgetExceededError, VerificationError
from .roots import coroot, dot
from .sperm import SignedPermutation, orbit

__all__ = [
    "ExtendedWeylGroup",
    "GeneratedSubgroup",
    "MonomialElement",
    "TorusTorsionElement",
    "fixed_coset",
    "least_reduced_word",
    "root_character_eval",
]

TorusTorsionElement = tuple  # coordinates over Z/4 in the coroot basis


class MonomialElement(NamedTuple):
    torus: TorusTorsionElement
    weyl: SignedPermutation


class ExtendedWeylGroup:
    """Ambient context of rank n: caches reduced words and provides the
    group operations on normal-form pairs."""

    def __init__(self, n: int, *, cocycle_rule: str = "descent"):
        if n < 2:
            raise ValueError("need rank >= 2")
        if cocycle_rule not in ("descent", "ascent"):
            raise ValueError("cocycle_rule must be 'descent' or 'ascent'")
        self.n = n
        self.modulus = 4
        # "ascent" deliberately corrupts the correction branch; it exists so
        # the verification suites can demonstrate they detect the corruption.
        self.cocycle_rule = cocycle_rule
        self._words: dict[tuple, tuple] = {}
        self._simples = [None] + [
            SignedPermutation.simple_reflection(n, i) for i in range(1, n + 1)
        ]
        # the fold result is affine in the right torus: caching the cocycle
        # of each Weyl pair makes repeated products (closures, sweeps) cheap
        self._cocycles: dict[tuple, tuple] = {}
        # conjugators of non-torus elements recur (twists, their powers,
        # supplement generators)
        self._conjugator_inverses: dict[MonomialElement, MonomialElement] = {}
        self.identity = MonomialElement(
            (0,) * n, SignedPermutation.identity(n)
        )

    # -- torus coordinate helpers -------------------------------------------

    def coroot_coords(self, evec: Iterable[int]) -> tuple:
        """Convert an e-basis cocharacter vector (even coordinate sum) into
        coroot-basis coordinates mod the torsion modulus."""
        v = list(evec)
        if sum(v) % 2:
            raise ValueError(f"{v} is not in the coroot lattice")
        return tuple(c % self.modulus for c in _from_e(v))

    def h_short(self, i: int, exponent: int = 1) -> MonomialElement:
        """The image of the coroot of e_i at the fourth root of unity raised
        to `exponent`: coordinates exponent * (1, 2, ..., 2, 0, ..., 0)."""
        evec = [0] * self.n
        evec[i - 1] = 2 * exponent
        return self.torus(self.coroot_coords(evec))

    def h_simple(self, i: int) -> MonomialElement:
        """The lift relation value m_i^2: coordinates 2 * unit_i."""
        coords = [0] * self.n
        coords[i - 1] = 2
        return MonomialElement(tuple(coords), SignedPermutation.identity(self.n))

    def torus(self, coords: Iterable[int]) -> MonomialElement:
        return MonomialElement(
            tuple(c % self.modulus for c in coords),
            SignedPermutation.identity(self.n),
        )

    def in_torsion_two(self, x: MonomialElement) -> bool:
        """Membership in H = (torsion torus) cap (extended Weyl group):
        trivial Weyl part and all coordinates even."""
        return x.weyl.is_identity() and all(c % 2 == 0 for c in x.torus)

    # -- reduced words -------------------------------------------------------

    def reduced_word(self, w: SignedPermutation) -> tuple:
        """Lexicographically least reduced word of w, cached."""
        key = w.images
        cached = self._words.get(key)
        if cached is None:
            cached = self._words[key] = least_reduced_word(key)
        return cached

    # -- group operations ------------------------------------------------------

    def simple_lift(self, i: int) -> MonomialElement:
        if not 1 <= i <= self.n:
            raise ValueError(f"no simple lift with index {i}")
        return MonomialElement((0,) * self.n, self._simples[i])

    def lift(self, w: SignedPermutation) -> MonomialElement:
        """Canonical lift of w: torus part zero in normal form."""
        return MonomialElement((0,) * self.n, w)

    def mul(self, x: MonomialElement, y: MonomialElement) -> MonomialElement:
        """(t1, w1)(t2, w2) = (t1 + w1.t2 + cocycle(w1, w2), w1 w2)."""
        images = x.weyl.images
        key = (images, y.weyl.images)
        hit = self._cocycles.get(key)
        if hit is None:
            hit = self._cocycles[key] = self._fold(x.weyl, y.weyl)
        cocycle, product = hit
        zero = self.identity.torus
        if y.torus == zero:
            # a canonical lift on the right: w1.0 = 0 leaves t1 + cocycle
            if x.torus == zero:
                return MonomialElement(cocycle, product)
            mod = self.modulus
            return MonomialElement(
                tuple([(a + b) % mod for a, b in zip(x.torus, cocycle)]), product)
        return MonomialElement(
            _act_and_add(images, y.torus, x.torus, cocycle, self.modulus), product)

    def word_lift(self, word: Iterable[int]) -> MonomialElement:
        """m_{i_1} ... m_{i_k} for any word, reduced or not: the left rule
        applied letter by letter from the identity, in O(k + n) and without
        touching the cocycle cache."""
        word = tuple(word)
        for i in word:
            if not 1 <= i <= self.n:
                raise ValueError(f"no simple lift with index {i}")
        inv = list(range(self.n + 1))
        torus = self._left_rule(word, inv)
        # the inverse table of w lists the images of w^{-1}
        return MonomialElement(torus, SignedPermutation._unchecked(tuple(inv[1:])).inverse())

    def _fold(self, w1: SignedPermutation, w2: SignedPermutation):
        """Fold the reduced word of w1 through (0, w2): returns the cocycle
        torus correction and the product Weyl part."""
        return self._left_rule(self.reduced_word(w1), _inverse_table(w2.images)), w1 * w2

    def _left_rule(self, word: tuple, inv: list) -> tuple:
        """m_{i_1} ... m_{i_k} (0, w) for the inverse table `inv` of w, which
        ends as that of s_{i_1} ... s_{i_k} w; returns the torus mod 4.
        Each letter s_i, right to left, tests whether i is a left descent of
        the current Weyl part (see `_inverse_table`), applies s_i to the torus
        (padded with a trailing 0, so s_n reads no boundary) and to the
        inverse table, and adds 2 alpha_i^vee on a descent ("ascent" moves it
        onto the ascents)."""
        n = self.n
        t = [0] * (n + 1)
        on_descent, on_ascent = (0, 2) if self.cocycle_rule == "ascent" else (2, 0)
        for i in reversed(word):
            a, b = inv[i], inv[i - 1]
            correction = on_descent if b > a else on_ascent
            if i == 1:
                t[0] = t[1] - t[0] + correction
                inv[1] = -a
            else:
                # alpha_1^vee = 2 e_1 doubles the coupling of alpha_2 to it
                t[i - 1] = ((2 * t[0] if i == 2 else t[i - 2]) - t[i - 1] + t[i]
                            + correction)
                inv[i - 1], inv[i] = a, b
        mod = self.modulus
        return tuple([c % mod for c in t[:n]])

    def inv(self, x: MonomialElement) -> MonomialElement:
        winv = x.weyl.inverse()
        folded = self.mul(self.lift(winv), x)
        if not folded.weyl.is_identity():
            raise VerificationError(
                "w^{-1} w is not the identity", {"weyl": x.weyl.images}
            )
        return MonomialElement(
            tuple(-c % self.modulus for c in folded.torus), winv
        )

    def power(self, x: MonomialElement, k: int) -> MonomialElement:
        if k < 0:
            return self.power(self.inv(x), -k)
        out = self.identity
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def order(self, x: MonomialElement) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
            if k > 16 * self.modulus * 4**self.n:
                raise BudgetExceededError("runaway order computation")
        return k

    def conj(self, g: MonomialElement, x: MonomialElement) -> MonomialElement:
        """g x g^{-1}.  A torus element x = (s, 1) goes to (w.s, 1) for the
        Weyl part w of g, with no product; for any other x the inverse of
        each conjugator is kept."""
        if x.weyl.images == self.identity.weyl.images:
            zero = self.identity.torus
            return MonomialElement(
                _act_and_add(g.weyl.images, x.torus, zero, zero, self.modulus), x.weyl)
        g_inv = self._conjugator_inverses.get(g)
        if g_inv is None:
            g_inv = self._conjugator_inverses[g] = self.inv(g)
        return self.mul(self.mul(g, x), g_inv)

    def prod(self, factors: Iterable[MonomialElement]) -> MonomialElement:
        out = self.identity
        for f in factors:
            out = self.mul(out, f)
        return out

    # -- Frobenius actions -----------------------------------------------------

    def frobenius_q(self, x: MonomialElement, q: int) -> MonomialElement:
        """The field power map: canonical lifts are fixed, torus coordinates
        multiply by q."""
        if q % 2 == 0:
            raise ValueError("q must be odd")
        return MonomialElement(
            tuple((q * c) % self.modulus for c in x.torus), x.weyl
        )

    def frobenius(
        self, x: MonomialElement, q: int, twist: MonomialElement
    ) -> MonomialElement:
        """Twisted Frobenius v * F_q(x) * v^{-1}."""
        return self.conj(twist, self.frobenius_q(x, q))

    def weyl_torus_matrix(self, w: SignedPermutation) -> tuple:
        """Columns of w on the coroot basis: column i is w.unit_i mod 4."""
        n = self.n
        zero = (0,) * n
        return tuple(
            _act_and_add(w.images, tuple(int(j == i) for j in range(n)), zero, zero,
                         self.modulus)
            for i in range(n)
        )

    # -- subsystem lifts --------------------------------------------------------

    def root_lift(self, a) -> MonomialElement:
        """A lift of the reflection in the positive root a that lies in the
        rank-one subgroup attached to a: the conjugate of a simple lift by a
        canonical lift moving the matching simple root onto a.

        The result is one of the two Chevalley generators over a; they differ
        by the order-2 torus element of a, which generation never sees.
        """
        nz = [(i + 1, v) for i, v in enumerate(a) if v]
        if dot(a, a) == 1:
            (j, s) = nz[0]
            if s < 0:
                raise ValueError("want a positive root")
            w = SignedPermutation.from_mapping(self.n, {1: j, j: 1} if j != 1 else {})
            base = 1
        elif dot(a, a) == 2:
            if len(nz) != 2:
                raise ValueError(f"{a} is not a root here")
            (i, si), (j, sj) = nz
            if sj < 0:
                raise ValueError("want a positive root")
            # map e_1 -> -si * e_i and e_2 -> e_j, so alpha_2 = e_2 - e_1 -> a
            w = _mapping_perm(self.n, -i * si, j)
            base = 2
        else:
            raise ValueError(f"{a} is not a root here")
        g = self.lift(w)
        return self.conj(g, self.simple_lift(base))

    def torus_of_root(self, a) -> MonomialElement:
        """The order-2 torus element attached to a root: its coroot at -1."""
        cr = coroot(a)
        return self.torus(self.coroot_coords(tuple(2 * x for x in cr)))


def _mapping_perm(n: int, target1: int, target2: int) -> SignedPermutation:
    """A signed permutation with 1 -> target1, 2 -> target2 (targets signed,
    distinct in absolute value), deterministic on the rest."""
    used = {abs(target1), abs(target2)}
    images = [0] * n
    images[0], images[1] = target1, target2
    spare = [v for v in range(1, n + 1) if v not in used]
    it = iter(spare)
    for pos in range(3, n + 1):
        images[pos - 1] = next(it)
    return SignedPermutation(tuple(images))


def least_reduced_word(images: tuple) -> tuple:
    """Lexicographically least reduced word, in s_1 (the sign change of 1)
    and s_i (the swap of i-1 and i), of the signed permutation with these
    one-line images; any rank >= 1.

    The least left descent i is stripped repeatedly, w <- s_i w, on the
    inverse table of w alone.  A descent j <= i - 2 of s_i w commutes with
    s_i and so would have been a smaller descent of w, so each scan resumes
    at max(1, i - 1) (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1)."""
    n = len(images)
    inv = _inverse_table(images)
    word = []
    i = 1
    while i <= n:
        if inv[i - 1] > inv[i]:
            word.append(i)
            if i == 1:
                inv[1] = -inv[1]
            else:
                inv[i - 1], inv[i] = inv[i], inv[i - 1]
                i -= 1
        else:
            i += 1
    return tuple(word)


def _inverse_table(images: tuple) -> list:
    """inv[v] = +-pos with images[pos - 1] = +-v, for v = 1..n, and inv[0] = 0.

    i is a left descent of w, w^{-1}(alpha_i) < 0 with alpha_1 = e_1 and
    alpha_i = e_i - e_{i-1}, exactly when inv[i - 1] > inv[i]; s_i on the
    left negates inv[1] (i = 1) or swaps inv[i - 1] and inv[i]."""
    inv = [0] * (len(images) + 1)
    for pos, val in enumerate(images, start=1):
        if val > 0:
            inv[val] = pos
        else:
            inv[-val] = -pos
    return inv


def _act_and_add(images: tuple, t2: tuple, t1: tuple, cocycle: tuple, mod: int) -> tuple:
    """t1 + w.t2 + cocycle mod 4 for the signed permutation w with these
    images.  One pass takes t2 to e-coordinates (alpha_1^vee = 2 e_1,
    alpha_i^vee = e_i - e_{i-1}) and moves them by w; one suffix-sum pass,
    the first sum halved, takes them back to coroot coordinates and adds."""
    n = len(t2)
    moved = [0] * n
    prev = 2 * t2[0]
    for image, c in zip(images, (*t2[1:], 0)):
        if image > 0:
            moved[image - 1] = prev - c
        else:
            moved[-image - 1] = c - prev
        prev = c
    out = [0] * n
    acc = 0
    for j in range(n - 1, 0, -1):
        acc += moved[j]
        out[j] = (t1[j] + acc + cocycle[j]) % mod
    out[0] = (t1[0] + (acc + moved[0]) // 2 + cocycle[0]) % mod
    return tuple(out)


def _to_e(c) -> list:
    """Coroot coordinates to e-coordinates over Z: the vector sum_i c_i
    alpha_i^vee, with alpha_1^vee = 2 e_1 and alpha_i^vee = e_i - e_{i-1}."""
    e = list(map(sub, c, c[1:]))
    e.append(c[-1])
    e[0] += c[0]
    return e


def _from_e(v) -> list:
    """Inverse of _to_e on the coroot lattice (even coordinate sum): suffix
    sums, the first one halved."""
    c = list(accumulate(reversed(v)))
    c.reverse()
    c[0] //= 2
    return c


# -- characters and fixed points ---------------------------------------------


def root_character_eval(a, x: MonomialElement | TorusTorsionElement) -> int:
    """The root a evaluated on a torsion torus element, as an exponent of the
    fixed fourth root of unity: <a, sum_i c_i alpha_i^vee>, mod 4."""
    coords = x.torus if isinstance(x, MonomialElement) else x
    return dot(a, _to_e(coords)) % 4


@dataclass(frozen=True)
class GeneratedSubgroup:
    """The closure of some generators, its elements in BFS order."""

    elements: tuple

    @staticmethod
    def generate(
        group: ExtendedWeylGroup,
        generators: Iterable[MonomialElement],
        budget: int = 1_000_000,
    ) -> "GeneratedSubgroup":
        """The closure of the generators, in BFS order from the identity,
        right multiplication by the generators alone: the group is finite,
        so their inverses are their powers.  More than `budget` elements
        raise BudgetExceededError."""
        return GeneratedSubgroup(
            tuple(orbit({group.identity: None}, list(generators), group.mul, budget)))

    def __len__(self) -> int:
        return len(self.elements)


def fixed_coset(group: ExtendedWeylGroup, gens: Iterable[MonomialElement], frob,
                x: MonomialElement):
    """The h in the order-2 torus group <gens> with frob(h x) = h x, as
    (h_x, kernel): h_x times the span of the kernel; None if there is none.
    For an endomorphism frob, h -> h frob(h) is F_2-linear on <gens> and
    h x is fixed exactly when h frob(h) = x frob(x)^{-1}.  The elimination
    is certified through mul and frob (McConnell et al., Certifying
    algorithms, 2011): a fixed independent kernel and pivots with
    independent images that fill the rank of <gens> leave no other solution.
    """
    mask = partial(_order_two_mask, group)
    rows = [(mask(group.mul(h, frob(h))), mask(h)) for h in gens]
    if any(None in row for row in rows):
        raise ValueError("frob and the generators must keep to the order-2 torus")
    target = mask(group.mul(x, group.inv(frob(x))))
    h_x, pivots, kernel = _solve_fixed_coset(group, rows, target)
    y = None if h_x is None else group.mul(h_x, x)
    masks = [m for _, m in rows]
    images = [mask(group.mul(p, frob(p))) for p in pivots]
    own = [mask(h) for h in kernel + pivots + [h_x] if h is not None]
    for ok, failure in (
        (y is None or frob(y) == y, "h_x x is not frob-fixed"),
        (all(frob(k) == k for k in kernel), "a kernel vector is not frob-fixed"),
        (_f2_rank(own[:len(kernel)]) == len(kernel), "the kernel vectors are dependent"),
        (_f2_rank(images) == len(pivots), "the pivot images are dependent"),
        (_f2_rank(masks) == len(kernel) + len(pivots) == _f2_rank(masks + own),
         "pivots and kernel do not form a basis of <gens>"),
        (y is not None or target is None or _f2_rank(images + [target]) > len(pivots),
         "the target lies in the image"),
    ):
        if not ok:
            raise VerificationError(f"fixed-coset certificate: {failure}",
                                    {"pivots": len(pivots), "kernel": len(kernel)})
    return None if h_x is None else (h_x, kernel)


def _solve_fixed_coset(group, rows, target):
    """Eliminate on (image << n) | element: rows with a nonzero image are
    the pivots, the others span the kernel; h_x is what the target leaves."""
    n, element = group.n, partial(_order_two_element, group)
    basis = _f2_basis((image << n) | mask for image, mask in rows)
    pivots = [element(v % (1 << n)) for v in basis.values() if v >> n]
    kernel = [element(v) for v in basis.values() if not v >> n]
    residue = None if target is None else _f2_reduce(basis, target << n)
    return None if residue is None or residue >> n else element(residue), pivots, kernel


def torsion_two_subgroup_fixed_rank(group: ExtendedWeylGroup, l: int, q: int,
                                    twist: MonomialElement) -> int:
    """Rank of the fixed points of the twisted Frobenius on the order-2
    torus subgroup supported on the first l coroot coordinates."""
    units = [_order_two_element(group, 1 << i) for i in range(l)]
    frob = partial(group.frobenius, q=q, twist=twist)
    return len(fixed_coset(group, units, frob, group.identity)[1])


def _order_two_mask(group: ExtendedWeylGroup, x: MonomialElement):
    """x as a bitmask, bit i for coordinate i at 2; None off the order-2 torus."""
    if x.weyl.is_identity() and not any(c % (group.modulus // 2) for c in x.torus):
        return sum(1 << i for i, c in enumerate(x.torus) if c)
    return None


def _order_two_element(group: ExtendedWeylGroup, mask: int) -> MonomialElement:
    return group.torus(group.modulus // 2 * (mask >> i & 1) for i in range(group.n))


def _f2_masks(vectors) -> list:
    """Integer vectors mod 2 as bitmasks, bit i for coordinate i."""
    return [sum(1 << i for i, x in enumerate(v) if x % 2) for v in vectors]


def _f2_rank(vectors) -> int:
    """Rank over F_2 of integer bitmasks."""
    return len(_f2_basis(vectors))


def _f2_basis(vectors) -> dict:
    """An XOR basis of integer bitmasks, keyed by leading bit."""
    basis = {}
    for v in vectors:
        v = _f2_reduce(basis, v)
        if v:
            basis[v.bit_length()] = v
    return basis


def _f2_reduce(basis: dict, v: int) -> int:
    while v and v.bit_length() in basis:
        v ^= basis[v.bit_length()]
    return v
