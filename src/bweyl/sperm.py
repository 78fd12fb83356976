"""The hyperoctahedral group of signed permutations, Sylow twist elements,
and the order of the centralizer of a signed permutation from its signed
cycle type alone; the relative Weyl centralizer, named through the
pair-block map onto W(B_{l/2}) by the twist's image and that order, with
nothing enumerated; and `orbit`, the budgeted breadth-first enumeration
behind every closure and orbit in the package.

A signed permutation on {+-1, ..., +-n} is stored one-line on the positive
part; sigma(-i) = -sigma(i) is implied.  Composition applies the right factor
first: (s * t)(i) = s(t(i)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

from . import BudgetExceededError
from .roots import RootSubset, coroot, dot, levi_root_subset

__all__ = [
    "CosetGroup",
    "SignedPermutation",
    "centralizer_order",
    "closure",
    "orbit",
    "orbits_on_support",
    "relative_weyl_centralizer",
    "sylow_twist",
    "w_l_prime_parts",
]


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    images: tuple  # sigma(1), ..., sigma(n), entries in +-{1..n}

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(x) for x in self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(1, n + 1)))

    @staticmethod
    def simple_reflection(n: int, i: int) -> "SignedPermutation":
        """s_1 flips the sign of 1; s_i (i >= 2) swaps i-1 and i."""
        images = list(range(1, n + 1))
        if i == 1:
            images[0] = -1
        elif 2 <= i <= n:
            images[i - 2], images[i - 1] = i, i - 1
        else:
            raise ValueError(f"no simple reflection with index {i}")
        return SignedPermutation(tuple(images))

    @staticmethod
    def from_mapping(n: int, mapping: dict) -> "SignedPermutation":
        """Build from a partial map i -> sigma(i) on nonzero integers;
        unmentioned points are fixed."""
        images = list(range(1, n + 1))
        for src, dst in mapping.items():
            if src < 0:
                src, dst = -src, -dst
            images[src - 1] = dst
        return SignedPermutation(tuple(images))

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    @classmethod
    def _unchecked(cls, images: tuple) -> "SignedPermutation":
        """Build from images already known to form a signed permutation."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "images", images)
        return obj

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        s = self.images
        if len(s) != len(other.images):
            raise ValueError("signed permutations of different ranks")
        return SignedPermutation._unchecked(
            tuple([s[x - 1] if x > 0 else -s[-x - 1] for x in other.images]))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images, start=1):
            if x > 0:
                inv[x - 1] = i
            else:
                inv[-x - 1] = -i
        return SignedPermutation._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images, start=1))

    def act_on_root(self, a) -> tuple:
        out = [0] * len(self.images)
        for i, coeff in enumerate(a, start=1):
            if coeff:
                img = self.images[i - 1]
                out[abs(img) - 1] += coeff * (1 if img > 0 else -1)
        return tuple(out)

    def unsigned(self) -> tuple:
        return tuple(abs(x) for x in self.images)

    def __lt__(self, other: "SignedPermutation") -> bool:
        # deterministic ordering for canonical representatives and reports
        return self.images < other.images


def orbits_on_support(s: SignedPermutation, l: int) -> list[tuple]:
    """Orbits of the underlying unsigned permutation on {1..l}, each sorted,
    listed by least element."""
    u = s.unsigned()
    if any(u[i - 1] > l for i in range(1, l + 1)):
        raise ValueError("permutation does not stabilize {1..l}")
    seen: set[int] = set()
    orbits = []
    for start in range(1, l + 1):
        if start in seen:
            continue
        orb, x = [], start
        while x not in seen:
            seen.add(x)
            orb.append(x)
            x = u[x - 1]
        orbits.append(tuple(sorted(orb)))
    return orbits


def sylow_twist(nprime: int, d: int, n: int | None = None) -> SignedPermutation:
    """w_0^(2*nprime/d) where w_0 is the signed 2*nprime-cycle
    1 -> 2 -> ... -> nprime -> -1 -> ...; coordinates > nprime are fixed."""
    n = nprime if n is None else n
    if n < nprime:
        raise ValueError("ambient rank below twist support")
    if d < 1 or (2 * nprime) % d != 0:
        raise ValueError(f"{d} does not divide 2*{nprime}")
    images = [i + 1 for i in range(1, nprime)] + [-1] + list(range(nprime + 1, n + 1))
    w0 = SignedPermutation(tuple(images))
    return reduce(lambda a, b: a * b, [w0] * (2 * nprime // d), SignedPermutation.identity(n))


def _signed_block_cycle(n: int, j: int, a_l: int, d0: int) -> SignedPermutation:
    """The signed 2*d0-cycle j -> a_l+j -> ... -> (d0-1)*a_l+j -> -j -> ..."""
    chain = [j + k * a_l for k in range(d0)]
    mapping = {}
    for src, dst in zip(chain, chain[1:] + [-chain[0]]):
        mapping[src] = dst
    return SignedPermutation.from_mapping(n, mapping)


def w_l_prime_parts(l: int, d0: int, t_l: int, n: int | None = None):
    """(w'_l, [w'_{l,i}], [tau_i]) on ambient rank n (default l).

    w'_{l,i} is the product of the signed block cycles through 2i-1 and 2i;
    tau_i swaps the i-th and (i+1)-th pair blockwise in every a_l-translate.
    """
    n = l if n is None else n
    if l != 2 * d0 * t_l or n < l:
        raise ValueError(f"need l = 2*d0*t_l <= n, got l={l} d0={d0} t_l={t_l} n={n}")
    a_l = 2 * t_l
    parts = [
        _signed_block_cycle(n, 2 * i - 1, a_l, d0) * _signed_block_cycle(n, 2 * i, a_l, d0)
        for i in range(1, t_l + 1)
    ]
    w_l_prime = reduce(lambda a, b: a * b, parts, SignedPermutation.identity(n))
    taus = []
    for i in range(1, t_l):
        mapping = {}
        for k in range(d0):
            off = k * a_l
            mapping[off + 2 * i - 1] = off + 2 * i + 1
            mapping[off + 2 * i + 1] = off + 2 * i - 1
            mapping[off + 2 * i] = off + 2 * i + 2
            mapping[off + 2 * i + 2] = off + 2 * i
        taus.append(SignedPermutation.from_mapping(n, mapping))
    return w_l_prime, parts, taus


def orbit(seeds: dict, gens, act, budget: int, step=None) -> dict:
    """Breadth-first orbit of the seed points under `act`.

    `seeds` maps point -> label.  The result maps every point of the orbit to
    its label, in BFS order: frontier by frontier, each point acted on by
    `gens` in the given order.  A new point y = act(x, g) gets the label
    step(labels[x], g), or None without `step`.  act sees each edge once,
    those onto known points too, so it may check them.  An orbit may hold
    at most `budget` points; past that, BudgetExceededError is raised.
    """
    labels = dict(seeds)
    if len(labels) > budget:
        raise BudgetExceededError(f"orbit exceeded {budget} points")
    frontier = list(labels)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in labels:
                    if len(labels) >= budget:
                        raise BudgetExceededError(f"orbit exceeded {budget} points")
                    labels[y] = None if step is None else step(labels[x], g)
                    nxt.append(y)
        frontier = nxt
    return labels


def closure(generators, budget: int = 2_000_000):
    """BFS closure of a list of elements of a finite group (anything with *
    and inverse), multiplying by the generators alone: in a finite group
    g^{-1} = g^{ord(g) - 1}, so the inverses add no element.  More than
    `budget` elements raise BudgetExceededError."""
    if not generators:
        raise ValueError("need at least one generator")
    identity = generators[0] * generators[0].inverse()
    return set(orbit({identity: None}, generators, operator.mul, budget))


def reflection(n: int, a) -> SignedPermutation:
    """The reflection in a root of a type-B system, as a signed permutation.

    s_a(e_i) = e_i - <e_i, a^vee> a fixes e_i off the support of a and stays
    in the span of the support on it, so only the support is computed."""
    cr = coroot(a)
    if len(a) != n:
        raise ValueError(f"{a} does not define a signed-permutation reflection")
    support = [k for k, v in enumerate(a) if v]
    images = list(range(1, n + 1))
    for i in support:
        nz = [(k + 1, v) for k in support if (v := (k == i) - cr[i] * a[k])]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError(f"{a} does not define a signed-permutation reflection")
        images[i] = nz[0][0] * nz[0][1]
    return SignedPermutation(tuple(images))


def _signed_cycles(x: SignedPermutation) -> dict:
    """The signed cycles of x, each as the list of its points from its least
    one, grouped by (length, whether the cycle returns with sign +)."""
    types: dict = {}
    seen: set = set()
    for start in range(1, x.rank + 1):
        if start in seen:
            continue
        cycle, y = [start], x(start)
        while abs(y) != start:
            cycle.append(y)
            y = x(y)
        seen.update(map(abs, cycle))
        types.setdefault((len(cycle), y > 0), []).append(cycle)
    return types


def centralizer_order(x: SignedPermutation) -> int:
    """|C(x)| in W(B_k), k = rank of x, from the signed cycle type alone:
    prod (2L)^c c! over the c cycles of each length L and sign.  g
    centralizes x exactly when it maps each signed cycle of x onto a cycle
    of the same length L and sign, and the image of one point of the cycle,
    any of the 2L signed points of the target cycle, fixes g on all of it
    (Carter, Conjugacy classes in the Weyl group, 1972)."""
    return math.prod((2 * length) ** len(cycles) * math.factorial(len(cycles))
                     for (length, _), cycles in _signed_cycles(x).items())


def _pair_block_image(x: SignedPermutation, pairs: int) -> SignedPermutation | None:
    """The signed permutation x induces on the pair sums e_{2i-1} + e_{2i},
    i <= pairs; None when x does not move each pair block onto a pair block
    with one sign."""
    images = []
    it = iter(x.images[:2 * pairs])
    for a, b in zip(it, it):
        j = (abs(a) + 1) // 2
        if j > pairs or (abs(b) + 1) // 2 != j or (a > 0) != (b > 0):
            return None
        images.append(j if a > 0 else -j)
    return SignedPermutation._unchecked(tuple(images))


@dataclass(frozen=True)
class CosetGroup:
    """C_{N_W(W_L)/W_L}(w_l W_L) for W = W(B_n) and the Levi root set
    B_m x A_1^{pairs}: the roots +-(e_{2i} - e_{2i-1}), i <= pairs, and a
    type-B block on the last m = n - 2 pairs coordinates.  The quotient
    N_W(W_L)/W_L is W(B_pairs) through the pair blocks (see
    `relative_weyl_centralizer`): `image(x)` names the coset of x, `twist` is
    the image of w_l and `order` the order of its centralizer there."""

    pairs: int
    twist: SignedPermutation
    order: int

    def image(self, x: SignedPermutation) -> SignedPermutation | None:
        """The image of x in W(B_pairs), in O(n); None when x is not in
        N_W(W_L)."""
        return _pair_block_image(x, self.pairs)


def relative_weyl_centralizer(
    n: int,
    levi_roots: RootSubset,
    w_l: SignedPermutation,
) -> CosetGroup:
    """C_{N_W(W_L)/W_L}(w_l W_L) for W = W(B_n) and the Levi root set
    B_m x A_1^{l/2} (see `CosetGroup`), as the image of w_l in W(B_{l/2})
    and the order of its centralizer there, with nothing enumerated.

    An element of W stabilizes the root set exactly when it moves each pair
    block {2i-1, 2i} onto a pair block with one sign, so N_W(W_L) acts on
    the pair sums as W(B_{l/2}), with kernel W_L (Howlett, Normalizers of
    parabolic subgroups of reflection groups, 1980).
    """
    m = sum(1 for a in levi_roots.roots if dot(a, a) == 1) // 2
    pairs = (n - m) // 2
    # levi_root_subset depends on n and m only; d0 = pairs, t_l = 1 name it
    if 2 * pairs != n - m or levi_roots != levi_root_subset(n, m, pairs, 1):
        raise ValueError("not the Levi root set B_m x A_1^{l/2} of W(B_n)")
    twist = _pair_block_image(w_l, pairs)
    if twist is None:
        raise ValueError("the twist does not stabilize the Levi root set")
    return CosetGroup(pairs, twist, centralizer_order(twist))
