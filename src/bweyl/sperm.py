"""The hyperoctahedral group of signed permutations, Sylow twist elements,
relative Weyl group computations by honest coset enumeration, and `orbit`,
the budgeted breadth-first enumeration behind every closure and orbit in
the package.

A signed permutation on {+-1, ..., +-n} is stored one-line on the positive
part; sigma(-i) = -sigma(i) is implied.  Composition applies the right factor
first: (s * t)(i) = s(t(i)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

from . import BudgetExceededError
from .roots import RootSubset, coroot, dot

__all__ = [
    "CosetGroup",
    "SignedPermutation",
    "broken_edge",
    "closure",
    "is_in_WD",
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

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation(tuple(self(x) for x in other.images))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images, start=1):
            if x > 0:
                inv[x - 1] = i
            else:
                inv[-x - 1] = -i
        return SignedPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images, start=1))

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def act_on_root(self, a) -> tuple:
        out = [0] * len(self.images)
        for i, coeff in enumerate(a, start=1):
            if coeff:
                img = self.images[i - 1]
                out[abs(img) - 1] += coeff * (1 if img > 0 else -1)
        return tuple(out)

    def unsigned(self) -> tuple:
        return tuple(abs(x) for x in self.images)

    def sign_change_count(self) -> int:
        return sum(1 for x in self.images if x < 0)

    def __lt__(self, other: "SignedPermutation") -> bool:
        # deterministic ordering for canonical representatives and reports
        return self.images < other.images


def is_in_WD(s: SignedPermutation) -> bool:
    """Membership in the index-2 type-D subgroup: evenly many sign changes."""
    return s.sign_change_count() % 2 == 0


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
    step(labels[x], g), or None without `step`.  An orbit may hold at most
    `budget` points; past that, BudgetExceededError is raised.
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


def broken_edge(labels: dict, gens, act, step):
    """The first image act(x, g), in BFS order, whose label differs from
    step(labels[x], g); None when every edge of the orbit agrees, that is,
    when the labels are a well-defined function of the point."""
    for x, label in labels.items():
        for g in gens:
            y = act(x, g)
            if labels[y] != step(label, g):
                return y
    return None


def closure(generators, budget: int = 2_000_000):
    """BFS closure of a list of group elements (anything with * and inverse)."""
    if not generators:
        raise ValueError("need at least one generator")
    gens = list(generators) + [g.inverse() for g in generators]
    identity = generators[0] * generators[0].inverse()
    return set(orbit({identity: None}, gens, operator.mul, budget))


def reflection(n: int, a) -> SignedPermutation:
    """The reflection in a root of a type-B system, as a signed permutation."""
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


@dataclass(frozen=True)
class CosetGroup:
    """N_W(W_L)/W_L with explicit canonical coset representatives, plus the
    centralizer of a distinguished twist coset."""

    ambient_rank: int
    levi_order: int
    elements: tuple  # canonical representatives of all of N_W(W_L)/W_L
    centralizer: tuple  # representatives centralizing the twist coset
    twist_rep: SignedPermutation
    # every element of N_W(W_L) -> the canonical representative of its coset
    canonical: dict = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.centralizer)


def relative_weyl_centralizer(
    n: int,
    levi_roots: RootSubset,
    w_l: SignedPermutation,
    budget: int = 4_000_000,
) -> CosetGroup:
    """C_{N_W(W_L)/W_L}(w_l W_L) for W = W(B_n), by orbit-stabilizer.

    The stabilizer of the root set is the closure of Schreier generators of
    the orbit of the set under W, taken in BFS order until the closure has
    the order |W| / |orbit|; it is quotiented by W_L and the centralizer is
    read off the quotient.  Raises BudgetExceededError when the orbit or a
    closure would exceed the cap.
    """
    gens = [SignedPermutation.simple_reflection(n, i) for i in range(1, n + 1)]

    def act(rootset: frozenset, g: SignedPermutation) -> frozenset:
        return frozenset(g.act_on_root(a) for a in rootset)

    # orbit with transversal: point -> group element mapping the base to it
    identity = SignedPermutation.identity(n)
    transversal = orbit({frozenset(levi_roots.roots): identity}, gens, act,
                        budget, step=lambda u, g: g * u)
    weyl_order = (2**n) * math.factorial(n)
    if weyl_order % len(transversal):
        raise ValueError("orbit size does not divide the Weyl group order")
    target = weyl_order // len(transversal)
    if target > budget:
        raise BudgetExceededError("stabilizer too large to enumerate")
    # grow the stabilizer one essential Schreier generator at a time
    schreier = (transversal[act(point, g)].inverse() * g * u
                for point, u in transversal.items() for g in gens)
    stab = {identity}
    essential: list[SignedPermutation] = []
    for s in schreier:
        if len(stab) == target:
            break
        if s not in stab:
            essential.append(s)
            stab = closure(essential, budget=budget)
    if len(stab) != target:
        raise ValueError("Schreier generators did not produce the full stabilizer")
    levi_group = closure(
        [reflection(n, a) for a in levi_roots.positive()], budget=budget
    )
    if not levi_group <= stab or w_l not in stab:
        raise ValueError("Levi reflections or twist do not stabilize the root set")
    # one pass over the stabilizer assigns every element its canonical coset rep
    canon: dict[SignedPermutation, SignedPermutation] = {}
    reps = []
    for g in sorted(stab, key=lambda s: s.images):
        if g in canon:
            continue
        coset = sorted((g * h for h in levi_group), key=lambda s: s.images)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            canon[x] = rep
    if len(reps) * len(levi_group) != len(stab):
        raise ValueError("coset partition failed")
    twist_rep = canon[w_l]
    cent = tuple(r for r in reps if canon[r * w_l * r.inverse()] == twist_rep)
    return CosetGroup(n, len(levi_group), tuple(reps), cent, twist_rep, canon)
