"""Linear characters of the torus head H' and their extensions to inertia
subgroups of the supplement V' = C' x| P'.

Character values are exponents of a fixed primitive root of unity; the
modulus is the least common multiple of 4*d0 (for the cyclic part) and the
exponent of the relevant abelianization (for the symmetric part), so the
whole computation is exact integer arithmetic.

Every check runs over generators (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005), and c * p factors are found on demand.

What charext derives from one supplement lives in a `CharacterTables` the
caller makes and passes; `suite_charext` makes one per point, so the tables
die with the suite call.

Also holds the wreath-product character degrees behind the `wreath`
suite; they cross-check no relative-Weyl structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product as iproduct

from . import BudgetExceededError, VerificationError
from .sperm import broken_edge, orbit
from .supplement import SupplementData
from .tits import MonomialElement

__all__ = [
    "CharacterTables",
    "ExtensionCharacter",
    "HPrimeCharacter",
    "check_multiplicative",
    "extend_character",
    "inertia_decomposition",
    "irr_of_hprime",
    "multipartitions",
    "verify_equivariance",
    "wreath_character_degrees",
]


# -- characters of H' ----------------------------------------------------------


class CharacterTables:
    """What charext derives from one supplement, each part built on first
    use and kept: P' indexed for `decompose` and each factorization it
    finds, each Weyl part's action on H', the orbits of the head
    characters, and per head character its inertia group and certified
    extension.  The head basis and the coordinates of H' are read from the
    supplement (`SupplementContext.head_basis`,
    `SupplementData.head_coordinates`, certified by `build_supplement`),
    and C' through its normal form, `SupplementContext.cyclic_sum`: neither
    is closed here."""

    def __init__(self, data: SupplementData):
        self.data = data
        self.inertia: dict = {}  # sign vector -> P'_lam
        self.inertia_generators: dict = {}  # sign vector -> generators of P'_lam
        self.extensions: dict = {}  # sign vector -> certified ExtensionCharacter
        self._head_actions: dict = {}  # Weyl part -> head_action rows
        self._decompositions: dict = {}  # element -> decompose(element)

    @cached_property
    def _block_of_point(self) -> dict:
        """Each point mapped to the least point of its orbit under the Weyl
        parts of the c_i', signs forgotten."""
        n, block = self.data.ctx.group.n, {}
        for i in range(n, 0, -1):
            block.update(dict.fromkeys(orbit(
                {i: None}, self.data.c_primes, lambda j, c: abs(c.weyl(j)), n), i))
        return block

    def _blocks_moved(self, x: MonomialElement) -> tuple:
        """The C'-orbit of each point's image under the Weyl part of x."""
        return tuple(self._block_of_point[j] for j in x.weyl.unsigned())

    @cached_property
    def _p_by_blocks(self) -> dict:
        """The elements of P' with their inverses, by `_blocks_moved`."""
        g, index = self.data.ctx.group, {}
        for p in self.data.p_closure.elements:
            index.setdefault(self._blocks_moved(p), []).append((p, g.inv(p)))
        return index

    def decompose(self, x: MonomialElement):
        """The factors (c, p) of x = c * p in V' = C' x| P', None outside
        V'.  C' keeps the orbits of its Weyl parts, so x moves them as p
        does: of the 2^(t_l - 1) elements of P' that do, p is the one with
        x p^{-1} in C'.  All are tried on the first call for x, so a second
        factorization raises; the result is kept per element, and later
        calls read it."""
        if x in self._decompositions:
            return self._decompositions[x]
        g = self.data.ctx.group
        found = None
        for p, p_inv in self._p_by_blocks.get(self._blocks_moved(x), ()):
            c = g.mul(x, p_inv)
            if self.data.ctx.cyclic_sum(c) is not None:
                if found is not None:
                    raise VerificationError(
                        "supplement element has two decompositions as c * p",
                        {"element": x, "decompositions": (found, (c, p))},
                    )
                found = (c, p)
        self._decompositions[x] = found
        return found

    def head_action(self, x: MonomialElement) -> tuple:
        """The H'-coordinates of x b x^{-1} for each basis element b, the
        Weyl action of x on the torus element b (`conj`, no product): kept
        per Weyl part, so c and c h_0 share it, for every head character."""
        rows = self._head_actions.get(x.weyl)
        if rows is None:
            g = self.data.ctx.group
            coords = self.data.head_coordinates
            images = [g.conj(x, b) for b in self.data.ctx.head_basis]
            if any(hb not in coords for hb in images):
                raise VerificationError("conjugation left the head subgroup", {"element": x})
            rows = self._head_actions[x.weyl] = tuple(coords[hb] for hb in images)
        return rows

    @cached_property
    def orbits(self) -> list[dict]:
        """The orbits of the head characters' sign vectors under the p_i',
        in the order of their least members, each sign vector labelled with
        its mover: the generators along its BFS path, the last step
        leftmost.  The c_i' fix every character (`inertia_decomposition`
        checks it), so these are the orbits of V'."""
        g = self.data.ctx.group
        rank = len(self.data.ctx.head_basis)

        def act(signs, x):
            return _act_on_signs(self.head_action(x), signs)

        orbits = []
        for signs in iproduct((0, 1), repeat=rank):
            if not any(signs in orb for orb in orbits):
                orbits.append(orbit({signs: g.identity}, self.data.p_primes, act, 2**rank,
                                    step=lambda mover, x: g.mul(x, mover)))
        return orbits

    def extension(self, lam: HPrimeCharacter) -> ExtensionCharacter:
        """lam's extension, from `extend_character`, certified by
        `check_multiplicative` on first use."""
        ext = self.extensions.get(lam.signs)
        if ext is None:
            ext = extend_character(self, lam)
            check_multiplicative(self, ext)
            self.extensions[lam.signs] = ext
        return ext


@dataclass(frozen=True)
class HPrimeCharacter:
    """A sign character of the elementary abelian head, given by its sign
    exponents on the basis (h_0, p_1'^2, ...) (0 for +1, 1 for -1); values
    are read through the head coordinates of its tables' supplement."""

    signs: tuple
    tables: CharacterTables = field(compare=False, repr=False)

    def value(self, h: MonomialElement) -> int:
        """The sign exponent of h in H'."""
        coords = self.tables.data.head_coordinates[h]
        return sum(s * c for s, c in zip(self.signs, coords)) % 2


def irr_of_hprime(tables: CharacterTables) -> list[HPrimeCharacter]:
    """All 2^rank sign characters, ordered by sign vector."""
    rank = len(tables.data.ctx.head_basis)
    return [HPrimeCharacter(signs, tables) for signs in iproduct((0, 1), repeat=rank)]


def _act_on_signs(rows: tuple, signs: tuple) -> tuple:
    """The signs of lam^x: h -> lam(x h x^{-1}), x acting on H' by `rows`."""
    return tuple(sum(s * c for s, c in zip(signs, row)) % 2 for row in rows)


def _generating_sequence(elements, mul, identity, budget: int) -> list:
    """Greedy generators of <elements>: each element outside the `orbit` of
    1 under those before it joins them."""
    gens, span = [], {identity}
    for x in elements:
        if x not in span:
            gens.append(x)
            span = orbit({identity: None}, gens, mul, budget)
    return gens


# -- inertia -------------------------------------------------------------------


def inertia_decomposition(tables: CharacterTables, lam: HPrimeCharacter) -> list:
    """P'_lam, the inertia group of lam being C' x| P'_lam, certified by
    orbit-stabilizer (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, 4.1):

    - x acts on sign vectors through its Weyl part (`head_action`), and
      taking Weyl parts is a homomorphism, so lam -> lam^x is an action;
    - every c_i' must fix lam, so C' does, and Stab_V'(lam) = C' x| P'_lam;
    - P'_lam filters P' by the action, every element kept fixes lam, and
      |P'_lam| = |P'| / |lam^P'|, the orbit read from `tables.orbits`; so
      a filter of that many elements is all of P'_lam.

    Greedy generators of P'_lam go to `tables.inertia_generators`."""
    cached = tables.inertia.get(lam.signs)
    if cached is not None:
        return cached
    data = tables.data
    g = data.ctx.group

    def fixes(x):
        return _act_on_signs(tables.head_action(x), lam.signs) == lam.signs

    p_stab = [p for p in data.p_closure.elements if fixes(p)]
    for c in data.c_primes:
        if not fixes(c):
            raise VerificationError(
                "the cyclic part does not fix a head character",
                {"signs": lam.signs},
            )
    orbit_size = len(next(orb for orb in tables.orbits if lam.signs in orb))
    if len(p_stab) * orbit_size != len(data.p_closure):
        raise VerificationError(
            "inertia group is not the expected semidirect product",
            {"signs": lam.signs, "stabilizer": len(p_stab), "orbit": orbit_size,
             "p_order": len(data.p_closure)},
        )
    tables.inertia_generators[lam.signs] = _generating_sequence(
        p_stab, g.mul, g.identity, len(p_stab))
    tables.inertia[lam.signs] = p_stab
    return p_stab


# -- extensions ------------------------------------------------------------------


def _linear_characters(elements, gens, mul, identity, inverse, base):
    """All linear characters of a small group generated by `gens`, as
    (modulus, exponent dictionaries modulo it), the modulus being the lcm of
    `base` and the abelianization's exponent: the lcm of the orders of its
    generators.  The derived subgroup, the normal closure of the
    generators' commutators, is the orbit of 1 under right multiplication
    by them and conjugation by the generators."""
    elems = sorted(elements)
    inv = {s: inverse(s) for s in gens}
    comms = [mul(mul(inv[s], inv[t]), mul(s, t))
             for i, s in enumerate(gens) for t in gens[i + 1:]]

    def act(x, move):
        left, right = move
        return mul(x if left is None else mul(left, x), right)

    moves = [(None, c) for c in comms] + [(inv[s], s) for s in gens]
    derived = orbit({identity: None}, moves, act, len(elems))
    # coset representatives of the abelianization
    rep_of = {}
    reps = []
    for x in elems:
        if x in rep_of:
            continue
        coset = sorted(mul(x, d) for d in derived)
        for y in coset:
            rep_of[y] = coset[0]
        reps.append(coset[0])

    def quotient_mul(x, y):
        return rep_of[mul(x, y)]

    one = rep_of[identity]
    # the generators' images, less those the earlier ones already span
    quotient_gens = _generating_sequence([rep_of[s] for s in gens], quotient_mul, one,
                                         len(reps))
    orders = []
    for r in quotient_gens:
        k, acc = 1, r
        while rep_of[acc] != one:
            acc = mul(acc, r)
            k += 1
            if k > len(elems):
                raise BudgetExceededError("runaway order in the abelianization")
        orders.append(k)
    modulus = math.lcm(base, *orders)
    # the abelianization's Cayley graph on the generators, shared by the
    # value propagation of every candidate exponent vector
    moves = range(len(quotient_gens))
    cayley = {(x, i): quotient_mul(x, quotient_gens[i]) for x in reps for i in moves}

    def step_on(x, i):
        return cayley[x, i]

    chars = []
    for exps in iproduct(*[range(o) for o in orders]):
        def step(v, i):
            return (v + exps[i] * (modulus // orders[i])) % modulus

        values = orbit({one: 0}, moves, step_on, len(reps), step)
        if (len(values) == len(reps)
                and broken_edge(values, moves, step_on, step) is None):
            chars.append({x: values[rep_of[x]] for x in elems})
    expected = len(reps)
    if len(chars) != expected:
        raise VerificationError(
            "linear character count disagrees with the abelianization",
            {"found": len(chars), "expected": expected},
        )
    return modulus, chars


@dataclass
class ExtensionCharacter:
    """A linear character of V'_lam = C' x| P'_lam, evaluated as
    theta(c) + mu(p) through the unique decomposition x = c * p."""

    tables: CharacterTables
    lam: HPrimeCharacter
    modulus: int
    theta_exp: int  # exponent on each c_i' (times modulus / (4 d0))
    mu: dict  # P'_lam element -> exponent, on all of P'_lam

    def theta(self, c: MonomialElement) -> int:
        """theta(c) for c in C': theta_exp times the cyclic sum of c, as an
        exponent modulo `modulus`."""
        scale = self.modulus // (4 * self.tables.data.ctx.d0)
        return self.theta_exp * self.tables.data.ctx.cyclic_sum(c) * scale % self.modulus

    def value(self, x: MonomialElement) -> int:
        c, p = self.tables.decompose(x) or (None, None)
        if p not in self.mu:
            raise ValueError("element is not in the inertia subgroup")
        return (self.theta(c) + self.mu[p]) % self.modulus


def extend_character(tables: CharacterTables, lam: HPrimeCharacter) -> ExtensionCharacter:
    """A linear extension of lam to its inertia subgroup: equal values on the
    c_i' pin the cyclic part, the symmetric part is the least solution of the
    restriction constraints among the linear characters of P'_lam."""
    data = tables.data
    g = data.ctx.group
    d0 = data.ctx.d0
    p_stab = inertia_decomposition(tables, lam)
    # theta: value on every c_i' is a fixed root with square-chain matching
    # lam(h_0); h_0 sits at cyclic sum 2*d0
    theta_exp = lam.value(data.ctx.h0)
    # modulus: enough room for the cyclic part and the symmetric part
    modulus, chars = _linear_characters(p_stab, tables.inertia_generators[lam.signs],
                                        g.mul, g.identity, g.inv, 4 * d0)
    # restriction constraints on the symmetric part: the head elements inside
    # P' must get their lam-values
    valid = [chi for chi in chars
             if all(chi[h] == lam.value(h) * modulus // 2
                    for h in data.head_coordinates if h in chi)]
    if not valid:
        raise VerificationError(
            "no extension of the head character exists on the symmetric part",
            {"signs": lam.signs},
        )
    mu = min(valid, key=lambda chi: tuple(chi[x] for x in sorted(chi)))
    ext = ExtensionCharacter(tables, lam, modulus, theta_exp, mu)
    _check_restriction(ext)
    return ext


def _check_restriction(ext: ExtensionCharacter) -> None:
    for h in ext.tables.data.head_coordinates:
        got = ext.value(h)
        if got != (ext.lam.value(h) * ext.modulus // 2) % ext.modulus:
            raise VerificationError(
                "extension does not restrict to the head character",
                {"signs": ext.lam.signs, "element": h, "got": got},
            )


def check_multiplicative(tables: CharacterTables, ext: ExtensionCharacter) -> int:
    """Exact multiplicativity of ext on V'_lam = C' x| P'_lam by the
    semidirect-product criterion (Clifford theory of a split extension):
    f(c * p) = theta(c) + mu(p) is a homomorphism exactly when theta is one
    on C', mu is one on P'_lam and theta(p c p^{-1}) = theta(c).  Checked,
    S being the generators of P'_lam in `tables.inertia_generators`:

    - mu is defined on P'_lam exactly, and 1 and each s in S decompose as
      1 * s, so `value` reads theta(c) + mu(p) off the decomposition of V';
    - mu labels the `orbit` of 1 under S, x s getting mu(x) + mu(s), and
      every Cayley edge over S agrees: a labelling consistent on every edge
      over generators is a homomorphism;
    - for each c_i' and each s in S: s c_i' s^{-1} lies in C' and has the
      theta-value of c_i'; conjugation by s, and so by all of P'_lam, is
      then an automorphism of C' that theta cannot tell from the identity.

    theta is theta_exp times the cyclic sum of C''s normal form, a
    homomorphism on C' since `_verify_c_structure` certified that normal
    form unique.  Returns the number of relations checked."""
    data = tables.data
    g = data.ctx.group
    csum = data.ctx.cyclic_sum
    p_stab = inertia_decomposition(tables, ext.lam)
    gens = tables.inertia_generators[ext.lam.signs]

    def fail(**pair):
        raise VerificationError(
            "extension is not multiplicative", {"signs": ext.lam.signs, **pair}
        )

    if set(ext.mu) != set(p_stab):
        fail(mu_domain=len(ext.mu), p_part=len(p_stab))
    for p in [g.identity] + gens:
        if tables.decompose(p) != (g.identity, p):
            fail(p=p, decomposition=tables.decompose(p))

    def step(v, s):
        return (v + ext.mu[s]) % ext.modulus

    labels = orbit({g.identity: 0}, gens, g.mul, len(p_stab), step)
    if labels != ext.mu:
        fail(p=next(p for p in p_stab if labels.get(p) != ext.mu[p]))
    bad = broken_edge(labels, gens, g.mul, step)
    if bad is not None:
        fail(p=bad)
    for s in gens:
        for c in data.c_primes:
            image = g.conj(s, c)
            if csum(image) is None or ext.theta(image) != ext.theta(c):
                fail(p=s, c=c)
    return 2 + len(gens) + len(p_stab) * len(gens) + len(gens) * len(data.c_primes)


# -- equivariant assembly --------------------------------------------------------


def verify_equivariance(tables: CharacterTables) -> dict:
    """Build the extension map on orbit representatives, the least members
    of `tables.orbits`, transport along its movers, and check
    V'-equivariance on generators, probing the c_i' and the generators of
    P'_nu, which pin a linear character of V'_nu.  Field automorphisms
    centralize the supplement here, so the outer action is trivial;
    nontrivial outer actions are reported as unexercised."""
    data = tables.data
    g = data.ctx.group
    chars = irr_of_hprime(tables)
    gens = [data.c_primes[0]] + list(data.p_primes)
    by_signs = {lam.signs: lam for lam in chars}
    orbits = tables.orbits

    def act(signs, x):
        return _act_on_signs(tables.head_action(x), signs)

    # each sign vector maps to its representative's extension and the
    # transporter x = mover^{-1}, the extension being y -> ext(x y x^{-1})
    extension_of = {}
    for orb in orbits:
        rep_signs = min(orb)
        base_ext = tables.extension(by_signs[rep_signs])
        for signs, mover in orb.items():
            extension_of[signs] = (base_ext, None if signs == rep_signs else g.inv(mover))

    def extension_value(signs, y):
        ext, x = extension_of[signs]
        return ext.value(y if x is None else g.conj(x, y))

    # equivariance on generators: Lambda(lam^x) == Lambda(lam)^x on the
    # inertia subgroup of lam^x
    checked = 0
    gens_with_inverses = [(x, g.inv(x)) for x in gens]
    for lam in chars:
        for x, x_inv in gens_with_inverses:
            nu = act(lam.signs, x)
            modulus = extension_of[nu][0].modulus
            inertia_decomposition(tables, by_signs[nu])
            probes = list(data.c_primes) + tables.inertia_generators[nu]
            for y in probes:
                want = extension_value(lam.signs, g.mul(g.mul(x_inv, y), x))
                if extension_value(nu, y) % modulus != want % modulus:
                    raise VerificationError(
                        "extension map is not equivariant",
                        {"lam": lam.signs, "x": x, "probe": y},
                    )
                checked += 1
    return {
        "orbits": [sorted(o) for o in orbits],
        "characters": len(chars),
        "equivariance_probes": checked,
        "outer_action": "trivial (nontrivial hooks not exercised)",
    }


# -- wreath product degree combinatorics -------------------------------------------


def partitions(n: int):
    """All partitions of n, weakly decreasing tuples, lexicographic."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maximum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def multipartitions(m: int, t: int):
    """All m-tuples of partitions with total size t."""
    if m == 1:
        return [(p,) for p in partitions(t)]
    out = []
    for first in range(t + 1):
        for p in partitions(first):
            for rest in multipartitions(m - 1, t - first):
                out.append((p,) + rest)
    return out


@lru_cache(maxsize=None)
def standard_tableaux_count(shape: tuple) -> int:
    """Hook length formula."""
    n = sum(shape)
    if n == 0:
        return 1
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= arm + leg + 1
    return math.factorial(n) // hooks


# the largest wreath product order `wreath_character_degrees` accepts
WREATH_ORDER_CAP = 10_000_000


def wreath_character_degrees(m: int, t: int) -> list[int]:
    """Degrees of the irreducible characters of the wreath product of a
    cyclic group of order m by the symmetric group on t points, indexed by
    m-multipartitions of t.  The `wreath` suite checks that their squares
    sum to the group order."""
    if m < 1 or t < 1:
        raise ValueError("need m, t >= 1")
    if m**t * math.factorial(t) > WREATH_ORDER_CAP:
        raise ValueError("group order exceeds the cap")
    degrees = []
    for mp in multipartitions(m, t):
        deg = math.factorial(t)
        for comp in mp:
            deg //= math.factorial(sum(comp))
        for comp in mp:
            deg *= standard_tableaux_count(comp)
        degrees.append(deg)
    return sorted(degrees)
