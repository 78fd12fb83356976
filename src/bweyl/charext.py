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
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product as iproduct

from . import BudgetExceededError, VerificationError
from .sperm import orbit
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
    use and kept: P' listed from its normal form and indexed for
    `decompose`, each factorization it finds, each Weyl part's action on
    H', the orbits of the head characters, and per head character its
    inertia group, generators of it and extension.  The head basis and the
    coordinates of H' are read from the supplement
    (`SupplementContext.head_basis`, `SupplementData.head_coordinates`,
    certified by `build_supplement`), and C' through its normal form,
    `SupplementContext.cyclic_sum`: neither is closed here."""

    def __init__(self, data: SupplementData):
        self.data = data
        self.inertia: dict = {}  # sign vector -> P'_lam
        self.inertia_generators: dict = {}  # sign vector -> generators of P'_lam
        self.extensions: dict = {}  # sign vector -> ExtensionCharacter
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
    def p_elements(self) -> tuple:
        """P' by its normal form, the translates k l(w) of the labels
        (`SupplementData.p_labels`, `p_kernel`), the labels first."""
        data, translate = self.data, self.data.ctx.group.translate
        return tuple(translate(k, x) for k in data.p_kernel for x in data.p_labels.values())

    @cached_property
    def _p_by_blocks(self) -> dict:
        """The elements of P' with their inverses, by `_blocks_moved`."""
        g, index = self.data.ctx.group, {}
        for p in self.p_elements:
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
    def orbits(self) -> dict:
        """Each head character's sign vector mapped to its orbit under the
        p_i', walked from its least member, each sign vector labelled with
        its mover: the generators along its BFS path, the last step
        leftmost.  The c_i' fix every character (`inertia_decomposition`
        checks it), so these are the orbits of V'."""
        g = self.data.ctx.group
        rank = len(self.data.ctx.head_basis)

        def act(signs, x):
            return _act_on_signs(self.head_action(x), signs)

        orbits = {}
        for signs in iproduct((0, 1), repeat=rank):
            if signs not in orbits:
                orb = orbit({signs: g.identity}, self.data.p_primes, act, 2**rank,
                            step=lambda mover, x: g.mul(x, mover))
                orbits.update(dict.fromkeys(orb, orb))
        return orbits

    def extension(self, lam: HPrimeCharacter) -> ExtensionCharacter:
        """lam's extension, kept: from `extend_character`, certified by
        `check_multiplicative`, for the least member of lam's orbit, and
        for the rest that one transported along their movers, y -> ext(x y
        x^{-1}) with x = mover^{-1} (Clifford theory: Isaacs, Character
        Theory of Finite Groups, 1976, ch. 6), checked to restrict to lam."""
        ext = self.extensions.get(lam.signs)
        if ext is None:
            orb = self.orbits[lam.signs]
            rep = min(orb)
            if lam.signs == rep:
                ext = extend_character(self, lam)
                check_multiplicative(self, ext)
            else:
                ext = replace(self.extension(HPrimeCharacter(rep, self)), lam=lam,
                              transporter=self.data.ctx.group.inv(orb[lam.signs]))
                _check_restriction(ext)
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
    - P'_lam keeps the elements of P' over the Weyl parts whose label
      (`SupplementData.p_labels`) fixes lam, and |P'_lam| = |P'| / |lam^P'|,
      the orbit read from `tables.orbits`; so a list of that many elements
      is all of P'_lam.

    Generators go to `tables.inertia_generators`: greedy ones for the least
    member of lam's orbit, its conjugates along their movers for the rest,
    each checked to lie in P'_lam, which has the order of P'_rep."""
    cached = tables.inertia.get(lam.signs)
    if cached is not None:
        return cached
    data = tables.data
    g = data.ctx.group

    def fixes(x):
        return _act_on_signs(tables.head_action(x), lam.signs) == lam.signs

    kept = {w for w, x in data.p_labels.items() if fixes(x)}
    p_stab = [p for p in tables.p_elements if p.weyl in kept]
    for c in data.c_primes:
        if not fixes(c):
            raise VerificationError(
                "the cyclic part does not fix a head character",
                {"signs": lam.signs},
            )
    orb = tables.orbits[lam.signs]
    if len(p_stab) * len(orb) != data.p_order:
        raise VerificationError(
            "inertia group is not the expected semidirect product",
            {"signs": lam.signs, "stabilizer": len(p_stab), "orbit": len(orb),
             "p_order": data.p_order},
        )
    rep = min(orb)
    if lam.signs == rep:
        gens = _generating_sequence(p_stab, g.mul, g.identity, len(p_stab))
    else:
        inertia_decomposition(tables, HPrimeCharacter(rep, tables))
        gens = [g.conj(orb[lam.signs], s) for s in tables.inertia_generators[rep]]
        if not set(gens) <= set(p_stab):
            raise VerificationError("a conjugated inertia generator lies outside the "
                                    "inertia group", {"signs": lam.signs})
    tables.inertia_generators[lam.signs] = gens
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
    # coset representatives of the abelianization, each the least of its coset
    rep_of = {}
    for x in elems:
        if x not in rep_of:
            rep_of.update(dict.fromkeys([mul(x, d) for d in derived], x))
    reps = sorted(set(rep_of.values()))

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
    # value walk of every candidate exponent vector
    moves = range(len(quotient_gens))
    cayley = {(x, i): quotient_mul(x, quotient_gens[i]) for x in reps for i in moves}

    chars = []
    for exps in iproduct(*[range(o) for o in orders]):
        def step(point, i):
            x, v = point
            return cayley[x, i], (v + exps[i] * (modulus // orders[i])) % modulus

        # one value per coset, so |Q| (coset, value) pairs, exactly when the
        # exponents define a character
        try:
            values = dict(orbit({(one, 0): None}, moves, step, len(reps)).keys())
        except BudgetExceededError:
            continue
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
    theta(c) + mu(p) through the unique decomposition x = c * p; one
    transported from its orbit's representative reads the representative's
    theta and mu at x y x^{-1}, x its `transporter`."""

    tables: CharacterTables
    lam: HPrimeCharacter
    modulus: int
    theta_exp: int  # exponent on each c_i' (times modulus / (4 d0))
    mu: dict  # P'_lam element -> exponent, on all of P'_lam
    transporter: MonomialElement | None = None

    def theta(self, c: MonomialElement) -> int:
        """theta(c) for c in C': theta_exp times the cyclic sum of c, as an
        exponent modulo `modulus`."""
        scale = self.modulus // (4 * self.tables.data.ctx.d0)
        return self.theta_exp * self.tables.data.ctx.cyclic_sum(c) * scale % self.modulus

    def value(self, x: MonomialElement) -> int:
        if self.transporter is not None:
            x = self.tables.data.ctx.group.conj(self.transporter, x)
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

    - mu is defined on P'_lam exactly, with mu(1) = 0, and 1 and each s in S
      decompose as 1 * s, so `value` reads theta(c) + mu(p) off V';
    - the `orbit` of 1 under S reaches all of P'_lam, and its act checks
      mu(x s) = mu(x) + mu(s) on each Cayley edge: a labelling that adds
      up on every edge over generators is a homomorphism;
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

    if set(ext.mu) != set(p_stab) or ext.mu[g.identity]:
        fail(mu_domain=len(ext.mu), p_part=len(p_stab), mu_of_1=ext.mu.get(g.identity))
    for p in [g.identity] + gens:
        if tables.decompose(p) != (g.identity, p):
            fail(p=p, decomposition=tables.decompose(p))

    def act(x, s):
        y = g.mul(x, s)
        if ext.mu.get(y) != (ext.mu[x] + ext.mu[s]) % ext.modulus:
            fail(p=y)
        return y

    reached = orbit({g.identity: None}, gens, act, len(p_stab))
    if len(reached) != len(p_stab):
        fail(p=next(p for p in p_stab if p not in reached))
    for s in gens:
        for c in data.c_primes:
            image = g.conj(s, c)
            if csum(image) is None or ext.theta(image) != ext.theta(c):
                fail(p=s, c=c)
    return 2 + len(gens) + len(p_stab) * len(gens) + len(gens) * len(data.c_primes)


# -- equivariant assembly --------------------------------------------------------


def verify_equivariance(tables: CharacterTables) -> dict:
    """Check V'-equivariance of the extension map `tables.extension`,
    certified on orbit representatives and transported along the movers of
    `tables.orbits`, on generators: probing the c_i' and the generators of
    P'_nu, which pin a linear character of V'_nu.  Field automorphisms
    centralize the supplement here, so the outer action is trivial;
    nontrivial outer actions are reported as unexercised."""
    data = tables.data
    g = data.ctx.group
    chars = irr_of_hprime(tables)
    gens = [data.c_primes[0]] + list(data.p_primes)

    # equivariance on generators: Lambda(lam^x) == Lambda(lam)^x on the
    # inertia subgroup of lam^x
    checked = 0
    gens_with_inverses = [(x, g.inv(x)) for x in gens]
    for lam in chars:
        ext = tables.extension(lam)
        for x, x_inv in gens_with_inverses:
            nu = HPrimeCharacter(_act_on_signs(tables.head_action(x), lam.signs), tables)
            ext_nu = tables.extension(nu)
            inertia_decomposition(tables, nu)
            probes = list(data.c_primes) + tables.inertia_generators[nu.signs]
            for y in probes:
                want = ext.value(g.mul(g.mul(x_inv, y), x))
                if ext_nu.value(y) % ext_nu.modulus != want % ext_nu.modulus:
                    raise VerificationError(
                        "extension map is not equivariant",
                        {"lam": lam.signs, "x": x, "probe": y},
                    )
                checked += 1
    return {
        "orbits": [sorted(o) for s, o in tables.orbits.items() if s == min(o)],
        "characters": len(chars),
        "equivariance_probes": checked,
        "outer_action": "trivial (nontrivial hooks not exercised)",
    }


# -- wreath product degree combinatorics -------------------------------------------


def partitions(n: int):
    """All partitions of n, weakly decreasing tuples, lexicographic."""
    def below(k, top):
        return [()] if k == 0 else [(part,) + rest for part in range(min(k, top), 0, -1)
                                    for rest in below(k - part, part)]

    return below(n, n)


def multipartitions(m: int, t: int):
    """All m-tuples of partitions with total size t, by the first part's size
    and partition, then the rest: the j-tuples of each size built once."""
    parts = [partitions(k) for k in range(t + 1)]
    tuples = [[(p,) for p in parts[k]] for k in range(t + 1)]
    for _ in range(m - 1):
        tuples = [[(p,) + rest for first in range(k + 1) for p in parts[first]
                   for rest in tuples[k - first]] for k in range(t + 1)]
    return tuples[t]


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
