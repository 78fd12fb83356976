"""Formal root-subgroup conjugation calculus for type B.

Conjugating a root-subgroup element by a monomial element moves the root by
the Weyl image and multiplies the argument by an exact sign.  The signs come
from an explicit faithful realization: the odd orthogonal matrix group of
size 2n+1, with the standard one-parameter subgroups x_a(u) written down as
sparse integer matrices {(row, col): entry}.  The lift n_b(1) is checked to
be an orthogonal signed permutation, so conjugating x_a(u) = I + N by it
relabels the at most three entries of N.  A table of the simple-root rows
certifies each lift when it is built and each sign the first time it is
read; a full table certifies every lift and every sign when it is built.
A formal term (root, sign, frob_exponent) stands for the element with
argument sign * u^(q^frob_exponent); nothing is ever evaluated in a finite
field, every verified statement is linear in the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

from . import VerificationError
from .roots import (
    are_orthogonal_long,
    b_block_roots,
    build_root_system,
    coroot,
    dot,
    simple_roots,
)
from .sperm import SignedPermutation, reflection
from .supplement import SupplementContext, build_supplement
from .tits import ExtendedWeylGroup, MonomialElement, root_character_eval

__all__ = [
    "FormalRootTerm",
    "SignTable",
    "build_sign_table",
    "conjugate",
    "twisted_frobenius_power",
    "verify_commutator_lemmas",
    "verify_graph_action",
]


@dataclass(frozen=True)
class FormalRootTerm:
    """x_root(sign * u^(q^frob_exponent)), with sign in {+1, -1}."""

    root: tuple
    sign: int = 1
    frob_exponent: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")


# -- sparse matrix model of the odd orthogonal group ---------------------------


def _matrix_index(n: int, i: int) -> int:
    # basis order: 0, 1..n, -1..-n
    return i if i > 0 else n - i


def _mat_mul(x: dict, y: dict) -> dict:
    """The product of two sparse integer matrices {(row, col): nonzero}."""
    rows = {}
    for (k, j), v in y.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in x.items():
        for j, v in rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


@lru_cache(maxsize=None)
def _nilpotent_part(n: int, a: tuple, u: int) -> dict:
    """The at most three entries of x_a(u) - I for the root a at integer
    argument u, built without the identity of size 2n+1 around them.  The
    entry checks read the same few root elements again and again, so each
    is kept; callers only read the dict.

    The sign-label formula below pairs e_r with minus the standard partner
    of the positive root r; negating the argument on negative roots restores
    [e_r, e_{-r}] = h_r, which is what makes x_r(1) x_{-r}(-1) x_r(1) a
    monomial matrix.
    """
    support = [(i, v) for i, v in enumerate(a, start=1) if v]
    if len(support) not in (1, 2) or not set(a) <= {-1, 0, 1}:
        raise ValueError(f"{a} is not a root of type B")
    if support[-1][1] < 0:  # its nonzero coordinate of largest index
        u = -u
    # the basis indices (see `_matrix_index`) of e_j and e_{-j} for each
    # signed label j = v i of a
    idx = [(i, n + i) if v > 0 else (n + i, i) for i, v in support]
    if len(idx) == 1:
        [(p, p_bar)] = idx
        entries = {(p, 0): 2 * u, (0, p_bar): -u, (p, p_bar): -u * u}
    else:
        # weight e_p + e_q realized as E_{q,-p} - E_{p,-q} on the split form
        (p, p_bar), (q, q_bar) = idx
        entries = {(q, p_bar): u, (p, q_bar): -u}
    return {key: v for key, v in entries.items() if v}


def _mat_add(*terms: dict) -> dict:
    """The sum of sparse integer matrices {(row, col): nonzero}."""
    out = {}
    for m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _gram(n: int) -> dict:
    return {(0, 0): 2} | {(_matrix_index(n, j), _matrix_index(n, -j)): 1
                          for i in range(1, n + 1) for j in (i, -i)}


def _weyl_rep(n: int, a: tuple, u: int) -> dict:
    """x_a(u) x_{-a}(-u) x_a(u): the monomial matrix n_a(1) at u = 1, its
    inverse n_a(1)^{-1} = x_a(-1) x_{-a}(1) x_a(-1) at u = -1.

    With A and B the nilpotent parts of x_a(u) and x_{-a}(-u), the product
    is I + P + P A + A for P = A + B + A B, so only matrices of a few
    entries are multiplied."""
    x_a = _nilpotent_part(n, a, u)
    x_b = _nilpotent_part(n, tuple(-x for x in a), -u)
    p = _mat_add(x_a, x_b, _mat_mul(x_a, x_b))
    return _mat_add({(i, i): 1 for i in range(2 * n + 1)}, p, _mat_mul(p, x_a), x_a)


def _certified_row(n: int, b: tuple) -> dict:
    """The lift n_b(1) as {column c: (row r, sign s)} with n_b(1) e_c = s e_r,
    once it is checked to be a signed permutation, to invert and to preserve
    the form."""
    w = _weyl_rep(n, b, 1)
    if not (sorted(r for r, _ in w) == sorted(c for _, c in w) == list(range(2 * n + 1))
            and set(w.values()) <= {1, -1}):
        raise VerificationError("monomial matrix is not a signed permutation", {"b": b})
    # w multiplies by relabelling: w x moves row k of x to row r with sign s
    # where w e_k = s e_r, and (w^T G w)[c, c'] = s s' G[r, r']
    image = {c: (r, s) for (r, c), s in w.items()}
    product = {(image[k][0], c): image[k][1] * v
               for (k, c), v in _weyl_rep(n, b, -1).items()}
    if product != {(i, i): 1 for i in range(2 * n + 1)}:
        raise VerificationError("monomial matrix inverse failed", {"b": b})
    preimage = {r: (c, s) for c, (r, s) in image.items()}
    gram = _gram(n)
    pulled_back = {(preimage[r][0], preimage[t][0]): preimage[r][1] * preimage[t][1] * v
                   for (r, t), v in gram.items()}
    if pulled_back != gram:
        raise VerificationError("monomial matrix is not orthogonal", {"b": b})
    return image


def _certified_entry(n: int, b: tuple, a: tuple, image: dict,
                     refl: SignedPermutation) -> int:
    """The sign eta with n_b(1) x_a(1) n_b(1)^{-1} = x_{s_b(a)}(eta), from the
    certified row `image` of n_b(1) and the reflection `refl` = s_b."""
    # n_b(1) e_c = s e_r, so n_b(1) (I + N) n_b(1)^{-1} = I + N relabelled
    # c -> r with the signs s s' of both ends: O(1) per root
    conj = {(image[i][0], image[j][0]): image[i][1] * image[j][1] * v
            for (i, j), v in _nilpotent_part(n, a, 1).items()}
    target = refl.act_on_root(a)
    for sign in (1, -1):
        if conj == _nilpotent_part(n, target, sign):
            return sign
    # only a failure searches every root element, to name how it failed
    for c in sorted(build_root_system("B", n).roots):
        if conj in (_nilpotent_part(n, c, 1), _nilpotent_part(n, c, -1)):
            raise VerificationError(
                "conjugate landed on the wrong root",
                {"b": b, "a": a, "target": c},
            )
    raise VerificationError(
        "conjugate is not a root one-parameter element", {"b": b, "a": a}
    )


@dataclass(frozen=True)
class SignTable:
    """eta[(b, a)] = sign of n_b(1) x_a(u) n_b(1)^{-1} = x_{s_b(a)}(eta u).

    A full table has a row for every root b; otherwise it holds the rows for
    the simple roots b, which is all that conjugation reads.  `rows` maps
    each b to its certified lift n_b(1) (see `_certified_row`) and s_b.  An
    entry is certified the first time it is read and then kept in `eta`; a
    full table reads every entry while it is built.  `simples` lists the
    simple roots with their reflections, in the order of the simple lifts,
    for folding a reduced word."""

    rank: int
    eta: dict
    simples: tuple
    full: bool
    rows: dict

    def __call__(self, b: tuple, a: tuple) -> int:
        try:
            return self.eta[b, a]
        except KeyError:
            image, refl = self.rows[b]
            sign = self.eta[b, a] = _certified_entry(self.rank, b, a, image, refl)
            return sign

    def flipped(self, b: tuple, a: tuple) -> "SignTable":
        """A copy with a single entry negated (for mutation testing)."""
        return replace(self, eta=self.eta | {(b, a): -self(b, a)})


# Constants of the rank, read by separately called suites at every point of
# it (suite-major callers included), so they live for the process.
_sign_table_cache: dict = {}


def build_sign_table(n: int, full: bool = False) -> SignTable:
    """Conjugation signs for the rank-n type-B system, by exact integer
    matrix arithmetic in the odd orthogonal realization: the rows for the
    simple roots b, each certified here and each entry certified on its
    first read, or with `full` the rows for every root b with every entry
    certified here, which only the consistency laws read.
    """
    key = (n, full)
    if key in _sign_table_cache:
        return _sign_table_cache[key]
    simples = tuple((b, reflection(n, b)) for b in simple_roots("B", n))
    table = SignTable(n, {}, simples, full, {})
    roots = sorted(build_root_system("B", n).roots) if full else ()
    rows = [(b, reflection(n, b)) for b in roots] if full else simples
    for b, refl in rows:
        table.rows[b] = _certified_row(n, b), refl
        for a in roots:  # a full table certifies every entry here
            table(b, a)
    _sign_table_cache[key] = table
    return table


# -- conjugation of formal terms ----------------------------------------------


def conjugate(
    group: ExtendedWeylGroup,
    table: SignTable,
    x: MonomialElement,
    term: FormalRootTerm,
) -> FormalRootTerm:
    """x * x_a(u-term) * x^{-1} for a monomial element x = t * (lift of w).

    The Weyl part folds through the simple-root sign table along a reduced
    word; the torus part contributes the root character value, which must be
    +-1 (x must have order-2 torus coordinates, i.e. lie in the extended
    Weyl group times the order-2 torus).
    """
    root, sign = term.root, term.sign
    word = group.reduced_word(x.weyl)
    for i in reversed(word):
        b, refl = table.simples[i - 1]
        sign *= table(b, root)
        root = refl.act_on_root(root)
    pairing = root_character_eval(root, x.torus)
    if pairing % 2:
        raise ValueError("torus part acts by a fourth root, not a sign")
    sign *= (-1) ** (pairing // 2)
    return FormalRootTerm(root, sign, term.frob_exponent)


def twisted_frobenius_power(
    group: ExtendedWeylGroup,
    table: SignTable,
    term: FormalRootTerm,
    twist: MonomialElement,
    power: int,
) -> FormalRootTerm:
    """(Ad(twist) o F_q)^power applied to a formal term, q odd: the field
    power maps x_a(u) to x_a(u^q) and fixes the sign, then the twist
    conjugates."""
    out = term
    for _ in range(power):
        out = conjugate(group, table, twist, replace(out, frob_exponent=out.frob_exponent + 1))
    return out


# -- verification suites -------------------------------------------------------


def _levi_factor_terms(ctx: SupplementContext, i: int, table: SignTable):
    """The formal generator terms of the i-th twisted rank-one factor: the
    norm orbit of +-(e_2 - e_1) translated to the i-th pair block, term j
    the twisted Frobenius of term j - 1."""
    g = ctx.group
    base = tuple(
        1 if j == 2 * i - 2 else -1 if j == 2 * i - 1 else 0 for j in range(ctx.n)
    )
    terms = []
    for start in (base, tuple(-x for x in base)):
        terms += accumulate(range(1, ctx.d0),
                            lambda t, _: twisted_frobenius_power(g, table, t, ctx.v_l, 1),
                            initial=FormalRootTerm(start))
    return terms


def verify_commutator_lemmas(l: int, d: int, m: int) -> dict:
    """[L_i, c_j'] = 1 for i != j and [B_m-block, V'] = 1, at the level of
    formal root terms.  Returns a summary; raises with a counterexample on
    any failed conjugation."""
    data = build_supplement(l, d, m)
    ctx = data.ctx
    g = ctx.group
    table = build_sign_table(ctx.n)
    checked = 0
    for i in range(1, ctx.t_l + 1):
        terms = _levi_factor_terms(ctx, i, table)
        for j, c in enumerate(data.c_primes, start=1):
            if i == j:
                continue
            for t in terms:
                got = conjugate(g, table, c, t)
                if got != t:
                    raise VerificationError(
                        "c_j' moved a generator of a different rank-one factor",
                        {"i": i, "j": j, "term": t, "got": got},
                    )
                checked += 1
    vprime_gens = [data.c_primes[0]] + list(data.p_primes) + ctx.head_basis[1:]
    for a in b_block_roots(ctx.n, ctx.l + 1):
        t = FormalRootTerm(a)
        for x in vprime_gens:
            got = conjugate(g, table, x, t)
            if got != t:
                raise VerificationError(
                    "a supplement generator moved a B-block term",
                    {"root": a, "generator": x, "got": got},
                )
            checked += 1
        # the stepwise route: conjugating by c_1 twice through p_1 also fixes
        if ctx.a_l >= 2:
            step = conjugate(g, table, ctx.c1, t)
            step = conjugate(g, table, g.inv(ctx.p[1]), step)
            step = conjugate(g, table, ctx.c1, step)
            step = conjugate(g, table, ctx.p[1], step)
            if step != t:
                raise VerificationError(
                    "stepwise c_1 p_1^{-1} c_1 p_1 moved a B-block term",
                    {"root": a, "got": step},
                )
            checked += 1
    return {"l": l, "d": d, "m": m, "conjugations_checked": checked}


def verify_twist_power_sign(l: int, d: int, m: int = 0) -> dict:
    """F^{d0} on x_{e_1-e_2}(u) gives x_{eps (e_1-e_2)}(eps u^{q^{d0}}) with
    eps = +1 for odd d and -1 for even d."""
    ctx = SupplementContext(l, d, m)
    g, d0, n = ctx.group, ctx.d0, ctx.n
    table = build_sign_table(n)
    eps = 1 if d % 2 else -1
    base_root = tuple(1 if j == 0 else -1 if j == 1 else 0 for j in range(n))
    term = FormalRootTerm(base_root)
    got = twisted_frobenius_power(g, table, term, ctx.v_l, d0)
    expected = FormalRootTerm(
        tuple(eps * x for x in base_root), eps, d0
    )
    if got != expected:
        raise VerificationError(
            "twisted Frobenius power has the wrong sign",
            {"l": l, "d": d, "got": got, "expected": expected},
        )
    # applying it twice returns to the original root with sign +1
    round_trip = twisted_frobenius_power(g, table, term, ctx.v_l, 2 * d0)
    if round_trip != FormalRootTerm(base_root, 1, 2 * d0):
        raise VerificationError(
            "double twisted Frobenius power is not the identity on terms",
            {"l": l, "d": d, "got": round_trip},
        )
    return {"l": l, "d": d, "eps": eps}


def verify_graph_action(l: int, d: int, m: int) -> dict:
    """c_1' acts on the first rank-one factor exactly as v_l', and trivially
    on the B-block, verified on all formal generator terms."""
    data = build_supplement(l, d, m)
    ctx = data.ctx
    g = ctx.group
    table = build_sign_table(ctx.n)
    # the correction element x = v_l' (c_1' ... c_t')^{-1} is a torus element
    prod_c = g.prod(data.c_primes)
    x = g.mul(ctx.v_l_prime, g.inv(prod_c))
    if not x.weyl.is_identity():
        raise VerificationError(
            "v_l' and the product of the c_i' differ beyond the torus",
            {"weyl": x.weyl.images},
        )
    base_root = tuple(1 if j == 0 else -1 if j == 1 else 0 for j in range(ctx.n))
    if root_character_eval(base_root, x.torus) % 4:
        raise VerificationError(
            "the torus correction does not centralize the first factor",
            {"torus": x.torus},
        )
    terms = _levi_factor_terms(ctx, 1, table)
    for t in terms:
        via_c = conjugate(g, table, data.c_primes[0], t)
        via_v = conjugate(g, table, ctx.v_l_prime, t)
        if via_c != via_v:
            raise VerificationError(
                "c_1' and v_l' act differently on a first-factor term",
                {"term": t, "via_c": via_c, "via_v": via_v},
            )
    for a in b_block_roots(ctx.n, ctx.l + 1):
        t = FormalRootTerm(a)
        if conjugate(g, table, data.c_primes[0], t) != t:
            raise VerificationError(
                "c_1' moved a B-block term", {"root": a}
            )
    return {"l": l, "d": d, "m": m, "terms_checked": len(terms)}


@lru_cache(maxsize=None)
def _consistency_laws(n: int) -> tuple:
    """The sorted keys (b, a) of a full table, and one law per key in that
    order: the positions in the keys of the entries (b, s_b(a)) and (b, -a)
    it compares, the sign (-1)^<a, b^vee> the square law expects, and
    whether the pair is orthogonal long.  They depend on the rank alone,
    not on the table."""
    roots = sorted(build_root_system("B", n).roots)
    position = {a: j for j, a in enumerate(roots)}
    keys, laws = [], []
    for row, b in enumerate(roots):
        refl = reflection(n, b)
        cr = coroot(b)
        base = row * len(roots)
        for a in roots:
            keys.append((b, a))
            laws.append((base + position[refl.act_on_root(a)],
                         base + position[tuple(-x for x in a)],
                         -1 if dot(a, cr) % 2 else 1, are_orthogonal_long(a, b)))
    return tuple(keys), tuple(laws)


def check_sign_table_consistency(table: SignTable) -> list:
    """The three exact consistency laws of a conjugation sign table:
    the square law (conjugating twice equals the root-character sign of the
    order-2 torus element of b), the negation symmetry eta(b, a) =
    eta(b, -a), and triviality on orthogonal long pairs.  Returns the list
    of violations (empty for a true table)."""
    if not table.full:
        raise ValueError("consistency laws need a full table")
    keys, laws = _consistency_laws(table.rank)
    eta = [table.eta[k] for k in keys]
    bad = []
    for key, e, (s_b_a, neg_a, sign, orthogonal_long) in zip(keys, eta, laws):
        if e * eta[s_b_a] != sign:
            bad.append(("square-law", *key))
        if e != eta[neg_a]:
            bad.append(("negation-symmetry", *key))
        if orthogonal_long and e != 1:
            bad.append(("orthogonal-long", *key))
    return bad
