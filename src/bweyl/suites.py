"""Named verification suites with machine-readable reports.

Each suite runs a family of exact checks over a parameter sweep and returns
one SuiteReport per parameter tuple.  A failed check carries a
counterexample payload; reports are deterministic across runs and across
worker counts (results are merged in canonical tuple order).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache, partial

from . import VerificationError
from .cyclo import EllContext, ell_valuation

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SWEEP_POINTS",
    "default_sweep_points",
    "run_suite",
    "suite_atlas_ellparts",
    "suite_charext",
    "suite_commutators",
    "suite_cyclotomic_lemma",
    "suite_extmap_hypotheses",
    "suite_graph_action",
    "suite_hl_structure",
    "suite_mutation",
    "suite_supplement",
    "suite_tits_core",
    "suite_wreath",
]


@dataclass
class CheckResult:
    check_id: str
    statement: str
    passed: bool
    counterexample: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "check": self.check_id,
            "statement": self.statement,
            "passed": self.passed,
        }
        if not self.passed:
            out["counterexample"] = {
                k: repr(v) for k, v in self.counterexample.items()
            }
        return out


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        # a suite that checked nothing has verified nothing
        return bool(self.checks) and all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        # timing is deliberately excluded: emitted reports are byte-identical
        # across runs and across worker counts
        return {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_markdown(self) -> str:
        lines = [
            f"### {self.suite} {self.params}",
            "| check | statement | result |",
            "|---|---|---|",
        ]
        for c in self.checks:
            state = "pass" if c.passed else f"FAIL {c.counterexample}"
            lines.append(f"| {c.check_id} | {c.statement} | {state} |")
        return "\n".join(lines)


def _guard(checks: list, check_id: str, statement: str, fn,
           verdict=None) -> None:
    """Run a check callable; a VerificationError payload becomes the
    counterexample, and a return is a pass.  With a `verdict`, fn returns
    the check's details, kept pass or fail, and verdict(details) decides.
    An exceeded enumeration budget also fails the check, with the budget as
    payload."""
    from . import BudgetExceededError

    try:
        result = fn()
        if verdict is None:
            checks.append(CheckResult(check_id, statement, True, {}))
        else:
            checks.append(CheckResult(check_id, statement, verdict(result), result))
    except VerificationError as err:
        checks.append(CheckResult(check_id, statement, False,
                                  dict(err.counterexample) | {"error": str(err)}))
    except BudgetExceededError as err:
        checks.append(CheckResult(check_id, statement, False,
                                  {"error": f"budget exceeded: {err}"}))


# -- sweep geometry --------------------------------------------------------------


def default_sweep_points(d0_values=(1, 3, 5), t_values=(1, 2, 3),
                         m_values=(0, 1, 2), l_cap=18):
    """Admissible (d0, t_l, m, d) tuples with l = 2 d0 t_l <= l_cap and both
    twist parities, in canonical order."""
    points = []
    for d0 in d0_values:
        for t_l in t_values:
            l = 2 * d0 * t_l
            if l > l_cap:
                continue
            for m in m_values:
                for d in (d0, 2 * d0):
                    points.append((d0, t_l, m, d))
    return points


SWEEP_POINTS = default_sweep_points()


# -- suites ------------------------------------------------------------------------


def suite_cyclotomic_lemma(ells=(5, 7, 11, 13), q_max=50, k_max=30) -> SuiteReport:
    """The valuation inequality and its equality characterization for both
    q^k - 1 and q^k + 1, against independent big-integer arithmetic, plus
    the structure of the index set with ell | Phi_e(q)."""
    from .cyclo import e_set, ell_valuation_phi

    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    failures = []
    e_set_failures = []
    for ell in ells:
        for q in range(2, q_max + 1):
            if q % ell == 0:
                continue
            ctx = EllContext(q=q, ell=ell)
            vd = ell_valuation_phi(ctx.d, ctx)
            for k in range(1, k_max + 1):
                if math.gcd(k, ell) != 1:
                    continue
                vm = ell_valuation(q**k - 1, ell)
                vp = ell_valuation(q**k + 1, ell)
                ok_minus = vm <= vd and ((vm == vd) == (k % ctx.d == 0))
                ok_plus = vp <= vd and (
                    (vp == vd) == ((2 * k) % ctx.d == 0 and k % ctx.d != 0)
                )
                if not (ok_minus and ok_plus):
                    failures.append(
                        {"ell": ell, "q": q, "k": k, "vm": vm, "vp": vp, "vd": vd}
                    )
            try:
                e_set(ctx, bound=ctx.d * ell + 1)
            except VerificationError as err:
                e_set_failures.append(err.counterexample)
    checks.append(CheckResult(
        "valuation-inequality",
        "v(q^k -+ 1) <= v(Phi_d(q)) with equality iff d | k resp. d | 2k, d !| k",
        not failures, {"failures": failures[:3]},
    ))
    checks.append(CheckResult(
        "index-set",
        "indices with ell | Phi_e(q) form the geometric family d * ell^i "
        "(the i = 0 member included: ell divides Phi_d(q) by minimality of d)",
        not e_set_failures, {"failures": e_set_failures[:3]},
    ))
    return SuiteReport(
        "cyclo-lemma", {"ells": list(ells), "q_max": q_max, "k_max": k_max},
        checks, time.perf_counter() - t0,
    )


def suite_tits_core(random_triples: int = 10_000, cocycle_rule: str = "descent") -> SuiteReport:
    """Lift squares, braid relations, closure orders, and group axioms of
    the normal-form multiplication.

    Rank 2 is exhaustive by Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups I, 1961, 1.2): if the closure S of
    m_1, m_2 is closed under the product and (x a) y = x (a y) for a in
    A = {1, m_1, m_2} and all x, y in S, S is associative.  The a with the
    identity form a set T closed under the product, as for b, c in T
    (x (b c)) y = ((x b) c) y = (x b) (c y) = x (b (c y)) = x ((b c) y);
    every element of S is a left-bracketed product over A, so T = S.
    Otherwise all triples are scanned for the first counterexample."""
    import random as _random

    from .tits import ExtendedWeylGroup, GeneratedSubgroup

    t0 = time.perf_counter()
    checks: list[CheckResult] = []

    def squares_and_braids():
        for n in (2, 3, 4):
            g = ExtendedWeylGroup(n, cocycle_rule=cocycle_rule)
            for i in range(1, n + 1):
                m = g.simple_lift(i)
                if g.mul(m, m) != g.h_simple(i):
                    raise VerificationError(
                        "lift square mismatch", {"n": n, "i": i})
            m1, m2 = g.simple_lift(1), g.simple_lift(2)
            if g.prod([m1, m2, m1, m2]) != g.prod([m2, m1, m2, m1]):
                raise VerificationError("double-bond braid failed", {"n": n})
            for i in range(2, n):
                a, b = g.simple_lift(i), g.simple_lift(i + 1)
                if g.prod([a, b, a]) != g.prod([b, a, b]):
                    raise VerificationError("single-bond braid failed",
                                            {"n": n, "i": i})
            for i in range(1, n + 1):
                for j in range(i + 2, n + 1):
                    a, b = g.simple_lift(i), g.simple_lift(j)
                    if g.mul(a, b) != g.mul(b, a):
                        raise VerificationError("commuting lifts failed",
                                                {"n": n, "i": i, "j": j})

    _guard(checks, "lift-squares-braids",
           "m_i^2 equals the order-2 coroot value; braid relations hold", squares_and_braids)

    def closure_orders():
        for n in (2, 3):
            g = ExtendedWeylGroup(n, cocycle_rule=cocycle_rule)
            grp = GeneratedSubgroup.generate(
                g, [g.simple_lift(i) for i in range(1, n + 1)])
            expected = 2**n * (2**n) * math.factorial(n)
            if len(grp) != expected:
                raise VerificationError(
                    "extended Weyl group order mismatch",
                    {"n": n, "got": len(grp), "expected": expected},
                )

    _guard(checks, "closure-order",
           "the lift closure has order 2^n * |W(B_n)|", closure_orders)

    def axioms():
        g2 = ExtendedWeylGroup(2, cocycle_rule=cocycle_rule)
        lifts = [g2.simple_lift(1), g2.simple_lift(2)]
        grp = GeneratedSubgroup.generate(g2, lifts)
        # the Cayley table of the closure on element indices, filled once per
        # pair; under a broken rule a product can leave the closure, and it
        # gets the next index
        elems = list(grp.elements)
        index = {x: i for i, x in enumerate(elems)}
        table = {}

        def product(i, j):
            k = table.get((i, j))
            if k is None:
                xy = g2.mul(elems[i], elems[j])
                k = table[i, j] = index.setdefault(xy, len(elems))
                if k == len(elems):
                    elems.append(xy)
            return k

        closure = range(len(elems))
        letters = [index[x] for x in (g2.identity, *lifts)]
        # Light's test (see above); only its failure scans every triple
        if not (all(product(x, y) in closure for x in closure for y in closure)
                and all(product(product(x, a), y) == product(x, product(a, y))
                        for a in letters for x in closure for y in closure)):
            for x in closure:
                for y in closure:
                    xy = product(x, y)
                    for z in closure:
                        if product(xy, z) != product(x, product(y, z)):
                            raise VerificationError(
                                "associativity failed",
                                {"x": elems[x], "y": elems[y], "z": elems[z]})
        bits = _random.Random(2024).getrandbits
        for n in (3, 4, 5, 6):
            g = ExtendedWeylGroup(n, cocycle_rule=cocycle_rule)
            for _ in range(random_triples // 4):
                x, y, z = (_random_element(g, bits) for _ in range(3))
                if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
                    raise VerificationError(
                        "associativity failed", {"n": n, "x": x, "y": y, "z": z})
                if g.mul(x, g.inv(x)) != g.identity:
                    raise VerificationError("inverse failed", {"n": n, "x": x})

    _guard(checks, "group-axioms",
           "exhaustive axioms at rank 2, randomized triples at ranks 3..6", axioms)
    return SuiteReport("tits-core", {"random_triples": random_triples},
                       checks, time.perf_counter() - t0)


def _random_element(g, bits):
    """The lift of a random word of length 1..9 times a random torus element
    on the left, drawn in that order by a random.Random's getrandbits
    `bits` as its randrange would draw them (`_below`)."""
    lifted = g.word_lift([1 + _below(bits, g.n) for _ in range(1 + _below(bits, 9))])
    return lifted._replace(
        torus=tuple([(_below(bits, 4) + c) % g.modulus for c in lifted.torus]))


def _below(bits, m: int) -> int:
    """CPython's randrange(m): m.bit_length() bits, drawn again while >= m."""
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def suite_hl_structure(d0_values=(1, 3, 5), l_cap=18, q_values=(3, 5)) -> SuiteReport:
    """The fixed points of the twisted Frobenius on the order-2 torus form
    an elementary abelian group of rank a_l, for both twist parities and
    both odd residues of q."""
    from .supplement import SupplementContext
    from .tits import torsion_two_subgroup_fixed_rank

    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    for d0 in d0_values:
        for t_l in range(1, l_cap // (2 * d0) + 1):
            l = 2 * d0 * t_l
            for d in (d0, 2 * d0):
                # the group and v_l do not depend on q: one context serves
                # every q, and a build that raises fails each q check alike
                context = cache(partial(SupplementContext, l, d, 0))
                for q in q_values:
                    def one(l=l, d=d, q=q, t_l=t_l, context=context):
                        ctx = context()
                        rank = torsion_two_subgroup_fixed_rank(ctx.group, l, q, ctx.v_l)
                        if rank != 2 * t_l:
                            raise VerificationError(
                                "fixed-point rank mismatch",
                                {"l": l, "d": d, "q": q,
                                 "rank": rank, "expected": 2 * t_l},
                            )
                    _guard(checks, f"hl-rank-l{l}-d{d}-q{q}",
                           "order-2 torus fixed points have rank a_l", one)
    return SuiteReport("hl-structure",
                       {"d0_values": list(d0_values), "l_cap": l_cap},
                       checks, time.perf_counter() - t0)


def suite_supplement(d0: int, t_l: int, m: int, d: int) -> SuiteReport:
    """The full identity bundle of the supplement at one parameter point;
    construction and checks live in the builder, which raises on the first
    failed identity."""
    from .supplement import build_supplement, check_frobenius_conventions

    t0 = time.perf_counter()
    l = 2 * d0 * t_l
    checks: list[CheckResult] = []
    data = None

    def build():
        nonlocal data
        data = build_supplement(l, d, m)

    _guard(checks, "supplement-identities",
           "h/p/c element identities, iota homomorphisms and injectivity, "
           "Weyl projections, conjugation table, central product, "
           "semidirect decomposition, head intersection, relative Weyl match",
           build)
    if data is not None:
        expected_v = 2 * (2 * d0) ** t_l * 2 ** (t_l - 1) * math.factorial(t_l)
        checks.append(CheckResult(
            "orders",
            "|V'| = 2 (2 d0)^t 2^(t-1) t!, |H'| = 2^t, "
            "|W_rel| = (2 d0)^t t!",
            data.v_prime_order == expected_v
            and len(data.head_coordinates) == 2**t_l
            and data.relative_weyl_order
            == (2 * d0) ** t_l * math.factorial(t_l),
            {"v_prime": data.v_prime_order},
        ))
        _guard(checks, "frobenius-convention",
               "twist-conjugation convention pinned by the fixed-point rank "
               "(reports when both conventions pass)",
               lambda: check_frobenius_conventions(data.ctx),
               verdict=lambda conv:
                   conv["conjugate_by_twist"] == conv["expected_rank"])
    return SuiteReport("supplement", {"d0": d0, "t_l": t_l, "m": m, "d": d},
                       checks, time.perf_counter() - t0)


def suite_commutators(d0: int, t_l: int, m: int, d: int) -> SuiteReport:
    from .chevsign import verify_commutator_lemmas, verify_twist_power_sign

    t0 = time.perf_counter()
    l = 2 * d0 * t_l
    checks: list[CheckResult] = []
    _guard(checks, "factor-commutators",
           "[L_i, c_j'] = 1 for i != j and [B-block, V'] = 1 on formal terms",
           lambda: verify_commutator_lemmas(l, d, m))
    _guard(checks, "twist-power-sign",
           "F^{d0} maps x_{e_1-e_2}(u) to x_{eps(e_1-e_2)}(eps u^{q^{d0}}), "
           "eps = (-1)^{d+1}",
           lambda: verify_twist_power_sign(l, d, m))
    return SuiteReport("commutators", {"d0": d0, "t_l": t_l, "m": m, "d": d},
                       checks, time.perf_counter() - t0)


def suite_graph_action(d0: int, t_l: int, m: int, d: int) -> SuiteReport:
    from .chevsign import verify_graph_action

    t0 = time.perf_counter()
    l = 2 * d0 * t_l
    checks: list[CheckResult] = []
    _guard(checks, "graph-action",
           "c_1' acts as v_l' on the first factor and trivially on the B-block",
           lambda: verify_graph_action(l, d, m))
    return SuiteReport("graph-action", {"d0": d0, "t_l": t_l, "m": m, "d": d},
                       checks, time.perf_counter() - t0)


def suite_extmap_hypotheses(d0: int, t_l: int, m: int, d: int) -> SuiteReport:
    from .supplement import verify_extmap_hypotheses

    t0 = time.perf_counter()
    l = 2 * d0 * t_l
    checks: list[CheckResult] = []
    _guard(checks, "extmap-hypotheses",
           "head centralizes the Levi root subgroups; supplement covers the "
           "relative Weyl quotient; index arithmetic matches",
           lambda: verify_extmap_hypotheses(l, d, m))
    return SuiteReport("extmap-hypotheses", {"d0": d0, "t_l": t_l, "m": m, "d": d},
                       checks, time.perf_counter() - t0)


def suite_charext(d0: int, t_l: int, m: int, d: int) -> SuiteReport:
    from .charext import CharacterTables, irr_of_hprime, verify_equivariance
    from .supplement import build_supplement

    t0 = time.perf_counter()
    l = 2 * d0 * t_l
    checks: list[CheckResult] = []
    owner = None

    def tables():
        # shared by both checks and dropped with this call
        nonlocal owner
        if owner is None:
            owner = CharacterTables(build_supplement(l, d, m))
        return owner

    def extensions():
        t = tables()
        for lam in irr_of_hprime(t):
            t.extension(lam)

    _guard(checks, "extension-existence",
           "every head character extends linearly to its inertia subgroup "
           "and restricts back correctly", extensions)
    _guard(checks, "equivariance",
           "the orbit-transported extension map is supplement-equivariant",
           lambda: verify_equivariance(tables()))
    return SuiteReport("charext", {"d0": d0, "t_l": t_l, "m": m, "d": d},
                       checks, time.perf_counter() - t0)


def suite_atlas_ellparts(n_max: int = 12, ells=(5, 7, 11, 13),
                         q_values=(2, 3, 4, 5, 7, 8, 9, 11, 13)) -> SuiteReport:
    """Footnote identities, the center l-part identity, and even torsion of
    the case-2 center lattice quotient, across the whole atlas."""
    from .atlas import (
        center_disconnection_torsion, check_isolated_center_ell_part,
        enumerate_rows, realize_row,
    )

    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    bad_rows = []
    bad_torsion = []
    rows_checked = 0
    # the l-part and torsion checks read the row's case, n, d, d0, m, a and
    # eps and the datum built from (n, m, d), nothing else: d0 follows from
    # d, and a, eps from the footnote identities.  So one datum and torsion
    # verdict per (case, n, d, m) serve every context, and one l-part
    # verdict per (case, n, d, m) the rows of its context
    realized: dict = {}
    for ell in ells:
        for q in q_values:
            if q % ell == 0:
                continue
            ctx = EllContext(q=q, ell=ell)
            verdicts: dict = {}
            for n in range(2, n_max + 1):
                for row in enumerate_rows(n, ctx):
                    rows_checked += 1
                    if row.a * row.d0 + row.m != row.n or row.eps != (-1) ** row.d:
                        bad_rows.append((ell, q, n, row))
                        continue
                    key = (row.case_no, row.n, row.d, row.m)
                    if key not in realized:
                        datum = realize_row(row)
                        realized[key] = datum, row.case_no != 2 or any(
                            t > 1 and t % 2 == 0 for t in center_disconnection_torsion(datum))
                    datum, torsion_ok = realized[key]
                    if key not in verdicts:
                        verdicts[key] = check_isolated_center_ell_part(datum, ctx)
                    if not verdicts[key]:
                        bad_rows.append((ell, q, n, row))
                    if not torsion_ok:
                        bad_torsion.append((ell, q, n, row))
    checks.append(CheckResult(
        "footnote-and-ellpart",
        "a d0 + m = n, eps = (-1)^d, and the two center columns have equal "
        "l-parts on every row",
        # no row checked (every q divisible by every ell) verifies nothing
        rows_checked > 0 and not bad_rows,
        {"failures": bad_rows[:3], "rows": rows_checked},
    ))
    checks.append(CheckResult(
        "case2-center-torsion",
        "the weight lattice modulo the case-2 Levi root lattice has even torsion",
        not bad_torsion, {"failures": bad_torsion[:3]},
    ))
    return SuiteReport("atlas-ellparts",
                       {"n_max": n_max, "ells": list(ells), "q_values": list(q_values),
                        "rows": rows_checked},
                       checks, time.perf_counter() - t0)


def suite_wreath(m_max: int = 6, t_max: int = 5) -> SuiteReport:
    from .charext import wreath_character_degrees

    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    bad = []
    for m in range(1, m_max + 1):
        for t in range(1, t_max + 1):
            degrees = wreath_character_degrees(m, t)
            if sum(x * x for x in degrees) != m**t * math.factorial(t):
                bad.append((m, t))
    checks.append(CheckResult(
        "sum-of-squares",
        "degree squares sum to the wreath product order",
        not bad, {"failures": bad},
    ))
    return SuiteReport("wreath", {"m_max": m_max, "t_max": t_max},
                       checks, time.perf_counter() - t0)


def suite_mutation(rank: int = 3) -> SuiteReport:
    """Meta-test: every single sign-table flip and the corrupted cocycle
    branch must be caught by at least one suite check."""
    from .chevsign import build_sign_table, flips_without_violation

    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    table = build_sign_table(rank, full=True)
    undetected = flips_without_violation(table)
    checks.append(CheckResult(
        "sign-table-flips",
        f"each of the {len(table.eta)} single-entry flips violates a "
        "consistency law",
        not undetected, {"undetected": undetected[:5]},
    ))

    def cocycle_branch():
        broken = suite_tits_core(random_triples=400, cocycle_rule="ascent")
        if broken.passed:
            raise VerificationError(
                "the corrupted cocycle branch passed the core suite", {})

    _guard(checks, "cocycle-branch",
           "the corrupted cocycle branch fails the core suite", cocycle_branch)
    return SuiteReport("mutation", {"rank": rank}, checks, time.perf_counter() - t0)


# -- dispatch ----------------------------------------------------------------------

POINT_SUITES = {
    "supplement": suite_supplement,
    "commutators": suite_commutators,
    "graph-action": suite_graph_action,
    "extmap-hypotheses": suite_extmap_hypotheses,
    "charext": suite_charext,
}

GLOBAL_SUITES = {
    "cyclo-lemma": suite_cyclotomic_lemma,
    "tits-core": suite_tits_core,
    "hl-structure": suite_hl_structure,
    "atlas-ellparts": suite_atlas_ellparts,
    "wreath": suite_wreath,
    "mutation": suite_mutation,
}


def run_suite(name: str, point=None, **kwargs) -> SuiteReport:
    """Run a named suite: a point suite at its (d0, t_l, m, d) point, a
    global suite without one; the keyword arguments go to either."""
    if name in POINT_SUITES:
        if point is None:
            raise ValueError(f"suite {name} needs a (d0, t_l, m, d) point")
        return POINT_SUITES[name](*point, **kwargs)
    if name in GLOBAL_SUITES:
        return GLOBAL_SUITES[name](**kwargs)
    raise ValueError(f"unknown suite {name!r}")
