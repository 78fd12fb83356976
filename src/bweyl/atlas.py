"""The isolated-block atlas for odd orthogonal groups.

Enumerates the three families of parameter-admissible rows (case 1: a
product of two symplectic factors over q; cases 2 and 3: one symplectic
factor over q^2, split by the parity of d0), renders rational types in a
canonical factor grammar, and checks the l-part identity between the two
center columns together with defect-group valuations.

Semisimple labels are never represented; a row carries only centralizer
type strings and exact generic orders, which is all the checks consume.
"""

from __future__ import annotations

import json
import math
import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from .cyclo import EllContext, GenericOrder, ell_valuation, generic_order_eval_ell_part
from .roots import (
    RootSubset,
    b_block_roots,
    levi_root_subset,
    quotient_torsion,
    root_lattice_doubled,
    weight_lattice_doubled,
)
from .sperm import SignedPermutation, sylow_twist

__all__ = [
    "IsolatedBlockRow",
    "LeviDatum",
    "build_case2_levi",
    "case13_levi",
    "center_generic_order",
    "check_isolated_center_ell_part",
    "defect_order",
    "enumerate_rows",
    "levi_rational_type",
    "rows_to_json",
    "rows_to_markdown",
]


def _qp(j: int) -> str:
    return "q" if j == 1 else f"q^{j}"


def _pw(base: str, mult: int) -> str:
    if mult == 0:
        return ""
    return base if mult == 1 else f"{base}^{mult}"


@dataclass(frozen=True)
class IsolatedBlockRow:
    case_no: int
    n: int
    d: int
    d0: int
    m: int
    a: int
    eps: int
    # case 1 extras: the split of the dual pair and of the torus factors
    l_split: int = 0
    a1: int = 0

    def __post_init__(self):
        if self.a * self.d0 + self.m != self.n:
            raise ValueError("row fails a * d0 + m = n")
        if self.eps != (-1) ** self.d:
            raise ValueError("row fails eps = (-1)^d")
        if self.case_no == 2 and self.d0 % 2 == 0:
            raise ValueError("case 2 needs odd d0")
        if self.case_no == 3 and self.d0 % 2 == 1:
            raise ValueError("case 3 needs even d0")
        if self.case_no in (2, 3) and self.m % 2 == 1:
            raise ValueError("cases 2 and 3 need even m")

    def centralizer_type(self) -> str:
        if self.case_no == 1:
            k = self.l_split + self.a1 * self.d0
            return f"C_{k}(q) C_{self.n - k}(q)"
        return f"C_{self.n // 2}(q^2)"

    def levi_type(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        if self.case_no == 2:
            half = self.a // 2
            return " ".join(
                x for x in (
                    _pw(f"A_1({_qp(self.d0)})", half),
                    f"B_{self.m}(q)",
                    _pw(f"({_qp(self.d0)}{sign}1)", half),
                ) if x
            )
        torus = _pw(f"({_qp(self.d0)}{sign}1)", self.a)
        return " ".join(x for x in (f"B_{self.m}(q)", torus) if x)

    def levi_centralizer_type(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        if self.case_no == 1:
            torus = _pw(f"({_qp(self.d0)}{sign}1)", self.a)
            return " ".join(x for x in (
                f"C_{self.l_split}(q) C_{self.m - self.l_split}(q)", torus) if x)
        if self.case_no == 2:
            torus = _pw(f"({_qp(2 * self.d0)}-1)", self.a // 2)
        else:
            torus = _pw(f"({_qp(self.d0)}+1)", self.a)
        return " ".join(x for x in (f"C_{self.m // 2}(q^2)", torus) if x)


def enumerate_rows(n: int, ctx: EllContext) -> list[IsolatedBlockRow]:
    """All parameter-admissible rows of the three cases for the given
    (n, d, d0).  Requires the block-theory hypothesis ell >= 5."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    if ctx.ell < 5:
        raise ValueError("the atlas needs ell >= 5")
    d, d0 = ctx.d, ctx.d0
    eps = (-1) ** d
    rows: list[IsolatedBlockRow] = []
    for m in range(n + 1):
        if (n - m) % d0:
            continue
        a = (n - m) // d0
        # case 1: dual-pair split l of the C_m factor, torus split a1
        for l_split in range(m + 1):
            for a1 in range(a + 1):
                rows.append(IsolatedBlockRow(1, n, d, d0, m, a, eps, l_split, a1))
        if m % 2 == 0 and n % 2 == 0 and a >= 1:
            if d0 % 2 == 1 and a % 2 == 0:
                rows.append(IsolatedBlockRow(2, n, d, d0, m, a, eps))
            if d0 % 2 == 0:
                rows.append(IsolatedBlockRow(3, n, d, d0, m, a, eps))
    return rows


@dataclass(frozen=True)
class LeviDatum:
    """A concrete twist-stable root datum realizing a row's Levi subgroup."""

    row: IsolatedBlockRow
    root_subset: RootSubset
    twist: SignedPermutation
    center_order: GenericOrder  # |Z(L)^F| as a generic order

    def __post_init__(self):
        if not _twist_stable(self.root_subset, self.twist):
            raise ValueError("root subset is not twist-stable")


@lru_cache(maxsize=None)
def _twist_stable(subset: RootSubset, twist: SignedPermutation) -> bool:
    """Whether the twist permutes the roots of the subset; every row of an
    atlas re-realizes one of a few data, so the verdict is kept per pair."""
    return {twist.act_on_root(a) for a in subset.roots} == subset.roots


def _torus_order(d0: int, eps: int, mult: int) -> GenericOrder:
    if eps == 1:
        return GenericOrder.q_power_plus_one(d0, mult)
    return GenericOrder.q_power_minus_one(d0, mult)


@lru_cache(maxsize=None)
def case13_levi(n: int, m: int, d: int) -> LeviDatum:
    """The cases-1/3 Levi: a type-B_m block on the last m coordinates and a
    Sylow twist on the first n' = n - m, of rational type
    B_m(q) (q^{d0} + (-1)^d)^a."""
    nprime = n - m
    d0 = d if d % 2 else d // 2
    if d < 1 or nprime < 0 or (nprime and (2 * nprime) % d) or (nprime % d0):
        raise ValueError(f"need d | 2(n - m), got n={n} m={m} d={d}")
    a = nprime // d0
    eps = (-1) ** d
    case = 3 if d0 % 2 == 0 and m % 2 == 0 and n % 2 == 0 and a >= 1 else 1
    row = IsolatedBlockRow(case, n, d, d0, m, a, eps, l_split=0, a1=a)
    twist = (
        sylow_twist(nprime, d, n) if nprime else SignedPermutation.identity(n)
    )
    return LeviDatum(row, _b_block_subset(n, nprime + 1), twist, _torus_order(d0, eps, a))


@lru_cache(maxsize=None)
def _b_block_subset(n: int, first: int) -> RootSubset:
    """The type-B block on the coordinates first, ..., n, validated once and
    shared by every twist order d of `case13_levi`."""
    return RootSubset(n, frozenset(b_block_roots(n, first)))


@lru_cache(maxsize=None)
def build_case2_levi(n: int, m: int, d: int) -> LeviDatum:
    """The case-2 Levi realized by the pairwise root blocks and the rank-l
    Sylow twist."""
    d0 = d if d % 2 else d // 2
    if d0 % 2 == 0:
        raise ValueError("case 2 needs odd d0")
    l = n - m
    if l <= 0 or l % (2 * d0):
        raise ValueError("case 2 needs 2*d0 | n - m > 0")
    t_l = l // (2 * d0)
    eps = (-1) ** d
    row = IsolatedBlockRow(2, n, d, d0, m, 2 * t_l, eps)
    subset = levi_root_subset(n, m, d0, t_l)
    twist = sylow_twist(l, d, n)
    return LeviDatum(row, subset, twist, _torus_order(d0, eps, t_l))


def levi_rational_type(datum: LeviDatum) -> str:
    """Canonical rational-type string: semisimple factors X_k(q^j) sorted by
    (family, rank, field power), torus factors last."""
    comps = datum.root_subset.components()
    # twist orbits on components
    index_of = {c: i for i, c in enumerate(comps)}
    seen = set()
    factors: dict[tuple, int] = {}
    from .roots import component_types

    for i, comp in enumerate(comps):
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        cur = comp
        while True:
            moved = frozenset(datum.twist.act_on_root(a) for a in cur)
            j = index_of[moved]
            if j in seen and j == orbit[0]:
                break
            if j in seen:
                raise ValueError("twist does not permute the components")
            seen.add(j)
            orbit.append(j)
            cur = moved
        family, rank = component_types(
            RootSubset(datum.root_subset.ambient_rank, comp)
        )[0]
        key = (family, rank, len(orbit))
        factors[key] = factors.get(key, 0) + 1
    parts = []
    for (family, rank, power), mult in sorted(factors.items()):
        parts.append(_pw(f"{family}_{rank}({_qp(power)})", mult))
    row = datum.row
    sign = "+" if row.eps == 1 else "-"
    mult = row.a // 2 if row.case_no == 2 else row.a
    torus = _pw(f"({_qp(row.d0)}{sign}1)", mult)
    if torus:
        parts.append(torus)
    return " ".join(parts) if parts else "1"


def center_generic_order(datum: LeviDatum) -> GenericOrder:
    """Generic order of the torus part of the dual-side centralizer column:
    (q^{2 d0} - 1)^{a/2} in case 2, (q^{d0} + eps)^a in cases 1 and 3."""
    row = datum.row
    if row.case_no == 2:
        return GenericOrder.q_power_minus_one(2 * row.d0, row.a // 2)
    return _torus_order(row.d0, row.eps, row.a)


def check_isolated_center_ell_part(datum: LeviDatum, ctx: EllContext) -> bool:
    """The l-part of the centralizer-side center equals the l-part of the
    Levi-side center, both by exact big-integer valuation."""
    row = datum.row
    if row.d != ctx.d:
        return False  # row not admissible for this context
    lhs = generic_order_eval_ell_part(center_generic_order(datum), ctx)
    rhs = generic_order_eval_ell_part(datum.center_order, ctx)
    return lhs == rhs


def relative_weyl_ell_valuation(row: IsolatedBlockRow, ctx: EllContext) -> int:
    """v_ell of the relative Weyl group order: one wreath factor per
    symplectic component of the dual-side centralizer."""

    def wreath(cyclic: int, top: int) -> int:
        if top == 0:
            return 0
        v = ell_valuation(math.factorial(top), ctx.ell)
        if cyclic % ctx.ell == 0:
            v += top * ell_valuation(cyclic, ctx.ell)
        return v

    if row.case_no == 1:
        return wreath(2 * row.d0, row.a1) + wreath(2 * row.d0, row.a - row.a1)
    if row.case_no == 2:
        return wreath(2 * row.d0, row.a // 2)
    return wreath(row.d0, row.a)


def defect_order(datum: LeviDatum, ctx: EllContext) -> int:
    """v_ell of the defect group order: relative Weyl part plus center part."""
    return relative_weyl_ell_valuation(datum.row, ctx) + generic_order_eval_ell_part(
        center_generic_order(datum), ctx
    )


def center_disconnection_torsion(datum: LeviDatum) -> list[int]:
    """Elementary divisors of the weight lattice modulo the Levi root
    lattice; an even entry witnesses a disconnected Levi center."""
    return list(_root_subset_torsion(datum.root_subset))


@lru_cache(maxsize=None)
def _root_subset_torsion(subset: RootSubset) -> tuple:
    x = weight_lattice_doubled(subset.ambient_rank)
    return tuple(quotient_torsion(x, root_lattice_doubled(subset)))


def realize_row(row: IsolatedBlockRow) -> LeviDatum:
    datum = (
        build_case2_levi(row.n, row.m, row.d)
        if row.case_no == 2
        else case13_levi(row.n, row.m, row.d)
    )
    # keep the caller's dual-side split parameters on the datum
    return dataclasses.replace(datum, row=row)


# -- emission ------------------------------------------------------------------


def row_report(row: IsolatedBlockRow, ctx: EllContext) -> dict:
    datum = realize_row(row)
    report = {
        "case": row.case_no,
        "params": {
            "n": row.n, "d": row.d, "d0": row.d0, "m": row.m, "a": row.a,
            "eps": row.eps, "l_split": row.l_split, "a1": row.a1,
        },
        "levi_type": row.levi_type(),
        "centralizer_type": row.centralizer_type(),
        "levi_centralizer_type": row.levi_centralizer_type(),
        "rational_type": levi_rational_type(datum),
        "center_order_factors": list(center_generic_order(datum).cyclo_factors),
        "ell_part": generic_order_eval_ell_part(center_generic_order(datum), ctx),
        "ell_part_identity": check_isolated_center_ell_part(datum, ctx),
        "defect_valuation": defect_order(datum, ctx),
    }
    if row.case_no == 2:
        report["center_torsion"] = center_disconnection_torsion(datum)
    return report


def rows_to_json(rows: list[IsolatedBlockRow], ctx: EllContext) -> str:
    payload = {
        "schema": "isolated-block-atlas/1",
        "q": ctx.q,
        "ell": ctx.ell,
        "d": ctx.d,
        "rows": [row_report(r, ctx) for r in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def rows_to_markdown(rows: list[IsolatedBlockRow], ctx: EllContext) -> str:
    header = (
        "| case | centralizer | levi | levi centralizer | l-part | defect |\n"
        "|---|---|---|---|---|---|"
    )
    lines = [header]
    for r in rows:
        rep = row_report(r, ctx)
        lines.append(
            f"| {rep['case']} | {rep['centralizer_type']} | {rep['levi_type']} "
            f"| {rep['levi_centralizer_type']} | {rep['ell_part']} "
            f"| {rep['defect_valuation']} |"
        )
    return "\n".join(lines)
