"""Root systems of types B/C/D in Z-coordinates, Levi root subsets,
coroots, and integer-lattice torsion via Smith normal form.

Roots are integer tuples in the standard e-basis.  Lattices are stored in
doubled coordinates (every vector multiplied by 2) so that half-integral
weights stay integral.  Ranks, greedy bases and coordinates in a basis come
from one fraction-free row echelon over the integers (Bareiss, Math. Comp.
22, 1968), each row divided by its content.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = [
    "Lattice",
    "Root",
    "RootSubset",
    "are_orthogonal_long",
    "b_block_roots",
    "build_root_system",
    "component_types",
    "coroot",
    "levi_root_subset",
    "quotient_torsion",
    "root_lattice_doubled",
    "smith_normal_form",
    "weight_lattice_doubled",
]

Root = tuple  # integer coordinate vector in the e-basis


def _unit(n: int, i: int, s: int = 1) -> Root:
    v = [0] * n
    v[i - 1] = s
    return tuple(v)


def dot(a: Root, b: Root) -> int:
    return sum(x * y for x, y in zip(a, b))


def is_positive(a: Root) -> bool:
    """Positive w.r.t. the simple system e_1, e_2 - e_1, ..., e_n - e_{n-1}:
    the nonzero coordinate of largest index is positive."""
    for x in reversed(a):
        if x:
            return x > 0
    return False


@dataclass(frozen=True)
class RootSubset:
    """A finite, negation-closed set of roots in a rank-n ambient space."""

    ambient_rank: int
    roots: frozenset

    def __post_init__(self):
        for a in self.roots:
            if len(a) != self.ambient_rank:
                raise ValueError("root has wrong ambient rank")
            if tuple(-x for x in a) not in self.roots:
                raise ValueError("root set is not closed under negation")

    def __contains__(self, a: Root) -> bool:
        return a in self.roots

    def __len__(self) -> int:
        return len(self.roots)

    def positive(self) -> list[Root]:
        return sorted(a for a in self.roots if is_positive(a))

    def components(self) -> list[frozenset]:
        """Connected components under non-orthogonality, sorted by least root."""
        remaining = set(self.roots)
        comps = []
        while remaining:
            seed = min(remaining)
            comp, frontier = {seed}, [seed]
            while frontier:
                a = frontier.pop()
                for b in list(remaining - comp):
                    if dot(a, b) != 0:
                        comp.add(b)
                        frontier.append(b)
            remaining -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=min)


def build_root_system(family: str, n: int) -> RootSubset:
    """The full root system of type B_n, C_n, or D_n, n >= 2."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    roots: set[Root] = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i - 1], v[j - 1] = si, sj
                    roots.add(tuple(v))
    if family == "B":
        for i in range(1, n + 1):
            roots.add(_unit(n, i))
            roots.add(_unit(n, i, -1))
    elif family == "C":
        for i in range(1, n + 1):
            roots.add(_unit(n, i, 2))
            roots.add(_unit(n, i, -2))
    elif family != "D":
        raise ValueError(f"unknown family {family!r}")
    return RootSubset(n, frozenset(roots))


def simple_roots(family: str, n: int) -> tuple[Root, ...]:
    """Simple system with the short (resp. long for C) root first:
    B: e_1, e_2-e_1, ...; C: 2e_1, e_2-e_1, ...; D: e_1+e_2, e_2-e_1, ..."""
    chain = tuple(
        tuple(1 if k == i else -1 if k == i - 1 else 0 for k in range(n))
        for i in range(1, n)
    )
    if family == "B":
        return (_unit(n, 1),) + chain
    if family == "C":
        return (_unit(n, 1, 2),) + chain
    if family == "D":
        first = tuple(1 if k <= 1 else 0 for k in range(n))
        return (first,) + chain
    raise ValueError(f"unknown family {family!r}")


def coroot(a: Root) -> tuple:
    """2a/(a,a); short roots of B double, long roots are their own coroots."""
    norm = dot(a, a)
    if norm == 0 or any((2 * x) % norm for x in a):
        raise ValueError(f"{a} is not a root of a B/C/D system")
    return tuple(2 * x // norm for x in a)


def are_orthogonal_long(a: Root, b: Root) -> bool:
    """Orthogonal and both of squared length 2 (the commuting-lift case)."""
    return dot(a, b) == 0 and dot(a, a) == 2 and dot(b, b) == 2


def b_block_roots(n: int, first: int) -> list[Root]:
    """The roots of type B on the coordinates first..n of rank n: for each
    i in turn, e_i, -e_i and then +-e_i +-e_k for k > i."""
    roots = []
    for i in range(first, n + 1):
        roots += [_unit(n, i), _unit(n, i, -1)]
        for k in range(i + 1, n + 1):
            for si in (1, -1):
                for sk in (1, -1):
                    v = [0] * n
                    v[i - 1], v[k - 1] = si, sk
                    roots.append(tuple(v))
    return roots


def levi_root_subset(n: int, m: int, d0: int, t_l: int) -> RootSubset:
    """Root set of the twist-stable Levi with a type-B_m block on the last m
    coordinates and l/2 pairwise roots +-(e_{2i} - e_{2i-1}) on the first
    l = n - m coordinates.

    The l/2 pairs fall into t_l twist-orbits of length d0 each, one orbit
    per A_1(q^d0) factor of the fixed-point group.
    """
    l = n - m
    if m < 0 or l < 2 or l != 2 * d0 * t_l:
        raise ValueError(f"need n - m = 2*d0*t_l >= 2, got n={n} m={m} d0={d0} t_l={t_l}")
    roots = set(b_block_roots(n, l + 1))
    for pair in range(1, l // 2 + 1):
        v = [0] * n
        v[2 * pair - 2], v[2 * pair - 1] = -1, 1
        roots.add(tuple(v))
        roots.add(tuple(-x for x in v))
    return RootSubset(n, frozenset(roots))


def component_types(subset: RootSubset) -> list[tuple[str, int]]:
    """Cartan types of the components, each as (family, rank), sorted."""
    out = []
    for comp in subset.components():
        shorts = sum(1 for a in comp if dot(a, a) == 1)
        doubles = sum(1 for a in comp if dot(a, a) == 4)
        size = len(comp)
        if doubles and not shorts:
            # C_k: 2k long (doubled) plus 2k(k-1) short-in-C roots.
            k = doubles // 2
            if size == 2 * k * k:
                out.append(("C", k))
                continue
        if shorts:
            k = shorts // 2
            if size == 2 * k * k:
                out.append(("B", k))
                continue
        if not shorts and not doubles:
            if size == 2:
                out.append(("A", 1))
                continue
            # distinguish A_k (k^2 + k roots) from D_k (2k(k-1)).
            span = _rank_of(sorted(comp))
            if size == span * span + span:
                out.append(("A", span))
                continue
            if size == 2 * span * (span - 1):
                out.append(("D", span))
                continue
        raise ValueError(f"unrecognized component of size {size}")
    return sorted(out)


def _rank_of(vectors) -> int:
    return len(_echelon(vectors)[0])


def _echelon(vectors) -> tuple[list, list]:
    """Fraction-free row echelon of integer vectors, one vector at a time:
    the pivot rows as (pivot column, row divided by its content), and the
    indices of the vectors that raised the rank.  Each pivot row is zero at
    the pivot columns of the rows before it."""
    pivots: list = []
    independent = []
    for index, v in enumerate(vectors):
        v = list(v)
        for col, row in pivots:
            if v[col]:
                g = gcd(row[col], v[col])
                a, b = row[col] // g, v[col] // g
                v = [a * x - b * y for x, y in zip(v, row)]
        content = gcd(*v)
        if content:  # not in the span of the rows before it
            lead = next(col for col, x in enumerate(v) if x)
            pivots.append((lead, [x // content for x in v]))
            independent.append(index)
    return pivots, independent


# -- lattices ----------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Integer lattice given by independent basis rows in doubled coordinates."""

    basis: tuple

    def __post_init__(self):
        if self.basis and _rank_of(self.basis) != len(self.basis):
            raise ValueError("basis rows are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)


def weight_lattice_doubled(n: int) -> Lattice:
    """Doubled weight lattice of B_n: Z^n plus the half-sum weight.
    Basis 2e_1, ..., 2e_{n-1}, (1, ..., 1)."""
    rows = [tuple(2 if k == i else 0 for k in range(n)) for i in range(n - 1)]
    rows.append(tuple([1] * n))
    return Lattice(tuple(rows))


def root_lattice_doubled(subset: RootSubset) -> Lattice:
    """Doubled lattice spanned by a root subset (basis extracted greedily)."""
    doubled = [tuple(2 * x for x in a) for a in subset.positive()]
    return Lattice(tuple(doubled[i] for i in _echelon(doubled)[1]))


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix, as a list of
    nonnegative invariants d_1 | d_2 | ... (zeros excluded)."""
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        piv = min(
            ((i, j) for i in range(r, rows) for j in range(c, cols) if a[i][j]),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
            default=None,
        )
        if piv is None:
            break
        i0, j0 = piv
        a[r], a[i0] = a[i0], a[r]
        for row in a:
            row[c], row[j0] = row[j0], row[c]
        # clear the pivot row and column; restart if a remainder appears
        dirty = False
        for i in range(r + 1, rows):
            if a[i][c]:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][c]:
                    dirty = True
        for j in range(c + 1, cols):
            if a[r][j]:
                q = a[r][j] // a[r][c]
                for i in range(rows):
                    a[i][j] -= q * a[i][c]
                if a[r][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_r | a[i][j] for the trailing block
        fix = next(
            ((i, j) for i in range(r + 1, rows) for j in range(c + 1, cols)
             if a[i][j] % a[r][c]),
            None,
        )
        if fix is not None:
            i0, _ = fix
            a[r] = [x + y for x, y in zip(a[r], a[i0])]
            continue
        diag.append(abs(a[r][c]))
        r += 1
        c += 1
    return diag


def _express_in_basis(basis: tuple, v: tuple) -> list[int] | None:
    """Integer coefficients of v in the given independent rows, or None.

    The echelon of the transposed system, one equation per coordinate with
    v as the last column, leaves a pivot in every basis column; the
    coefficients follow by back substitution, pivot rows last to first,
    each one an exact division or no integer solution."""
    r = len(basis)
    pivots, _ = _echelon([*(b[c] for b in basis), v[c]] for c in range(len(v)))
    if any(col == r for col, _ in pivots):
        return None  # v is outside the span of the basis
    coeffs = [0] * r
    for col, row in reversed(pivots):
        rest = row[r] - sum(row[j] * coeffs[j] for j in range(col + 1, r))
        if rest % row[col]:
            return None
        coeffs[col] = rest // row[col]
    return coeffs


def quotient_torsion(x: Lattice, sub: Lattice) -> list[int]:
    """Elementary divisors of the inclusion sub <= x, i.e. the Smith invariants
    of the matrix expressing sub's basis in x's basis.  Entries > 1 are the
    torsion of the quotient x/sub supported on the span of sub."""
    rel = []
    for row in sub.basis:
        coeffs = _express_in_basis(x.basis, row)
        if coeffs is None:
            raise ValueError("sublattice is not contained in the ambient lattice")
        rel.append(coeffs)
    if not rel:
        return []
    return smith_normal_form(rel)
