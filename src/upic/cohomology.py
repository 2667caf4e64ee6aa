"""Group cohomology and hypercohomology over free Z[G]-resolutions.

Hom_G(F_p, M) is M^(r_p) for a resolution F (`upic.resolutions`), and
block (i, j) of the coboundary is the sum of c * rho(g) over the terms
c g e_j of the boundary of generator i of F_(p+1) (`hom_differential`);
a resolution is read only through `rank` and `boundary`.  The default is
the group's certified resolution (`resolutions.small_resolution`).
`BarResolution` is the normalized bar resolution, r_p = (|G|-1)^p; its
coboundary is the inhomogeneous one, `cochain_differential`, and tests
check both routes against it.

For a bounded complex of coefficients the total complex carries
D = (-1)^q delta + d_coefficient on the (p, q) summand, so for a two-term
complex [A -f-> B> this reads D(alpha, beta) = (delta alpha, f(alpha) -
delta beta).  Every coefficient complex is first made a complex of
lattices, each term F/R replaced by [R -> F] (`HyperTotal`), so one route
reads every value: `intmatrix.free_cohomology`.  D*D = 0 is
machine-checked on every instance before any invariant is reported, and a
value above the complex's top degree must be finite of exponent dividing
|G| (`hypercohomology`).  Group cohomology is the one-term case: the
module placed in degree 0.  The cohomology of a complex is its
hypercohomology over the trivial group, whose resolution is F_0 = Z
alone, with the complex restricted to it (`cohomology_invariants`), and
a chain map is a quasi-isomorphism when every such group of its cone
vanishes (`is_quasi_iso`).

DEGREE_LIMIT bounds how far above the coefficients' lowest degree
HyperTotal is asked for a value, which is the depth of the resolution it
reads, and COCHAIN_RANK_LIMIT the rank of the cochains it assembles, both
before the work (`resolutions.RESOLUTION_BUILD_LIMIT` bounds the greedy
route); ENUMERATION_LIMIT bounds the enumeration oracle.  The differentials are
sparse columns and reach `intmatrix` in that form.  The cyclic oracle
keeps `cycle_lattice` and `subquotient_invariants`: its value is that it
shares no route with `HyperTotal`.
"""

from __future__ import annotations

import itertools
import math

from .complexes import BoundedComplex, ComplexMap, cone, one_term
from .errors import BudgetExceeded, ExactnessViolation, NotCyclic, ValidationError
from .groups import FiniteGroup
from .intmatrix import (
    AbelianInvariants,
    IntMatrix,
    SparseCols,
    cycle_lattice,
    free_cohomology,
    smith_normal_form,
    solve_columns,
    solve_integer,
    subquotient_invariants,
    unimodular_inverse,
)
from .modules import ModuleMap, PresentedModule, equivariant_presentation
from .resolutions import AbelianResolution, SmallResolution, small_resolution

# Largest degree HyperTotal computes above the coefficients' lowest degree:
# H^n of coefficients from degree l reads F_0..F_(n-l+1).  Pic and Br_a need
# H^1 and H^2 of coefficients from degree 0, and 4 keeps H^4(C2, Z) in reach.
# The other limits grow with the ranks, and a cyclic group's resolution has
# rank 1 in every degree, so only this one stops a degree of 10^9; it alone
# bounds the abelian route (C2^5: r_5 = 126).
DEGREE_LIMIT = 4
# Largest module, counted in elements, and largest cochain space, counted in
# points, the enumeration oracle searches.
ENUMERATION_LIMIT = 1 << 20
# Largest total rank of each degree of cochains HyperTotal assembles for H^n
# (n-1, n and n+1).  Over the bar resolution brauer_a on J_G needs (|G|-1)^4
# and is refused from order 16; over the small resolution it stays in the
# thousands.
COCHAIN_RANK_LIMIT = 1 << 15
# The group a complex's own cohomology is read over (`cohomology_invariants`);
# the resolution kept on it has F_0 = Z and nothing above.
_TRIVIAL_GROUP = FiniteGroup.trivial()


def _nonidentity(group: FiniteGroup) -> list:
    return [g for g in range(group.order) if g != group.identity]


def _slots(group: FiniteGroup, p: int) -> dict:
    """Index of each p-tuple of non-identity elements, in lexicographic order."""
    return {t: i for i, t in enumerate(itertools.product(_nonidentity(group), repeat=p))}


class BarResolution:
    """The normalized bar resolution.

    F_p is free on the p-tuples of non-identity elements, in lexicographic
    order, and d[g1|..|gp] = g1[g2|..|gp] + sum_i (-1)^i [..|g_i g_(i+1)|..]
    + (-1)^p [g1|..|g_(p-1)], dropping the tuples that contain the identity.
    """

    __slots__ = ("group",)

    def __init__(self, group: FiniteGroup):
        self.group = group

    def rank(self, p: int) -> int:
        return (self.group.order - 1) ** p

    def boundary(self, p: int) -> list:
        group = self.group
        e = group.identity
        below = _slots(group, p - 1)
        out = []
        for t in itertools.product(_nonidentity(group), repeat=p):
            bd = {(below[t[1:]], t[0]): 1}
            faces = [(t[: i - 1] + (group.mul(t[i - 1], t[i]),) + t[i + 1 :], (-1) ** i) for i in range(1, p)]
            faces.append((t[:-1], (-1) ** p))
            for face, sign in faces:
                if e not in face:
                    key = (below[face], e)
                    bd[key] = bd.get(key, 0) + sign
            out.append({k: c for k, c in bd.items() if c})
        return out


def hom_differential(
    resolution: BarResolution | SmallResolution | AbelianResolution,
    m: PresentedModule,
    p: int,
    out: SparseCols | None = None,
    at: tuple = (0, 0),
    sign: int = 1,
) -> SparseCols:
    """The coboundary Hom_G(F_p, M) = M^(r_p) -> Hom_G(F_(p+1), M) as a sparse matrix.

    Block (i, j) is the sum of c * rho(g) over the terms c g e_j of the
    boundary of generator i of F_(p+1); the identity acts by the identity
    matrix.  Given `out`, sign times the coboundary is added into it, with
    its top left entry at row and column `at`.
    """
    n = m.gens
    if out is None:
        out = SparseCols(n * resolution.rank(p + 1), n * resolution.rank(p))
    if n == 0:
        return out
    r0, c0 = at
    ident = IntMatrix.identity(n)
    e = resolution.group.identity
    for i, bd in enumerate(resolution.boundary(p + 1)):
        for (j, g), c in bd.items():
            out.add_block(r0 + i * n, c0 + j * n, ident if g == e else m.action_of(g), sign=sign * c)
    return out


def cochain_differential(group: FiniteGroup, m: PresentedModule, p: int) -> SparseCols:
    """The degree-p inhomogeneous differential: the coboundary over the bar resolution."""
    return hom_differential(BarResolution(group), m, p)


class HyperTotal:
    """Total complex of Hom_G(F, L) for a resolution F and the complex of lattices L of K.

    Each term K^q = F^q / R^q of the coefficient complex K is replaced by
    its presentation (`modules.equivariant_presentation`), and K by the
    total complex L of [R^. -> F^.]: L^q = F^q (+) R^(q+1) and d(x, y) =
    (f x + iota y, -f_R y), where f_R solves iota f_R = f iota.  L -> K,
    (x, y) -> x mod R, is a quasi-isomorphism, so Tot(L) computes the
    hypercohomology of K.  Where an action or a differential of K holds
    only modulo relations (d d = 2 in Z -2-> Z -1-> Z/2, say), D on the F
    pieces squares to a defect D_F D_F with values in the relations, and
    D(x, y) = (D_F x + iota_* y, -D_R y - e x) with iota_* e = D_F D_F
    squares to zero, as iota_* is injective; e is zero when K holds exactly.

    The summands Tot^n = (+) Hom_G(F_(n-l), piece) run over the pieces of
    L^l, each F^q in degree q and each R^(q+1) in degree q, the F pieces
    first, laid out once each for the degrees n0-1, n0 and n0+1 needed to
    read off H^n0.  Tot^(n0+1) keeps its F pieces only: when the F part
    of Dx is zero, D D x = 0 puts iota_* of the R part of Dx in its F part,
    which is then zero.  So H^n0 is ker(d_at) / im(d_below), with d_at onto
    the F pieces, and the resolution is never asked for the rank below an
    R^(q+1) summand of Tot^(n0+1).  Each column of d_at d_below must be
    zero once e is lifted into d_below (`_lift_defect`), and
    `free_cohomology` reads H^n0 off the ranks and a Smith diagonal.  The
    resolution defaults to the group's small resolution.  A degree more
    than DEGREE_LIMIT above the coefficients' lowest degree raises
    BudgetExceeded before any resolution level is built, and a rank of any
    of the three cochain degrees over COCHAIN_RANK_LIMIT before any
    differential is assembled.
    """

    __slots__ = ("group", "coeffs", "degree", "resolution", "pieces", "d_below", "d_at")

    def __init__(
        self,
        group: FiniteGroup,
        coeffs: BoundedComplex,
        degree: int,
        resolution: BarResolution | SmallResolution | AbelianResolution | None = None,
    ):
        if degree - coeffs.lowest_degree > DEGREE_LIMIT:
            raise BudgetExceeded(f"degree {degree} is over the limit {coeffs.lowest_degree + DEGREE_LIMIT}")
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        self.resolution = small_resolution(group) if resolution is None else resolution
        self.pieces = self._pieces()
        layouts = {n: self._layout(n, relations=n <= degree) for n in (degree + 1, degree, degree - 1)}
        for n, (_, total) in layouts.items():
            if total > COCHAIN_RANK_LIMIT:
                raise BudgetExceeded(f"degree {n} cochains have rank {total}, over the limit {COCHAIN_RANK_LIMIT}")
        above, at, below = layouts.values()
        self.d_below = self._differential(below, at)
        self.d_at = self._differential(at, above)
        self._lift_defect(above, at)

    def _pieces(self) -> dict:
        """Each piece of L keyed (degree, kind), kind 0 for F and 1 for R: its module and its maps to degree + 1.

        The maps are keyed by the kind of their target piece: f from F^q to
        F^(q+1); iota from R^(q+1) to F^(q+1) and -f_R from R^(q+1) to R^(q+2).
        """
        k = self.coeffs
        shown = {q: equivariant_presentation(k.term(q)) for q in k.degrees()}
        pieces = {}
        for q, (f_mod, r_mod, iota) in shown.items():
            pieces[(q, 0)] = (f_mod, {0: k.differential(q).matrix} if q + 1 in shown else {})
            if r_mod.gens:
                maps = {0: iota}
                if q + 1 in shown:
                    maps[1] = self._restrict(q, iota, shown[q + 1][2]).neg()
                pieces[(q - 1, 1)] = (r_mod, maps)
        return pieces

    def _restrict(self, q: int, iota: IntMatrix, iota_next: IntMatrix) -> IntMatrix:
        """f_R with iota_next f_R == f iota, for the differential f of the coefficients from degree q."""
        f_r = solve_columns(iota_next, self.coeffs.differential(q).matrix.mul(iota))
        if f_r is None:
            raise ExactnessViolation(f"the coefficients' differential from degree {q} does not keep the relations")
        return f_r

    def _layout(self, n: int, relations: bool):
        """The offset of each nonzero summand of Tot^n, keyed (degree, kind, p), and the rank of Tot^n."""
        offsets, total = {}, 0
        for (l, kind), (m, _) in sorted(self.pieces.items(), key=lambda item: item[0][1]):
            if n - l >= 0 and m.gens and (relations or kind == 0):
                offsets[(l, kind, n - l)] = total
                total += m.gens * self.resolution.rank(n - l)
        return offsets, total

    def _differential(self, src, tgt) -> SparseCols:
        """D from the summands laid out by `src` to those laid out by `tgt`, without the lifted defect."""
        (src_offs, src_total), (tgt_offs, tgt_total) = src, tgt
        out = SparseCols(tgt_total, src_total)
        for (l, kind, p), c0 in src_offs.items():
            m, maps = self.pieces[(l, kind)]
            if (l, kind, p + 1) in tgt_offs:
                hom_differential(self.resolution, m, p, out, (tgt_offs[(l, kind, p + 1)], c0), -1 if l % 2 else 1)
            for to, mat in maps.items():
                if (l + 1, to, p) in tgt_offs:
                    r0 = tgt_offs[(l + 1, to, p)]
                    for s in range(self.resolution.rank(p)):
                        out.add_block(r0 + s * mat.rows, c0 + s * m.gens, mat)
        return out

    def _lift_defect(self, above, at):
        """Put -e into d_below, so that d_at d_below == 0; a column that does not lift is an ExactnessViolation.

        A nonzero column of d_at d_below lies in the F pieces of
        Tot^(n0+1).  Its block on generator s of Hom_G(F_p, F^(q+1)) must
        be iota of a vector, which goes, negated, to the same block of the
        R^(q+1) summand of Tot^n0.
        """
        square = self.d_at.compose(self.d_below)
        if not any(square.entries):
            return
        where = {}  # row of Tot^(n0+1) -> (first row of its block in Tot^n0, iota, row within the block)
        for (l, _, p), r0 in above[0].items():
            if (l - 1, 1) in self.pieces:
                iota = self.pieces[(l - 1, 1)][1][0]
                for s in range(self.resolution.rank(p)):
                    b0 = at[0][(l - 1, 1, p)] + s * iota.cols
                    where.update((r0 + s * iota.rows + i, (b0, iota, i)) for i in range(iota.rows))
        for c, col in enumerate(square.entries):
            parts = {}
            for r, x in col.items():
                if r not in where:
                    raise ExactnessViolation("total differential does not square to zero")
                b0, iota, i = where[r]
                parts.setdefault(b0, (iota, [0] * iota.rows))[1][i] = x
            for b0, (iota, vec) in parts.items():
                e = solve_integer(iota, vec)
                if e is None:
                    raise ExactnessViolation("total differential does not square to zero")
                for j, x in enumerate(e):
                    self.d_below.add(b0 + j, c, -x)

    def cohomology(self) -> AbelianInvariants:
        if self.d_at.cols == 0:
            return AbelianInvariants(0)
        return free_cohomology(self.d_at, self.d_below)


def hypercohomology(group: FiniteGroup, coeffs: BoundedComplex, degree: int) -> AbelianInvariants:
    """H^degree of the group valued in a bounded complex of modules.

    Above the complex's highest degree the value is checked to be finite
    of exponent dividing |G|: cor o res is multiplication by |G|, and
    res lands in H^degree(1, coeffs) = 0 there.  A value that fails is
    an ExactnessViolation, never returned.
    """
    if degree < min(coeffs.degrees(), default=0):
        return AbelianInvariants(0)
    value = HyperTotal(group, coeffs, degree).cohomology()
    if degree > coeffs.highest_degree and (value.free_rank or any(group.order % t for t in value.torsion)):
        raise ExactnessViolation(
            f"H^{degree} = {value.render()} is not killed by |G| = {group.order} above the coefficients' top degree"
        )
    return value


def cohomology_invariants(c: BoundedComplex, i: int) -> AbelianInvariants:
    """H^i(c), the hypercohomology of the trivial group with coefficients in c, read by `HyperTotal`.

    c is restricted to the trivial group, whose resolution has F_0 = Z and
    nothing above it, so Tot^n is the lattice complex L^n of c, and no
    action is read or solved for.  Only c's terms in degrees i-1, i and
    i+1 enter, so the resolution is read to depth one whatever c's length.
    Outside c's degrees H^i is 0.
    """
    if i not in c.degrees():
        return AbelianInvariants(0)
    lo = max(i - 1, c.lowest_degree)
    first, last = lo - c.lowest_degree, i + 1 - c.lowest_degree  # the indices of degrees lo and i+1
    terms = [
        PresentedModule(_TRIVIAL_GROUP, m.gens, m.relations, [IntMatrix.identity(m.gens)])
        for m in c.terms[first : last + 1]
    ]
    maps = [ModuleMap(a, b, d.matrix) for a, b, d in zip(terms, terms[1:], c.differentials[first:last])]
    return HyperTotal(_TRIVIAL_GROUP, BoundedComplex(_TRIVIAL_GROUP, lo, terms, maps, check=False), i).cohomology()


def is_quasi_iso(phi: ComplexMap):
    """Quasi-isomorphism test: phi is one exactly when its cone is acyclic.

    Returns (verdict, report): the report holds the invariants of the
    cone's cohomology in the degrees where it does not vanish, so it is
    empty exactly when the verdict is True.
    """
    cn = cone(phi)
    values = {i: cohomology_invariants(cn, i) for i in cn.degrees()}
    report = {i: value for i, value in values.items() if not value.is_trivial}
    return not report, report


def group_cohomology(group: FiniteGroup, m: PresentedModule, degree: int) -> AbelianInvariants:
    """H^degree(group, m): the hypercohomology of m placed in degree 0."""
    if degree < 0:
        raise ValueError("negative degree")
    return hypercohomology(group, one_term(m, 0), degree)


def _norm_and_shift(group: FiniteGroup, m: PresentedModule, generator: int):
    n = m.gens
    norm = IntMatrix.zeros(n, n)
    g = group.identity
    for _ in range(group.order):
        norm = norm.add(m.action_of(g))
        g = group.mul(g, generator)
    shift = m.action_of(generator).sub(IntMatrix.identity(n))
    return norm, shift


def cyclic_oracle(group: FiniteGroup, m: PresentedModule, degree: int) -> AbelianInvariants:
    """Period-two closed form for cyclic groups, computed with Smith forms only.

    H^0 is the invariants; for j >= 1, H^(2j) = fixed points modulo norm
    image and H^(2j-1) = norm kernel modulo the (generator - 1) image.  An
    independent check for the cochain machinery: no cochains appear here.
    """
    generator = group.cyclic_generator()
    if generator is None:
        raise NotCyclic("group has no generator of full order")
    if degree < 0:
        raise ValueError("negative degree")
    if m.gens == 0:
        return AbelianInvariants(0)
    norm, shift = _norm_and_shift(group, m, generator)
    if degree == 0:
        return subquotient_invariants(cycle_lattice(shift, m.relations), m.relations)
    if degree % 2:
        cycles = cycle_lattice(norm, m.relations)
        boundaries = shift.hstack(m.relations)
    else:
        cycles = cycle_lattice(shift, m.relations)
        boundaries = norm.hstack(m.relations)
    return subquotient_invariants(cycles, boundaries)


class _FiniteModule:
    """Element table of a finite presented module, in Smith coordinates.

    Element i is elements[i], its coordinates along the Smith diagonal, in
    lexicographic order, so element 0 is zero; action_tables[g][i] is the
    index of g.i and neg[i] that of -i.  `s` is the Smith form of
    m.relations, with no free part.
    """

    __slots__ = ("diag", "elements", "action_tables", "neg")

    def __init__(self, m: PresentedModule, s):
        self.diag = s.diagonal()
        u_inv = unimodular_inverse(s.u)
        self.elements = list(itertools.product(*map(range, self.diag)))
        self.action_tables = []
        for g in range(m.group.order):
            mat = s.u.mul(m.action_of(g)).mul(u_inv)
            self.action_tables.append([self.index(mat.apply(list(t))) for t in self.elements])
        self.neg = [self.index([-x for x in t]) for t in self.elements]

    def index(self, coords) -> int:
        """Index of the element with these Smith coordinates, reduced."""
        i = 0
        for c, d in zip(coords, self.diag):
            i = i * d + c % d
        return i

    def total(self, faces, cochain) -> int:
        """Index of the sum of table[cochain[slot]] over the faces (table, slot)."""
        return self.index(map(sum, zip(*(self.elements[t[cochain[s]]] for t, s in faces))))

    def scale(self, k: int, i: int) -> int:
        return self.index([k * x for x in self.elements[i]])


def _faces(group: FiniteGroup, fm: _FiniteModule, p: int) -> list:
    """The coboundary of a normalized p-cochain c, one (p+1)-tuple at a time.

    For each (p+1)-tuple of non-identity elements, in lexicographic order, the
    faces (table, slot) whose table[c[slot]] sum to (dc)(g_0..g_p) =
    g_0 c(g_1..g_p) + sum_i (-1)^i c(..g_(i-1) g_i..) + (-1)^(p+1) c(g_0..g_(p-1)),
    slots numbered as `_slots` does; a face whose product is the identity
    is dropped, as the cochain is normalized.
    """
    slot_of = _slots(group, p)
    e = group.identity
    signed = {1: fm.action_tables[e], -1: fm.neg}
    out = []
    for tup in itertools.product(_nonidentity(group), repeat=p + 1):
        faces = [(fm.action_tables[tup[0]], slot_of[tup[1:]])]
        sign = -1
        for i in range(1, p + 1):
            h = group.mul(tup[i - 1], tup[i])
            if h != e:
                faces.append((signed[sign], slot_of[tup[: i - 1] + (h,) + tup[i + 1 :]]))
            sign = -sign
        faces.append((signed[sign], slot_of[tup[:-1]]))
        out.append(faces)
    return out


def _cocycles(group: FiniteGroup, fm: _FiniteModule, degree: int) -> list:
    """Every normalized degree-cocycle, in lexicographic order of its slots.

    A depth-first search sets the slots in order.  Each cocycle condition is
    filed under the highest slot it reads and tested as soon as that slot
    is set; a failed test prunes every extension of the partial cochain.
    A slot is set at most |M| + |M|^2 + ... + |M|^n_slots times, for
    |M| > 1 under twice the points of the cochain space.
    """
    size = len(fm.elements)
    n_slots = (group.order - 1) ** degree
    checks = [[] for _ in range(n_slots)]
    for faces in _faces(group, fm, degree):
        checks[max(s for _, s in faces)].append(faces)
    found = []
    cochain, x = [], 0
    while True:
        if len(cochain) < n_slots and x < size:
            cochain.append(x)
            if all(fm.total(faces, cochain) == 0 for faces in checks[len(cochain) - 1]):
                x = 0
                continue
        else:
            if len(cochain) == n_slots:
                found.append(tuple(cochain))
            if not cochain:
                return found
        x = cochain.pop() + 1


def finite_coeff_bruteforce(group: FiniteGroup, m: PresentedModule, degree: int) -> AbelianInvariants:
    """H^degree by exhaustive search of normalized cochains.

    Only for finite coefficient modules and degree <= 2.  ENUMERATION_LIMIT
    bounds the module's number of elements and its cochain space of
    |M|^((order-1)^degree) points; both are checked from the Smith diagonal
    before any element table is built.  `_cocycles` finds every cocycle,
    the coboundaries are listed from every (degree-1)-cochain, and the
    invariants follow from counting.  This is the second independent
    verification path next to the cyclic oracle.
    """
    if degree < 0 or degree > 2:
        raise ValueError("enumeration oracle supports degrees 0..2")
    smith = smith_normal_form(m.relations)
    diag = smith.diagonal()
    if 0 in diag:
        raise ValidationError(["module is infinite; the enumeration oracle needs finite coefficients"])
    size = math.prod(diag)
    if size > ENUMERATION_LIMIT:
        raise BudgetExceeded(f"module has more than {ENUMERATION_LIMIT} elements")
    n_slots = (group.order - 1) ** degree
    if size**n_slots > ENUMERATION_LIMIT:
        raise BudgetExceeded(f"{size}^{n_slots} cochains exceed the limit {ENUMERATION_LIMIT}")
    fm = _FiniteModule(m, smith)
    cocycles = _cocycles(group, fm, degree)
    if degree == 0:
        coboundaries = {(0,)}
    else:
        down = _faces(group, fm, degree - 1)
        coboundaries = {
            tuple(fm.total(faces, low) for faces in down)
            for low in itertools.product(range(size), repeat=(group.order - 1) ** (degree - 1))
        }

    def vec_scale(k, cochain):
        return tuple(fm.scale(k, x) for x in cochain)

    order = len(cocycles) // len(coboundaries)
    if order * len(coboundaries) != len(cocycles):
        raise ExactnessViolation("coboundaries do not divide cocycles")
    if order == 1:
        return AbelianInvariants(0)

    # invariants from the counting function N(k) = #{z : k*z is a coboundary}
    def count(k: int) -> int:
        c = sum(1 for z in cocycles if vec_scale(k, z) in coboundaries)
        if c % len(coboundaries):
            raise ExactnessViolation("order counting is inconsistent")
        return c // len(coboundaries)

    primes = []
    x = order
    p = 2
    while p * p <= x:
        if x % p == 0:
            primes.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        primes.append(x)

    # For H = (+) Z/e_i, count(p^s) = prod_i p^min(s, v_p(e_i)); hence
    # log_p(count(p^s)/count(p^(s-1))) counts the factors with v_p >= s.
    per_prime = {}
    for p in primes:
        at_least = []
        prev = 1
        s = 1
        while True:
            cur = count(p**s)
            num = cur // prev
            k = 0
            while num > 1:
                num //= p
                k += 1
            if k == 0:
                break
            at_least.append(k)
            prev = cur
            s += 1
        powers = []
        for s in range(len(at_least), 0, -1):
            exactly = at_least[s - 1] - (at_least[s] if s < len(at_least) else 0)
            powers.extend([p**s] * exactly)
        per_prime[p] = sorted(powers, reverse=True)

    length = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for pos in range(length):
        d = 1
        for vals in per_prime.values():
            if pos < len(vals):
                d *= vals[pos]
        chain.append(d)
    return AbelianInvariants(0, sorted(chain))
