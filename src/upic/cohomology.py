"""Group cohomology and hypercohomology over free Z[G]-resolutions.

A resolution ... -> F_1 -> F_0 = Z[G] -> Z is held as the ranks r_p and,
for each free generator of F_p, its boundary as a Z[G]-combination
{(j, g): c} of the generators e_j of F_(p-1).  Hom_G(F_p, M) is M^(r_p),
and block (i, j) of the coboundary is the sum of c * rho(g) over the
terms of the boundary of generator i (`hom_differential`).

The default resolution is built only as far as a degree needs (H^n of a
complex starting in degree q0 needs F_0..F_(n+1-q0)), certified exact once
as it grows, and kept on the group.  A nontrivial abelian group gets
`resolutions.AbelianResolution`: periodic per cyclic factor, their tensor
product, certified by a contracting homotopy.  Any other group gets the
greedy `SmallResolution`: each F_p from the kernel below it, certified by
d d = 0 and image = kernel.  `BarResolution` is the normalized bar
resolution, r_p = (|G|-1)^p; its coboundary is the inhomogeneous one,
`cochain_differential`, and tests check both routes against it.

For a bounded complex of coefficients the total complex carries
D = (-1)^q delta + d_coefficient on the (p, q) summand, so for a two-term
complex [A -f-> B> this reads D(alpha, beta) = (delta alpha, f(alpha) -
delta beta).  D*D = 0 is machine-checked on every instance before any
invariant is reported.  Group cohomology is the one-term case: the module
placed in degree 0.

Three limits stop large inputs before the work: DEGREE_LIMIT bounds the
degree HyperTotal is asked for, COCHAIN_RANK_LIMIT the rank of the cochains
it assembles, RESOLUTION_BUILD_LIMIT the lattice whose kernel each new F_p
of the greedy route is taken from; ENUMERATION_LIMIT bounds the
enumeration oracle.  The differentials are sparse columns and reach
`cycle_lattice` in that form.
"""

from __future__ import annotations

import itertools
import math
import threading

from .complexes import BoundedComplex, one_term
from .errors import BudgetExceeded, ExactnessViolation, NotCyclic, ValidationError
from .groups import ORDER_CAP, FiniteGroup
from .intmatrix import (
    AbelianInvariants,
    IntMatrix,
    LatticeSpan,
    SparseCols,
    cycle_lattice,
    in_column_span,
    smith_normal_form,
    subquotient_invariants,
    unimodular_inverse,
)
from .modules import PresentedModule
from .resolutions import AbelianResolution, z_boundary

# Largest degree HyperTotal computes.  Pic and Br_a need H^1 and H^2, and 4
# keeps H^4(C2, Z) in reach.  The other limits grow with the ranks, and a
# cyclic group's resolution has rank 1 in every degree, so only this one
# stops a degree of 10^9; it alone bounds the abelian route (C2^5: r_5 = 126).
DEGREE_LIMIT = 4
# Largest module, counted in elements, and largest cochain space, counted in
# points, the enumeration oracle searches.
ENUMERATION_LIMIT = 1 << 20
# Largest total rank of the degree-(n+1) cochains HyperTotal assembles for
# H^n.  Over the bar resolution brauer_a on J_G needs (|G|-1)^4 and is
# refused from order 16; over the small resolution it stays in the thousands.
COCHAIN_RANK_LIMIT = 1 << 15
# Largest Z-rank r_(p-1)*|G| of F_(p-1) whose kernel the greedy route takes
# to build F_p (abelian groups take no kernel step).  On pure Python (2-vCPU
# Xeon) C2^2 x A4 to F_4 (1104) took 0.6 s and S4 x C2 to F_4 (576) 4-5 s,
# but S4 to F_5 (192) 13 s, nearly all in the dense Hermite form of its
# kernel: the time follows the kernel's density, not this rank.  F_3, all
# that brauer_a needs, stays under 800 for the groups of order up to
# ORDER_CAP that were tried.
RESOLUTION_BUILD_LIMIT = 24 * ORDER_CAP


# Serializes SmallResolution._extend: a resolution is shared through its group,
# and two threads extending it at once would both append the same level.
# Held here rather than on the resolution, which stays picklable with its group.
_EXTEND_LOCK = threading.Lock()


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


def _choose_generators(group: FiniteGroup, kernel: list, rows: int) -> list:
    """Z[G]-generators of a kernel lattice, given by its Hermite basis.

    Sparsest basis vector first, ties to the later pivot (on S4 that gives
    ranks 1, 2, 3, 4 up to F_3 where the earlier pivot gives 1, 3, 6, 12);
    a vector already in the Z-span of the chosen generators' orbits is
    skipped.
    """
    n = group.order
    span = LatticeSpan()
    gens = []
    for k in sorted(range(len(kernel)), key=lambda k: (len(kernel[k]), -k)):
        if not span.contains(kernel[k]):
            gens.append({divmod(r, n): c for r, c in kernel[k].items()})
            for col in z_boundary(group, gens[-1:], rows).entries:
                span.add(col)
    return gens


def _certify(p: int, d_below: SparseCols, d_at: SparseCols, kernel: list):
    """d_(p-1) d_p = 0, and the image of d_p holds every basis vector of ker d_(p-1)."""
    if any(d_below.compose(d_at).entries):
        raise ExactnessViolation(f"the resolution's boundaries do not compose to zero at F_{p}")
    image = LatticeSpan()
    for col in d_at.entries:
        image.add(col)
    if not all(image.contains(v) for v in kernel):
        raise ExactnessViolation(f"the image of F_{p} is a proper sublattice of the kernel below it")


class SmallResolution:
    """A free Z[G]-resolution with few generators per degree, built on demand.

    F_0 = Z[G] with the augmentation.  Each F_p is generated greedily from
    the Hermite basis of ker d_(p-1) (`_choose_generators`), and certified
    before it is kept (`_certify`): the resolution is exact at F_(p-1).
    """

    __slots__ = ("group", "boundaries", "_d_top")

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.boundaries = [None]  # F_0 maps onto Z by the augmentation
        self._d_top = SparseCols(1, group.order)
        self._d_top.entries = [{0: 1} for _ in range(group.order)]

    def rank(self, p: int) -> int:
        self._extend(p)
        return len(self.boundaries[p]) if p else 1

    def boundary(self, p: int) -> list:
        self._extend(p)
        return self.boundaries[p]

    def _extend(self, length: int):
        with _EXTEND_LOCK:
            while len(self.boundaries) <= length:
                p = len(self.boundaries)
                d_below = self._d_top
                if d_below.cols > RESOLUTION_BUILD_LIMIT:
                    raise BudgetExceeded(
                        f"F_{p} of the resolution needs a kernel in rank {d_below.cols},"
                        f" over the limit {RESOLUTION_BUILD_LIMIT}"
                    )
                basis = cycle_lattice(d_below, IntMatrix.zeros(d_below.rows, 0)).columns()
                kernel = [{r: x for r, x in enumerate(col) if x} for col in basis]
                gens = _choose_generators(self.group, kernel, d_below.cols)
                d_at = z_boundary(self.group, gens, d_below.cols)
                _certify(p, d_below, d_at, kernel)
                self.boundaries.append(gens)
                self._d_top = d_at


def small_resolution(group: FiniteGroup) -> AbelianResolution | SmallResolution:
    """The group's default resolution, kept on the group and extended as degrees are asked.

    The resolution is built on a twin of the group that holds no resolution,
    so the two form no reference cycle and are freed together, by reference
    counting, as soon as the group is dropped.
    """
    if group._resolution is None:
        route = AbelianResolution if group.order > 1 and group.is_abelian() else SmallResolution
        twin = object.__new__(FiniteGroup)
        for slot in FiniteGroup.__slots__:
            setattr(twin, slot, getattr(group, slot))
        twin._resolution = None
        group._resolution = route(twin)
    return group._resolution


def hom_differential(
    resolution: BarResolution | SmallResolution | AbelianResolution, m: PresentedModule, p: int
) -> SparseCols:
    """The coboundary Hom_G(F_p, M) = M^(r_p) -> Hom_G(F_(p+1), M) as a sparse matrix.

    Block (i, j) is the sum of c * rho(g) over the terms c g e_j of the
    boundary of generator i of F_(p+1); the identity acts by the identity matrix.
    """
    n = m.gens
    out = SparseCols(n * resolution.rank(p + 1), n * resolution.rank(p))
    if n == 0:
        return out
    ident = IntMatrix.identity(n)
    e = resolution.group.identity
    for i, bd in enumerate(resolution.boundary(p + 1)):
        for (j, g), c in bd.items():
            out.add_block(i * n, j * n, ident if g == e else m.action_of(g), sign=c)
    return out


def cochain_differential(group: FiniteGroup, m: PresentedModule, p: int) -> SparseCols:
    """The degree-p inhomogeneous differential: the coboundary over the bar resolution."""
    return hom_differential(BarResolution(group), m, p)


class HyperTotal:
    """Total complex of Hom_G(F, K) for a resolution F and a bounded complex K.

    Builds the summands Tot^n = (+)_q Hom_G(F_(n-q), K^q) for the degrees
    n0-1, n0, n0+1 needed to read off H^n0, assembles D, and verifies
    D composed with D vanishes modulo the relation lattice.  The resolution
    defaults to the group's small resolution.  A degree over DEGREE_LIMIT
    raises BudgetExceeded before any resolution level is built, and a rank
    of Tot^(n0+1) over COCHAIN_RANK_LIMIT before any differential is
    assembled.
    """

    __slots__ = ("group", "coeffs", "degree", "resolution", "d_below", "d_at", "rel_at", "rel_above")

    def __init__(
        self,
        group: FiniteGroup,
        coeffs: BoundedComplex,
        degree: int,
        resolution: BarResolution | SmallResolution | AbelianResolution | None = None,
    ):
        if degree > DEGREE_LIMIT:
            raise BudgetExceeded(f"degree {degree} is over the limit {DEGREE_LIMIT}")
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        self.resolution = small_resolution(group) if resolution is None else resolution
        _, rank_above = self._offsets(degree + 1)
        if rank_above > COCHAIN_RANK_LIMIT:
            raise BudgetExceeded(
                f"degree {degree + 1} cochains have rank {rank_above}, over the limit {COCHAIN_RANK_LIMIT}"
            )
        self.d_below = self._differential(degree - 1)
        self.d_at = self._differential(degree)
        self.rel_at = self._relations(degree)
        self.rel_above = self._relations(degree + 1)
        self._check_square_zero()

    def _summands(self, n: int) -> list:
        out = []
        for q in self.coeffs.degrees():
            p = n - q
            if p >= 0 and self.coeffs.term(q).gens > 0:
                out.append((q, p))
        return out

    def _offsets(self, n: int):
        offs = {}
        total = 0
        for q, p in self._summands(n):
            offs[(q, p)] = total
            total += self.coeffs.term(q).gens * self.resolution.rank(p)
        return offs, total

    def _relations(self, n: int) -> IntMatrix:
        blocks = [
            IntMatrix.block_diagonal([self.coeffs.term(q).relations] * self.resolution.rank(p))
            for q, p in self._summands(n)
        ]
        if not blocks:
            _, total = self._offsets(n)
            return IntMatrix.zeros(total, 0)
        return IntMatrix.block_diagonal(blocks)

    def _differential(self, n: int) -> SparseCols:
        src_offs, src_total = self._offsets(n)
        tgt_offs, tgt_total = self._offsets(n + 1)
        out = SparseCols(tgt_total, src_total)
        for (q, p), c0 in src_offs.items():
            m = self.coeffs.term(q)
            if (q, p + 1) in tgt_offs:
                d = hom_differential(self.resolution, m, p)
                sign = -1 if q % 2 else 1
                r0 = tgt_offs[(q, p + 1)]
                for c, col in enumerate(d.entries):
                    for r, v in col.items():
                        out.add(r0 + r, c0 + c, sign * v)
            if (q + 1, p) in tgt_offs:
                f = self.coeffs.differential(q).matrix
                r0 = tgt_offs[(q + 1, p)]
                nt = self.coeffs.term(q + 1).gens
                for s in range(self.resolution.rank(p)):
                    out.add_block(r0 + s * nt, c0 + s * m.gens, f)
        return out

    def _check_square_zero(self):
        square = self.d_at.compose(self.d_below)
        if not in_column_span(self.rel_above, [square.column(c) for c, col in enumerate(square.entries) if col]):
            raise ExactnessViolation("total differential does not square to zero")

    def cohomology(self) -> AbelianInvariants:
        _, n_at = self._offsets(self.degree)
        if n_at == 0:
            return AbelianInvariants(0)
        cycles = cycle_lattice(self.d_at, self.rel_above)
        return subquotient_invariants(cycles, self.d_below.to_dense().hstack(self.rel_at))


def hypercohomology(group: FiniteGroup, coeffs: BoundedComplex, degree: int) -> AbelianInvariants:
    """H^degree of the group valued in a bounded complex of modules."""
    if degree < min(coeffs.degrees(), default=0):
        return AbelianInvariants(0)
    return HyperTotal(group, coeffs, degree).cohomology()


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
