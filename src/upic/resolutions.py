"""Certified free Z[G]-resolutions, built level by level as degrees are asked.

A resolution ... -> F_1 -> F_0 = Z[G] -> Z is held as the ranks r_p and,
for each free generator of F_p, its boundary as a Z[G]-combination
{(j, g): c} of the generators e_j of F_(p-1), the form that
`cohomology.hom_differential` reads.  `small_resolution` gives a group its
default resolution, kept on the group and grown as degrees are asked.

Every route grows the same way (`_Resolution`).  d_0 is the augmentation
F_0 -> Z.  A new level's d_p is built on the Z-bases {g e_j}
(`z_boundary`), so it is a G-map by construction and d_(p-1) d_p = 0 is
checked on the generator columns only; then the route's exactness check
runs, and only a certified level is kept.  A route supplies nothing else:
its generators of F_p and that check.

* Greedy (`SmallResolution`: the trivial group and every nonabelian one
  that is not dihedral: A4, Q8, S4, ...).
  F_p is generated greedily from the Hermite basis of ker d_(p-1)
  (`_choose_generators`), and the image of d_p must hold that basis.
  That check cannot fail: `_exact` adds the same `z_boundary` columns,
  in the same order, that the chooser added to its own span while it put
  every basis vector in it.  So this route's exactness rests on
  `cycle_lattice` alone; a contracting homotopy, as the other routes
  have, would certify it independently.
  RESOLUTION_BUILD_LIMIT bounds the lattice whose kernel is taken.
* Constructed (`AbelianResolution`: a nontrivial abelian group).  The
  group is a product <t_1> x ... x <t_k> of cyclic groups of orders
  d_1 | ... | d_k (`factor_basis`: a cyclic group's coordinates are
  read off a generator, any other's off a Smith form).  A cyclic factor
  has the periodic resolution ... -N-> Z[C] -(t-1)-> Z[C] -> Z, and the
  group has their tensor product (Brown, Cohomology of Groups, GTM 87,
  I.6 and V.1): F_n is free on the compositions p of n into k parts, so
  r_n = C(n+k-1, k-1), and

      d e_p = sum over i with p_i > 0 of (-1)^(p_1+...+p_(i-1)) delta_i e_(p-u_i),

  with delta_i = t_i - 1 for p_i odd and N_i = 1 + t_i + ... + t_i^(d_i-1)
  for p_i even.  Exactness is certified with no kernel step:
  d_(n+1) h_n + h_(n-1) d_n = 1 on the Z-basis {g e_p}, with
  h_(-1) = eta: Z -> F_0, for a Z-linear contracting homotopy h (as in
  Ellis's HAP, J. Symbolic Comput. 38, 2004).  On a cyclic factor, for
  p even, h(t^a e_p) is the shorter of (1 + t + ... + t^(a-1)) e_(p+1),
  taken for a <= floor(d/2), and -(t^a + ... + t^(d-1)) e_(p+1), taken
  above it (the two differ by N e_(p+1)); for p odd it is then
  [a = floor(d/2)] e_(p+1).  On a product, H = h (x) 1 + eta eps (x) h'.
  The identity on F_n gives exactness there: a cycle x is d(h x).  A
  factor basis that is not a group isomorphism fails the certificate.
* Twisted (`DihedralResolution`: D_m = C_m x| C_2 with m >= 3, that is,
  an element s of order m = |G|/2 and an involution t outside <s> with
  t s t = s^-1, found by `dihedral_basis`).  x = t^b s^a has coordinates
  (b, a), with factor orders (2, m); F_n is free on e_(p,q), p + q = n,
  so r_n = n + 1, and

      d e_(p,q) = (eps_q t u_q + sigma_p) e_(p-1,q) + (-1)^p D_q e_(p,q-1),

  with sigma_p = -1 for p odd and +1 for p even, D_q = s - 1 for q odd
  and N_s = 1 + s + ... + s^(m-1) for q even, and (eps_q, u_q) = (1, 1),
  (-1, s^-1), (-1, 1), (1, s^-1) for q = 0, 1, 2, 3 mod 4: the chain
  involution of C_m's resolution over conjugation by t.  It is Wall's
  resolution of the split extension (Wall, Proc. Cambridge Philos. Soc.
  57, 1961) with no perturbation terms, as the twist is an involution on
  the nose.  The homotopy is Phi H Phi, H the abelian route's on the
  coordinates (b, a) and Phi the signed permutation of each Z-basis that
  fixes s^a e_(p,q) and sends t s^a e_(p,q) to eps_q t s^-a u_q e_(p,q):
  Phi^2 = 1 and Phi d_plain Phi = d for the untwisted d_plain of
  C_2 x C_m, so d h + h d = 1 is certified on the full Z-basis as there.
"""

from __future__ import annotations

import itertools
import math
import threading

from .errors import BudgetExceeded, ExactnessViolation
from .groups import ORDER_CAP, FiniteGroup
from .intmatrix import IntMatrix, LatticeSpan, SparseCols, cycle_lattice, smith_normal_form

# Largest Z-rank r_(p-1)*|G| of F_(p-1) whose kernel the greedy route takes
# to build F_p (abelian groups take no kernel step).  On pure Python (2-vCPU
# Xeon) C2^2 x A4 to F_4 (1104) took 0.6 s and S4 x C2 to F_4 (576) 4-5 s,
# but S4 to F_5 (192) 13 s, nearly all in the dense Hermite form of its
# kernel: the time follows the kernel's density, not this rank.  F_3, all
# that brauer_a needs, stays under 800 for the groups of order up to
# ORDER_CAP that were tried.
RESOLUTION_BUILD_LIMIT = 24 * ORDER_CAP

# Serializes _Resolution._extend: a resolution is shared through its group,
# and two threads extending it at once would both append the same level.
# Held here rather than on the resolution, which stays picklable with its group.
_EXTEND_LOCK = threading.Lock()


def z_boundary(group: FiniteGroup, gens: list, rows: int) -> SparseCols:
    """d_p on the Z-bases {g e_j}: column i*|G| + h is h times the boundary of generator i."""
    n = group.order
    entries = []
    for bd in gens:
        terms = [(j * n, g, c) for (j, g), c in bd.items()]
        for row in group.table:
            entries.append({base + row[g]: c for base, g, c in terms})
    return SparseCols.of(rows, entries)


class _Resolution:
    """A free Z[G]-resolution that grows one certified level at a time.

    `boundaries[p]` holds the boundaries of the generators of F_p (None
    for F_0), and `_d_top` is d of the top level kept, on the Z-bases.  A
    route supplies `_level(p, d_below)`, the generators of F_p with a
    witness for its check, and `_exact(p, d_below, d_at, witness)`, which
    raises ExactnessViolation unless the resolution is exact at F_(p-1).
    """

    __slots__ = ("group", "boundaries", "_d_top")

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.boundaries = [None]
        self._d_top = SparseCols.of(1, [{0: 1} for _ in range(group.order)])  # the augmentation F_0 -> Z

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
                gens, witness = self._level(p, d_below)
                d_at = z_boundary(self.group, gens, d_below.cols)
                # d_p is a G-map by construction (column i*|G| + g is g times
                # column i*|G| + e), so d d vanishes once it does on the generators
                on_gens = SparseCols.of(d_at.rows, d_at.entries[self.group.identity :: self.group.order])
                if any(d_below.compose(on_gens).entries):
                    raise ExactnessViolation(f"the resolution's boundaries do not compose to zero at F_{p}")
                self._exact(p, d_below, d_at, witness)
                self.boundaries.append(gens)
                self._d_top = d_at


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


class SmallResolution(_Resolution):
    """A free Z[G]-resolution with few generators per degree, generated greedily from each kernel."""

    __slots__ = ()

    def _level(self, p: int, d_below: SparseCols):
        if d_below.cols > RESOLUTION_BUILD_LIMIT:
            raise BudgetExceeded(
                f"F_{p} of the resolution needs a kernel in rank {d_below.cols}, over the limit {RESOLUTION_BUILD_LIMIT}"
            )
        basis = cycle_lattice(d_below, IntMatrix.zeros(d_below.rows, 0)).columns()
        kernel = [{r: x for r, x in enumerate(col) if x} for col in basis]
        return _choose_generators(self.group, kernel, d_below.cols), kernel

    def _exact(self, p: int, d_below: SparseCols, d_at: SparseCols, kernel: list):
        """The image of d_p holds every basis vector of ker d_(p-1): a check that cannot fail (module docstring)."""
        image = LatticeSpan()
        for col in d_at.entries:
            image.add(col)
        if not all(image.contains(v) for v in kernel):
            raise ExactnessViolation(f"the image of F_{p} is a proper sublattice of the kernel below it")


def factor_basis(group: FiniteGroup):
    """Invariant factors d_1 | ... | d_k > 1 of an abelian group, and each element's coordinates.

    Element x has coordinates (a_1, .., a_k), 0 <= a_i < d_i, meaning
    x = t_1^a_1 ... t_k^a_k.  A cyclic group has k = 1: t_1 is
    `group.cyclic_generator()`, and t_1^a has coordinates (a,).  Otherwise
    they come from the Smith form U R V = D of the Schreier relations R of
    `group.generators()`: a column w(s x) - w(x) - u_s for each generator s
    and element x, where w(x) is the exponent vector of x's breadth-first
    word.  Then x has coordinates U w(x) mod D, less the rows where D is 1.
    """
    t = group.cyclic_generator()
    if t is not None:
        coords = [None] * group.order
        x = group.identity
        for a in range(group.order):
            coords[x] = (a,)
            x = group.table[t][x]
        return [group.order], coords
    gens = group.generators()
    word = {group.identity: (0,) * len(gens)}
    for y, i, x in group.breadth_first_words(gens):
        w = word[x]
        word[y] = w[:i] + (w[i] + 1,) + w[i + 1 :]
    relations = set()
    for x, w in word.items():
        for i, s in enumerate(gens):
            col = [a - b for a, b in zip(word[group.table[s][x]], w)]
            col[i] -= 1
            relations.add(tuple(col))
    smith = smith_normal_form(IntMatrix.from_columns(len(gens), sorted(relations)))
    diag = smith.diagonal()
    keep = [(smith.u.data[r], d) for r, d in enumerate(diag) if d != 1]
    # tuples from lists, not generators (see AbelianInvariants.__init__)
    coords = [tuple([sum(c * a for c, a in zip(u, word[x])) % d for u, d in keep]) for x in range(group.order)]
    return [d for _, d in keep], coords


def _compositions(n: int, k: int) -> list:
    """The compositions of n into k >= 1 parts, in lexicographic order."""
    if k == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n + 1) for rest in _compositions(n - a, k - 1)]


class AbelianResolution(_Resolution):
    """The tensor product of the periodic resolutions of an abelian group's cyclic factors.

    The ranks are known in closed form.  Both tables below are built once,
    with the check that the coordinates number the group's elements:
    `_powers[i][a]` is t_i^a (so `_powers[0][0]` is the element with
    coordinates 0), and `_terms[i][x]` is what factor i's homotopy reads at
    x, for y = x with a_1 .. a_i set to 0: the sign and the elements of the
    shorter of sum_(b<a_i) t_i^b y and -sum_(b>=a_i) t_i^b y, and y itself
    if a_i = floor(d_i/2), else None.  `_h_top` keeps the contracting
    homotopy h_(p-1) of the top level p kept (h_(-1) = eta at the start).
    `basis` is (orders, coordinates) as `factor_basis` gives them, which
    it defaults to.
    """

    __slots__ = ("orders", "coords", "_powers", "_terms", "_h_top")

    def __init__(self, group: FiniteGroup, basis: tuple | None = None):
        super().__init__(group)
        self.orders, self.coords = orders, coords = basis or factor_basis(group)
        n = group.order
        # the elements in the lexicographic order of their coordinates; the last moves fastest
        element = dict(zip(coords, range(n)))
        elements = [element.get(a) for a in itertools.product(*map(range, orders))]
        if len(elements) != n or None in elements:
            raise ExactnessViolation("the factor coordinates do not number the group's elements")
        self._powers, self._terms = [], []
        for i, d in enumerate(orders):
            # the elements with a_i = a and later coordinates those of tail sit at head * span + a * step + tail
            step = math.prod(orders[i + 1 :])
            span, half = d * step, d // 2
            self._powers.append(elements[0:span:step])
            terms = [None] * n
            for tail in range(step):
                line = elements[tail:span:step]
                for a in range(d):
                    run = (1, line[:a]) if a <= half else (-1, line[a:])
                    term = (*run, line[0] if a == half else None)
                    for x in elements[a * step + tail :: span]:
                        terms[x] = term
            self._terms.append(terms)
        self._h_top = self._homotopy(-1)

    def rank(self, p: int) -> int:
        return math.comb(p + len(self.orders) - 1, p)

    def _level(self, p: int, d_below: SparseCols):
        return self._generators(p), None

    def _exact(self, p: int, d_below: SparseCols, d_at: SparseCols, witness):
        """d_p h_(p-1) + h_(p-2) d_(p-1) - 1 vanishes on F_(p-1), summed column by column."""
        h_at = self._homotopy(p - 1)
        d_cols, h_cols = d_at.entries, self._h_top.entries
        for c, (h_col, d_col) in enumerate(zip(h_at.entries, d_below.entries)):
            acc = {c: -1}
            for mid, v in h_col.items():
                for r, w in d_cols[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
            for mid, v in d_col.items():
                for r, w in h_cols[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                raise ExactnessViolation(f"the contracting homotopy fails on F_{p - 1}")
        self._h_top = h_at

    def _generators(self, p: int) -> list:
        """The boundaries of the generators of F_p, one per composition of p."""
        k = len(self.orders)
        powers = self._powers
        e = powers[0][0]
        below = {q: j for j, q in enumerate(_compositions(p - 1, k))}
        out = []
        for q in _compositions(p, k):
            bd = {}
            sign = 1
            for i, qi in enumerate(q):
                if qi:
                    j = below[q[:i] + (qi - 1,) + q[i + 1 :]]
                    if qi % 2:
                        bd[(j, powers[i][1])] = sign
                        bd[(j, e)] = -sign
                        sign = -sign
                    else:
                        for g in powers[i]:
                            bd[(j, g)] = sign
            out.append(bd)
        return out

    def _homotopy(self, p: int) -> SparseCols:
        """h_p: F_p -> F_(p+1) on the Z-bases, and h_(-1) = eta: Z -> F_0."""
        n, k = self.group.order, len(self.orders)
        if p < 0:
            return SparseCols.of(n, [{self._powers[0][0]: 1}])
        above = {q: j for j, q in enumerate(_compositions(p + 1, k))}
        comps = _compositions(p, k)
        out = SparseCols(len(above) * n, len(comps) * n)
        for j, q in enumerate(comps):
            # the term eta eps (x) .. (x) eta eps (x) h (x) 1 .. (x) 1 with h on factor i
            # needs q_1 = .. = q_(i-1) = 0, and sends a_1 .. a_(i-1) to 0
            factors = []
            for i, qi in enumerate(q):
                factors.append((above[q[:i] + (qi + 1,) + q[i + 1 :]] * n, qi % 2, self._terms[i]))
                if qi:
                    break
            for x, col in enumerate(out.entries[j * n : (j + 1) * n]):
                for row, odd, terms in factors:
                    sign, run, hit = terms[x]
                    if not odd:
                        for g in run:
                            col[row + g] = sign
                    elif hit is not None:
                        col[row + hit] = 1
        return out


# (eps_q, k) for q = 0, 1, 2, 3 mod 4: in a dihedral group's boundaries the C_2
# factor's t acts on degree q of the C_m factor as eps_q t u_q, with u_q = s^-k
_TWIST = ((1, 0), (-1, 1), (-1, 0), (1, 1))


def dihedral_basis(group: FiniteGroup):
    """(rotations, t) for G = D_m, m = |G|/2 >= 3, or None for any other group.

    rotations lists s^0 .. s^(m-1) for an s of order m, and t is an
    involution outside <s> with t s t = s^-1.  The first s of order m
    decides: in D_m with m >= 3 every element of order m is a rotation.
    """
    m, table, e = group.order // 2, group.table, group.identity
    if group.order % 2 or m < 3:
        return None
    s = next((x for x in range(group.order) if group.element_order(x) == m), None)
    if s is None:
        return None
    rotations = [e]
    for _ in range(m - 1):
        rotations.append(table[s][rotations[-1]])
    inside = set(rotations)
    for t in range(group.order):
        if t not in inside and table[t][t] == e and table[table[t][s]][t] == rotations[-1]:
            return rotations, t
    return None


class DihedralResolution(AbelianResolution):
    """The periodic resolutions of C_2 = <t> and C_m = <s> tensored with a twist, for D_m.

    The element tables, the homotopy H and the certificate are the abelian
    route's for C_2 x C_m on the labels (b, a) of x = t^b s^a;
    `_generators` twists t and `_homotopy` conjugates H by Phi (see the
    module docstring).  For q = r mod 4, `_twists[r]` is (eps_q, t u_q) and
    `_flips[r][x]` is Phi on x e_(b,q), as (sign, element).
    """

    __slots__ = ("_twists", "_flips")

    def __init__(self, group: FiniteGroup):
        found = dihedral_basis(group)
        if found is None:
            raise ValueError("not a dihedral group of order 6 or more")
        (rotations, t), m, table = found, group.order // 2, group.table
        coords = [None] * group.order
        for a, x in enumerate(rotations):
            coords[x], coords[table[t][x]] = (0, a), (1, a)
        self._twists = [(eps, table[t][rotations[-k % m]]) for eps, k in _TWIST]
        self._flips = []
        for eps, tu in self._twists:
            flip = [None] * group.order
            for x in rotations:
                flip[x], flip[table[t][x]] = (1, x), (eps, table[x][tu])  # t s^-a u = s^a t u
            self._flips.append(flip)
        super().__init__(group, ([2, m], coords))

    def _generators(self, p: int) -> list:
        """The abelian route's boundaries of e_(b,p-b), with t twisted to eps_q t u_q for q = p - b."""
        t = self._powers[0][1]
        out = super()._generators(p)
        for b, bd in enumerate(out[1:], 1):
            eps, tu = self._twists[(p - b) % 4]
            bd[(b - 1, tu)] = eps * bd.pop((b - 1, t))
        return out

    def _flip(self, p: int) -> list:
        """Phi on the Z-basis of F_p, as (sign, image) for each basis element."""
        n = self.group.order
        return [(sign, b * n + y) for b in range(p + 1) for sign, y in self._flips[(p - b) % 4]]

    def _homotopy(self, p: int) -> SparseCols:
        """Phi H Phi on the Z-bases, H the abelian route's homotopy; h_(-1) = eta is fixed by Phi."""
        h = super()._homotopy(p)
        if p < 0:
            return h
        at, above = self._flip(p), self._flip(p + 1)
        entries = [{above[r][1]: sign * above[r][0] * v for r, v in h.entries[c].items()} for sign, c in at]
        return SparseCols.of(h.rows, entries)


def small_resolution(group: FiniteGroup) -> AbelianResolution | SmallResolution:
    """The group's default resolution, kept on the group and extended as degrees are asked.

    The resolution is built on a twin of the group that holds no resolution,
    so the two form no reference cycle and are freed together, by reference
    counting, as soon as the group is dropped.
    """
    if group._resolution is None:
        if group.order > 1 and group.is_abelian():
            route = AbelianResolution
        else:
            route = SmallResolution if dihedral_basis(group) is None else DihedralResolution
        twin = object.__new__(FiniteGroup)
        for slot in FiniteGroup.__slots__:
            setattr(twin, slot, getattr(group, slot))
        twin._resolution = None
        group._resolution = route(twin)
    return group._resolution
