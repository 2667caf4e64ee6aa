"""Bounded cochain complexes of presented modules.

Sign conventions, fixed once here and relied on everywhere:

* shift: (C[k])^i = C^(i+k) with differential (-1)^k d;
* cone of f: P -> Q: term^i = P^(i+1) (+) Q^i, d(p, q) = (-d_P p, d_Q q - f p),
  so for modules placed in degree 0 the cone is P --(-f)--> Q with Q in
  degree 0;
* fibre(f) = cone(f)[-1], so for modules it is P --(+f)--> Q with P in
  degree 0 (the two_term constructor);
* the termwise dual of a torsion-free complex uses the plain transpose in
  every degree (no alternating sign): d^2 = 0 is automatic and the double
  dual returns the original complex on the nose.

Direct-sum terms always put the shifted source part first; the resolution
algorithm depends on that ordering.

`shift`, `trim` and `cone` build their output unchecked: it is valid when
their input is (see `cone`).  Whether H^i = 0 is one membership test with
no Smith form (`_cohomology_vanishes`); the invariants of H^i are read
off the subquotient presentation that `cohomology` returns
(`cohomology_invariants`).

A complex of lattices on a basis (no term has relation columns) is its
own torsion-free resolution, and `resolve_torsion_free` returns the
identity for it.  Any other complex is covered and coned, and certified
once, at the end; the one final step adjoins the kernel lattice at the
lowest degree when that term is a lattice on a basis, else one below.
"""

from __future__ import annotations

from .errors import (
    ExactnessViolation,
    HasTorsion,
    NotExact,
    PreconditionH0,
    ValidationError,
)
from .groups import FiniteGroup
from .intmatrix import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    cycle_lattice,
    in_column_span,
    smith_normal_form,
    solve_integer,
    subquotient_relations,
    unimodular_inverse,
)
from .modules import (
    ModuleMap,
    PresentedModule,
    add_relations,
    direct_sum,
    direct_sum_many,
    dual_lattice,
    free_module,
    induced_module,
    lattice_form,
    zero_module,
)


class BoundedComplex:
    __slots__ = ("group", "lowest_degree", "terms", "differentials")

    def __init__(self, group: FiniteGroup, lowest_degree: int, terms, differentials, check: bool = True):
        terms = tuple(terms)
        differentials = tuple(differentials)
        if terms and len(differentials) != len(terms) - 1:
            raise ValidationError(["need exactly one differential between consecutive terms"])
        if not terms and differentials:
            raise ValidationError(["empty complex cannot carry differentials"])
        self.group = group
        self.lowest_degree = lowest_degree
        self.terms = terms
        self.differentials = differentials
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError(problems)

    @property
    def highest_degree(self) -> int:
        return self.lowest_degree + len(self.terms) - 1

    def degrees(self):
        return range(self.lowest_degree, self.lowest_degree + len(self.terms))

    def term(self, i: int) -> PresentedModule:
        if self.lowest_degree <= i <= self.highest_degree:
            return self.terms[i - self.lowest_degree]
        return zero_module(self.group)

    def differential(self, i: int) -> ModuleMap:
        if self.lowest_degree <= i < self.highest_degree:
            return self.differentials[i - self.lowest_degree]
        return ModuleMap.zero(self.term(i), self.term(i + 1))

    def validate(self) -> list:
        out = []
        for idx, d in enumerate(self.differentials):
            if not d._connects(self.terms[idx], self.terms[idx + 1]):
                out.append(f"differential {idx} does not connect consecutive terms")
            out.extend(f"differential at degree {self.lowest_degree + idx}: {v}" for v in d.validate())
        for idx in range(len(self.differentials) - 1):
            comp = self.differentials[idx + 1].matrix.mul(self.differentials[idx].matrix)
            if not self.terms[idx + 2].contains_columns(comp):
                out.append(f"d*d is nonzero from degree {self.lowest_degree + idx}")
        return out

    def trim(self) -> "BoundedComplex":
        """Drop zero-rank terms at both ends (bookkeeping-only change)."""
        lo, hi = 0, len(self.terms)
        while lo < hi and self.terms[lo].gens == 0:
            lo += 1
        while hi > lo and self.terms[hi - 1].gens == 0:
            hi -= 1
        if lo == 0 and hi == len(self.terms):
            return self
        return BoundedComplex(
            self.group,
            self.lowest_degree + lo,
            self.terms[lo:hi],
            self.differentials[lo : max(hi - 1, lo)],
            check=False,
        )

    def structurally_equal(self, other: "BoundedComplex") -> bool:
        a, b = self.trim(), other.trim()
        if a.group != b.group:
            return False
        if not a.terms and not b.terms:
            return True
        if a.lowest_degree != b.lowest_degree or len(a.terms) != len(b.terms):
            return False
        for s, t in zip(a.terms, b.terms):
            if s.gens != t.gens or s.relations != t.relations or s.action != t.action:
                return False
        return all(d.matrix == e.matrix for d, e in zip(a.differentials, b.differentials))

    def __repr__(self):
        ranks = ",".join(str(t.gens) for t in self.terms)
        return f"BoundedComplex(degrees {self.lowest_degree}..{self.highest_degree}, ranks [{ranks}])"


def one_term(m: PresentedModule, degree: int) -> BoundedComplex:
    return BoundedComplex(m.group, degree, [m], [], check=False)


def zero_complex(group: FiniteGroup) -> BoundedComplex:
    return BoundedComplex(group, 0, [], [], check=False)


def two_term(f: ModuleMap) -> BoundedComplex:
    """The fibre-convention complex [source -> target> in degrees 0 and 1."""
    return BoundedComplex(f.source.group, 0, [f.source, f.target], [f])


class ComplexMap:
    """Degreewise module maps commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: BoundedComplex, target: BoundedComplex, components, check: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        for i, c in self.components.items():
            if c.source.gens != source.term(i).gens or c.target.gens != target.term(i).gens:
                raise ValidationError([f"component at degree {i} has the wrong shape"])
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError(problems)

    def component(self, i: int) -> ModuleMap:
        c = self.components.get(i)
        if c is not None:
            return c
        return ModuleMap.zero(self.source.term(i), self.target.term(i))

    def validate(self) -> list:
        out = []
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for i in sorted(degs):
            out.extend(f"component {i}: {v}" for v in self.component(i).validate())
            lhs = self.target.differential(i).matrix.mul(self.component(i).matrix)
            rhs = self.component(i + 1).matrix.mul(self.source.differential(i).matrix)
            if not self.target.term(i + 1).matrix_congruent(lhs, rhs):
                out.append(f"square at degree {i} does not commute")
        return out

    @classmethod
    def zero(cls, source: BoundedComplex, target: BoundedComplex) -> "ComplexMap":
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, c: BoundedComplex) -> "ComplexMap":
        return cls(c, c, {i: ModuleMap.identity(c.term(i)) for i in c.degrees()}, check=False)


def shift(c: BoundedComplex, k: int) -> BoundedComplex:
    """(C[k])^i = C^(i+k); differentials pick up (-1)^k."""
    if not c.terms:
        return c
    diffs = c.differentials if k % 2 == 0 else tuple(d.neg() for d in c.differentials)
    return BoundedComplex(c.group, c.lowest_degree - k, c.terms, diffs, check=False)


def cone(phi: ComplexMap) -> BoundedComplex:
    """Mapping cone: term^i = source^(i+1) (+) target^i (source part first).

    Built unchecked, so the caller must pass a valid chain map f: P -> Q
    between valid complexes: P and Q validated, and f validated or made by
    `ComplexMap.zero`/`identity`.  Then the differential D(p, q) = (-d_P p,
    d_Q q - f p) has D^2(p, q) = (d_P^2 p, d_Q^2 q - d_Q f p + f d_P p) = 0
    by d_P^2 = 0, d_Q^2 = 0 and d_Q f = f d_P, all modulo relations; D is
    equivariant and keeps relations because its blocks do.  On any other
    input D^2 may be nonzero, and `is_acyclic` of the result means nothing.
    """
    s, t = phi.source, phi.target
    group = t.group
    if not s.terms and not t.terms:
        return zero_complex(group)
    lo = min(s.lowest_degree - 1, t.lowest_degree)
    hi = max(s.highest_degree - 1, t.highest_degree)
    terms = [direct_sum(s.term(i + 1), t.term(i)) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        tsrc = t.term(i)
        stgt = s.term(i + 2)
        top = s.differential(i + 1).matrix.neg().hstack(IntMatrix.zeros(stgt.gens, tsrc.gens))
        bottom = phi.component(i + 1).matrix.neg().hstack(t.differential(i).matrix)
        diffs.append(ModuleMap(terms[i - lo], terms[i - lo + 1], top.vstack(bottom)))
    return BoundedComplex(group, lo, terms, diffs, check=False)


def fibre(phi: ComplexMap) -> BoundedComplex:
    """cone(phi) shifted down one degree; the caller's obligation is the one `cone` states."""
    return shift(cone(phi), -1)


def cohomology(c: BoundedComplex, i: int):
    """ker(d_i)/im(d_{i-1}) inside the degree-i presentation.

    Returns (cycles, relations) with H^i = Z^cycles.cols / span(relations):
    the cycle columns are ambient vectors, the relations are in cycle
    coordinates.  Relations of the degree-i term are folded into the
    boundaries; the cycle lattice accounts for the relations of the
    degree-(i+1) term.
    """
    m = c.term(i)
    if m.gens == 0:
        return IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)
    cycles = cycle_lattice(c.differential(i).matrix, c.term(i + 1).relations)
    boundaries = c.differential(i - 1).matrix.hstack(m.relations)
    return cycles, subquotient_relations(cycles, boundaries)


def cohomology_invariants(c: BoundedComplex, i: int) -> AbelianInvariants:
    """Invariants of H^i(c), read off the presentation `cohomology` returns.

    Callers: the torus comparison, whose degree-0 terms may have torsion,
    and `is_quasi_iso`; on `homspace.upic_complex` it is the tested
    reference for `homspace.upic_dual`'s own formula.
    """
    return cokernel_invariants(cohomology(c, i)[1])


def _cohomology_vanishes(c: BoundedComplex, i: int) -> bool:
    """H^i(c) = 0: every cycle lies in the span of the boundaries and the degree-i relations."""
    if c.term(i).gens == 0:
        return True
    cycles = cycle_lattice(c.differential(i).matrix, c.term(i + 1).relations)
    return in_column_span(c.differential(i - 1).matrix.hstack(c.term(i).relations), zip(*cycles.data))


def is_acyclic(c: BoundedComplex) -> bool:
    return all(_cohomology_vanishes(c, i) for i in c.degrees())


def is_quasi_iso(phi: ComplexMap):
    """Quasi-isomorphism test: phi is one exactly when its cone is acyclic.

    Returns (verdict, report): the report holds the invariants of the
    cone's cohomology in the degrees where it does not vanish only, so it
    is empty when the verdict is True and a passing test costs no Smith form.
    """
    cn = cone(phi)
    report = {i: cohomology_invariants(cn, i) for i in cn.degrees() if not _cohomology_vanishes(cn, i)}
    return not report, report


class TwoTermSES:
    """Short exact sequence 0 -> A -> B -> C -> 0 of two-term complexes,
    with A concentrated in degree 1."""

    __slots__ = ("sub", "quot")

    def __init__(self, sub: ComplexMap, quot: ComplexMap):
        if sub.target is not quot.source and not sub.target.structurally_equal(quot.source):
            raise ValidationError(["middle complexes of the sequence disagree"])
        self.sub = sub
        self.quot = quot

    @property
    def a_module(self) -> PresentedModule:
        return self.sub.source.term(1)

    def check_exact(self) -> list:
        out = []
        a, b, c = self.sub.source, self.sub.target, self.quot.target
        if a.term(0).gens != 0:
            out.append("the subcomplex must vanish in degree 0")
        mu1 = self.sub.component(1)
        nu0, nu1 = self.quot.component(0), self.quot.component(1)
        if not nu0.is_injective() or not nu0.is_surjective():
            out.append("degree 0: the quotient map is not an isomorphism")
        if not mu1.is_injective():
            out.append("degree 1: the inclusion is not injective")
        if not nu1.is_surjective():
            out.append("degree 1: the quotient map is not surjective")
        comp = nu1.compose(mu1)
        if not comp.is_zero_map():
            out.append("degree 1: quotient after inclusion is nonzero")
        ker = nu1.kernel_lattice()
        wide = mu1.matrix.hstack(b.term(1).relations)
        if not in_column_span(wide, zip(*ker.data)):
            out.append("degree 1: kernel of the quotient map exceeds the image of the inclusion")
        return out


class CollapseResult:
    __slots__ = ("collapsed", "eps", "lam", "sigma")

    def __init__(self, collapsed, eps, lam, sigma):
        self.collapsed = collapsed
        self.eps = eps
        self.lam = lam
        self.sigma = sigma


def collapse(ses: TwoTermSES) -> CollapseResult:
    """Replace the middle complex of the sequence by [A^1 -> H^1(B)>.

    Requires H^0(B) = 0.  Returns the collapsed two-term complex together
    with the zig-zag witnesses eps: cone(A->B) -> collapsed and
    lam: cone(A->B) -> C, both verified quasi-isomorphisms.
    """
    problems = ses.check_exact()
    if problems:
        raise NotExact("; ".join(problems))
    b = ses.sub.target
    if not _cohomology_vanishes(b, 0):
        raise PreconditionH0("H^0 of the middle complex does not vanish")

    a1 = ses.a_module
    h1b = add_relations(b.term(1), b.differential(0).matrix)
    sigma = ModuleMap(a1, h1b, ses.sub.component(1).matrix.neg())
    collapsed = two_term(sigma)

    cn = cone(ses.sub)  # degree 0: A^1 (+) B^0, degree 1: B^1
    eps0 = ModuleMap(
        cn.term(0), a1, IntMatrix.identity(a1.gens).hstack(IntMatrix.zeros(a1.gens, b.term(0).gens))
    )
    eps1 = ModuleMap(cn.term(1), h1b, IntMatrix.identity(b.term(1).gens))
    eps = ComplexMap(cn, collapsed, {0: eps0, 1: eps1})

    c = ses.quot.target
    lam0 = ModuleMap(
        cn.term(0),
        c.term(0),
        IntMatrix.zeros(c.term(0).gens, a1.gens).hstack(ses.quot.component(0).matrix),
    )
    lam1 = ModuleMap(cn.term(1), c.term(1), ses.quot.component(1).matrix)
    lam = ComplexMap(cn, c, {0: lam0, 1: lam1})

    ok_eps, rep_eps = is_quasi_iso(eps)
    ok_lam, rep_lam = is_quasi_iso(lam)
    if not ok_eps or not ok_lam:
        raise ExactnessViolation(f"collapse witnesses failed: eps={rep_eps}, lam={rep_lam}")
    return CollapseResult(collapsed, eps, lam, sigma)


def _canonical_class_generators(c: BoundedComplex, i: int) -> list:
    """Ambient vectors generating H^i(c), from the Smith form of its relations."""
    cycles, relations = cohomology(c, i)
    if cycles.cols == 0:
        return []
    s = smith_normal_form(relations)
    u_inv = unimodular_inverse(s.u)
    return [cycles.apply(u_inv.column(idx)) for idx, d in enumerate(s.diagonal()) if d != 1]


def _kernel_lattice_module(bottom: PresentedModule, basis: IntMatrix) -> PresentedModule:
    """The action of `bottom` restricted to the lattice spanned by the columns of `basis`.

    X_g solves basis * X_g == rho(g) * basis for every element g, uniquely:
    the columns are independent.
    """
    action = []
    for rho in bottom.action:
        cols = [solve_integer(basis, col) for col in rho.mul(basis).columns()]
        if None in cols:
            raise ExactnessViolation("kernel lattice is not action-stable")
        action.append(IntMatrix.from_columns(basis.cols, cols))
    return free_module(bottom.group, action)


def resolve_torsion_free(y: BoundedComplex) -> ComplexMap:
    """Torsion-free resolution psi: M -> Y, a verified quasi-isomorphism.

    When no term of Y has relation columns, every term is a lattice on a
    basis and M is Y itself (trimmed, with the same term objects): psi is
    the identity, a quasi-isomorphism by definition, and nothing is built
    or certified.  Y was validated where it was built.  A lattice
    presented with relation columns, even zero ones, takes the route below.

    Otherwise, working from the top degree down, generators of H^t of the
    current complex are lifted to cocycles and covered by permutation
    modules on their stabilizer cosets; each cover is attached with a
    mapping cone.  One final step adjoins the kernel lattice at the lowest
    degree when that term is a lattice on a basis (no relation columns),
    else one below.  After the covers H^j = 0 above that degree; the kernel
    lattice kills H^j there, and it embeds in a relation-free term, so it is
    torsion free and nothing appears below it.  The terms of M are the
    attached modules; its differentials and the components of psi are read
    off the attaching maps.  For [A -> B] with A a lattice, M is the fibre
    product [A x_B P -> P] of a permutation cover P of B.

    The stages are unchecked scaffolding; the result is certified once:
    M and psi are validated, every term of M is torsion free and cone(psi)
    is acyclic, which covers every attaching matrix M and psi are read off.
    """
    group = y.group
    yt = y.trim()
    if not any(term.relations.cols for term in yt.terms):
        return ComplexMap(yt, y, {i: ModuleMap.identity(yt.term(i)) for i in yt.degrees()}, check=False)
    lo, hi = yt.lowest_degree, yt.highest_degree
    stop = lo if not yt.terms[0].relations.cols else lo - 1

    current = y
    m_terms = {}
    m_diff_blocks = {}
    psi_blocks = {}
    for t in range(hi, stop, -1):
        mod = current.term(t)  # M^(t+1) (+) Y^t, the source part first
        pieces, cols = [], []
        for vec in _canonical_class_generators(current, t):
            stab = mod.stabilizer(vec)
            pieces.append(induced_module(group, stab))
            cols.extend(mod.action_of(coset[0]).apply(vec) for coset in group.left_cosets(stab))
        p = direct_sum_many(pieces) if pieces else zero_module(group)
        attach_matrix = IntMatrix.from_columns(mod.gens, cols)
        k = mod.gens - y.term(t).gens
        m_terms[t] = p
        m_diff_blocks[t] = IntMatrix(k, p.gens, attach_matrix.data[:k])
        psi_blocks[t] = IntMatrix(y.term(t).gens, p.gens, attach_matrix.data[k:])
        current = cone(ComplexMap(one_term(p, t), current, {t: ModuleMap(p, mod, attach_matrix)}, check=False))

    # final stage: adjoin the cycle lattice at degree stop, split like an attaching matrix
    bottom = current.term(stop)  # M^(stop+1) (+) Y^stop, the source part first
    basis = cycle_lattice(current.differential(stop).matrix, current.term(stop + 1).relations)
    k = bottom.gens - y.term(stop).gens
    m_terms[stop] = _kernel_lattice_module(bottom, basis) if basis.cols else zero_module(group)
    m_diff_blocks[stop] = IntMatrix(k, basis.cols, basis.data[:k])
    psi_blocks[stop] = IntMatrix(y.term(stop).gens, basis.cols, basis.data[k:])

    degrees = range(stop, hi + 1)
    diffs = [ModuleMap(m_terms[t], m_terms[t + 1], m_diff_blocks[t]) for t in degrees[:-1]]
    m = BoundedComplex(group, stop, [m_terms[t] for t in degrees], diffs)
    psi = ComplexMap(m, y, {t: ModuleMap(m_terms[t], y.term(t), psi_blocks[t]) for t in degrees})
    if not all(term.torsion_free() for term in m.terms):
        raise ExactnessViolation("resolution produced a term with torsion")
    ok, report = is_quasi_iso(psi)
    if not ok:
        raise ExactnessViolation(f"resolution is not a quasi-isomorphism: {report}")
    return psi


def dual_complex(m: BoundedComplex) -> BoundedComplex:
    """RHom(-, Z) of a complex of torsion-free modules, computed termwise.

    The degree -i term is the dual lattice of the degree i term; the dual
    differential is the plain transpose of the original one (see the module
    docstring for why no sign is attached).
    """
    for t in m.terms:
        if not t.torsion_free():
            raise HasTorsion("dual of a complex with torsion terms; resolve first")
    mt = m.trim()
    if not mt.terms:
        return zero_complex(m.group)
    group = m.group
    frees = {}
    tos = {}
    froms = {}
    for i in mt.degrees():
        frees[i], tos[i], froms[i] = lattice_form(mt.term(i))
    duals = {i: dual_lattice(frees[i]) for i in mt.degrees()}
    lo, hi = mt.lowest_degree, mt.highest_degree
    terms = [duals[hi - j] for j in range(hi - lo + 1)]
    diffs = []
    for j in range(hi - lo):
        i = hi - j - 1  # dual differential at degree -i-1 comes from d_i
        d_free = tos[i + 1].matrix.mul(mt.differential(i).matrix).mul(froms[i].matrix)
        diffs.append(ModuleMap(duals[i + 1], duals[i], d_free.transpose()))
    return BoundedComplex(group, -hi, terms, diffs)
