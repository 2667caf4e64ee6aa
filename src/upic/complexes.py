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
    Subquotient,
    cycle_lattice,
    smith_normal_form,
    solve_integer,
    subquotient_invariants,
    subquotient_relations,
    unimodular_inverse,
)
from .modules import (
    ModuleMap,
    PresentedModule,
    add_relations,
    direct_sum,
    direct_sum_many,
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
            if d.source is not self.terms[idx] or d.target is not self.terms[idx + 1]:
                if d.source.gens != self.terms[idx].gens or d.target.gens != self.terms[idx + 1].gens:
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


def two_term(f: ModuleMap, base_degree: int = 0) -> BoundedComplex:
    """The fibre-convention complex [source -> target> in degrees base, base+1."""
    return BoundedComplex(f.source.group, base_degree, [f.source, f.target], [f])


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
    """Mapping cone: term^i = source^(i+1) (+) target^i (source part first)."""
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
    return BoundedComplex(group, lo, terms, diffs)


def fibre(phi: ComplexMap) -> BoundedComplex:
    return shift(cone(phi), -1)


def cohomology(c: BoundedComplex, i: int):
    """ker(d_i)/im(d_{i-1}) inside the degree-i presentation.

    Returns (Subquotient, AbelianInvariants).  Relations of the degree-i
    term are folded into the boundaries; the cycle lattice accounts for the
    relations of the degree-(i+1) term.
    """
    m = c.term(i)
    n = m.gens
    if n == 0:
        empty = Subquotient(0, IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
        return empty, AbelianInvariants(0)
    cycles = cycle_lattice(c.differential(i).matrix, c.term(i + 1).relations)
    boundaries = c.differential(i - 1).matrix.hstack(m.relations)
    sq = Subquotient(n, cycles, boundaries)
    return sq, subquotient_invariants(sq)


def cohomology_invariants(c: BoundedComplex, i: int) -> AbelianInvariants:
    return cohomology(c, i)[1]


def all_cohomology(c: BoundedComplex) -> dict:
    return {i: cohomology_invariants(c, i) for i in c.degrees()}


def is_acyclic(c: BoundedComplex) -> bool:
    return all(inv.is_trivial for inv in all_cohomology(c).values())


def is_quasi_iso(phi: ComplexMap):
    """Quasi-isomorphism test via acyclicity of the cone.

    Returns (verdict, per-degree invariants of the cone's cohomology).
    """
    cn = cone(phi)
    report = all_cohomology(cn)
    return all(inv.is_trivial for inv in report.values()), report


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
        for j in range(ker.cols):
            if solve_integer(wide, ker.column(j)) is None:
                out.append("degree 1: kernel of the quotient map exceeds the image of the inclusion")
                break
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
    if not cohomology_invariants(b, 0).is_trivial:
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
    """Ambient vectors generating H^i(c), from the Smith form of the subquotient."""
    sq, _ = cohomology(c, i)
    cyc = sq.cycles
    if cyc.cols == 0:
        return []
    s = smith_normal_form(subquotient_relations(sq))
    diag = s.diagonal()
    u_inv = unimodular_inverse(s.u)
    gens = []
    for idx in range(cyc.cols):
        d = diag[idx] if idx < len(diag) else 0
        if d != 1:
            gens.append(cyc.apply(u_inv.column(idx)))
    return gens


def resolve_torsion_free(y: BoundedComplex) -> ComplexMap:
    """Torsion-free resolution psi: M -> Y, a verified quasi-isomorphism.

    Working from the top degree down, generators of H^t of the current
    complex are lifted to cocycles and covered by permutation modules on
    their stabilizer cosets; each cover is attached with a mapping cone.
    One final step adjoins the kernel lattice in the lowest degree, which
    is torsion free because it embeds in a permutation module.  The terms
    of M are the attached modules; its differentials and the components of
    psi are read off the attaching maps.
    """
    group = y.group
    yt = y.trim()
    if not yt.terms:
        m = zero_complex(group)
        return ComplexMap(m, y, {}, check=False)
    lo, hi = yt.lowest_degree, yt.highest_degree

    current = y
    prev_p = None  # module attached in the previous stage
    m_terms = {}
    m_diff_blocks = {}
    psi_blocks = {}

    for t in range(hi, lo - 1, -1):
        gens = _canonical_class_generators(current, t)
        y_term = y.term(t)
        pieces = []
        cols = []
        for vec in gens:
            mod = current.term(t)
            stab = mod.stabilizer(vec)
            piece = induced_module(group, stab)
            cosets = group.left_cosets(stab)
            for coset in cosets:
                cols.append(mod.action_of(coset[0]).apply(vec))
            pieces.append(piece)
        p = direct_sum_many(pieces) if pieces else zero_module(group)
        attach_matrix = IntMatrix.from_columns(current.term(t).gens, cols)
        attach = ModuleMap(p, current.term(t), attach_matrix)

        prev_gens = prev_p.gens if prev_p is not None else 0
        m_terms[t] = p
        if prev_p is not None:
            m_diff_blocks[t] = IntMatrix(prev_gens, p.gens, attach_matrix.data[:prev_gens])
            psi_blocks[t] = IntMatrix(y_term.gens, p.gens, attach_matrix.data[prev_gens:])
        else:
            psi_blocks[t] = attach_matrix

        current = cone(ComplexMap(one_term(p, t), current, {t: attach}))
        prev_p = p

    # final stage: adjoin the cycle lattice sitting below the support
    bottom = current.term(lo - 1)  # equals the module attached for degree lo
    basis = cycle_lattice(current.differential(lo - 1).matrix, current.term(lo).relations)
    rank = basis.cols
    action = []
    for g in range(group.order):
        moved = bottom.action_of(g).mul(basis)
        sol_cols = []
        for j in range(rank):
            x = solve_integer(basis, moved.column(j))
            if x is None:
                raise ExactnessViolation("kernel lattice is not action-stable")
            sol_cols.append(x)
        action.append(IntMatrix.from_columns(rank, sol_cols))
    a_prime = free_module(group, action) if rank else zero_module(group)
    m_terms[lo - 1] = a_prime
    m_diff_blocks[lo - 1] = basis
    psi_blocks[lo - 1] = IntMatrix.zeros(y.term(lo - 1).gens, rank)

    degrees = list(range(lo - 1, hi + 1))
    terms = [m_terms[t] for t in degrees]
    diffs = []
    for t in degrees[:-1]:
        diffs.append(ModuleMap(m_terms[t], m_terms[t + 1], m_diff_blocks[t]))
    m = BoundedComplex(group, lo - 1, terms, diffs)
    psi = ComplexMap(
        m,
        y,
        {t: ModuleMap(m_terms[t], y.term(t), psi_blocks[t]) for t in degrees},
    )
    for t in degrees:
        if not m_terms[t].torsion_free():
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
    duals = {
        i: free_module(group, [frees[i].action_of(group.inv(g)).transpose() for g in range(group.order)])
        for i in mt.degrees()
    }
    lo, hi = mt.lowest_degree, mt.highest_degree
    terms = [duals[hi - j] for j in range(hi - lo + 1)]
    diffs = []
    for j in range(hi - lo):
        i = hi - j - 1  # dual differential at degree -i-1 comes from d_i
        d_free = tos[i + 1].matrix.mul(mt.differential(i).matrix).mul(froms[i].matrix)
        diffs.append(ModuleMap(duals[i + 1], duals[i], d_free.transpose()))
    return BoundedComplex(group, -hi, terms, diffs)
