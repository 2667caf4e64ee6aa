"""Reference-only homological algebra: the tests' independent routes.

No pipeline runs anything here and no runtime module imports this one.
It holds shifts, fibres, the collapse of a short exact sequence of
two-term complexes, the torsion-free resolution, the termwise dual, and
the helpers only those use.  Sign conventions, beside the cone's:

* shift: (C[k])^i = C^(i+k) with differential (-1)^k d;
* fibre(f) = cone(f)[-1], so for modules it is P --(+f)--> Q with P in
  degree 0 (the `two_term` constructor);
* the termwise dual of a torsion-free complex uses the plain transpose in
  every degree (no alternating sign): d^2 = 0 is automatic and the double
  dual returns the original complex on the nose.

`relation_route` is the cohomology route `HyperTotal` took before every
coefficient complex became a complex of lattices: cochains on the
generators of each term, read modulo the relation lattices.  `cohomology`
is the route a complex's own cohomology took before it was read as
hypercohomology over the trivial group: the cycle lattice and the
subquotient presentation on it, with the membership test
`_cohomology_vanishes` for H^i = 0.

A complex of lattices on a basis (no term has relation columns) is its
own torsion-free resolution, and `resolve_torsion_free` returns the
identity for it.  Any other complex is covered and coned (the resolution
splits each cone term with the shifted source part first) and certified
once, at the end; the one final step adjoins the kernel lattice at the
lowest degree when that term is a lattice on a basis, else one below.
"""

from __future__ import annotations

from .cohomology import hom_differential, is_quasi_iso
from .complexes import BoundedComplex, ComplexMap, cone, one_term, two_term, zero_complex
from .errors import ExactnessViolation, HasTorsion, NotExact, PreconditionH0, ValidationError
from .intmatrix import AbelianInvariants, IntMatrix, SparseCols, cycle_lattice, in_column_span, smith_normal_form
from .intmatrix import solve_integer, subquotient_invariants, subquotient_relations, unimodular_inverse
from .modules import ModuleMap, PresentedModule, direct_sum_many, free_module, induced_module, lattice_form, zero_module


def relation_route(coeffs: BoundedComplex, degree: int, resolution) -> AbelianInvariants:
    """H^degree of Hom_G(F, K) on the generators of each term of K, read modulo the relation lattices.

    Tot^n = (+)_q Hom_G(F_(n-q), K^q) with D = (-1)^q delta + d on the
    (p, q) summand.  D composed with D must vanish modulo the relation
    block diagonal of Tot^(n+1), and H^n is the cycles modulo those
    relations over the boundaries and the relations of Tot^n, by
    `cycle_lattice` and `subquotient_invariants`.
    """

    def layout(n):
        offsets, total = {}, 0
        for q in coeffs.degrees():
            if n - q >= 0 and coeffs.term(q).gens:
                offsets[(q, n - q)] = total
                total += coeffs.term(q).gens * resolution.rank(n - q)
        return offsets, total

    def differential(src, tgt):
        out = SparseCols(tgt[1], src[1])
        for (q, p), c0 in src[0].items():
            m = coeffs.term(q)
            if (q, p + 1) in tgt[0]:
                hom_differential(resolution, m, p, out, (tgt[0][(q, p + 1)], c0), -1 if q % 2 else 1)
            if (q + 1, p) in tgt[0]:
                nt = coeffs.term(q + 1).gens
                for s in range(resolution.rank(p)):
                    out.add_block(tgt[0][(q + 1, p)] + s * nt, c0 + s * m.gens, coeffs.differential(q).matrix)
        return out

    def relations(lay):
        return IntMatrix.block_diagonal(
            coeffs.term(q).relations for q, p in lay[0] for _ in range(resolution.rank(p))
        )

    above, at, below = layout(degree + 1), layout(degree), layout(degree - 1)
    d_at, d_below, rel_above = differential(at, above), differential(below, at), relations(above)
    square = d_at.compose(d_below)
    if not in_column_span(rel_above, (square.column(c) for c, col in enumerate(square.entries) if col)):
        raise ExactnessViolation("total differential does not square to zero")
    if d_at.cols == 0:
        return AbelianInvariants(0)
    return subquotient_invariants(cycle_lattice(d_at, rel_above), d_below.to_dense().hstack(relations(at)))


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


def _cohomology_vanishes(c: BoundedComplex, i: int) -> bool:
    """H^i(c) = 0: every cycle lies in the span of the boundaries and the degree-i relations."""
    if c.term(i).gens == 0:
        return True
    cycles = cycle_lattice(c.differential(i).matrix, c.term(i + 1).relations)
    return in_column_span(c.differential(i - 1).matrix.hstack(c.term(i).relations), zip(*cycles.data))


def structurally_equal(c: BoundedComplex, other: BoundedComplex) -> bool:
    a, b = c.trim(), other.trim()
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


def stabilizer(m: PresentedModule, vec) -> list:
    """Elements g with g*vec congruent to vec."""
    return [
        g
        for g in range(m.group.order)
        if in_column_span(m.relations, [[a - b for a, b in zip(m.action[g].apply(vec), vec)]])
    ]


def kernel_lattice(f: ModuleMap) -> IntMatrix:
    """Basis of {x : matrix*x lies in the target relation lattice}."""
    return cycle_lattice(f.matrix, f.target.relations)


def is_injective(f: ModuleMap) -> bool:
    return f.source.contains_columns(kernel_lattice(f))


def is_surjective(f: ModuleMap) -> bool:
    wide = f.matrix.hstack(f.target.relations)
    return in_column_span(wide, IntMatrix.identity(f.target.gens).data)


def is_zero_map(f: ModuleMap) -> bool:
    return f.target.contains_columns(f.matrix)


def neg_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(f.source, f.target, f.matrix.neg())


def identity_map(m: PresentedModule) -> ModuleMap:
    return ModuleMap(m, m, IntMatrix.identity(m.gens))


def zero_chain_map(source: BoundedComplex, target: BoundedComplex) -> ComplexMap:
    return ComplexMap(source, target, {}, check=False)


def identity_chain_map(c: BoundedComplex) -> ComplexMap:
    return ComplexMap(c, c, {i: identity_map(c.term(i)) for i in c.degrees()}, check=False)


def add_relations(m: PresentedModule, extra: IntMatrix) -> PresentedModule:
    """Same generators and action, with extra relator columns folded in."""
    if extra.rows != m.gens:
        raise ValidationError(["extra relators must live in the generator space"])
    return PresentedModule(m.group, m.gens, m.relations.hstack(extra), m.action)


def dual_lattice(m: PresentedModule) -> PresentedModule:
    """Hom(-, Z) of a torsion-free module, with the contragredient action."""
    free, _, _ = lattice_form(m)
    action = [free.action_of(free.group.inv(g)).transpose() for g in range(free.group.order)]
    return free_module(m.group, action)


def shift(c: BoundedComplex, k: int) -> BoundedComplex:
    """(C[k])^i = C^(i+k); differentials pick up (-1)^k."""
    if not c.terms:
        return c
    diffs = c.differentials if k % 2 == 0 else tuple(neg_map(d) for d in c.differentials)
    return BoundedComplex(c.group, c.lowest_degree - k, c.terms, diffs, check=False)


def fibre(phi: ComplexMap) -> BoundedComplex:
    """cone(phi) shifted down one degree; the caller's obligation is the one `cone` states."""
    return shift(cone(phi), -1)


def is_acyclic(c: BoundedComplex) -> bool:
    return all(_cohomology_vanishes(c, i) for i in c.degrees())


class TwoTermSES:
    """Short exact sequence 0 -> A -> B -> C -> 0 of two-term complexes,
    with A concentrated in degree 1."""

    __slots__ = ("sub", "quot")

    def __init__(self, sub: ComplexMap, quot: ComplexMap):
        if sub.target is not quot.source and not structurally_equal(sub.target, quot.source):
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
        if not is_injective(nu0) or not is_surjective(nu0):
            out.append("degree 0: the quotient map is not an isomorphism")
        if not is_injective(mu1):
            out.append("degree 1: the inclusion is not injective")
        if not is_surjective(nu1):
            out.append("degree 1: the quotient map is not surjective")
        comp = nu1.compose(mu1)
        if not is_zero_map(comp):
            out.append("degree 1: quotient after inclusion is nonzero")
        ker = kernel_lattice(nu1)
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
        return ComplexMap(yt, y, {i: identity_map(yt.term(i)) for i in yt.degrees()}, check=False)
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
            stab = stabilizer(mod, vec)
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
