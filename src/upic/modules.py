"""Finitely generated modules over a finite group, given by presentations.

A PresentedModule is Z^gens / (column span of `relations`) together with one
integer action matrix per group element; every congruence below is taken
modulo the relation columns.  Torsion is allowed, so character groups of
disconnected stabilizers fit alongside honest lattices.

A module's `_violations` keeps what `validate_module` found, None until it
has run; nothing else sets it, whoever built the module.

A group acts through a generating set, so validity is checked there when
it can be (see `FiniteGroup.generators`).  With the identity acting
trivially and every element preserving the relation lattice L, the law
rho(s)rho(h) == rho(sh) mod L for generators s and all h gives it for every
product, by induction on a word for the first factor.  Likewise a map f
with f(L_S) in L_T between valid modules commutes with every element once
it commutes with the generators: f rho_S(s g') == rho_T(s) f rho_S(g') ==
rho_T(s) rho_T(g') f == rho_T(s g') f.  Whenever such a shortcut fails, or
its premises do not hold, the check runs element by element, so the
violations reported are the same either way.
"""

from __future__ import annotations

from .errors import HasTorsion, ValidationError
from .groups import FiniteGroup
from .intmatrix import (
    IntMatrix,
    AbelianInvariants,
    cokernel_invariants,
    in_column_span,
    smith_diagonal,
    smith_normal_form,
    solve_columns,
    unimodular_inverse,
)


class PresentedModule:
    __slots__ = ("group", "gens", "relations", "action", "_violations")

    def __init__(self, group: FiniteGroup, gens: int, relations: IntMatrix, action):
        action = tuple(action)
        if relations.rows != gens:
            raise ValidationError([f"relations must have {gens} rows, got {relations.rows}"])
        if len(action) != group.order:
            raise ValidationError([f"need one action matrix per group element ({group.order}), got {len(action)}"])
        for g, mat in enumerate(action):
            if mat.rows != gens or mat.cols != gens:
                raise ValidationError([f"action matrix for element {g} is not {gens}x{gens}"])
        self.group = group
        self.gens = gens
        self.relations = relations
        self.action = action
        self._violations = None  # validate_module's result, kept: the module is immutable

    def action_of(self, g: int) -> IntMatrix:
        return self.action[g]

    def contains_columns(self, a: IntMatrix) -> bool:
        """Every column of `a` is zero in the module (lies in the relation lattice)."""
        if a.rows != self.gens:
            raise ValueError(f"{a.rows}-row matrix against a module on {self.gens} generators")
        if not self.relations.cols:
            return a.is_zero()
        return in_column_span(self.relations, zip(*a.data))

    def matrix_congruent(self, a: IntMatrix, b: IntMatrix) -> bool:
        if a.rows != b.rows or a.cols != b.cols:
            raise ValueError("shape mismatch")
        if a.rows != self.gens:
            raise ValueError(f"{a.rows}-row matrices against a module on {self.gens} generators")
        if a.data == b.data:
            return True
        if not self.relations.cols:
            return False
        return in_column_span(
            self.relations,
            ([x - y for x, y in zip(p, q)] for p, q in zip(zip(*a.data), zip(*b.data)) if p != q),
        )

    def torsion_free(self) -> bool:
        return all(d <= 1 for d in smith_diagonal(self.relations))

    def underlying_invariants(self) -> AbelianInvariants:
        return cokernel_invariants(self.relations)

    def __eq__(self, other):
        return (
            isinstance(other, PresentedModule)
            and self.gens == other.gens
            and self.group == other.group
            and self.relations == other.relations
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.gens, self.group, self.relations))

    def __repr__(self):
        return f"PresentedModule(gens={self.gens}, relators={self.relations.cols}, group={self.group.order})"


def validate_module(m: PresentedModule) -> list:
    """All violated presentation invariants, as strings (empty means valid).

    Computed once per module object; later calls return the kept list.
    """
    if m._violations is not None:
        return list(m._violations)
    out = []
    group, action = m.group, m.action
    ident = IntMatrix.identity(m.gens)
    if not m.matrix_congruent(action[group.identity], ident):
        out.append("action of the identity is not the identity modulo relations")
    for g in range(group.order):
        if not m.contains_columns(action[g].mul(m.relations)):
            out.append(f"action of element {g} does not preserve the relation lattice")

    def product_law_fails(g, h):
        return not m.matrix_congruent(action[g].mul(action[h]), action[group.table[g][h]])

    # the product law on generators implies it everywhere, given the checks above
    if out or any(product_law_fails(s, h) for s in group.generators() for h in range(group.order)):
        for g in range(group.order):
            for h in range(group.order):
                if product_law_fails(g, h):
                    gh = group.table[g][h]
                    out.append(f"action({g})*action({h}) differs from action({gh}) modulo relations")
    m._violations = tuple(out)
    return out


def zero_module(group: FiniteGroup) -> PresentedModule:
    """The module on no generators."""
    return PresentedModule(group, 0, IntMatrix.zeros(0, 0), [IntMatrix.zeros(0, 0)] * group.order)


def free_module(group: FiniteGroup, action) -> PresentedModule:
    gens = action[0].rows if action else 0
    return PresentedModule(group, gens, IntMatrix.zeros(gens, 0), action)


def trivial_module(group: FiniteGroup, rank: int = 1) -> PresentedModule:
    ident = IntMatrix.identity(rank)
    return free_module(group, [ident] * group.order)


def finite_cyclic_module(group: FiniteGroup, n: int, action_signs=None) -> PresentedModule:
    """Z/n with each element acting by +1 or -1 (trivially by default)."""
    signs = action_signs or [1] * group.order
    return PresentedModule(
        group,
        1,
        IntMatrix(1, 1, [[n]]),
        [IntMatrix(1, 1, [[s]]) for s in signs],
    )


def induced_module(group: FiniteGroup, subgroup_elems) -> PresentedModule:
    """Permutation module on the left cosets of a subgroup; torsion free."""
    cosets = group.left_cosets(subgroup_elems)
    where = {}
    for idx, coset in enumerate(cosets):
        for x in coset:
            where[x] = idx
    k = len(cosets)
    action = []
    for g in range(group.order):
        mat = [[0] * k for _ in range(k)]
        for j, coset in enumerate(cosets):
            mat[where[group.mul(g, coset[0])]][j] = 1
        action.append(IntMatrix(k, k, mat))
    return free_module(group, action)


def regular_module(group: FiniteGroup) -> PresentedModule:
    return induced_module(group, [group.identity])


def lattice_form(m: PresentedModule):
    """Free presentation of a torsion-free module.

    Returns (free, to_free, from_free) where the two maps are mutually
    inverse identifications; to_free kills the relation lattice exactly.
    From the Smith form u * relations * v == d, to_free is the rows of u
    and from_free the columns of u^-1 at the zero entries of the diagonal.
    """
    if m.relations.cols == 0:
        ident = ModuleMap(m, m, IntMatrix.identity(m.gens))
        return m, ident, ident
    s = smith_normal_form(m.relations)
    diag = s.diagonal()
    if any(d > 1 for d in diag):
        raise HasTorsion("module has torsion; resolve it first")
    free_idx = [i for i, d in enumerate(diag) if d == 0]
    u_inv = unimodular_inverse(s.u)
    to_mat = IntMatrix(len(free_idx), m.gens, [s.u.data[i] for i in free_idx])
    from_mat = IntMatrix.from_columns(m.gens, [u_inv.column(i) for i in free_idx])
    action = [to_mat.mul(m.action_of(g)).mul(from_mat) for g in range(m.group.order)]
    free = free_module(m.group, action)
    return free, ModuleMap(m, free, to_mat), ModuleMap(free, m, from_mat)


def equivariant_presentation(m: PresentedModule):
    """The presentation 0 -> R -iota-> F -> m -> 0, as (F, R, iota).

    F is m's generators and action with no relations; iota is the Hermite
    basis of the relation columns, and R is the lattice it spans, with the
    action X_g solving iota * X_g == rho(g) * iota, uniquely, as the
    columns are independent; where the identity acts by the identity
    matrix, X_e is the identity with no solve, so a module over the
    trivial group solves for nothing.  A module without relations is its
    own presentation, with R zero.  A module whose action moves a
    relation out of the relation lattice has no R, and raises
    ValidationError.
    """
    if not m.relations.cols:
        return m, zero_module(m.group), IntMatrix.zeros(m.gens, 0)
    h, _, pivots = m.relations.hermite()
    rank = len(pivots)  # the pivot columns come first
    iota = IntMatrix(m.gens, rank, [row[:rank] for row in h.data])
    action = []
    for g, rho in enumerate(m.action):
        if g == m.group.identity and rho == IntMatrix.identity(m.gens):
            action.append(IntMatrix.identity(rank))
            continue
        x_g = solve_columns(iota, rho.mul(iota))
        if x_g is None:
            raise ValidationError([f"action of element {g} does not preserve the relation lattice"])
        action.append(x_g)
    return free_module(m.group, m.action), free_module(m.group, action), iota


def norm_one_lattice_of(group: FiniteGroup) -> PresentedModule:
    """Quotient of the regular lattice by the all-ones norm vector.

    Presented on the free basis obtained by dropping the highest-index
    element; rank is order-1.
    """
    o = group.order
    k = o - 1
    action = []
    for g in range(o):
        mat = [[0] * k for _ in range(k)]
        for j in range(k):
            tgt = group.mul(g, j)
            if tgt < k:
                mat[tgt][j] = 1
            else:
                for i in range(k):
                    mat[i][j] = -1
        action.append(IntMatrix(k, k, mat))
    return free_module(group, action)


def norm_one_lattice(n: int) -> PresentedModule:
    """Character lattice of the norm-one torus of a cyclic degree-n extension."""
    if n < 2:
        raise ValueError("need n >= 2")
    return norm_one_lattice_of(FiniteGroup.cyclic(n))


def direct_sum(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    return direct_sum_many([a, b])


def direct_sum_many(mods) -> PresentedModule:
    """One block-diagonal relation matrix and one block-diagonal action per element.

    Summands without generators or relation columns add nothing, so when at
    most one summand has either, that summand is the sum.
    """
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum needs an explicit group")
    if len(mods) == 1:
        return mods[0]
    group = mods[0].group
    if any(m.group is not group and m.group != group for m in mods[1:]):
        raise ValidationError(["direct sum of modules over different groups"])
    nonzero = [m for m in mods if m.gens or m.relations.cols]
    if len(nonzero) <= 1:
        return nonzero[0] if nonzero else mods[0]
    return PresentedModule(
        group,
        sum(m.gens for m in mods),
        IntMatrix.block_diagonal([m.relations for m in mods]),
        [IntMatrix.block_diagonal([m.action[g] for m in mods]) for g in range(group.order)],
    )


class ModuleMap:
    """Equivariant homomorphism between presented modules, as a matrix on generators."""

    __slots__ = ("source", "target", "matrix", "_violations")

    def __init__(self, source: PresentedModule, target: PresentedModule, matrix: IntMatrix):
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise ValidationError(
                [f"map matrix must be {target.gens}x{source.gens}, got {matrix.rows}x{matrix.cols}"]
            )
        if source.group != target.group:
            raise ValidationError(["source and target live over different groups"])
        self.source = source
        self.target = target
        self.matrix = matrix
        self._violations = None  # validate's result, kept: the map is immutable

    @classmethod
    def zero(cls, source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        return cls(source, target, IntMatrix.zeros(target.gens, source.gens))

    def _connects(self, source: PresentedModule, target: PresentedModule) -> bool:
        # equal, not only identical: callers build equal modules separately
        return (self.source is source or self.source == source) and (self.target is target or self.target == target)

    def validate(self) -> list:
        """All violated map invariants, as strings (empty means valid).

        Computed once per map object; later calls return the kept list.
        """
        if self._violations is not None:
            return list(self._violations)
        out = []
        source, target, f = self.source, self.target, self.matrix
        if not target.contains_columns(f.mul(source.relations)):
            out.append("map does not send source relations into target relations")

        def commutes(g):
            return target.matrix_congruent(f.mul(source.action[g]), target.action[g].mul(f))

        # commuting with the generators suffices between valid modules (module docstring)
        premises = not out and source._violations == () and target._violations == ()
        if not premises or not all(commutes(s) for s in source.group.generators()):
            out.extend(
                f"map does not commute with the action of element {g}"
                for g in range(source.group.order)
                if not commutes(g)
            )
        self._violations = tuple(out)
        return out

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        if inner.target is not self.source and inner.target != self.source:
            raise ValidationError(["composition mismatch"])
        return ModuleMap(inner.source, self.target, self.matrix.mul(inner.matrix))

    def __repr__(self):
        return f"ModuleMap({self.source.gens}->{self.target.gens})"


def equivariant_by_transfer(source: PresentedModule, target: PresentedModule, seed_matrix: IntMatrix) -> ModuleMap:
    """Sum of g * seed * g^{-1} over the group; always equivariant."""
    acc = IntMatrix.zeros(target.gens, source.gens)
    for g in range(source.group.order):
        acc = acc.add(target.action_of(g).mul(seed_matrix).mul(source.action_of(source.group.inv(g))))
    return ModuleMap(source, target, acc)
