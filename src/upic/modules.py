"""Finitely generated modules over a finite group, given by presentations.

A PresentedModule is Z^gens / (column span of `relations`) together with one
integer action matrix per group element; every congruence below is taken
modulo the relation columns.  Torsion is allowed, so character groups of
disconnected stabilizers fit alongside honest lattices.
"""

from __future__ import annotations

from .errors import HasTorsion, ValidationError
from .groups import FiniteGroup
from .intmatrix import (
    IntMatrix,
    AbelianInvariants,
    cokernel_invariants,
    cycle_lattice,
    smith_normal_form,
    solve_integer,
    unimodular_inverse,
)


class PresentedModule:
    __slots__ = ("group", "gens", "relations", "action", "_stacked_rel")

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
        self._stacked_rel = None

    def action_of(self, g: int) -> IntMatrix:
        return self.action[g]

    def in_relations(self, vec) -> bool:
        return solve_integer(self.relations, vec) is not None

    def congruent(self, x, y) -> bool:
        return self.in_relations([a - b for a, b in zip(x, y)])

    def contains_columns(self, a: IntMatrix) -> bool:
        """Every column of `a` is zero in the module (lies in the relation lattice)."""
        return all(self.in_relations(a.column(j)) for j in range(a.cols))

    def matrix_congruent(self, a: IntMatrix, b: IntMatrix) -> bool:
        return self.contains_columns(a.sub(b))

    def torsion_free(self) -> bool:
        from .intmatrix import smith_diagonal

        return all(d <= 1 for d in smith_diagonal(self.relations))

    def underlying_invariants(self) -> AbelianInvariants:
        return cokernel_invariants(self.relations)

    def stabilizer(self, vec) -> list:
        """Elements g with g*vec congruent to vec."""
        return [g for g in range(self.group.order) if self.congruent(self.action[g].apply(vec), vec)]

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
    """All violated presentation invariants, as strings (empty means valid)."""
    out = []
    ident = IntMatrix.identity(m.gens)
    if not m.matrix_congruent(m.action_of(m.group.identity), ident):
        out.append("action of the identity is not the identity modulo relations")
    for g in range(m.group.order):
        if not m.contains_columns(m.action_of(g).mul(m.relations)):
            out.append(f"action of element {g} does not preserve the relation lattice")
    for g in range(m.group.order):
        for h in range(m.group.order):
            gh = m.group.mul(g, h)
            if not m.matrix_congruent(m.action_of(g).mul(m.action_of(h)), m.action_of(gh)):
                out.append(f"action({g})*action({h}) differs from action({gh}) modulo relations")
    return out


def zero_module(group: FiniteGroup) -> PresentedModule:
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
    """
    if not m.torsion_free():
        raise HasTorsion("module has torsion; resolve it first")
    if m.relations.cols == 0:
        ident = ModuleMap(m, m, IntMatrix.identity(m.gens))
        return m, ident, ident
    s = smith_normal_form(m.relations)
    diag = s.diagonal()
    free_idx = [i for i in range(m.gens) if i >= len(diag) or diag[i] == 0]
    u = s.u
    u_inv = unimodular_inverse(u)
    proj = IntMatrix.from_columns(len(free_idx), [[1 if i == r else 0 for i in free_idx] for r in range(m.gens)])
    embed = proj.transpose()
    to_mat = proj.mul(u)
    from_mat = u_inv.mul(embed)
    action = [to_mat.mul(m.action_of(g)).mul(from_mat) for g in range(m.group.order)]
    free = free_module(m.group, action)
    return free, ModuleMap(m, free, to_mat), ModuleMap(free, m, from_mat)


def dual_lattice(m: PresentedModule) -> PresentedModule:
    """Hom(-, Z) of a torsion-free module, with the contragredient action."""
    free, _, _ = lattice_form(m)
    action = [free.action_of(free.group.inv(g)).transpose() for g in range(free.group.order)]
    return free_module(m.group, action)


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
    if a.group is not b.group and a.group != b.group:
        raise ValidationError(["direct sum of modules over different groups"])
    return PresentedModule(
        a.group,
        a.gens + b.gens,
        IntMatrix.block_diagonal([a.relations, b.relations]),
        [IntMatrix.block_diagonal([a.action_of(g), b.action_of(g)]) for g in range(a.group.order)],
    )


def direct_sum_many(mods) -> PresentedModule:
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum needs an explicit group")
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum(out, m)
    return out


def add_relations(m: PresentedModule, extra: IntMatrix) -> PresentedModule:
    """Same generators and action, with extra relator columns folded in."""
    if extra.rows != m.gens:
        raise ValidationError(["extra relators must live in the generator space"])
    return PresentedModule(m.group, m.gens, m.relations.hstack(extra), m.action)


class ModuleMap:
    """Equivariant homomorphism between presented modules, as a matrix on generators."""

    __slots__ = ("source", "target", "matrix")

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

    @classmethod
    def zero(cls, source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        return cls(source, target, IntMatrix.zeros(target.gens, source.gens))

    @classmethod
    def identity(cls, m: PresentedModule) -> "ModuleMap":
        return cls(m, m, IntMatrix.identity(m.gens))

    def validate(self) -> list:
        out = []
        if not self.target.contains_columns(self.matrix.mul(self.source.relations)):
            out.append("map does not send source relations into target relations")
        for g in range(self.source.group.order):
            lhs = self.matrix.mul(self.source.action_of(g))
            rhs = self.target.action_of(g).mul(self.matrix)
            if not self.target.matrix_congruent(lhs, rhs):
                out.append(f"map does not commute with the action of element {g}")
        return out

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        if inner.target is not self.source and inner.target != self.source:
            raise ValidationError(["composition mismatch"])
        return ModuleMap(inner.source, self.target, self.matrix.mul(inner.matrix))

    def add(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix.add(other.matrix))

    def neg(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix.neg())

    def kernel_lattice(self) -> IntMatrix:
        """Basis of {x : matrix*x lies in the target relation lattice}."""
        return cycle_lattice(self.matrix, self.target.relations)

    def is_injective(self) -> bool:
        return self.source.contains_columns(self.kernel_lattice())

    def is_surjective(self) -> bool:
        wide = self.matrix.hstack(self.target.relations)
        return all(
            solve_integer(wide, [1 if i == j else 0 for i in range(self.target.gens)]) is not None
            for j in range(self.target.gens)
        )

    def is_zero_map(self) -> bool:
        return self.target.contains_columns(self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.matrix == other.matrix
            and self.source.gens == other.source.gens
            and self.target.gens == other.target.gens
        )

    def __repr__(self):
        return f"ModuleMap({self.source.gens}->{self.target.gens})"


def equivariant_by_transfer(source: PresentedModule, target: PresentedModule, seed_matrix: IntMatrix) -> ModuleMap:
    """Sum of g * seed * g^{-1} over the group; always equivariant."""
    acc = IntMatrix.zeros(target.gens, source.gens)
    for g in range(source.group.order):
        acc = acc.add(target.action_of(g).mul(seed_matrix).mul(source.action_of(source.group.inv(g))))
    return ModuleMap(source, target, acc)
