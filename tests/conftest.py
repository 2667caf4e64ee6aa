"""Shared builders for randomized structures.

Everything is driven by explicit `random.Random` instances so failures
reproduce; tests pass their own seeds.
"""

from __future__ import annotations

import random

import pytest

from upic.groups import FiniteGroup
from upic.intmatrix import IntMatrix, cycle_lattice, subquotient_invariants
from upic.modules import (
    ModuleMap,
    PresentedModule,
    direct_sum_many,
    equivariant_by_transfer,
    induced_module,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
)
from upic.reference import add_relations


def random_unimodular_pair(n: int, rng: random.Random, steps: int = None):
    """A unimodular matrix and its exact inverse, via tracked row operations."""
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    qinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 3 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                q[j][col] += c * q[i][col]
            for row in range(n):
                qinv[row][i] -= c * qinv[row][j]
        elif kind == 1 and i != j:
            q[i], q[j] = q[j], q[i]
            for row in qinv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            for col in range(n):
                q[i][col] = -q[i][col]
            for row in qinv:
                row[i] = -row[i]
    return IntMatrix(n, n, q), IntMatrix(n, n, qinv)


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def random_cyclic_module(
    n: int,
    rng: random.Random,
    max_rank: int = 4,
    allow_torsion: bool = True,
    force_finite: bool = False,
):
    """A random valid module over the cyclic group of order n, rank <= max_rank."""
    group = FiniteGroup.cyclic(n)
    blocks = []
    rank = 0
    while rank < max_rank:
        choices = ["trivial"]
        if n % 2 == 0:
            choices.append("sign")
        for d in _divisors(n):
            if 2 <= d and rank + (d - 1) <= max_rank:
                choices.append(f"norm{d}")
            if d >= 2 and rank + d <= max_rank:
                choices.append(f"perm{d}")
        kind = rng.choice(choices)
        if kind == "trivial":
            blocks.append(trivial_module(group))
            rank += 1
        elif kind == "sign":
            sign = [IntMatrix(1, 1, [[(-1) ** k]]) for k in range(n)]
            blocks.append(PresentedModule(group, 1, IntMatrix.zeros(1, 0), sign))
            rank += 1
        elif kind.startswith("norm"):
            d = int(kind[4:])
            base = norm_one_lattice_of(FiniteGroup.cyclic(d))
            action = [base.action_of(k % d) for k in range(n)]  # through the order-d quotient
            blocks.append(PresentedModule(group, d - 1, IntMatrix.zeros(d - 1, 0), action))
            rank += d - 1
        else:
            d = int(kind[4:])
            base = regular_module(FiniteGroup.cyclic(d))
            action = [base.action_of(k % d) for k in range(n)]
            blocks.append(PresentedModule(group, d, IntMatrix.zeros(d, 0), action))
            rank += d
        if rng.random() < 0.35:
            break
    m = direct_sum_many(blocks)
    if force_finite or (allow_torsion and rng.random() < 0.5):
        scale = rng.choice([2, 3, 4])
        m = add_relations(m, IntMatrix.identity(m.gens).scale(scale))
    q, qinv = random_unimodular_pair(m.gens, rng, steps=2 * m.gens)
    action = [q.mul(m.action_of(g)).mul(qinv) for g in range(n)]
    relations = q.mul(m.relations)
    return PresentedModule(group, m.gens, relations, action)


def _cyclic_subgroups(group: FiniteGroup) -> list:
    seen = set()
    out = []
    for g in range(group.order):
        elems = frozenset(group.power(g, k) for k in range(group.element_order(g)))
        if elems not in seen:
            seen.add(elems)
            out.append(sorted(elems))
    return out


def random_module(group: FiniteGroup, rng: random.Random, max_rank: int = 3, allow_torsion: bool = True):
    """A random valid module over an arbitrary small group.

    Direct sums of trivial lines, coset (induced) modules over cyclic
    subgroups, the regular module, the norm-one quotient lattice, and
    torsion lines, conjugated by a random unimodular change of basis.
    """
    coset_choices = [h for h in _cyclic_subgroups(group) if 1 < group.order // len(h) <= max_rank]
    blocks = []
    rank = 0
    while rank < max_rank:
        choices = ["trivial"]
        if allow_torsion:
            choices.append("torsion_line")
        if rank + group.order <= max_rank:
            choices.append("regular")
        if rank + group.order - 1 <= max_rank:
            choices.append("norm_one")
        fitting = [h for h in coset_choices if rank + group.order // len(h) <= max_rank]
        if fitting:
            choices.append("coset")
        kind = rng.choice(choices)
        if kind == "trivial":
            blocks.append(trivial_module(group))
            rank += 1
        elif kind == "torsion_line":
            k = rng.choice([2, 3, 4, 6])
            mod = PresentedModule(
                group, 1, IntMatrix(1, 1, [[k]]), [IntMatrix.identity(1)] * group.order
            )
            blocks.append(mod)
            rank += 1
        elif kind == "regular":
            blocks.append(regular_module(group))
            rank += group.order
        elif kind == "coset":
            h = rng.choice(fitting)
            blocks.append(induced_module(group, h))
            rank += group.order // len(h)
        else:
            blocks.append(norm_one_lattice_of(group))
            rank += group.order - 1
        if rng.random() < 0.4:
            break
    m = direct_sum_many(blocks)
    q, qinv = random_unimodular_pair(m.gens, rng, steps=2 * m.gens)
    action = [q.mul(m.action_of(g)).mul(qinv) for g in range(group.order)]
    return PresentedModule(group, m.gens, q.mul(m.relations), action)


def random_lattice_with_relations(group: FiniteGroup, rng: random.Random, max_extra: int = 2) -> PresentedModule:
    """A torsion-free module whose presentation has relations.

    The regular or norm-one lattice of the group, presented with relation
    columns by `with_relation_columns`.
    """
    base = rng.choice([regular_module, norm_one_lattice_of])(group)
    return with_relation_columns(base, rng, max_extra)[0]


def with_relation_columns(base: PresentedModule, rng: random.Random, max_extra: int = 2):
    """The lattice `base`, given on a basis, presented with relation columns: (module, projection).

    Generators e_k are added, each killed by a unit relation e_k - v_k for
    a random v_k in `base`; each element acts on e_k as on v_k.  The whole
    presentation is put in a random basis.  `projection` is the matrix of
    the isomorphism from the module onto `base`, sending e_k to v_k.
    """
    n, extra = base.gens, rng.randint(1, max_extra)
    vs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(extra)]
    gens = n + extra
    relations = IntMatrix.from_columns(
        gens, [[-x for x in v] + [1 if j == k else 0 for j in range(extra)] for k, v in enumerate(vs)]
    )
    action = []
    for g in range(base.group.order):
        a = base.action_of(g)
        cols = [c + [0] * extra for c in a.columns()] + [a.apply(v) + [0] * extra for v in vs]
        action.append(IntMatrix.from_columns(gens, cols))
    q, qinv = random_unimodular_pair(gens, rng)
    module = PresentedModule(base.group, gens, q.mul(relations), [q.mul(x).mul(qinv) for x in action])
    projection = IntMatrix.identity(n).hstack(IntMatrix.from_columns(n, vs)).mul(qinv)
    return module, projection


def random_equivariant_map(source: PresentedModule, target: PresentedModule, rng: random.Random) -> ModuleMap:
    """A valid random map; falls back to zero when no nonzero one shows up.

    The transfer sum is always equivariant but need not respect torsion
    relations, so candidates are validated and rejected.
    """
    for _ in range(10):
        seed = IntMatrix(
            target.gens,
            source.gens,
            [[rng.randint(-1, 1) for _ in range(source.gens)] for _ in range(target.gens)],
        )
        f = equivariant_by_transfer(source, target, seed)
        if not f.matrix.is_zero() and f.validate() == []:
            return f
    return ModuleMap.zero(source, target)


# Test-only linear algebra: the library never needs a determinant.
def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and determinant(a) in (1, -1)


# Frozen references: the module and map checks run element by element, as
# they were before the checks moved to a generating set.
def full_validate_module(m: PresentedModule) -> list:
    """validate_module as every element and every product, frozen; keeps nothing."""
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


def full_map_validate(f: ModuleMap) -> list:
    """ModuleMap.validate over every element, frozen; keeps nothing."""
    out = []
    if not f.target.contains_columns(f.matrix.mul(f.source.relations)):
        out.append("map does not send source relations into target relations")
    for g in range(f.source.group.order):
        lhs = f.matrix.mul(f.source.action_of(g))
        rhs = f.target.action_of(g).mul(f.matrix)
        if not f.target.matrix_congruent(lhs, rhs):
            out.append(f"map does not commute with the action of element {g}")
    return out


# Frozen reference: acyclicity decided by the invariants of every H^i, as it
# was before the one membership test.
def invariant_acyclic(c) -> bool:
    """Whether every H^i(c) has trivial invariants, from its cycles and boundaries; frozen."""
    for i in c.degrees():
        if c.term(i).gens:
            cycles = cycle_lattice(c.differential(i).matrix, c.term(i + 1).relations)
            boundaries = c.differential(i - 1).matrix.hstack(c.term(i).relations)
            if not subquotient_invariants(cycles, boundaries).is_trivial:
                return False
    return True


@pytest.fixture
def rng():
    return random.Random(20260808)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
