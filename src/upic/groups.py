"""Finite groups given by multiplication tables.

Elements are indices 0..order-1.  Tables are validated on construction
(associativity, two-sided identity, inverses), which is cubic in the
order and affordable at the intended scale: task files are capped at
ORDER_CAP elements, their permutations at PERMUTATION_DEGREE_CAP points,
and their modules at rank MODULE_RANK_CAP.
"""

from __future__ import annotations

import math

from .errors import NotASubgroup, ValidationError

# Largest group a task file may declare, by table or by permutations.
ORDER_CAP = 48
# Largest module rank a task file may declare: room for Z[G] + Z[G] at ORDER_CAP.
MODULE_RANK_CAP = 2 * ORDER_CAP
# Largest permutation degree a task file may give: every group within ORDER_CAP
# acts faithfully on ORDER_CAP points (regular action); closure costs order^2 * degree.
PERMUTATION_DEGREE_CAP = 2 * ORDER_CAP


class FiniteGroup:
    # _resolution holds the group's small free resolution once
    # resolutions.small_resolution has built it; it grows with the degrees asked.
    # _generators keeps generators() once computed.
    __slots__ = ("order", "table", "identity", "inverse", "_element_orders", "_generators", "_resolution")

    def __init__(self, table):
        table = [list(row) for row in table]
        n = len(table)
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValidationError(["multiplication table is not a square array over element indices"])
        if n == 0:
            raise ValidationError(["a group must have at least the identity element"])
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError(["no two-sided identity"])
        inverse = [None] * n
        for g in range(n):
            for h in range(n):
                if table[g][h] == identity and table[h][g] == identity:
                    inverse[g] = h
                    break
            if inverse[g] is None:
                raise ValidationError([f"element {g} has no inverse"])
        for a in range(n):
            ta = table[a]
            for b in range(n):
                tab = table[ta[b]]
                tb = table[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValidationError([f"associativity fails at ({a},{b},{c})"])
        self.order = n
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self._element_orders = None
        self._generators = None
        self._resolution = None

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("order must be positive")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def from_permutations(cls, perms, cap: int = ORDER_CAP):
        """Close a list of permutations (on 0..deg-1) into a group.

        Returns (group, generator_indices), one index per permutation given.
        Elements are indexed in breadth-first discovery order starting from
        the identity, so the result is deterministic for a fixed input.  The
        closure runs over the distinct permutations, in order of first
        appearance: a repeated one finds only elements found already.
        """
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("need at least one permutation")
        distinct = list(dict.fromkeys(perms))
        deg = len(perms[0])
        if deg > PERMUTATION_DEGREE_CAP:
            raise ValidationError([f"permutation degree {deg} exceeds the degree cap {PERMUTATION_DEGREE_CAP}"])
        for p in distinct:
            if len(p) != deg or sorted(p) != list(range(deg)):
                raise ValidationError([f"not a permutation of 0..{deg - 1}: {p}"])
        ident = tuple(range(deg))
        elements = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for q in frontier:
                for p in distinct:
                    pq = tuple(p[q[i]] for i in range(deg))
                    if pq not in index:
                        if len(elements) >= cap:
                            raise ValidationError([f"permutation closure exceeds the order cap {cap}"])
                        index[pq] = len(elements)
                        elements.append(pq)
                        nxt.append(pq)
            frontier = nxt
        table = [
            [index[tuple(a[b[i]] for i in range(deg))] for b in elements]
            for a in elements
        ]
        return cls(table), [index[p] for p in perms]

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("n must be positive")
        if n == 1:
            return cls.trivial()
        transposition = tuple([1, 0] + list(range(2, n)))
        cycle = tuple(list(range(1, n)) + [0])
        group, _ = cls.from_permutations([transposition, cycle], cap=math.factorial(n))
        return group

    def direct_product(self, other: "FiniteGroup") -> "FiniteGroup":
        n, m = self.order, other.order
        table = [[0] * (n * m) for _ in range(n * m)]
        for a in range(n):
            for b in range(m):
                for c in range(n):
                    for d in range(m):
                        table[a * m + b][c * m + d] = self.table[a][c] * m + other.table[b][d]
        return FiniteGroup(table)

    @classmethod
    def klein_four(cls) -> "FiniteGroup":
        return cls.cyclic(2).direct_product(cls.cyclic(2))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        out = self.identity
        for _ in range(k):
            out = self.table[out][a]
        return out

    def element_order(self, a: int) -> int:
        if self._element_orders is None:
            orders = []
            for g in range(self.order):
                x, k = g, 1
                while x != self.identity:
                    x = self.table[x][g]
                    k += 1
                orders.append(k)
            self._element_orders = orders
        return self._element_orders[a]

    def cyclic_generator(self):
        """Lowest-index element of full order, or None if not cyclic."""
        for g in range(self.order):
            if self.element_order(g) == self.order:
                return g
        return None

    def breadth_first_words(self, gens) -> list:
        """Every element reachable from the identity as a word in `gens`.

        Returns triples (y, i, x) with y = gens[i] * x, where x is the
        identity or an earlier y, in breadth-first order; each element other
        than the identity appears once.  A value defined on the generators
        (an action matrix, say) extends along these triples by one product
        per element.
        """
        seen = {self.identity}
        words = []
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for i, s in enumerate(gens):
                    y = self.table[s][x]
                    if y not in seen:
                        seen.add(y)
                        words.append((y, i, x))
                        nxt.append(y)
            frontier = nxt
        return words

    def generators(self) -> tuple:
        """A generating set, greedy and deterministic: each is the lowest-index
        element outside the subgroup the earlier ones generate.

        Every step at least doubles that subgroup, so there are at most
        log2(order) generators; the trivial group has none.
        """
        if self._generators is None:
            gens = []
            reached = {self.identity}
            for g in range(self.order):
                if g not in reached:
                    gens.append(g)
                    reached = {self.identity} | {y for y, _, _ in self.breadth_first_words(gens)}
            self._generators = tuple(gens)
        return self._generators

    def is_abelian(self) -> bool:
        """Whether the generators commute, and with them every pair of elements."""
        gens = self.generators()
        return all(self.table[s][t] == self.table[t][s] for s in gens for t in gens)

    def is_subgroup(self, elems) -> bool:
        s = set(elems)
        if not s or any(not (0 <= x < self.order) for x in s):
            return False
        if self.identity not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s) and all(self.inverse[a] in s for a in s)

    def require_subgroup(self, elems):
        if not self.is_subgroup(elems):
            raise NotASubgroup(f"{sorted(set(elems))} is not a subgroup")

    def left_cosets(self, subgroup_elems):
        """Partition into left cosets gH, each sorted, ordered by minimal element."""
        self.require_subgroup(subgroup_elems)
        h = sorted(set(subgroup_elems))
        seen = [False] * self.order
        cosets = []
        for g in range(self.order):
            if seen[g]:
                continue
            coset = sorted({self.table[g][x] for x in h})
            for x in coset:
                seen[x] = True
            cosets.append(coset)
        return cosets

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.table))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"
