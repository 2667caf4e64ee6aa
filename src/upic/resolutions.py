"""Free Z[G]-resolutions of finite abelian groups, built from the group's structure.

A nontrivial finite abelian group is a product <t_1> x ... x <t_k> of cyclic
groups of orders d_1 | ... | d_k (`factor_basis`).  A cyclic factor has the
periodic resolution ... -N-> Z[C] -(t-1)-> Z[C] -> Z, and the group has
their tensor product (Brown, Cohomology of Groups, GTM 87, I.6 and V.1):
F_n is free on the compositions p of n into k parts, so
r_n = C(n+k-1, k-1), and

    d e_p = sum over i with p_i > 0 of (-1)^(p_1+...+p_(i-1)) delta_i e_(p-u_i),

with delta_i = t_i - 1 for p_i odd and N_i = 1 + t_i + ... + t_i^(d_i-1)
for p_i even.  Boundaries take the {(j, g): c} form that
`cohomology.hom_differential` reads.

Each level is certified before it is kept, by sparse products and no
kernel step: d d = 0 with d_0 the augmentation eps, on the generators
(d is a G-map by construction), and d_(n+1) h_n + h_(n-1) d_n = 1 on the
Z-basis {g e_p}, with h_(-1) = eta: Z -> F_0, for a
Z-linear contracting homotopy h (as in Ellis's HAP, J. Symbolic Comput.
38, 2004).  On a cyclic factor h(t^a e_p) = (1 + t + ... + t^(a-1)) e_(p+1)
for p even and [a = d-1] e_(p+1) for p odd; on a product,
H = h (x) 1 + eta eps (x) h'.  The identity on F_n gives exactness
there: a cycle x is d(h x).  A factor basis that is not a group
isomorphism fails the certificate.
"""

from __future__ import annotations

import math
import threading

from .errors import ExactnessViolation
from .groups import FiniteGroup
from .intmatrix import IntMatrix, SparseCols, smith_normal_form

# Serializes AbelianResolution._extend, as cohomology's lock does for the greedy route.
_EXTEND_LOCK = threading.Lock()


def z_boundary(group: FiniteGroup, gens: list, rows: int) -> SparseCols:
    """d_p on the Z-bases {g e_j}: column i*|G| + h is h times the boundary of generator i."""
    n = group.order
    out = SparseCols(rows, len(gens) * n)
    for i, bd in enumerate(gens):
        for h in range(n):
            row_h = group.table[h]
            out.entries[i * n + h] = {j * n + row_h[g]: c for (j, g), c in bd.items()}
    return out


def factor_basis(group: FiniteGroup):
    """Invariant factors d_1 | ... | d_k > 1 of an abelian group, and each element's coordinates.

    Element x has coordinates (a_1, .., a_k), 0 <= a_i < d_i, meaning
    x = t_1^a_1 ... t_k^a_k.  They come from the Smith form U R V = D of the
    Schreier relations R of `group.generators()`: a column
    w(s x) - w(x) - u_s for each generator s and element x, where w(x) is
    the exponent vector of x's breadth-first word.  Then x has coordinates
    U w(x) mod D, less the rows where D is 1.
    """
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


class AbelianResolution:
    """The tensor product of the periodic resolutions of an abelian group's cyclic factors.

    Same interface as `cohomology.SmallResolution`: `rank(p)` and
    `boundary(p)`, built on demand and kept.  Only the boundaries are kept;
    the Z-level d and h that certify a level are rebuilt when the
    resolution grows.
    """

    __slots__ = ("group", "orders", "coords", "boundaries")

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.orders, self.coords = factor_basis(group)
        self.boundaries = [None]  # F_0 maps onto Z by the augmentation

    def rank(self, p: int) -> int:
        return math.comb(p + len(self.orders) - 1, p)

    def boundary(self, p: int) -> list:
        self._extend(p)
        return self.boundaries[p]

    def _extend(self, length: int):
        with _EXTEND_LOCK:
            top = len(self.boundaries) - 1
            if top >= length:
                return
            n = self.group.order
            element = {a: x for x, a in enumerate(self.coords)}
            if len(element) != n:
                raise ExactnessViolation("the factor coordinates do not number the group's elements")
            if top:
                d_below = z_boundary(self.group, self.boundaries[top], self.rank(top - 1) * n)
            else:
                d_below = SparseCols(1, n)
                d_below.entries = [{0: 1} for _ in range(n)]
            h_below = self._homotopy(top - 1, element)
            for p in range(top + 1, length + 1):
                gens = self._generators(p, element)
                d_at = z_boundary(self.group, gens, d_below.cols)
                h_at = self._homotopy(p - 1, element)
                # d_p is a G-map by construction (column i*n + g is g times column
                # i*n + e), so d d vanishes once it vanishes on the generators
                on_gens = SparseCols(d_at.rows, 0)
                on_gens.cols, on_gens.entries = len(gens), d_at.entries[self.group.identity :: n]
                if any(d_below.compose(on_gens).entries):
                    raise ExactnessViolation(f"the resolution's boundaries do not compose to zero at F_{p}")
                # d_p h_(p-1) + h_(p-2) d_(p-1) = 1, summed column by column
                for c, col in enumerate(h_at.entries):
                    acc = {}
                    for right, left in ((col, d_at.entries), (d_below.entries[c], h_below.entries)):
                        for mid, v in right.items():
                            for r, w in left[mid].items():
                                acc[r] = acc.get(r, 0) + v * w
                    if {r: x for r, x in acc.items() if x} != {c: 1}:
                        raise ExactnessViolation(f"the contracting homotopy fails on F_{p - 1}")
                self.boundaries.append(gens)
                d_below, h_below = d_at, h_at

    def _generators(self, p: int, element: dict) -> list:
        """The boundaries of the generators of F_p, one per composition of p."""
        k = len(self.orders)
        # powers[i][a] = t_i^a, the element with coordinate a on factor i and 0 elsewhere
        powers = [[element[(0,) * i + (a,) + (0,) * (k - 1 - i)] for a in range(d)] for i, d in enumerate(self.orders)]
        e = element[(0,) * k]
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

    def _homotopy(self, p: int, element: dict) -> SparseCols:
        """h_p: F_p -> F_(p+1) on the Z-bases, and h_(-1) = eta: Z -> F_0."""
        n, orders = self.group.order, self.orders
        k = len(orders)
        if p < 0:
            out = SparseCols(n, 1)
            out.entries[0] = {element[(0,) * k]: 1}
            return out
        above = {q: j for j, q in enumerate(_compositions(p + 1, k))}
        comps = _compositions(p, k)
        out = SparseCols(len(above) * n, len(comps) * n)
        for j, q in enumerate(comps):
            for x, a in enumerate(self.coords):
                col = out.entries[j * n + x]
                # the term eta eps (x) .. (x) eta eps (x) h (x) 1 .. (x) 1 with h on factor i
                # needs q_1 = .. = q_(i-1) = 0, and sends a_1 .. a_(i-1) to 0
                for i, qi in enumerate(q):
                    row = above[q[:i] + (qi + 1,) + q[i + 1 :]] * n
                    head, tail = (0,) * i, a[i + 1 :]
                    if qi % 2 == 0:
                        for b in range(a[i]):
                            col[row + element[head + (b,) + tail]] = 1
                    elif a[i] == orders[i] - 1:
                        col[row + element[head + (0,) + tail]] = 1
                    if qi:
                        break
        return out
