"""Exact integer matrix algebra and canonical forms of abelian groups.

Matrices are immutable row-major arrays of Python ints; columns are the
images of generators, so `im(A)` always means the column span.  Everything
downstream (modules, complexes, cohomology) reduces to the operations in
this module: Smith and Hermite forms, integer kernels, cycle lattices,
image membership, and elementary-divisor invariants of cokernels and
subquotients.  `SparseCols` holds the large, sparse cochain differentials;
`cycle_lattice` eliminates their +-1 pivots on the sparse columns and
hands only the remainder to the dense Hermite form.

A Smith diagonal (`smith_diagonal`, `SmithDecomposition.diagonal`) has
one entry per row of its matrix: the order of that Smith coordinate of
the cokernel, 0 for a free Z.  A subquotient Z/B is given by two matrices
in the same ambient coordinates, the columns of `cycles` spanning Z and
those of `boundaries` spanning B; `subquotient_relations` presents it on
the cycle columns and `subquotient_invariants` reads its invariants.

A lattice, fixed or growing, is a `LatticeSpan`: sparse basis vectors
kept in column Hermite form, the normal form `kernels.hnf_cols` gives, so
equal lattices have equal bases.  `IntMatrix.span` loads a matrix's span
once from its cached Hermite form, with each pivot's transform column;
`LatticeSpan.add` grows a span vector by vector for the greedy resolution.
Every membership test and integer solve runs the one forward reduction,
`LatticeSpan.reduce`: `in_column_span` for a fixed matrix, `contains` for
a grown span, and `solve_integer`, which back-substitutes through the
transform columns.  `IntMatrix.mul` (the kernel's `matmul`) skips zero
entries: the permutation actions and block matrices it sees are mostly
zeros.

The public constructor `IntMatrix(rows, cols, data)` copies its rows and
checks the shape.  Matrices built in this module (products, sums, stacks,
transposes, block diagonals, Hermite and Smith forms, kernel bases) are
wrapped by `_wrap` instead, without a copy or a scan: their rows are new
lists, never shared with an operand.  Loops over columns read them
through one transpose (`IntMatrix.columns`) or slice the rows directly.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress

from ._backend import kernels
from .errors import BoundaryNotInCycles


class IntMatrix:
    __slots__ = ("rows", "cols", "data", "_hnf_cache", "_span")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = [list(r) for r in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data
        self._hnf_cache = None
        self._span = None

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return _wrap(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.diagonal(n, n, [1] * n)

    @staticmethod
    def diagonal(rows: int, cols: int, diag) -> "IntMatrix":
        data = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            data[i][i] = d
        return _wrap(rows, cols, data)

    @staticmethod
    def from_columns(rows: int, columns) -> "IntMatrix":
        columns = list(columns)
        if any(len(c) != rows for c in columns):
            raise ValueError("column length mismatch")
        if not columns:
            return IntMatrix.zeros(rows, 0)
        return _wrap(rows, len(columns), [list(r) for r in zip(*columns)])

    def column(self, j: int) -> list:
        return [row[j] for row in self.data]

    def columns(self) -> list:
        """All columns as lists, read through one transpose."""
        if not self.rows:
            return [[] for _ in range(self.cols)]
        return [list(c) for c in zip(*self.data)]

    def transpose(self) -> "IntMatrix":
        return _wrap(self.cols, self.rows, self.columns())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        return _wrap(self.rows, other.cols, kernels.matmul(self.data, other.data))

    def apply(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.data]

    def add(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return _wrap(self.rows, self.cols, [[a + b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)])

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return _wrap(self.rows, self.cols, [[a - b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)])

    def neg(self) -> "IntMatrix":
        return _wrap(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, k: int) -> "IntMatrix":
        return _wrap(self.rows, self.cols, [[k * a for a in r] for r in self.data])

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return _wrap(self.rows, self.cols + other.cols, [r + s for r, s in zip(self.data, other.data)])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return _wrap(self.rows + other.rows, self.cols, [r[:] for r in self.data] + [r[:] for r in other.data])

    @staticmethod
    def block_diagonal(blocks) -> "IntMatrix":
        blocks = list(blocks)
        cols = sum(b.cols for b in blocks)
        out = []
        left = 0
        for b in blocks:
            pad_left, pad_right = [0] * left, [0] * (cols - left - b.cols)
            out.extend(pad_left + row + pad_right for row in b.data)
            left += b.cols
        return _wrap(len(out), cols, out)

    def is_zero(self) -> bool:
        return all(not any(r) for r in self.data)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def hermite(self):
        """Cached column Hermite form (h, v, pivots) with self * v == h."""
        if self._hnf_cache is None:
            h, v, piv = kernels.hnf_cols(self.data, self.rows, self.cols)
            self._hnf_cache = (_wrap(self.rows, self.cols, h), _wrap(self.cols, self.cols, v), tuple(piv))
        return self._hnf_cache

    def span(self) -> "LatticeSpan":
        """The column span, loaded once from the cached Hermite form, with each pivot's transform column."""
        if self._span is None:
            h, v, pivots = self.hermite()
            h_cols, v_cols = h.columns(), v.columns()
            basis = {r: _sparse(h_cols[c]) for r, c in pivots}
            self._span = LatticeSpan(basis, {r: _sparse(v_cols[c]) for r, c in pivots})
        return self._span


def _wrap(rows: int, cols: int, data: list) -> IntMatrix:
    """An IntMatrix around rows this module has just built: no copy, no shape check.

    Every caller passes fresh row lists of the right shape, so no result
    shares a row with an operand or with the caller's input.
    """
    m = object.__new__(IntMatrix)
    m.rows = rows
    m.cols = cols
    m.data = data
    m._hnf_cache = None
    m._span = None
    return m


class SparseCols:
    """Column-sparse integer matrix: per-column {row: value} dicts."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.entries = [dict() for _ in range(cols)]

    @classmethod
    def from_dense(cls, a: IntMatrix) -> "SparseCols":
        out = cls(a.rows, a.cols)
        for i, row in enumerate(a.data):
            for j, x in enumerate(row):
                if x:
                    out.entries[j][i] = x
        return out

    def add(self, r: int, c: int, v: int):
        if v:
            col = self.entries[c]
            nv = col.get(r, 0) + v
            if nv:
                col[r] = nv
            else:
                del col[r]

    def add_block(self, r0: int, c0: int, mat: IntMatrix, sign: int = 1):
        data = mat.data
        for i in range(mat.rows):
            row = data[i]
            for j in range(mat.cols):
                if row[j]:
                    self.add(r0 + i, c0 + j, sign * row[j])

    def compose(self, inner: "SparseCols") -> "SparseCols":
        if inner.rows != self.cols:
            raise ValueError("sparse shape mismatch")
        out = SparseCols(self.rows, inner.cols)
        for c, col in enumerate(inner.entries):
            acc = out.entries[c]
            for mid, v in col.items():
                for r, w in self.entries[mid].items():
                    nv = acc.get(r, 0) + v * w
                    if nv:
                        acc[r] = nv
                    else:
                        acc.pop(r, None)
        return out

    def column(self, c: int) -> list:
        out = [0] * self.rows
        for r, v in self.entries[c].items():
            out[r] = v
        return out

    def to_dense(self) -> IntMatrix:
        data = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.entries):
            for r, v in col.items():
                data[r][c] = v
        return _wrap(self.rows, self.cols, data)


def _sparse(vec) -> dict:
    return dict(zip(compress(range(len(vec)), vec), compress(vec, vec)))


def _sub_multiple(v: dict, q: int, b: dict):
    """v -= q * b in place, dropping the entries that become zero."""
    for i, x in b.items():
        nv = v.get(i, 0) - q * x
        if nv:
            v[i] = nv
        else:
            v.pop(i, None)


class LatticeSpan:
    """A sublattice of Z^n in column Hermite form, for membership tests and integer solves.

    Vectors are sparse {coordinate: value} dicts.  `basis[r]` has its leading
    (lowest nonzero) entry at row r, positive, and its entry at every later
    pivot row t in [0, basis[t][t]): the normal form of `kernels.hnf_cols`,
    one basis per lattice.  `trans[r]`, kept only by `IntMatrix.span`, is
    the transform column that maps onto `basis[r]`.
    """

    __slots__ = ("basis", "trans")

    def __init__(self, basis: dict | None = None, trans: dict | None = None):
        self.basis, self.trans = basis or {}, trans or {}

    def reduce(self, v: dict, steps: list | None = None) -> bool:
        """Forward-reduce `v` in place, leading entry by leading entry; True iff it ends at zero.

        Each (quotient, pivot row) is appended to `steps` when it is a list.
        """
        while v:
            r = min(v)
            b = self.basis.get(r)
            if b is None or v[r] % b[r]:
                return False
            q = v[r] // b[r]
            _sub_multiple(v, q, b)
            if steps is not None:
                steps.append((q, r))
        return True

    def contains(self, v: dict) -> bool:
        return self.reduce(dict(v))

    def add(self, v: dict):
        """Adjoin `v` by unimodular steps: Euclid on each leading entry no basis vector divides."""
        basis, v, touched = self.basis, dict(v), set()
        while not self.reduce(v):
            r = min(v)
            touched.add(r)
            if r not in basis:
                basis[r] = v if v[r] > 0 else {i: -x for i, x in v.items()}
                break
            _sub_multiple(v, v[r] // basis[r][r], basis[r])  # now 0 < v[r] < basis[r][r]: swap the two
            basis[r], v = v, basis[r]
        if not touched:
            return
        # back to the normal form: each vector nonzero at a touched row, at its later pivots in turn
        for s in sorted([s for s, b in basis.items() if not b.keys().isdisjoint(touched)], reverse=True):
            b = basis[s]
            later = b.keys() - {s} & basis.keys()
            while later:
                t = min(later)
                if not 0 <= b.get(t, 0) < basis[t][t]:
                    _sub_multiple(b, b[t] // basis[t][t], basis[t])
                    later |= basis[t].keys() & basis.keys()
                later.remove(t)


class SmithDecomposition:
    """u * a * v == d with u, v unimodular and d diagonal (d1 | d2 | ...)."""

    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        self.u = u
        self.d = d
        self.v = v

    def diagonal(self) -> list:
        """One entry per row: the order of that Smith coordinate of the cokernel, 0 for Z."""
        return _diagonal(self.d.data, self.d.rows, self.d.cols)


_CHUNK_DIGITS = 4000  # under the interpreter's default int-to-str limit of 4300 digits


def _decimal(n: int) -> str:
    """str(n) for an integer of any length.

    Python refuses to convert an int of more than 4300 digits to a string
    unless the limit is lifted for the whole process; this converts it in
    chunks that each stay under the limit.
    """
    if n < 0:
        return "-" + _decimal(-n)
    chunk = 10**_CHUNK_DIGITS
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(n) + "".join(reversed(parts))


class AbelianInvariants:
    """Canonical form of a finitely generated abelian group.

    free_rank plus the elementary-divisor chain (each >= 2, each dividing
    the next).  Two groups are isomorphic iff these agree.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion=()):
        # from a list: a tuple grown from a generator bypasses the tuple free list, which it fills when freed
        torsion = tuple([int(t) for t in torsion])
        if free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion entries must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion chain must satisfy divisibility")
        self.free_rank = free_rank
        self.torsion = torsion

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianInvariants)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{_decimal(t)}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianInvariants({self.render()})"


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    d, u, v = kernels.snf(a.data, a.rows, a.cols, True)
    return SmithDecomposition(_wrap(a.rows, a.rows, u), _wrap(a.rows, a.cols, d), _wrap(a.cols, a.cols, v))


def _diagonal(d, rows: int, cols: int) -> list:
    return [d[i][i] if i < cols else 0 for i in range(rows)]


def smith_diagonal(a: IntMatrix) -> list:
    """`SmithDecomposition.diagonal` without the transform bookkeeping."""
    d, _, _ = kernels.snf(a.data, a.rows, a.cols, False)
    return _diagonal(d, a.rows, a.cols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of {x : a*x == 0}, as columns."""
    _, v, pivots = a.hermite()
    first_free = len(pivots)  # the pivot columns come first
    return _wrap(a.cols, a.cols - first_free, [row[first_free:] for row in v.data])


def cycle_lattice(d: IntMatrix | SparseCols, target_relations: IntMatrix) -> IntMatrix:
    """Hermite basis of {x : d*x lies in the column span of target_relations}.

    `d` is an `IntMatrix` or a `SparseCols`.  The lattice is the kernel of
    [d | -target_relations] projected onto its first d.cols coordinates.
    The stacked matrix is held as sparse columns, and for each unit pivot
    (r, c), taken in the sparsest column first and within it on the row
    with the fewest nonzeros, row r is cleared from every other column by
    unimodular column operations.  The pivot column then cannot carry a
    kernel vector; a column that becomes zero is one.  Only the columns
    left without a unit entry go to a dense `kernel_basis`.  Each column
    carries the projection of its transform, which maps every kernel
    vector back; one Hermite form of the spanning set gives the canonical
    basis, returned with its own Hermite form attached.
    """
    if target_relations.rows != d.rows:
        raise ValueError("row count mismatch between d and the relations")
    n = d.cols
    sparse = d if isinstance(d, SparseCols) else SparseCols.from_dense(d)
    cols = [dict(c) for c in sparse.entries]
    for rel in target_relations.columns():
        cols.append({i: -x for i, x in enumerate(rel) if x})
    # the relation coordinates project to zero
    trans = [{j: 1} for j in range(n)] + [{} for _ in range(target_relations.cols)]
    row_cols = {}
    for j, col in enumerate(cols):
        for r in col:
            row_cols.setdefault(r, set()).add(j)

    spanning = []
    active = set(range(len(cols)))
    heap = [(len(col), j) for j, col in enumerate(cols)]
    heapq.heapify(heap)
    while heap:
        size, c = heapq.heappop(heap)
        col = cols[c]
        if c not in active or size != len(col):
            continue  # pivoted already, or changed and pushed again
        if not col:
            active.discard(c)
            if trans[c]:
                spanning.append(trans[c])
            continue
        units = [r for r, x in col.items() if x == 1 or x == -1]
        if not units:
            continue  # pushed again if a later pivot changes it
        r = min(units, key=lambda i: (len(row_cols[i]), i))
        active.discard(c)
        for i in col:
            row_cols[i].discard(c)
        unit = col.pop(r)
        tc = trans[c]
        for k in row_cols.pop(r):
            ck = cols[k]
            q = ck.pop(r) * unit
            for i, x in col.items():
                nv = ck.get(i, 0) - q * x
                if nv:
                    if i not in ck:
                        row_cols[i].add(k)
                    ck[i] = nv
                else:
                    del ck[i]
                    row_cols[i].discard(k)
            tk = trans[k]
            for j, x in tc.items():
                nv = tk.get(j, 0) - q * x
                if nv:
                    tk[j] = nv
                else:
                    del tk[j]
            heapq.heappush(heap, (len(ck), k))

    rest = sorted(active)
    if rest:
        rows = {i: t for t, i in enumerate(sorted({i for k in rest for i in cols[k]}))}
        remainder = SparseCols(len(rows), len(rest))
        remainder.entries = [{rows[i]: x for i, x in cols[k].items()} for k in rest]
        for y in kernel_basis(remainder.to_dense()).columns():
            v = {}
            for yk, k in zip(y, rest):
                if yk:
                    for j, x in trans[k].items():
                        v[j] = v.get(j, 0) + yk * x
            spanning.append(v)
    span = SparseCols(n, len(spanning))
    span.entries = spanning
    h, _, pivots = span.to_dense().hermite()
    rank = len(pivots)  # the pivot columns come first
    out = _wrap(n, rank, [row[:rank] for row in h.data])
    # independent Hermite columns are their own Hermite form, with v = I;
    # a copy of the rows, so that the cache does not refer back to `out`
    out._hnf_cache = (_wrap(n, rank, [row[:] for row in out.data]), IntMatrix.identity(rank), pivots)
    return out


def in_column_span(a: IntMatrix, vectors) -> bool:
    """Whether every vector of `vectors` lies in the integer column span of `a`.

    Forward reduction only, through `a.span()`; no solution is formed.
    Zero vectors are skipped.
    """
    span = None
    for vec in vectors:
        if len(vec) != a.rows:
            raise ValueError("right-hand side length mismatch")
        if not any(vec):
            continue
        if span is None:
            span = a.span()
        if not span.reduce(_sparse(vec)):
            return False
    return True


def solve_integer(a: IntMatrix, b) -> list | None:
    """An integer solution x of a*x == b, or None if none exists."""
    b = list(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    span, steps = a.span(), []
    if not span.reduce(_sparse(b), steps):
        return None
    x = [0] * a.cols
    for q, r in steps:
        for j, t in span.trans[r].items():
            x[j] += q * t
    return x


def cokernel_invariants(a: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^rows / (column span of a)."""
    diag = smith_diagonal(a)
    return AbelianInvariants(diag.count(0), [d for d in diag if d > 1])


def subquotient_relations(cycles: IntMatrix, boundaries: IntMatrix) -> IntMatrix:
    """Relations R presenting Z/B on the cycle columns: Z/B = Z^cycles.cols / span(R).

    Boundary columns are rewritten in cycle coordinates (raising
    BoundaryNotInCycles when impossible); redundancy among the cycle
    columns is absorbed through the kernel of the cycle matrix.
    """
    if boundaries.rows != cycles.rows:
        raise ValueError("cycles and boundaries must live in the same ambient space")
    coord_cols = []
    for j, col in enumerate(boundaries.columns()):
        x = solve_integer(cycles, col)
        if x is None:
            raise BoundaryNotInCycles(f"boundary column {j} is outside the cycle lattice")
        coord_cols.append(x)
    return kernel_basis(cycles).hstack(IntMatrix.from_columns(cycles.cols, coord_cols))


def subquotient_invariants(cycles: IntMatrix, boundaries: IntMatrix) -> AbelianInvariants:
    """Invariants of the quotient of the cycle lattice by the boundaries."""
    return cokernel_invariants(subquotient_relations(cycles, boundaries))


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (columnwise integer solves)."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    cols = []
    for i in range(a.rows):
        e = [0] * a.rows
        e[i] = 1
        x = solve_integer(a, e)
        if x is None:
            raise ValueError("matrix is not unimodular")
        cols.append(x)
    return IntMatrix.from_columns(a.rows, cols)

