"""Pure-Python integer elimination kernels.

These are the hot inner loops behind every invariant computation: Smith
normal form, column-style Hermite form, and exact matrix products over
arbitrary-precision integers.  The library reaches them only as
`upic._backend.kernels`.

Both forms use the same reduction style: pick the minimal-absolute-value
entry as pivot (deterministic low-index tie-break) and reduce everything
else by floor division, re-picking the pivot until the remainders vanish.
Quotients stay small that way, which is what keeps arbitrary-precision
entries from exploding on the sparse structured matrices this library
produces.  The Hermite form applies each column operation only to the
live rows, those with a nonzero entry in the pivot column; rows of h above
the pivot row are zero there already, so they are never visited.  All
routines take and return plain list-of-list row-major matrices of Python
ints and never mutate their arguments; every returned row is a new list.
"""

from __future__ import annotations

from itertools import compress
from math import gcd


def _identity(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def matmul(a, b):
    """Exact product of row-major integer matrices (len(a[0]) == len(b)).

    Zeros are skipped on both sides: the nonzero (column, value) pairs of
    each row of `b` are listed once, and each nonzero a[i][t] adds only into
    the columns of row t.  `compress` finds the nonzero positions of a row
    at C speed.  The operands here are mostly permutation actions and block
    matrices, a few percent nonzero.
    """
    n = len(b[0]) if b else 0
    cols = range(n)
    b_rows = [[(j, row[j]) for j in compress(cols, row)] for row in b]
    inner = range(len(b))
    out = []
    for row in a:
        acc = [0] * n
        for t in compress(inner, row):
            x = row[t]
            for j, y in b_rows[t]:
                acc[j] += x * y
        out.append(acc)
    return out


def _find_pivot(d, m, n, t):
    # minimal |entry| in d[t:, t:], ties broken by lowest (row, col)
    best = None
    bi = bj = -1
    for i in range(t, m):
        row = d[i]
        for j in range(t, n):
            v = row[j]
            if v:
                av = -v if v < 0 else v
                if best is None or av < best:
                    best, bi, bj = av, i, j
                    if best == 1:
                        return bi, bj
    return (bi, bj) if best is not None else None


def _repair_chain(d, k):
    # (x, y) -> (gcd, lcm) on two diagonal entries is an equivalence over Z;
    # units divide everything and the zeros are already last, so the sweep
    # runs on the entries above 1 and the units are moved to the front
    diag = [d[i][i] for i in range(k)]
    rest = [x for x in diag if x > 1]
    for i in range(len(rest)):
        x = rest[i]
        for j in range(i + 1, len(rest)):
            y = rest[j]
            if y % x:
                g = gcd(x, y)
                rest[j] = x // g * y
                x = g
        rest[i] = x
    for i, x in enumerate([1] * diag.count(1) + rest + [0] * diag.count(0)):
        d[i][i] = x


def snf(a, m: int, n: int, want_transforms: bool):
    """Smith normal form by unimodular row/column operations.

    Returns (d, u, v) where d is the reduced matrix (diagonal, nonnegative,
    with d[0] | d[1] | ...) and, when `want_transforms`, u and v satisfy
    u * a * v == d with det(u), det(v) = +-1.  Otherwise u and v are None.

    Each pivot step clears the pivot's row and column.  Without transforms
    the step stops there, and the divisor chain is restored on the diagonal
    at the end by the pairwise sweep (d_i, d_j) -> (gcd, lcm), an
    equivalence over Z that gives the same diagonal without eliminating the
    block again.  With transforms u and v must stay explicit, so a pivot
    that does not divide the rest of the block has an offending row added
    to its own, recorded in u, and the step runs again.
    """
    d = [list(row) for row in a]
    u = _identity(m) if want_transforms else None
    v = _identity(n) if want_transforms else None

    for t in range(min(m, n)):
        while True:
            pos = _find_pivot(d, m, n, t)
            if pos is None:
                break
            pi, pj = pos
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                if u is not None:
                    u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d:
                    row[t], row[pj] = row[pj], row[t]
                if v is not None:
                    for row in v:
                        row[t], row[pj] = row[pj], row[t]
            pr = d[t]
            if pr[t] < 0:
                for jj in range(t, n):
                    pr[jj] = -pr[jj]
                if u is not None:
                    upr = u[t]
                    for jj in range(m):
                        upr[jj] = -upr[jj]
            p = pr[t]

            dirty = False
            for i in range(t + 1, m):
                dr = d[i]
                b = dr[t]
                if b:
                    q = b // p
                    if q:
                        for jj in range(t, n):
                            dr[jj] -= q * pr[jj]
                        if u is not None:
                            ur, upr = u[i], u[t]
                            for jj in range(m):
                                ur[jj] -= q * upr[jj]
                    if dr[t]:
                        dirty = True
            for j in range(t + 1, n):
                b = pr[j]
                if b:
                    q = b // p
                    if q:
                        for row in d:
                            row[j] -= q * row[t]
                        if v is not None:
                            for row in v:
                                row[j] -= q * row[t]
                    if pr[j]:
                        dirty = True
            if dirty:
                continue
            if u is None:
                break  # the chain is repaired on the diagonal below

            # pivot must divide the remaining submatrix for the chain law
            offender = -1
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender != -1:
                    break
            if offender == -1:
                break
            dr = d[offender]
            for jj in range(t, n):
                pr[jj] += dr[jj]
            ur, upr = u[offender], u[t]
            for jj in range(m):
                upr[jj] += ur[jj]

    if u is None:
        _repair_chain(d, min(m, n))
    return d, u, v


def hnf_cols(a, m: int, n: int):
    """Column-style Hermite form: returns (h, v, pivots) with a * v == h.

    h is in column echelon form: nonzero columns come first, each with a
    positive leading entry in a strictly increasing pivot row; entries to
    the left of a pivot in its row are reduced into [0, pivot).  pivots is
    the list of (row, col) leading positions.  v is unimodular.

    While row r is being reduced, every row of h above r is already zero
    from the pivot column on, so the operations for row r touch only the
    live rows: rows of h at or below r, and rows of v, whose entry in the
    pivot column is nonzero (for a swap, in either swapped column).  A row
    that is zero there is left alone, which is the same result as
    subtracting a multiple of zero from it.
    """
    h = [list(row) for row in a]
    v = _identity(n)
    pivots = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        hr = h[r]
        below = h[r:]  # rows above r are zero from column c on
        live_h = None
        while True:
            best = None
            bj = -1
            for j in range(c, n):
                x = hr[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, bj = ax, j
                        if ax == 1:
                            break
            if best is None:
                break
            if bj != c:
                for row in below:
                    if row[c] or row[bj]:
                        row[c], row[bj] = row[bj], row[c]
                for row in v:
                    if row[c] or row[bj]:
                        row[c], row[bj] = row[bj], row[c]
            live_h = [row for row in below if row[c]]
            live_v = [row for row in v if row[c]]
            if hr[c] < 0:
                for row in live_h:
                    row[c] = -row[c]
                for row in live_v:
                    row[c] = -row[c]
            p = hr[c]
            clean = True
            for j in range(c + 1, n):
                b = hr[j]
                if b:
                    q = b // p
                    if q:
                        for row in live_h:
                            row[j] -= q * row[c]
                        for row in live_v:
                            row[j] -= q * row[c]
                    if hr[j]:
                        clean = False
            if clean:
                break
        if live_h is None:  # row r is zero from column c on: no pivot
            continue
        p = hr[c]
        for j in range(c):
            q = hr[j] // p  # floor keeps residues in [0, p)
            if q:
                for row in live_h:
                    row[j] -= q * row[c]
                for row in live_v:
                    row[j] -= q * row[c]
        pivots.append((r, c))
        c += 1
    return h, v, pivots
