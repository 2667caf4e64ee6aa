import random

import pytest
from hypothesis import given, settings, strategies as st

from upic import _kernels_py
from upic.errors import BoundaryNotInCycles
from upic.intmatrix import (
    AbelianInvariants,
    IntMatrix,
    LatticeSpan,
    SparseCols,
    cokernel_invariants,
    cycle_lattice,
    in_column_span,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
    subquotient_invariants,
    unimodular_inverse,
)
from conftest import determinant, is_unimodular


def check_smith_laws(a):
    s = smith_normal_form(a)
    assert s.u.mul(a).mul(s.v) == s.d
    assert is_unimodular(s.u) and is_unimodular(s.v)
    diag = s.diagonal()
    assert len(diag) == a.rows
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert all(b % x == 0 for x, b in zip(nz, nz[1:]))
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert s.d.data[i][j] == 0


def test_smith_2x2_example():
    s = smith_normal_form(IntMatrix(2, 2, [[2, 4], [6, 8]]))
    assert s.diagonal() == [2, 4]


def test_smith_identity():
    ident = IntMatrix.identity(3)
    s = smith_normal_form(ident)
    assert s.diagonal() == [1, 1, 1]
    assert s.u == ident and s.v == ident


def test_smith_zero_1x1():
    assert smith_normal_form(IntMatrix(1, 1, [[0]])).diagonal() == [0]


def test_smith_diagonal_has_one_entry_per_row():
    # rows past the columns are free coordinates of the cokernel: entry 0
    tall = IntMatrix(3, 1, [[2], [4], [6]])
    check_smith_laws(tall)
    assert smith_normal_form(tall).diagonal() == smith_diagonal(tall) == [2, 0, 0]
    assert cokernel_invariants(tall) == AbelianInvariants(2, [2])
    assert smith_diagonal(IntMatrix.zeros(3, 0)) == [0, 0, 0]
    assert smith_diagonal(IntMatrix(1, 3, [[2, 4, 6]])) == [2]


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_smith_empty_shapes(rows, cols):
    a = IntMatrix.zeros(rows, cols)
    s = smith_normal_form(a)
    assert s.d.rows == rows and s.d.cols == cols
    check_smith_laws(a)


def test_smith_random_suite():
    rng = random.Random(1)
    for _ in range(60):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_smith_laws(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_smith_laws_hypothesis(m, n, seed):
    rng = random.Random(seed)
    a = IntMatrix(m, n, [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
    check_smith_laws(a)


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix(1, 1, [[2]])) == AbelianInvariants(0, [2])
    assert cokernel_invariants(IntMatrix(1, 0, [[]])) == AbelianInvariants(1)
    assert cokernel_invariants(IntMatrix(2, 2, [[2, 0], [0, 1]])) == AbelianInvariants(0, [2])


def test_cokernel_unimodular_invariance():
    rng = random.Random(2)
    from conftest import random_unimodular_pair

    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(m, n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        p, _ = random_unimodular_pair(m, rng)
        q, _ = random_unimodular_pair(n, rng)
        assert cokernel_invariants(p.mul(a).mul(q)) == cokernel_invariants(a)


def test_subquotient_examples():
    assert subquotient_invariants(IntMatrix.identity(2), IntMatrix(2, 2, [[2, 0], [0, 3]])) == AbelianInvariants(0, [6])
    assert subquotient_invariants(IntMatrix.identity(2), IntMatrix.identity(2)).is_trivial
    assert subquotient_invariants(IntMatrix.identity(1), IntMatrix.zeros(1, 0)) == AbelianInvariants(1)
    with pytest.raises(ValueError):
        subquotient_invariants(IntMatrix.identity(2), IntMatrix.zeros(1, 0))


def test_subquotient_matches_cokernel_for_identity_cycles():
    rng = random.Random(3)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(0, 5)
        a = IntMatrix(m, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        assert subquotient_invariants(IntMatrix.identity(m), a) == cokernel_invariants(a)


def test_subquotient_boundary_outside_cycles():
    with pytest.raises(BoundaryNotInCycles):
        subquotient_invariants(IntMatrix(2, 1, [[2], [0]]), IntMatrix(2, 1, [[1], [0]]))


def test_solve_examples():
    assert solve_integer(IntMatrix(1, 1, [[2]]), [4]) == [2]
    assert solve_integer(IntMatrix(1, 1, [[2]]), [3]) is None
    assert solve_integer(IntMatrix(2, 2, [[1, 1], [0, 2]]), [3, 4]) == [1, 2]


def test_solve_random_consistency():
    rng = random.Random(4)

    def dense():
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        return a, [rng.randint(-3, 3) for _ in range(n)]

    def sparse_tall():  # few nonzero solution coordinates, as for boundary columns
        m, n = rng.randint(6, 12), rng.randint(2, 6)
        a = IntMatrix(m, n, [[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)])
        x = [0] * n
        for c in rng.sample(range(n), rng.randint(0, 2)):
            x[c] = rng.choice((1, -1, 3))
        return a, x

    for family in (dense, sparse_tall):
        for _ in range(40):
            a, x = family()
            b = a.apply(x)
            y = solve_integer(a, b)
            assert y is not None
            assert a.apply(y) == b


def _dense_solve(a, b):
    """Dense forward reduction and back-substitution against the full Hermite form."""
    h, v, pivots = a.hermite()
    residual = list(b)
    y = []
    for r, c in pivots:
        val = residual[r]
        p = h.data[r][c]
        if val % p:
            return None
        q = val // p
        if q:
            y.append((c, q))
            col = h.column(c)
            residual = [x - q * e for x, e in zip(residual, col)]
    if any(residual):
        return None
    return [sum(row[c] * q for c, q in y) for row in v.data]


def test_membership_and_solve_match_dense_reference():
    """in_column_span and solve_integer agree with the dense reduction on every family."""
    rng = random.Random(8)
    big = 1 << 70

    def entry(scale):
        return rng.randint(-scale, scale)

    def relation_free():
        m = rng.randint(0, 5)
        return IntMatrix(m, 0, [[] for _ in range(m)])

    def rank_deficient():  # a product through a narrower middle, with a zero column
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        k = rng.randint(1, min(m, n) - 1)
        left = IntMatrix(m, k, [[entry(3) for _ in range(k)] for _ in range(m)])
        right = IntMatrix(k, n, [[entry(3) for _ in range(n)] for _ in range(k)])
        a = left.mul(right)
        z = rng.randrange(n)
        return IntMatrix(m, n, [row[:z] + [0] + row[z + 1 :] for row in a.data])

    def torsion():  # every entry, so every pivot, a multiple of d > 1
        m, n, d = rng.randint(1, 6), rng.randint(1, 6), rng.choice((2, 3, 6))
        return IntMatrix(m, n, [[d * entry(3) for _ in range(n)] for _ in range(m)])

    def wide_entries():
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        return IntMatrix(m, n, [[rng.choice((0, 0, 1, entry(big))) for _ in range(n)] for _ in range(m)])

    def targets(a):
        x = [rng.choice((0, 1, -2, entry(big))) for _ in range(a.cols)]
        inside = a.apply(x)
        near = list(inside)
        if near:
            near[rng.randrange(a.rows)] += rng.choice((1, -1, big))
        return [inside, near, [entry(5) for _ in range(a.rows)], [0] * a.rows]

    verdicts = []
    for family in (relation_free, rank_deficient, torsion, wide_entries):
        for _ in range(60):
            a = family()
            bs = targets(a)
            refs = [_dense_solve(a, b) for b in bs]
            for b, ref in zip(bs, refs):
                assert in_column_span(a, [b]) == (ref is not None)
                x = solve_integer(a, b)
                assert (x is None) == (ref is None)
                if x is not None:
                    assert a.apply(x) == b
                verdicts.append(ref is not None)
            assert in_column_span(a, bs) == all(ref is not None for ref in refs)
    assert any(verdicts) and not all(verdicts)
    with pytest.raises(ValueError):
        in_column_span(IntMatrix(2, 1, [[1], [0]]), [[1]])


def _grown(columns) -> LatticeSpan:
    span = LatticeSpan()
    for col in columns:
        span.add({i: x for i, x in enumerate(col) if x})
    return span


def test_grown_span_equals_the_loaded_hermite_span():
    """A span grown column by column has the pivots and basis of `IntMatrix.span()` of the same columns."""
    rng = random.Random(17)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 8)
        cols = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6, -7)) for _ in range(m)] for _ in range(n)]
        cols.insert(rng.randrange(n + 1), [0] * m)
        cols.insert(rng.randrange(n + 2), list(rng.choice(cols)))
        a = IntMatrix.from_columns(m, cols)
        grown, loaded = _grown(cols), a.span()
        assert sorted(grown.basis) == [r for r, _ in a.hermite()[2]]
        assert grown.basis == loaded.basis and not grown.trans
        pivots = sorted(grown.basis)
        for k, s in enumerate(pivots):
            b = grown.basis[s]
            assert min(b) == s and b[s] > 0
            assert all(0 <= b.get(t, 0) < grown.basis[t][t] for t in pivots[k + 1 :])
        for _ in range(4):
            v = [rng.randint(-4, 4) for _ in range(m)]
            assert grown.contains({i: x for i, x in enumerate(v) if x}) == (solve_integer(a, v) is not None)


def test_span_add_negates_and_runs_euclid():
    """A negative leading entry is negated; a leading entry the pivot does not divide swaps in by Euclid."""
    span = _grown([[-4, 3]])
    assert span.basis == {0: {0: 4, 1: -3}}
    span.add({0: 6})  # gcd(4, 6) = 2 leads row 0; row 1 gets 18 / 2
    assert span.basis == {0: {0: 2, 1: 3}, 1: {1: 9}}
    assert span.basis == IntMatrix(2, 2, [[-4, 6], [3, 0]]).span().basis
    assert span.contains({0: 2, 1: 3}) and span.contains({1: -9}) and not span.contains({1: 3})
    span.add({1: 3})  # the new pivot at row 1 reduces the entry above it
    assert span.basis == {0: {0: 2}, 1: {1: 3}}


def _reference_product(a, b, n):
    return [[sum(row[t] * b[t][j] for t in range(len(row))) for j in range(n)] for row in a]


def test_matmul_matches_reference():
    """The zero-skipping product equals the triple loop on sparse, block and dense operands."""
    rng = random.Random(12)

    def entry():
        return rng.choice((rng.randint(-9, 9), rng.randint(-(1 << 70), 1 << 70)))

    def operand(kind, m, n):
        if kind == "permutation":  # at most one signed unit per row; some rows stay zero
            out = [[0] * n for _ in range(m)]
            for row in out:
                if n and rng.random() < 0.8:
                    row[rng.randrange(n)] = rng.choice((1, -1))
            return out
        if kind == "block":  # nonzero only where the row band equals the column band
            return [[entry() if 3 * i // m == 3 * j // n else 0 for j in range(n)] for i in range(m)]
        return [[entry() for _ in range(n)] for _ in range(m)]

    kinds = ("permutation", "block", "dense")
    for trial in range(90):
        m, k, n = rng.randint(0, 7), rng.randint(1, 7), rng.randint(0, 7)
        a = operand(kinds[trial % 3], m, k)
        b = operand(kinds[trial // 3 % 3], k, n)
        if m and trial % 5 == 0:
            a[rng.randrange(m)] = [0] * k
        if n and trial % 7 == 0:
            j = rng.randrange(n)
            for row in b:
                row[j] = 0
        assert _kernels_py.matmul(a, b) == _reference_product(a, b, n)
    for m, n in ((0, 0), (3, 0), (0, 4), (3, 4)):
        assert IntMatrix(m, 0, [[] for _ in range(m)]).mul(IntMatrix.zeros(0, n)) == IntMatrix.zeros(m, n)


def test_kernel_basis_annihilates():
    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        k = kernel_basis(a)
        assert a.mul(k).is_zero()
        # saturated: a solution exists for any multiple landing in the kernel
        s = smith_normal_form(a)
        rank = len([d for d in s.diagonal() if d])
        assert k.cols == n - rank


def test_cycle_lattice_properties():
    rng = random.Random(8)
    for trial in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        k = rng.randint(1, 3) if trial % 2 else 0  # relation columns on odd trials only
        d = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        rel = IntMatrix(m, k, [[rng.choice([0, 0, 2, 3, -2]) for _ in range(k)] for _ in range(m)])
        z = cycle_lattice(d, rel)
        assert z.rows == n
        # every basis vector is a cycle: d*x lies in the span of the relations
        for j in range(z.cols):
            assert solve_integer(rel, d.apply(z.column(j))) is not None
        # every cycle is reached: the projected kernel of [d | -rel] lies in the span
        ker = kernel_basis(d.hstack(rel.neg()))
        for j in range(ker.cols):
            assert solve_integer(z, ker.column(j)[:n]) is not None
        # the basis is already in column Hermite form, and the form it carries is the computed one
        assert z.hermite() == IntMatrix(z.rows, z.cols, z.data).hermite()
        assert z.hermite()[0] == z and z.hermite()[0] is not z


def dense_cycle_lattice(d, rel):
    """Hermite basis of the kernel of [d | -rel], projected, by dense elimination only."""
    n = d.cols
    ker = kernel_basis(d.hstack(rel.neg()))
    h, _, pivots = IntMatrix(n, ker.cols, ker.data[:n]).hermite()
    return IntMatrix.from_columns(n, [h.column(c) for _, c in pivots])


@pytest.mark.parametrize(
    "pool",
    [
        [0, 0, 0, 1, -1, 2, -3],  # mostly unit pivots, some remainder
        [0, 0, 2, -2, 3, 4],  # no unit entries: everything is left for the dense remainder
        [0, 0, 0, 0, 0, 1, -1, 6],  # sparse, with zero columns
    ],
)
def test_cycle_lattice_matches_dense_reference(pool):
    rng = random.Random(11)
    for trial in range(60):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        k = rng.randint(1, 4) if trial % 2 else 0
        d = IntMatrix(m, n, [[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        if n and trial % 3 == 0:
            zero = rng.randrange(n)
            for row in d.data:
                row[zero] = 0
        rel = IntMatrix(m, k, [[rng.choice(pool) for _ in range(k)] for _ in range(m)])
        want = dense_cycle_lattice(d, rel)
        assert cycle_lattice(d, rel) == want
        assert cycle_lattice(SparseCols.from_dense(d), rel) == want


def test_unimodular_inverse():
    rng = random.Random(6)
    from conftest import random_unimodular_pair

    q, qinv = random_unimodular_pair(5, rng)
    assert unimodular_inverse(q) == qinv


def test_determinant():
    assert determinant(IntMatrix(2, 2, [[2, 4], [6, 8]])) == -8
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix.zeros(2, 2)) == 0


def test_invariants_canonical_form():
    inv = AbelianInvariants(1, [2, 6])
    assert inv.render() == "Z x Z/2 x Z/6"
    assert AbelianInvariants(0).render() == "0"
    assert AbelianInvariants(2).render() == "Z^2"
    with pytest.raises(ValueError):
        AbelianInvariants(0, [3, 2])
    with pytest.raises(ValueError):
        AbelianInvariants(0, [1])


def check_kernel_contracts(k, rows, m, n):
    a = IntMatrix(m, n, rows)
    d, u, v = k.snf(rows, m, n, True)
    u, v = IntMatrix(m, m, u), IntMatrix(n, n, v)
    assert u.mul(a).mul(v) == IntMatrix(m, n, d)
    assert is_unimodular(u) and is_unimodular(v)
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))

    h, v, pivots = k.hnf_cols(rows, m, n)
    v = IntMatrix(n, n, v)
    assert a.mul(v) == IntMatrix(m, n, h)
    assert is_unimodular(v)
    assert [c for _, c in pivots] == list(range(len(pivots)))
    assert all(r1 < r2 for (r1, _), (r2, _) in zip(pivots, pivots[1:]))
    for r, c in pivots:
        p = h[r][c]
        assert p > 0
        assert all(h[i][c] == 0 for i in range(r))
        assert all(0 <= h[r][j] < p for j in range(c))
    assert all(h[i][j] == 0 for i in range(m) for j in range(len(pivots), n))


def test_backends_agree():
    """The kernels meet the Smith/Hermite contracts."""
    rng = random.Random(7)
    for trial in range(40):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        if trial % 2:  # rank at most r, so zero divisors and non-pivot rows occur
            r = rng.randint(0, 3)
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            rows = [[sum(row[t] * right[t][j] for t in range(r)) for j in range(n)] for row in left]
        else:
            rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        check_kernel_contracts(_kernels_py, rows, m, n)


def _seed_hnf_cols(a, m, n):
    """The Hermite kernel as it was before live-row operations, kept frozen as a reference.

    Every swap, negation and column operation runs over all rows of h and v.
    """
    h = [list(row) for row in a]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        hr = h[r]
        placed = False
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
            placed = True
            if bj != c:
                for row in h:
                    row[c], row[bj] = row[bj], row[c]
                for row in v:
                    row[c], row[bj] = row[bj], row[c]
            if hr[c] < 0:
                for row in h:
                    row[c] = -row[c]
                for row in v:
                    row[c] = -row[c]
            p = hr[c]
            clean = True
            for j in range(c + 1, n):
                b = hr[j]
                if b:
                    q = b // p
                    if q:
                        for row in h:
                            row[j] -= q * row[c]
                        for row in v:
                            row[j] -= q * row[c]
                    if hr[j]:
                        clean = False
            if clean:
                break
        if not placed:
            continue
        p = hr[c]
        for j in range(c):
            q = hr[j] // p
            if q:
                for row in h:
                    row[j] -= q * row[c]
                for row in v:
                    row[j] -= q * row[c]
        pivots.append((r, c))
        c += 1
    return h, v, pivots


def _hnf_cases(rng):
    """Seeded (rows, m, n) inputs: tall sparse, zero rows and columns, rank-deficient, wide entries, empty shapes."""

    def sparse(m, n, density, pool=(1, -1, 2, -3, 5)):
        return [[rng.choice(pool) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]

    cases = []
    for _ in range(12):  # tall and sparse, like the differentials of the resolutions
        cases.append((sparse(60, 8, 0.05), 60, 8))
        cases.append((sparse(40, 12, 0.1), 40, 12))
    for _ in range(12):  # zero rows and zero columns spliced in
        m, n = rng.randint(3, 14), rng.randint(3, 14)
        rows = sparse(m, n, 0.4)
        for i in rng.sample(range(m), rng.randint(1, m // 2)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(1, n // 2)):
            for row in rows:
                row[j] = 0
        cases.append((rows, m, n))
    for _ in range(12):  # rank at most k through a narrow middle
        m, n = rng.randint(4, 16), rng.randint(4, 16)
        k = rng.randint(1, 3)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        cases.append(([[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(n)] for row in left], m, n))
    for _ in range(6):  # dense, with entries past a machine word
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(([[rng.randint(-(1 << 70), 1 << 70) for _ in range(n)] for _ in range(m)], m, n))
    for k in (0, 1, 5):
        cases.append(([], 0, k))
        cases.append(([[] for _ in range(k)], k, 0))
    return cases


def test_hnf_cols_bit_identical_to_seed_kernel():
    """Live-row operations give the same (h, v, pivots) as operating on every row."""
    rng = random.Random(10)
    cases = _hnf_cases(rng)
    for rows, m, n in cases:
        before = [list(r) for r in rows]
        assert _kernels_py.hnf_cols(rows, m, n) == _seed_hnf_cols(rows, m, n)
        assert rows == before  # the argument is not mutated
    for rows, m, n in cases:
        if m * n >= 200:
            check_kernel_contracts(_kernels_py, rows, m, n)


def test_kernel_signatures_match_tracer_patch_points():
    """The benchmark tracer patches these three kernels and `IntMatrix.hermite`,
    and unpacks their arguments and results by position."""
    import inspect

    from upic._backend import kernels

    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, arity in (("hnf_cols", 3), ("matmul", 2), ("snf", 4)):
        fn = getattr(kernels, name, None)
        assert callable(fn), f"upic._backend.kernels has no {name}"
        params = list(inspect.signature(fn).parameters.values())
        assert len(params) == arity and all(p.kind in positional for p in params), (name, params)
    h, v, pivots = kernels.hnf_cols([[2, 1]], 1, 2)
    d, u, w = kernels.snf([[2, 1]], 1, 2, True)
    assert kernels.matmul([[2, 1]], v) == h and pivots == [(0, 0)]
    assert kernels.matmul(kernels.matmul(u, [[2, 1]]), w) == d
    a = IntMatrix(1, 2, [[2, 1]])
    h, v, pivots = a.hermite()
    assert a.mul(v) == h and list(pivots) == [(0, 0)]


def test_public_constructor_copies_and_checks():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1], [2, 3]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, [[1, 2], [3, 4]])
    rows = [[1, 2], [3, 4]]
    a = IntMatrix(2, 2, rows)
    assert all(r is not s for r, s in zip(a.data, rows))
    rows[0][0] = 9
    assert a.data == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        IntMatrix.from_columns(2, [[1, 2], [3]])


def test_results_share_no_row_with_an_operand():
    rng = random.Random(13)

    def rand(m, n):
        return IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])

    a, b, c = rand(3, 3), rand(3, 3), rand(3, 2)
    columns = [[1, 2, 3], [4, 5, 6]]
    results = {
        "mul": (a.mul(b), [a, b]),
        "add": (a.add(b), [a, b]),
        "hstack": (a.hstack(c), [a, c]),
        "vstack": (a.vstack(b), [a, b]),
        "transpose": (a.transpose(), [a]),
        "block_diagonal": (IntMatrix.block_diagonal([a, IntMatrix.zeros(0, 2), c]), [a, c]),
        "block_diagonal of one": (IntMatrix.block_diagonal([a]), [a]),
        "from_columns": (IntMatrix.from_columns(3, columns), []),
    }
    for name, (out, operands) in results.items():
        assert len(out.data) == out.rows and all(len(r) == out.cols for r in out.data), name
        held = {id(r) for m in operands for r in m.data} | {id(r) for r in columns}
        assert not any(id(r) in held for r in out.data), name
    # the 0x2 block adds two zero columns and no row
    assert results["block_diagonal"][0] == IntMatrix(
        6, 7, [r + [0] * 4 for r in a.data] + [[0] * 5 + r for r in c.data]
    )
    assert results["vstack"][0].data == a.data + b.data
    assert results["from_columns"][0] == IntMatrix(3, 2, [[1, 4], [2, 5], [3, 6]])
    for m, n in ((0, 0), (0, 3), (3, 0)):
        z = IntMatrix.zeros(m, n)
        assert z.transpose() == IntMatrix.zeros(n, m)
        assert z.columns() == [[0] * m for _ in range(n)]
        assert IntMatrix.from_columns(m, z.columns()) == z
