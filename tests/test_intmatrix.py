import random

import pytest
from hypothesis import given, settings, strategies as st

from upic import _kernels_py
from upic.errors import BoundaryNotInCycles
from upic.intmatrix import (
    AbelianInvariants,
    IntMatrix,
    Subquotient,
    cokernel_invariants,
    cycle_lattice,
    determinant,
    is_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    subquotient_invariants,
    unimodular_inverse,
)


def check_smith_laws(a):
    s = smith_normal_form(a)
    assert s.u.mul(a).mul(s.v) == s.d
    assert is_unimodular(s.u) and is_unimodular(s.v)
    diag = s.diagonal()
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
    s = Subquotient(2, IntMatrix.identity(2), IntMatrix(2, 2, [[2, 0], [0, 3]]))
    assert subquotient_invariants(s) == AbelianInvariants(0, [6])
    t = Subquotient(2, IntMatrix.identity(2), IntMatrix.identity(2))
    assert subquotient_invariants(t).is_trivial
    u = Subquotient(1, IntMatrix.identity(1), IntMatrix.zeros(1, 0))
    assert subquotient_invariants(u) == AbelianInvariants(1)


def test_subquotient_matches_cokernel_for_identity_cycles():
    rng = random.Random(3)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(0, 5)
        a = IntMatrix(m, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        s = Subquotient(m, IntMatrix.identity(m), a)
        assert subquotient_invariants(s) == cokernel_invariants(a)


def test_subquotient_boundary_outside_cycles():
    s = Subquotient(2, IntMatrix(2, 1, [[2], [0]]), IntMatrix(2, 1, [[1], [0]]))
    with pytest.raises(BoundaryNotInCycles):
        subquotient_invariants(s)


def test_solve_examples():
    assert solve_integer(IntMatrix(1, 1, [[2]]), [4]) == [2]
    assert solve_integer(IntMatrix(1, 1, [[2]]), [3]) is None
    assert solve_integer(IntMatrix(2, 2, [[1, 1], [0, 2]]), [3, 4]) == [1, 2]


def test_solve_random_consistency():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = a.apply(x)
        y = solve_integer(a, b)
        assert y is not None
        assert a.apply(y) == b


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
        # the basis is already in column Hermite form
        assert z.hermite()[0] == z


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
    """Each importable kernel backend meets the Smith/Hermite contracts; two backends give equal output."""
    backends = [_kernels_py]
    try:
        from upic import _kernels
    except ImportError:
        pass
    else:
        backends.append(_kernels)
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
        for k in backends:
            check_kernel_contracts(k, rows, m, n)
        for k in backends[1:]:
            assert tuple(k.snf(rows, m, n, True)) == tuple(backends[0].snf(rows, m, n, True))
            assert tuple(k.hnf_cols(rows, m, n)) == tuple(backends[0].hnf_cols(rows, m, n))
