"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The lines are printed as they happen (visible with `pytest -s`) and also
collected for the "acceptance criteria" summary section that the conftest
hook writes at the end of every run.
"""

import random
import sys
import time
from functools import wraps

from upic.cohomology import (
    cyclic_oracle,
    finite_coeff_bruteforce,
    group_cohomology,
)
from upic.complexes import (
    BoundedComplex,
    ComplexMap,
    TwoTermSES,
    cohomology_invariants,
    collapse,
    cone,
    dual_complex,
    fibre,
    is_quasi_iso,
    one_term,
    resolve_torsion_free,
    shift,
    two_term,
)
from upic.groups import FiniteGroup
from upic.homspace import HomSpaceData, pic, brauer_a, upic_dual, verify_torus_comparison
from upic.intmatrix import (
    AbelianInvariants,
    IntMatrix,
    smith_normal_form,
    solve_integer,
)
from upic.modules import (
    ModuleMap,
    PresentedModule,
    add_relations,
    direct_sum,
    finite_cyclic_module,
    norm_one_lattice,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
    validate_module,
    zero_module,
)
from conftest import is_unimodular

T = FiniteGroup.trivial()

CRITERION_LINES = []


def criterion(number, summary):
    def deco(fn):
        @wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"FAIL criterion {number}: {summary}"
                CRITERION_LINES.append(line)
                print(line, file=sys.__stdout__, flush=True)
                raise
            line = f"PASS criterion {number}: {summary}"
            CRITERION_LINES.append(line)
            print(line, file=sys.__stdout__, flush=True)

        return wrapped

    return deco


@criterion(1, "Smith form laws on 200 random matrices within 10 s")
def test_criterion_1_smith_laws():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(200):
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        s = smith_normal_form(a)
        assert s.u.mul(a).mul(s.v) == s.d
        assert is_unimodular(s.u) and is_unimodular(s.v)
        diag = s.diagonal()
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(b % x == 0 for x, b in zip(nz, nz[1:]))
        assert all(s.d.data[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"law suite took {elapsed:.2f}s"


@criterion(2, "Shapiro vanishing of H^1 and H^2 for regular modules, each case under 5 s")
def test_criterion_2_shapiro():
    groups = [FiniteGroup.cyclic(n) for n in range(2, 7)] + [FiniteGroup.symmetric(3)]
    for g in groups:
        start = time.perf_counter()
        reg = regular_module(g)
        assert group_cohomology(g, reg, 1).is_trivial
        assert group_cohomology(g, reg, 2).is_trivial
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"order-{g.order} case took {elapsed:.2f}s"


@criterion(3, "cochain H^1/H^2 equals the cyclic closed form on 50 random modules")
def test_criterion_3_cyclic_oracle_equivalence():
    from conftest import random_cyclic_module

    rng = random.Random(103)
    checked = 0
    for n in range(2, 7):
        g = FiniteGroup.cyclic(n)
        for _ in range(10):
            m = random_cyclic_module(n, rng, max_rank=4)
            assert validate_module(m) == []
            for i in (1, 2):
                assert group_cohomology(g, m, i) == cyclic_oracle(g, m, i)
            checked += 1
    assert checked >= 50


@criterion(4, "norm-one torus: pic = Z/n and brauer_a = 0 for n = 2..6")
def test_criterion_4_norm_one():
    for n in range(2, 7):
        g = FiniteGroup.cyclic(n)
        j = norm_one_lattice(n)
        data = HomSpaceData(g, j, zero_module(g), ModuleMap.zero(j, zero_module(g)))
        assert pic(data).value == AbelianInvariants(0, [n])
        assert brauer_a(data).value == AbelianInvariants(0)


@criterion(5, "biquadratic norm-one torus brauer_a = Z/2, frozen after two independent paths agree")
def test_criterion_5_biquadratic():
    start = time.perf_counter()
    k4 = FiniteGroup.klein_four()
    j = norm_one_lattice_of(k4)
    data = HomSpaceData(k4, j, zero_module(k4), ModuleMap.zero(j, zero_module(k4)))
    computed = brauer_a(data).value

    # path 1: dimension shift through the regular module.  The defining
    # sequence 0 -> Z -> Z[G] -> J -> 0 is verified exactly, the middle is
    # checked cohomologically trivial in degrees 2 and 3, so H^2(J) must
    # equal H^3(Z) computed at level 3 by the same cochain machinery.
    reg = regular_module(k4)
    norm_col = IntMatrix(4, 1, [[1], [1], [1], [1]])
    emb = ModuleMap(trivial_module(k4), reg, norm_col)
    proj = ModuleMap(reg, j, IntMatrix(3, 4, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]))
    assert emb.validate() == [] and proj.validate() == []
    assert emb.is_injective() and proj.is_surjective()
    assert proj.compose(emb).is_zero_map()
    ker = proj.kernel_lattice()
    assert all(solve_integer(emb.matrix, ker.column(c)) is not None for c in range(ker.cols))
    assert group_cohomology(k4, reg, 2).is_trivial
    assert group_cohomology(k4, reg, 3).is_trivial
    h3_z = group_cohomology(k4, trivial_module(k4), 3)
    assert h3_z == computed

    # path 2: the degree-2 machinery agrees with exhaustive enumeration on
    # finite coefficients over the same group.
    z4 = finite_cyclic_module(k4, 4)
    assert finite_coeff_bruteforce(k4, z4, 2) == group_cohomology(k4, z4, 2)

    # frozen value, pinned only because the paths above agree
    assert computed == AbelianInvariants(0, [2])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"biquadratic derivation took {elapsed:.2f}s"


@criterion(6, "resolving and dualizing finite cyclic coefficients yields H^0 = Z/n, H^-1 = 0")
def test_criterion_6_dual_pipeline():
    cases = []
    for n in (2, 3, 4):
        cases.append((T, finite_cyclic_module(T, n), n))
    c2 = FiniteGroup.cyclic(2)
    z4_sign = PresentedModule(c2, 1, IntMatrix(1, 1, [[4]]), [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
    assert validate_module(z4_sign) == []
    cases.append((c2, z4_sign, 4))
    for group, module, n in cases:
        y = two_term(ModuleMap.zero(zero_module(group), module))
        psi = resolve_torsion_free(y)
        d = dual_complex(psi.source)
        assert cohomology_invariants(d, 0) == AbelianInvariants(0, [n])
        assert cohomology_invariants(d, -1) == AbelianInvariants(0)


@criterion(7, "closed-field normalizer fixture and the central-extension comparison")
def test_criterion_7_paper_fixtures():
    z2 = finite_cyclic_module(T, 2)
    data = HomSpaceData(T, zero_module(T), z2, ModuleMap.zero(zero_module(T), z2))
    assert pic(data).value == AbelianInvariants(0, [2])
    dual = upic_dual(data)
    assert dual.h0 == AbelianInvariants(0, [2])
    assert dual.hminus1 == AbelianInvariants(0)

    from test_homspace import sl2_pgl2_data

    rep = verify_torus_comparison(sl2_pgl2_data())
    assert rep.verdict
    for name in ("top", "middle", "bottom"):
        assert rep.cohomology[name][0].is_trivial
        assert rep.cohomology[name][1] == AbelianInvariants(0, [2])


@criterion(8, "five-term dual sequence bookkeeping on fixtures and 50 random inputs")
def test_criterion_8_five_term():
    from conftest import random_equivariant_map, random_module

    # bundled fixture data
    fixture_data = []
    for n in range(2, 7):
        g = FiniteGroup.cyclic(n)
        j = norm_one_lattice(n)
        fixture_data.append(HomSpaceData(g, j, zero_module(g), ModuleMap.zero(j, zero_module(g))))
    c2 = FiniteGroup.cyclic(2)
    fixture_data.append(
        HomSpaceData(c2, regular_module(c2), zero_module(c2), ModuleMap.zero(regular_module(c2), zero_module(c2)))
    )
    z2 = finite_cyclic_module(T, 2)
    fixture_data.append(HomSpaceData(T, zero_module(T), z2, ModuleMap.zero(zero_module(T), z2)))
    k4 = FiniteGroup.klein_four()
    j4 = norm_one_lattice_of(k4)
    fixture_data.append(HomSpaceData(k4, j4, zero_module(k4), ModuleMap.zero(j4, zero_module(k4))))
    for data in fixture_data:
        rep = upic_dual(data)
        assert not rep.hminus1.torsion

    rng = random.Random(108)
    groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 5, 6)] + [k4, FiniteGroup.symmetric(3)]
    runs = 0
    while runs < 50:
        group = groups[runs % len(groups)]
        xg = random_module(group, rng, max_rank=2, allow_torsion=False)
        xh = random_module(group, rng, max_rank=2)
        res = random_equivariant_map(xg, xh, rng)
        rep = upic_dual(HomSpaceData(group, xg, xh, res))
        assert not rep.hminus1.torsion
        runs += 1
    assert runs >= 50


@criterion(9, "fibre equals shifted cone and the collapse witnesses are quasi-isomorphisms")
def test_criterion_9_cone_fibre_collapse():
    from conftest import random_equivariant_map, random_module

    rng = random.Random(109)
    groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4)] + [FiniteGroup.symmetric(3)]

    # fibre/cone shift law on a corpus of one-degree maps
    for trial in range(12):
        group = groups[trial % len(groups)]
        a = random_module(group, rng, max_rank=2)
        b = random_module(group, rng, max_rank=2)
        f = random_equivariant_map(a, b, rng)
        phi = ComplexMap(one_term(a, 0), one_term(b, 0), {0: f})
        assert fibre(phi).structurally_equal(shift(cone(phi), -1))
        assert fibre(phi).structurally_equal(two_term(f))

    # collapse witnesses on constructed short exact sequences
    for trial in range(10):
        group = groups[trial % len(groups)]
        b0 = random_module(group, rng, max_rank=2, allow_torsion=False)
        a1 = random_module(group, rng, max_rank=2, allow_torsion=False)
        b1 = direct_sum(b0, a1)
        g = random_equivariant_map(b0, a1, rng)
        d_b = ModuleMap(b0, b1, IntMatrix.identity(b0.gens).vstack(g.matrix))
        b = two_term(d_b)
        a_complex = BoundedComplex(group, 0, [zero_module(group), a1], [ModuleMap.zero(zero_module(group), a1)])
        mu1 = ModuleMap(a1, b1, IntMatrix.zeros(b0.gens, a1.gens).vstack(IntMatrix.identity(a1.gens)))
        mu = ComplexMap(a_complex, b, {1: mu1})
        c1 = add_relations(b1, mu1.matrix)
        nu = ComplexMap(
            b,
            two_term(ModuleMap(b0, c1, d_b.matrix)),
            {0: ModuleMap.identity(b0), 1: ModuleMap(b1, c1, IntMatrix.identity(b1.gens))},
        )
        result = collapse(TwoTermSES(mu, nu))
        ok_eps, _ = is_quasi_iso(result.eps)
        ok_lam, _ = is_quasi_iso(result.lam)
        assert ok_eps and ok_lam


@criterion(10, "torsion-free resolution on 30 random torsion complexes within 120 s")
def test_criterion_10_resolution():
    from conftest import random_equivariant_map, random_module

    rng = random.Random(110)
    groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 5, 6)] + [
        FiniteGroup.klein_four(),
        FiniteGroup.symmetric(3),
    ]
    start = time.perf_counter()
    resolved = 0
    attempts = 0
    while resolved < 30:
        attempts += 1
        assert attempts < 300
        group = groups[attempts % len(groups)]
        shape = attempts % 3
        if shape == 0:
            m = random_module(group, rng, max_rank=3)
            y = one_term(m, rng.randrange(-1, 2))
        elif shape == 1:
            a = random_module(group, rng, max_rank=3)
            b = random_module(group, rng, max_rank=3)
            y = two_term(random_equivariant_map(a, b, rng))
        else:
            a = random_module(group, rng, max_rank=2)
            b = random_module(group, rng, max_rank=3)
            f = random_equivariant_map(a, b, rng)
            quotient = add_relations(b, f.matrix)
            y = BoundedComplex(
                group,
                0,
                [a, b, quotient],
                [f, ModuleMap(b, quotient, IntMatrix.identity(b.gens))],
            )
        if all(t.torsion_free() for t in y.terms):
            continue  # criterion asks for complexes with torsion
        psi = resolve_torsion_free(y)
        assert all(t.torsion_free() for t in psi.source.terms)
        assert len(psi.source.terms) <= len(y.trim().terms) + 1
        ok, _ = is_quasi_iso(psi)
        assert ok
        resolved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"resolutions took {elapsed:.2f}s"
