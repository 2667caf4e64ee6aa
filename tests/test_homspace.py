import random
import time

import pytest

from upic.complexes import cohomology_invariants
from upic.errors import ExactnessViolation, ValidationError
from upic.groups import FiniteGroup
from upic.homspace import (
    BRAUER_CAVEAT,
    PIC_CAVEAT,
    HomSpaceData,
    TorusComparisonData,
    _dual_hom_map,
    brauer_a,
    pic,
    topological_report,
    upic_complex,
    upic_dual,
    verify_torus_comparison,
)
from upic.intmatrix import AbelianInvariants, IntMatrix, smith_normal_form, unimodular_inverse
from upic.modules import (
    ModuleMap,
    PresentedModule,
    finite_cyclic_module,
    free_module,
    norm_one_lattice,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
    zero_module,
)

T = FiniteGroup.trivial()


def make_data(group, xg, xh, res_matrix=None, **kw):
    mat = res_matrix if res_matrix is not None else IntMatrix.zeros(xh.gens, xg.gens)
    return HomSpaceData(group, xg, xh, ModuleMap(xg, xh, mat), **kw)


def _product(*groups):
    out = FiniteGroup.trivial()
    for g in groups:
        out = out.direct_product(g)
    return out


C2 = FiniteGroup.cyclic(2)
# name: (group, G^ab, Schur multiplier), as invariant factors
FRONTIER = {
    "C12": (lambda: FiniteGroup.cyclic(12), [12], []),
    "C14": (lambda: FiniteGroup.cyclic(14), [14], []),
    "C48": (lambda: FiniteGroup.cyclic(48), [48], []),
    "A4": (lambda: FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])[0], [3], [2]),
    "C2xC6": (lambda: _product(C2, FiniteGroup.cyclic(6)), [2, 6], [2]),
    "C4xC4": (lambda: _product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)), [4, 4], [4]),
    "D8": (
        lambda: FiniteGroup.from_permutations([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])[0],
        [2, 2],
        [2],
    ),
    "C2^4": (lambda: _product(C2, C2, C2, C2), [2] * 4, [2] * 6),
    "S4": (lambda: FiniteGroup.symmetric(4), [2], [2]),
}


def sln_normalizer_data():
    return make_data(T, zero_module(T), finite_cyclic_module(T, 2))


class TestUPicComplex:
    def test_degrees(self):
        c = upic_complex(sln_normalizer_data())
        assert c.lowest_degree == 0 and c.highest_degree == 1
        assert cohomology_invariants(c, 1) == AbelianInvariants(0, [2])

    def test_split_torus(self):
        c = upic_complex(make_data(T, trivial_module(T, 2), zero_module(T)))
        assert cohomology_invariants(c, 0) == AbelianInvariants(2)

    def test_torsion_in_xg_rejected(self):
        with pytest.raises(ValidationError):
            make_data(T, finite_cyclic_module(T, 2), zero_module(T))

    def test_nonequivariant_res_rejected(self):
        c2 = FiniteGroup.cyclic(2)
        sign = free_module(c2, [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        with pytest.raises(ValidationError):
            make_data(c2, trivial_module(c2), sign, IntMatrix(1, 1, [[1]]))

    def test_res_between_other_modules_rejected(self):
        # a restriction map of the right shape that starts at another rank-2
        # module would compute on that module: pic 0 instead of J_C3's Z/3
        j = norm_one_lattice(3)
        c3 = j.group
        with pytest.raises(ValidationError, match="does not connect"):
            HomSpaceData(c3, j, zero_module(c3), ModuleMap.zero(trivial_module(c3, 2), zero_module(c3)))
        # equal modules built separately do connect
        data = HomSpaceData(c3, j, zero_module(c3), ModuleMap.zero(norm_one_lattice_of(c3), zero_module(c3)))
        assert pic(data).value == AbelianInvariants(0, [3])


class TestPicBrauer:
    def test_sln_normalizer(self):
        rep = pic(sln_normalizer_data())
        assert rep.value == AbelianInvariants(0, [2])
        assert rep.caveat == PIC_CAVEAT and rep.assume_pic_trivial

    @pytest.mark.parametrize("n", range(2, 7))
    def test_norm_one_torus(self, n):
        g = FiniteGroup.cyclic(n)
        d = make_data(g, norm_one_lattice(n), zero_module(g))
        assert pic(d).value == AbelianInvariants(0, [n])
        rep = brauer_a(d)
        assert rep.value.is_trivial and rep.caveat == BRAUER_CAVEAT

    def test_quasi_trivial(self):
        c2 = FiniteGroup.cyclic(2)
        assert pic(make_data(c2, regular_module(c2), zero_module(c2))).value.is_trivial

    def test_trivial_galois_group_brauer_vanishes(self):
        assert brauer_a(sln_normalizer_data()).value.is_trivial

    def test_biquadratic(self):
        k4 = FiniteGroup.klein_four()
        d = make_data(k4, norm_one_lattice_of(k4), zero_module(k4))
        assert pic(d).value == AbelianInvariants(0, [2, 2])
        assert brauer_a(d).value == AbelianInvariants(0, [2])

    def test_brauer_a_is_schur_multiplier(self):
        # brauer_a on J_G = H^2(G, J_G) = H^3(G, Z), the Schur multiplier of G
        c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
        d4, _ = FiniteGroup.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)])
        q8, _ = FiniteGroup.from_permutations([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)])
        assert q8.order == 8 and sum(q8.element_order(g) == 2 for g in range(8)) == 1
        cases = [
            (c2.direct_product(c4), [2]),
            (d4, [2]),
            (c2.direct_product(c2).direct_product(c2), [2, 2, 2]),
            (q8, []),
            (FiniteGroup.cyclic(9), []),
        ]
        for g, schur in cases:
            d = make_data(g, norm_one_lattice_of(g), zero_module(g))
            assert brauer_a(d).value == AbelianInvariants(0, schur)

    @pytest.mark.parametrize("name", list(FRONTIER))
    def test_frontier_closed_forms(self, name):
        # pic on J_G = H^2(G, Z), the dual of G^ab; brauer_a on J_G =
        # H^3(G, Z), the Schur multiplier.  The bar resolution refused or took
        # seconds on all of these; each case here must finish within 10 s.
        build, abelianization, schur = FRONTIER[name]
        start = time.perf_counter()
        g = build()
        d = make_data(g, norm_one_lattice_of(g), zero_module(g))
        assert pic(d).value == AbelianInvariants(0, abelianization)
        assert brauer_a(d).value == AbelianInvariants(0, schur)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"J_{name} pic and brauer_a took {elapsed:.2f}s"

    def test_split_complex_additivity(self, rng):
        # with a zero restriction map and torsion-free stabilizer characters,
        # the total complex splits: pic = H^1(G, XG) (+) H^0(G, XH)
        from conftest import random_module
        from upic.cohomology import group_cohomology
        from upic.intmatrix import cokernel_invariants

        def direct_sum_invariants(a, b):
            torsion = list(a.torsion) + list(b.torsion)
            n = a.free_rank + b.free_rank + len(torsion)
            return cokernel_invariants(IntMatrix.diagonal(n, len(torsion), torsion))

        groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)]
        for trial in range(6):
            group = groups[trial % len(groups)]
            xg = random_module(group, rng, max_rank=2, allow_torsion=False)
            xh = random_module(group, rng, max_rank=2, allow_torsion=False)
            d = make_data(group, xg, xh)
            expected = direct_sum_invariants(
                group_cohomology(group, xg, 1), group_cohomology(group, xh, 0)
            )
            assert pic(d).value == expected

    def test_presentation_invariance(self, rng):
        from conftest import random_unimodular_pair

        c3 = FiniteGroup.cyclic(3)
        xg = norm_one_lattice(3)
        xh = finite_cyclic_module(c3, 3)
        res = ModuleMap(xg, xh, IntMatrix(1, 2, [[1, 1]]))  # reduction to the coinvariants
        assert res.validate() == []
        base = HomSpaceData(c3, xg, xh, res)
        expected_pic = pic(base).value
        expected_br = brauer_a(base).value
        for _ in range(5):
            q, qinv = random_unimodular_pair(xg.gens, rng)
            xg2 = PresentedModule(
                c3, xg.gens, q.mul(xg.relations), [q.mul(xg.action_of(g)).mul(qinv) for g in range(3)]
            )
            p, pinv = random_unimodular_pair(xh.gens, rng)
            xh2 = PresentedModule(
                c3, xh.gens, p.mul(xh.relations), [p.mul(xh.action_of(g)).mul(pinv) for g in range(3)]
            )
            d2 = HomSpaceData(c3, xg2, xh2, ModuleMap(xg2, xh2, p.mul(res.matrix).mul(qinv)))
            assert pic(d2).value == expected_pic
            assert brauer_a(d2).value == expected_br


def _free_smith_coordinates(m):
    """The Smith form of m's relations and the indices i < m.gens of its zero entries.

    Reads the min(rows, cols) diagonal of d and pads it with zeros, on its
    own and not through SmithDecomposition.diagonal.
    """
    s = smith_normal_form(m.relations)
    diag = [s.d.data[i][i] for i in range(min(s.d.rows, s.d.cols))]
    return s, [i for i in range(m.gens) if i >= len(diag) or diag[i] == 0]


def _dual_hom_map_reference(data):
    """_dual_hom_map's matrix entry by entry: each Hom(xh, Z) row applied to each column of res * from_g."""
    s_h, free_h = _free_smith_coordinates(data.xh)
    s_g, free_g = _free_smith_coordinates(data.xg)
    u_inv = unimodular_inverse(s_g.u)
    from_g = IntMatrix.from_columns(data.xg.gens, [u_inv.column(i) for i in free_g])
    res_free = data.res.matrix.mul(from_g)
    cols = [[sum(r * f for r, f in zip(s_h.u.data[i], res_free.column(j))) for j in range(res_free.cols)] for i in free_h]
    return IntMatrix.from_columns(res_free.cols, cols)


class TestDualPipeline:
    def test_dual_hom_map_matches_entrywise_formula(self):
        from conftest import random_equivariant_map, random_lattice_with_relations, random_module

        from upic.cli import FIXTURES, fixture_text
        from upic.taskfile import parse_task_text

        cases = []
        for name in FIXTURES:
            cases.extend(parse_task_text(fixture_text(name)).build().homspace.values())
        fixture_cases = len(cases)
        rng = random.Random(4242)
        groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 6)] + [FiniteGroup.klein_four(), FiniteGroup.symmetric(3)]
        for trial in range(18):
            group = groups[trial % len(groups)]
            xg = random_lattice_with_relations(group, rng) if trial % 2 else random_module(group, rng, allow_torsion=False)
            xh = random_module(group, rng, max_rank=3)
            cases.append(HomSpaceData(group, xg, xh, random_equivariant_map(xg, xh, rng)))
        assert fixture_cases >= 9
        for data in cases:
            assert _dual_hom_map(data)[0] == _dual_hom_map_reference(data)

    def test_stabilizer_torsion_read_off_the_dual_map_smith_form(self):
        """The report's stabilizer torsion is the torsion of the stabilizer character group."""
        from upic.cli import FIXTURES, fixture_text
        from upic.taskfile import parse_task_text

        cases = [sln_normalizer_data()]
        for name in FIXTURES:
            cases.extend(parse_task_text(fixture_text(name)).build().homspace.values())
        assert any(data.xh.underlying_invariants().torsion for data in cases)
        for data in cases:
            rep = upic_dual(data)
            assert rep.stabilizer_torsion == AbelianInvariants(0, data.xh.underlying_invariants().torsion)

    def test_sln_normalizer(self):
        rep = upic_dual(sln_normalizer_data())
        assert rep.h0 == AbelianInvariants(0, [2])
        assert rep.hminus1.is_trivial
        assert rep.stabilizer_torsion == AbelianInvariants(0, [2])

    def test_rank_one_lattice(self):
        rep = upic_dual(make_data(T, trivial_module(T), zero_module(T)))
        assert rep.h0 == AbelianInvariants(1) and rep.hminus1.is_trivial

    def test_connected_stabilizer_line(self):
        rep = upic_dual(make_data(T, zero_module(T), trivial_module(T)))
        assert rep.h0.is_trivial and rep.hminus1 == AbelianInvariants(1)

    def test_hminus1_torsion_free_and_kernel(self, rng):
        from conftest import random_equivariant_map, random_module

        groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 5, 6)] + [
            FiniteGroup.klein_four(),
            FiniteGroup.symmetric(3),
        ]
        runs = 0
        for trial in range(14):
            group = groups[trial % len(groups)]
            xg = random_module(group, rng, max_rank=2, allow_torsion=False)
            xh = random_module(group, rng, max_rank=2)
            res = random_equivariant_map(xg, xh, rng)
            data = HomSpaceData(group, xg, xh, res)
            rep = upic_dual(data)  # raises ExactnessViolation on any bookkeeping failure
            assert not rep.hminus1.torsion
            runs += 1
        assert runs == 14

    @pytest.mark.parametrize(
        "degree, tamper",
        [
            (0, lambda inv: AbelianInvariants(inv.free_rank + 1, inv.torsion)),
            (0, lambda inv: AbelianInvariants(inv.free_rank, list(inv.torsion) + [2])),
            (-1, lambda inv: AbelianInvariants(inv.free_rank + 1, inv.torsion)),
        ],
        ids=["h0-rank", "h0-torsion", "hminus1"],
    )
    def test_tampered_dual_of_a_lattice_complex_is_caught(self, monkeypatch, degree, tamper):
        """J_C4 is its own torsion-free resolution, so the five-term sequence alone checks its dual."""
        import upic.homspace as homspace

        c4 = FiniteGroup.cyclic(4)
        data = make_data(c4, norm_one_lattice_of(c4), zero_module(c4))
        assert upic_dual(data).h0 == AbelianInvariants(3)
        real = homspace.cohomology_invariants
        monkeypatch.setattr(
            homspace, "cohomology_invariants", lambda c, i: tamper(real(c, i)) if i == degree else real(c, i)
        )
        with pytest.raises(ExactnessViolation):
            upic_dual(data)


class TestTopologicalReport:
    def test_split_torus_labels(self):
        d = make_data(T, trivial_module(T, 3), zero_module(T))
        rep = topological_report(d, stabilizer_connected=True)
        assert rep.h0 == AbelianInvariants(3)
        assert rep.h0_label == "pi_1(X(C))"
        assert rep.hminus1_label == "pi_2(X(C))/torsion"
        assert rep.note == ""

    def test_disconnected_stabilizer_unlabeled(self):
        rep = topological_report(sln_normalizer_data(), stabilizer_connected=False)
        assert rep.h0_label is None and rep.hminus1_label is None
        assert "not asserted" in rep.note
        assert rep.hminus1.is_trivial

    def test_kernel_condition_only_labels_pi2(self):
        rep = topological_report(sln_normalizer_data(), stabilizer_connected=False, condition_h1=True)
        assert rep.h0_label is None and rep.hminus1_label == "pi_2(X(C))/torsion"


def sl2_pgl2_data(rho_entry=2, up_entry=2):
    z = trivial_module(T)
    z2 = finite_cyclic_module(T, 2)
    zero = zero_module(T)
    return TorusComparisonData(
        group=T,
        xg_prime=zero,
        xm=z2,
        xt=z,
        xt_prime=z,
        xtsc=z,
        res_gm=ModuleMap.zero(zero, z2),
        mu_m=ModuleMap(z, z2, IntMatrix(1, 1, [[1]])),
        mu_sc=ModuleMap.identity(z),
        rho=ModuleMap(z, z, IntMatrix(1, 1, [[rho_entry]])),
        down=ModuleMap.zero(zero, z),
        up=ModuleMap(z, z, IntMatrix(1, 1, [[up_entry]])),
    )


class TestTorusComparison:
    def test_sl2_pgl2(self):
        rep = verify_torus_comparison(sl2_pgl2_data())
        assert rep.verdict
        for name in ("top", "middle", "bottom"):
            assert rep.cohomology[name][0].is_trivial
            assert rep.cohomology[name][1] == AbelianInvariants(0, [2])

    def test_simply_connected_split(self):
        z = trivial_module(T)
        zero = zero_module(T)
        data = TorusComparisonData(
            group=T,
            xg_prime=zero,
            xm=zero,
            xt=z,
            xt_prime=z,
            xtsc=z,
            res_gm=ModuleMap.zero(zero, zero),
            mu_m=ModuleMap.zero(z, zero),
            mu_sc=ModuleMap.identity(z),
            rho=ModuleMap.identity(z),
            down=ModuleMap.zero(zero, z),
            up=ModuleMap.identity(z),
        )
        rep = verify_torus_comparison(data)
        assert rep.verdict
        assert all(v.is_trivial for d in rep.cohomology.values() for v in d.values())

    def test_corrupted_map(self):
        rep = verify_torus_comparison(sl2_pgl2_data(rho_entry=3))
        assert not rep.verdict
        assert rep.cohomology["bottom"][1] == AbelianInvariants(0, [3])
        assert rep.square_failures

    def test_maps_must_connect_the_named_lattices(self):
        """Each of the six maps must run between the lattices the diagram names, over the declared group."""
        a, b = trivial_module(T), trivial_module(T, 2)
        names = ("res_gm", "mu_m", "mu_sc", "rho", "down", "up")
        lattices = dict(xg_prime=a, xm=a, xt=a, xt_prime=a, xtsc=a)
        TorusComparisonData(T, **lattices, **{n: ModuleMap.identity(a) for n in names})
        for name in names:
            for off in (ModuleMap.zero(b, a), ModuleMap.zero(a, b)):
                maps = {n: ModuleMap.identity(a) for n in names}
                maps[name] = off
                with pytest.raises(ValidationError, match=f"{name} does not map"):
                    TorusComparisonData(T, **lattices, **maps)
        c2 = FiniteGroup.cyclic(2)
        z = trivial_module(c2)
        with pytest.raises(ValidationError, match="declared group"):
            TorusComparisonData(T, **{k: z for k in lattices}, **{n: ModuleMap.identity(z) for n in names})
