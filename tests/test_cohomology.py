import pytest

from upic import cohomology
from upic.cohomology import (
    COCHAIN_RANK_LIMIT,
    HyperTotal,
    cochain_differential,
    cochain_rank,
    cyclic_oracle,
    finite_coeff_bruteforce,
    group_cohomology,
    hypercohomology,
)
from upic.complexes import one_term, two_term, zero_complex
from upic.errors import BudgetExceeded, DegreeTooLarge, NotCyclic
from upic.groups import FiniteGroup
from upic.intmatrix import AbelianInvariants, IntMatrix
from upic.modules import (
    ModuleMap,
    finite_cyclic_module,
    free_module,
    norm_one_lattice,
    regular_module,
    trivial_module,
)

T = FiniteGroup.trivial()
C2 = FiniteGroup.cyclic(2)


def sign_module(group=C2):
    mats = [IntMatrix.identity(1) if g == group.identity else IntMatrix(1, 1, [[-1]]) for g in range(group.order)]
    return free_module(group, mats)


class TestGroupCohomology:
    def test_invariants_of_trivial_action(self):
        assert group_cohomology(C2, trivial_module(C2, 3), 0) == AbelianInvariants(3)

    def test_sign_representation(self):
        assert group_cohomology(C2, sign_module(), 0).is_trivial
        assert group_cohomology(C2, sign_module(), 1) == AbelianInvariants(0, [2])
        assert group_cohomology(C2, sign_module(), 2).is_trivial

    @pytest.mark.parametrize("n", range(2, 7))
    def test_shapiro_h1(self, n):
        g = FiniteGroup.cyclic(n)
        assert group_cohomology(g, regular_module(g), 1).is_trivial

    def test_trivial_group_vanishing(self):
        assert group_cohomology(T, trivial_module(T, 2), 1).is_trivial
        assert group_cohomology(T, finite_cyclic_module(T, 6), 2).is_trivial

    def test_degree_bound(self):
        with pytest.raises(DegreeTooLarge):
            group_cohomology(C2, trivial_module(C2), 4)
        assert group_cohomology(C2, trivial_module(C2), 4, degree_bound=4) == AbelianInvariants(0, [2])

    def test_cochain_sizes(self):
        c6 = FiniteGroup.cyclic(6)
        m = regular_module(c6)
        assert cochain_rank(c6, m, 3) == 6 * 125
        d = cochain_differential(c6, m, 1)
        assert d.rows == 6 * 25 and d.cols == 6 * 5

    def test_cochain_differential_squares_to_zero(self):
        from upic.cohomology import cochain_relations
        from upic.intmatrix import solve_integer

        c4 = FiniteGroup.cyclic(4)
        m = finite_cyclic_module(c4, 4)
        for p in (0, 1):
            square = cochain_differential(c4, m, p + 1).compose(cochain_differential(c4, m, p))
            rel = cochain_relations(c4, m, p + 2)
            for c in range(square.cols):
                if square.entries[c]:
                    assert solve_integer(rel, square.column(c)) is not None


class TestCyclicOracle:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_norm_one_lattice(self, n):
        g = FiniteGroup.cyclic(n)
        j = norm_one_lattice(n)
        assert cyclic_oracle(g, j, 1) == AbelianInvariants(0, [n])
        assert cyclic_oracle(g, j, 2).is_trivial

    def test_trivial_coefficients(self):
        for n in (2, 3, 5):
            g = FiniteGroup.cyclic(n)
            assert cyclic_oracle(g, trivial_module(g), 2) == AbelianInvariants(0, [n])
            assert cyclic_oracle(g, trivial_module(g), 1).is_trivial

    def test_period_two(self):
        g = FiniteGroup.cyclic(3)
        j = norm_one_lattice(3)
        assert cyclic_oracle(g, j, 3) == cyclic_oracle(g, j, 1)

    def test_not_cyclic(self):
        with pytest.raises(NotCyclic):
            cyclic_oracle(FiniteGroup.klein_four(), trivial_module(FiniteGroup.klein_four()), 1)

    def test_matches_cochains_on_random_modules(self, rng):
        from conftest import random_cyclic_module

        for n in range(2, 7):
            g = FiniteGroup.cyclic(n)
            for _ in range(4):
                m = random_cyclic_module(n, rng)
                for i in (1, 2):
                    assert group_cohomology(g, m, i) == cyclic_oracle(g, m, i)


class TestBruteForce:
    def test_klein_h2(self):
        k4 = FiniteGroup.klein_four()
        assert finite_coeff_bruteforce(k4, finite_cyclic_module(k4, 2), 2) == AbelianInvariants(0, [2, 2, 2])

    def test_hom_groups(self):
        assert finite_coeff_bruteforce(C2, finite_cyclic_module(C2, 2), 1) == AbelianInvariants(0, [2])
        assert finite_coeff_bruteforce(T, finite_cyclic_module(T, 5), 1).is_trivial

    def test_budget(self):
        c4 = FiniteGroup.cyclic(4)
        with pytest.raises(BudgetExceeded):
            finite_coeff_bruteforce(c4, finite_cyclic_module(c4, 6), 2, budget=1000)

    def test_matches_cochains(self):
        for group in (C2, FiniteGroup.cyclic(3), FiniteGroup.klein_four()):
            for n in (2, 4):
                m = finite_cyclic_module(group, n)
                for i in (0, 1):
                    assert finite_coeff_bruteforce(group, m, i) == group_cohomology(group, m, i)

    def test_nontrivial_action(self):
        from upic.modules import PresentedModule

        m = PresentedModule(C2, 1, IntMatrix(1, 1, [[3]]), [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        assert finite_coeff_bruteforce(C2, m, 1) == group_cohomology(C2, m, 1)
        assert finite_coeff_bruteforce(C2, m, 1) == cyclic_oracle(C2, m, 1)

    def test_klein_nontrivial_action(self):
        from upic.modules import PresentedModule

        k4 = FiniteGroup.klein_four()
        minus = IntMatrix(1, 1, [[-1]])
        plus = IntMatrix.identity(1)
        # both factor generators invert; their product acts trivially
        action = [plus, minus, minus, plus]
        m = PresentedModule(k4, 1, IntMatrix(1, 1, [[4]]), action)
        for i in (0, 1):
            assert finite_coeff_bruteforce(k4, m, i) == group_cohomology(k4, m, i)


class TestHyper:
    def test_trivial_group_two_term(self):
        z = trivial_module(T)
        k = two_term(ModuleMap(z, z, IntMatrix(1, 1, [[2]])))
        assert hypercohomology(T, k, 1) == AbelianInvariants(0, [2])
        assert hypercohomology(T, k, 0).is_trivial

    def test_sign_two_term_zero_differential(self):
        s = sign_module()
        k = two_term(ModuleMap.zero(s, s))
        assert hypercohomology(C2, k, 1) == AbelianInvariants(0, [2])

    def test_zero_complex(self):
        for i in range(0, 3):
            assert hypercohomology(C2, zero_complex(C2), i).is_trivial

    def test_reduces_to_group_cohomology(self, rng):
        # a one-term complex in degree 0 gives the group cohomology of its
        # module, checked against the cochain-free cyclic closed form
        from conftest import random_cyclic_module

        for n in (2, 3, 4):
            g = FiniteGroup.cyclic(n)
            m = random_cyclic_module(n, rng, max_rank=3)
            for i in (0, 1, 2):
                assert hypercohomology(g, one_term(m, 0), i) == cyclic_oracle(g, m, i)

    def test_shifted_one_term(self):
        # coefficients concentrated in degree 1: H^i = H^(i-1) of the module
        s = sign_module()
        k = one_term(s, 1)
        assert hypercohomology(C2, k, 2) == group_cohomology(C2, s, 1)
        assert hypercohomology(C2, k, 1) == group_cohomology(C2, s, 0)

    def test_shift_compatibility(self, rng):
        # H^n of K shifted by one equals H^(n+1) of K
        from conftest import random_cyclic_module, random_equivariant_map
        from upic.complexes import shift

        c3 = FiniteGroup.cyclic(3)
        a = random_cyclic_module(3, rng, max_rank=2)
        b = random_cyclic_module(3, rng, max_rank=2)
        k = two_term(random_equivariant_map(a, b, rng))
        for i in (0, 1):
            assert hypercohomology(c3, shift(k, 1), i) == hypercohomology(c3, k, i + 1)

    def test_degree_three_periodicity(self):
        # cyclic period two visible at the degree bound
        for n in (2, 3):
            g = FiniteGroup.cyclic(n)
            j = norm_one_lattice(n)
            assert group_cohomology(g, j, 3) == cyclic_oracle(g, j, 3)
            assert cyclic_oracle(g, j, 3) == cyclic_oracle(g, j, 1)

    def test_degree_bound(self):
        s = sign_module()
        with pytest.raises(DegreeTooLarge):
            hypercohomology(C2, one_term(s, 0), 4)

    def test_cochain_rank_limit(self, monkeypatch):
        # C40 with trivial Z: degree-3 cochains have rank 39^3 = 59319
        def no_assembly(*args):
            raise AssertionError("cochains assembled for an oversized input")

        monkeypatch.setattr(cohomology, "cochain_differential", no_assembly)
        g = FiniteGroup.cyclic(40)
        assert 39**3 > COCHAIN_RANK_LIMIT
        with pytest.raises(BudgetExceeded, match="rank 59319"):
            group_cohomology(g, trivial_module(g), 2)

    def test_square_zero_check_runs(self):
        s = sign_module()
        k = two_term(ModuleMap.zero(s, s))
        ht = HyperTotal(C2, k, 1)
        assert ht.cohomology()[1] == AbelianInvariants(0, [2])

    def test_les_order_bookkeeping(self, rng):
        # For the triple H^(i-1)(B) -> H^i(K) -> H^i(A), exactness at the
        # middle forces |H^i(K)| to divide the product of the outer orders;
        # checked on finite coefficients where every group is finite.
        from conftest import random_cyclic_module, random_equivariant_map

        cases = 0
        for n in (2, 3, 4):
            g = FiniteGroup.cyclic(n)
            for _ in range(3):
                a = random_cyclic_module(n, rng, max_rank=2, force_finite=True)
                b = random_cyclic_module(n, rng, max_rank=2, force_finite=True)
                f = random_equivariant_map(a, b, rng)
                k = two_term(f)
                for i in (1, 2):
                    hk = hypercohomology(g, k, i)
                    ha = group_cohomology(g, a, i)
                    hb = group_cohomology(g, b, i - 1)
                    assert hk.free_rank == 0 and ha.free_rank == 0 and hb.free_rank == 0
                    assert (ha.torsion_order() * hb.torsion_order()) % hk.torsion_order() == 0
                    cases += 1
        assert cases >= 18
