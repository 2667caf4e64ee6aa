import random

import pytest

from upic.errors import HasTorsion, NotASubgroup, ValidationError
from upic.groups import FiniteGroup
from upic.intmatrix import AbelianInvariants, IntMatrix
from upic.modules import (
    ModuleMap,
    PresentedModule,
    direct_sum,
    direct_sum_many,
    dual_lattice,
    equivariant_by_transfer,
    finite_cyclic_module,
    free_module,
    induced_module,
    lattice_form,
    norm_one_lattice,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
    validate_module,
    zero_module,
)


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(4)
        assert g.order == 4 and g.identity == 0
        assert g.inv(1) == 3
        assert g.element_order(1) == 4
        assert g.cyclic_generator() == 1

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [0, 1]])

    def test_symmetric_3(self):
        s3 = FiniteGroup.symmetric(3)
        assert s3.order == 6
        assert s3.cyclic_generator() is None
        assert sorted(s3.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]

    def test_symmetric_5(self):
        assert FiniteGroup.symmetric(5).order == 120

    def test_from_permutations_deterministic(self):
        g1, gens1 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
        g2, gens2 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
        assert g1.table == g2.table and gens1 == gens2

    def test_permutation_cap(self):
        with pytest.raises(ValidationError):
            FiniteGroup.from_permutations([list(range(1, 10)) + [0]], cap=5)

    def test_subgroups_and_cosets(self):
        s3 = FiniteGroup.symmetric(3)
        order2 = [g for g in range(6) if s3.element_order(g) == 2][0]
        h = [s3.identity, order2]
        assert s3.is_subgroup(h)
        assert not s3.is_subgroup([order2])
        cosets = s3.left_cosets(h)
        assert len(cosets) == 3
        assert sorted(x for c in cosets for x in c) == list(range(6))
        order3 = [g for g in range(6) if s3.element_order(g) == 3][0]
        with pytest.raises(NotASubgroup):
            s3.left_cosets([s3.identity, order3])  # not closed without its square

    def test_klein_four(self):
        k4 = FiniteGroup.klein_four()
        assert k4.order == 4
        assert all(k4.mul(g, g) == k4.identity for g in range(4))


class TestValidation:
    def test_trivial_ok(self):
        c2 = FiniteGroup.cyclic(2)
        assert validate_module(trivial_module(c2)) == []

    def test_non_involution_rejected(self):
        c2 = FiniteGroup.cyclic(2)
        bad = free_module(c2, [IntMatrix.identity(1), IntMatrix(1, 1, [[2]])])
        violations = validate_module(bad)
        assert violations and "action(1)*action(1)" in violations[0]

    def test_minus_one_on_z2_ok(self):
        c2 = FiniteGroup.cyclic(2)
        m = PresentedModule(c2, 1, IntMatrix(1, 1, [[2]]), [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        assert validate_module(m) == []


class TestInduced:
    def test_whole_group_gives_trivial(self):
        c2 = FiniteGroup.cyclic(2)
        m = induced_module(c2, [0, 1])
        assert m.gens == 1 and validate_module(m) == []

    def test_regular_c2_swaps(self):
        c2 = FiniteGroup.cyclic(2)
        m = regular_module(c2)
        assert m.gens == 2
        assert m.action_of(1).data == [[0, 1], [1, 0]]

    def test_s3_coset_module(self):
        s3 = FiniteGroup.symmetric(3)
        order2 = [g for g in range(6) if s3.element_order(g) == 2][0]
        m = induced_module(s3, [s3.identity, order2])
        assert m.gens == 3
        assert validate_module(m) == []

    def test_regular_rank_is_order(self):
        for g in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
            m = regular_module(g)
            assert m.gens == g.order
            for e in range(g.order):
                mat = m.action_of(e)
                assert all(sum(1 for x in row if x) == 1 for row in mat.data)

    def test_not_a_subgroup(self):
        c4 = FiniteGroup.cyclic(4)
        with pytest.raises(NotASubgroup):
            induced_module(c4, [0, 1])


class TestDual:
    def test_trivial_self_dual(self):
        c2 = FiniteGroup.cyclic(2)
        d = dual_lattice(trivial_module(c2))
        assert d.action_of(1) == IntMatrix.identity(1)

    def test_sign_self_dual(self):
        c2 = FiniteGroup.cyclic(2)
        sign = free_module(c2, [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        assert dual_lattice(sign).action_of(1).data == [[-1]]

    def test_regular_self_dual(self):
        c3 = FiniteGroup.cyclic(3)
        reg = regular_module(c3)
        d = dual_lattice(reg)
        assert all(d.action_of(g) == reg.action_of(g) for g in range(3))

    def test_involution(self):
        c4 = FiniteGroup.cyclic(4)
        m = norm_one_lattice(4)
        dd = dual_lattice(dual_lattice(m))
        assert all(dd.action_of(g) == m.action_of(g) for g in range(4))

    def test_torsion_rejected(self):
        c2 = FiniteGroup.cyclic(2)
        with pytest.raises(HasTorsion):
            dual_lattice(finite_cyclic_module(c2, 2))

    def test_dual_outputs_validate(self):
        for m in (norm_one_lattice(4), regular_module(FiniteGroup.symmetric(3))):
            assert validate_module(dual_lattice(m)) == []

    def test_redundant_generators_normalized(self):
        # Z presented with a redundant generator killed by a unit relation
        c2 = FiniteGroup.cyclic(2)
        m = PresentedModule(
            c2,
            2,
            IntMatrix(2, 1, [[0], [1]]),
            [IntMatrix.identity(2), IntMatrix(2, 2, [[1, 0], [0, 1]])],
        )
        assert m.torsion_free()
        free, to_free, from_free = lattice_form(m)
        assert free.gens == 1
        assert to_free.matrix.mul(from_free.matrix) == IntMatrix.identity(1)
        assert dual_lattice(m).gens == 1

    def test_lattice_form_on_presentations_with_relations(self):
        from conftest import random_lattice_with_relations

        rng = random.Random(909)
        groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 5, 6)] + [FiniteGroup.klein_four(), FiniteGroup.symmetric(3)]
        for trial in range(28):
            group = groups[trial % len(groups)]
            m = random_lattice_with_relations(group, rng)
            assert m.relations.cols and validate_module(m) == []
            free, to_free, from_free = lattice_form(m)
            rank = m.gens - m.relations.cols
            assert free.gens == rank and free.relations.cols == 0
            assert to_free.matrix.mul(from_free.matrix) == IntMatrix.identity(rank)
            assert m.contains_columns(from_free.matrix.mul(to_free.matrix).sub(IntMatrix.identity(m.gens)))
            assert to_free.validate() == [] and from_free.validate() == []
            assert validate_module(free) == []


def _blocks(mats):
    """Block-diagonal matrix, entry by entry, in summand order."""
    rows, cols = sum(m.rows for m in mats), sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.data[i][j]
        r0, c0 = r0 + m.rows, c0 + m.cols
    return IntMatrix(rows, cols, out)


class TestDirectSum:
    def test_many_equals_pairwise_fold(self, rng):
        """One block diagonal per element gives the relations and actions of the two-term fold."""
        from functools import reduce

        from conftest import random_module

        s3 = FiniteGroup.symmetric(3)
        fixed = [
            zero_module(s3),
            finite_cyclic_module(s3, 4),
            regular_module(s3),
            zero_module(s3),
            norm_one_lattice_of(s3),
        ]
        families = [fixed, [random_module(s3, rng) for _ in range(4)], [zero_module(s3)] * 3]
        for mods in families:
            many = direct_sum_many(mods)
            fold = reduce(direct_sum, mods)
            assert many.gens == fold.gens == sum(m.gens for m in mods)
            assert many.relations == fold.relations == _blocks([m.relations for m in mods])
            assert many.action == fold.action
            assert list(many.action) == [_blocks([m.action_of(g) for m in mods]) for g in range(s3.order)]
            assert validate_module(many) == []
        with pytest.raises(ValidationError):
            direct_sum_many([trivial_module(s3), trivial_module(FiniteGroup.cyclic(2))])


class TestNormOne:
    def test_degree_2(self):
        m = norm_one_lattice(2)
        assert m.gens == 1
        assert m.action_of(1).data == [[-1]]
        assert m.underlying_invariants() == AbelianInvariants(1)

    def test_degree_3_companion(self):
        m = norm_one_lattice(3)
        assert m.gens == 2
        assert m.action_of(1).data == [[0, -1], [1, -1]]
        assert validate_module(m) == []

    def test_biquadratic(self):
        k4 = FiniteGroup.klein_four()
        m = norm_one_lattice_of(k4)
        assert m.gens == 3 and validate_module(m) == []

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            norm_one_lattice(1)


class TestModuleMap:
    def test_transfer_is_equivariant(self, rng):
        from conftest import random_module

        for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
            a = random_module(group, rng, allow_torsion=False)
            b = random_module(group, rng, allow_torsion=False)
            seed = IntMatrix(b.gens, a.gens, [[rng.randint(-2, 2) for _ in range(a.gens)] for _ in range(b.gens)])
            f = equivariant_by_transfer(a, b, seed)
            assert f.validate() == []

    def test_transfer_commutes_even_with_torsion(self, rng):
        # equivariance holds for any seed; only the relation condition can fail
        c4 = FiniteGroup.cyclic(4)
        a = finite_cyclic_module(c4, 4)
        b = trivial_module(c4)
        f = equivariant_by_transfer(a, b, IntMatrix(1, 1, [[1]]))
        violations = f.validate()
        assert all("commute" not in v for v in violations)

    def test_non_equivariant_detected(self):
        c2 = FiniteGroup.cyclic(2)
        sign = free_module(c2, [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        f = ModuleMap(trivial_module(c2), sign, IntMatrix(1, 1, [[1]]))
        assert any("commute" in v for v in f.validate())

    def test_relation_free_congruence_checks_shapes(self):
        """Over a lattice congruence is equality; a shape or row-count mismatch still raises."""
        m = trivial_module(FiniteGroup.cyclic(2), 2)
        a = IntMatrix(2, 1, [[1], [0]])
        assert m.matrix_congruent(a, IntMatrix(2, 1, [[1], [0]]))
        assert not m.matrix_congruent(a, IntMatrix(2, 1, [[1], [1]]))
        assert m.contains_columns(IntMatrix.zeros(2, 3)) and not m.contains_columns(a)
        with pytest.raises(ValueError):
            m.matrix_congruent(a, IntMatrix.zeros(2, 2))
        with pytest.raises(ValueError):
            m.matrix_congruent(IntMatrix.zeros(3, 1), IntMatrix.zeros(3, 1))
        with pytest.raises(ValueError):
            m.contains_columns(IntMatrix.zeros(3, 1))

    def test_kernel_and_surjectivity(self):
        c2 = FiniteGroup.cyclic(2)
        z2 = finite_cyclic_module(c2, 2)
        f = ModuleMap(trivial_module(c2), z2, IntMatrix(1, 1, [[1]]))
        assert f.is_surjective()
        k = f.kernel_lattice()
        assert k.cols == 1 and k.column(0) == [2]
        assert not f.is_injective()
        assert ModuleMap.zero(zero_module(c2), z2).validate() == []
