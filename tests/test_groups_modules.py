import random
import time

import pytest

from upic.errors import HasTorsion, NotASubgroup, ValidationError
from upic.groups import FiniteGroup
from upic.intmatrix import AbelianInvariants, IntMatrix
from upic.modules import (
    ModuleMap,
    PresentedModule,
    direct_sum,
    direct_sum_many,
    equivariant_by_transfer,
    equivariant_presentation,
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
from upic.reference import dual_lattice, is_injective, is_surjective, kernel_lattice
from conftest import full_map_validate, full_validate_module


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

    def test_repeated_permutations_close_once(self):
        # one order-48 permutation of 96 points (cycles of lengths 16 and 3, twice), 20,000 times
        cycle = [list(range(k + 1, k + 16)) + [k] for k in (0, 16)] + [[33, 34, 32], [36, 37, 35]]
        perm = [x for block in cycle for x in block] + list(range(38, 96))
        single, single_gens = FiniteGroup.from_permutations([perm])
        start = time.perf_counter()
        group, gens = FiniteGroup.from_permutations([perm] * 20_000)
        elapsed = time.perf_counter() - start
        assert single.order == 48
        assert group.table == single.table and gens == single_gens * 20_000
        assert elapsed < 1.0, f"20,000 copies took {elapsed:.2f}s"

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


def _relabelled(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """An isomorphic copy of the group with its elements renumbered at random."""
    perm = list(range(group.order))
    rng.shuffle(perm)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    return FiniteGroup(table)


def _generated(group: FiniteGroup, gens) -> set:
    """The subgroup generated by `gens`, closed by brute force."""
    out = {group.identity}
    while True:
        more = out | {group.mul(a, b) for a in out for b in list(gens) + list(out)}
        if more == out:
            return out
        out = more


class TestGenerators:
    def groups(self):
        rng = random.Random(12)
        c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
        d4, _ = FiniteGroup.from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
        out = [FiniteGroup.cyclic(n) for n in range(1, 11)]
        out += [FiniteGroup.klein_four(), c2.direct_product(c4), d4, FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)]
        out += [_relabelled(g, rng) for g in (FiniteGroup.klein_four(), c2.direct_product(c4)) for _ in range(3)]
        out.append(c2.direct_product(c2).direct_product(c2).direct_product(c2).direct_product(FiniteGroup.cyclic(3)))
        return out

    def test_generating_and_small(self):
        for g in self.groups():
            gens = g.generators()
            assert isinstance(gens, tuple) and g.identity not in gens
            assert _generated(g, gens) == set(range(g.order))
            assert 2 ** len(gens) <= g.order
            # greedy: each generator is the lowest element outside what the earlier ones generate
            for k, s in enumerate(gens):
                assert s == min(set(range(g.order)) - _generated(g, gens[:k]))

    def test_sizes(self):
        assert FiniteGroup.trivial().generators() == ()
        assert all(len(FiniteGroup.cyclic(n).generators()) == 1 for n in range(7, 11))
        d4, _ = FiniteGroup.from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
        c2xc4 = FiniteGroup.cyclic(2).direct_product(FiniteGroup.cyclic(4))
        assert len(d4.generators()) == 2 and len(c2xc4.generators()) == 2
        assert len(FiniteGroup.symmetric(4).generators()) == 2

    def test_deterministic_and_kept(self):
        for g in self.groups():
            twin = FiniteGroup(g.table)
            assert twin.generators() == g.generators()
            assert g.generators() is g.generators()

    def test_breadth_first_words(self):
        for g in self.groups():
            gens = g.generators()
            words = g.breadth_first_words(gens)
            assert sorted(y for y, _, _ in words) == sorted(set(range(g.order)) - {g.identity})
            earlier = {g.identity}
            for y, i, x in words:
                assert x in earlier and y == g.mul(gens[i], x)
                earlier.add(y)


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
        # one summand with generators or relation columns, zero summands first, around it and last:
        # the sum is that summand; a summand without generators but with relation columns counts
        lone = finite_cyclic_module(s3, 4)
        zero = zero_module(s3)
        lonely = [[zero, zero, lone], [zero, lone, zero], [lone, zero, zero]]
        bare_relations = PresentedModule(s3, 0, IntMatrix.zeros(0, 2), [IntMatrix.zeros(0, 0)] * s3.order)
        families = [fixed, [random_module(s3, rng) for _ in range(4)], [zero] * 3, *lonely, [zero, bare_relations, lone]]
        for mods in families:
            many = direct_sum_many(mods)
            if mods in lonely:
                assert many is lone
            fold = reduce(direct_sum, mods)
            assert many.gens == fold.gens == sum(m.gens for m in mods)
            assert many.relations == fold.relations == _blocks([m.relations for m in mods])
            assert many.action == fold.action
            assert list(many.action) == [_blocks([m.action_of(g) for m in mods]) for g in range(s3.order)]
            assert validate_module(many) == []
        with pytest.raises(ValidationError):
            direct_sum_many([trivial_module(s3), trivial_module(FiniteGroup.cyclic(2))])


class TestZeroModule:
    def test_forms_no_cycle_with_its_group(self):
        """A zero module is built afresh, not kept on its group, so a dropped group is freed by reference counting."""
        import gc

        from upic.complexes import one_term

        builds = (zero_module, lambda g: one_term(trivial_module(g), 0).term(1))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for build in builds:
                assert build(FiniteGroup.cyclic(6)).gens == 0
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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
        assert is_surjective(f)
        k = kernel_lattice(f)
        assert k.cols == 1 and k.column(0) == [2]
        assert not is_injective(f)
        assert ModuleMap.zero(zero_module(c2), z2).validate() == []


# --- checks on a generating set against the element-by-element loops -------


def _with_action(m: PresentedModule, g: int, mat: IntMatrix) -> PresentedModule:
    action = list(m.action)
    action[g] = mat
    return PresentedModule(m.group, m.gens, m.relations, action)


def _random_matrix(rows: int, cols: int, rng: random.Random) -> IntMatrix:
    return IntMatrix(rows, cols, [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])


class TestGeneratorValidation:
    """Checks run on a generating set report exactly what the full loops report."""

    def groups(self):
        rng = random.Random(31)
        c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
        d4, _ = FiniteGroup.from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
        return [
            c2,
            FiniteGroup.cyclic(3),
            c4,
            _relabelled(FiniteGroup.klein_four(), rng),
            FiniteGroup.symmetric(3),
            d4,
            _relabelled(c2.direct_product(c4), rng),
            FiniteGroup.cyclic(6),
        ]

    def test_valid_modules_and_maps(self, monkeypatch):
        from conftest import random_equivariant_map, random_module

        rng = random.Random(1201)
        calls = []
        original = PresentedModule.matrix_congruent

        def counted(self, a, b):
            calls.append(self)
            return original(self, a, b)

        groups = self.groups()
        for trial in range(24):
            group = groups[trial % 8]
            a, b = random_module(group, rng), random_module(group, rng)
            assert validate_module(a) == full_validate_module(a) == []
            assert validate_module(b) == full_validate_module(b) == []
            f = random_equivariant_map(a, b, rng)
            fresh = ModuleMap(a, b, f.matrix)
            monkeypatch.setattr(PresentedModule, "matrix_congruent", counted)
            del calls[:]
            assert fresh.validate() == []
            monkeypatch.setattr(PresentedModule, "matrix_congruent", original)
            assert len(calls) == len(group.generators())  # one congruence per generator
            assert full_map_validate(fresh) == []
            other = ModuleMap(a, b, _random_matrix(b.gens, a.gens, rng))
            assert other.validate() == full_map_validate(other)

    def test_module_broken_on_a_non_generator(self):
        from conftest import random_module

        rng = random.Random(1202)
        broken = 0
        groups = self.groups()
        for trial in range(32):
            group = groups[trial % 8]
            others = [g for g in range(group.order) if g != group.identity and g not in group.generators()]
            if not others:
                continue
            m = random_module(group, rng)
            g = rng.choice(others)
            bad = _with_action(m, g, m.action[g].scale(rng.choice([-1, 2, 3])))
            expected = full_validate_module(bad)
            assert validate_module(bad) == expected
            broken += bool(expected)
        assert broken >= 10

    def test_relation_lattice_not_preserved(self):
        from conftest import random_lattice_with_relations

        rng = random.Random(1203)
        not_preserved = 0
        groups = self.groups()
        for trial in range(24):
            group = groups[trial % 8]
            m = random_lattice_with_relations(group, rng)
            g = rng.randrange(group.order)
            bad = _with_action(m, g, m.action[g].add(_random_matrix(m.gens, m.gens, rng)))
            expected = full_validate_module(bad)
            assert validate_module(bad) == expected
            not_preserved += any("preserve" in v for v in expected)
            f = ModuleMap(bad, m, IntMatrix.identity(m.gens))
            assert f.validate() == full_map_validate(f)
        assert not_preserved >= 10

    def test_generator_products_hold_but_lattice_not_preserved(self):
        """C3 on Z^2 / (1, -1): the generator 1 moves the relation lattice, every product
        with 1 first holds, and two products with 2 first fail; all of them are reported."""
        c3 = FiniteGroup.cyclic(3)
        action = [IntMatrix.identity(2), IntMatrix(2, 2, [[-1, -2], [2, 1]]), IntMatrix(2, 2, [[-1, -1], [-2, -2]])]
        m = PresentedModule(c3, 2, IntMatrix(2, 1, [[1], [-1]]), action)
        assert c3.generators() == (1,)
        assert all(m.matrix_congruent(action[1].mul(action[h]), action[(1 + h) % 3]) for h in range(3))
        assert validate_module(m) == full_validate_module(m) == [
            "action of element 1 does not preserve the relation lattice",
            "action(2)*action(1) differs from action(0) modulo relations",
            "action(2)*action(2) differs from action(1) modulo relations",
        ]

    def test_presentation_needs_a_stable_relation_lattice(self):
        """C2 swapping the generators of Z^2 / (2, 0): the swap moves the relation (2, 0) to (0, 2),
        outside the relation lattice, so the module is invalid and has no relation lattice R."""
        c2 = FiniteGroup.cyclic(2)
        swap = IntMatrix(2, 2, [[0, 1], [1, 0]])
        m = PresentedModule(c2, 2, IntMatrix(2, 1, [[2], [0]]), [IntMatrix.identity(2), swap])
        assert validate_module(m) == ["action of element 1 does not preserve the relation lattice"]
        with pytest.raises(ValidationError, match="action of element 1 does not preserve the relation lattice"):
            equivariant_presentation(m)
        # with both relations the lattice is stable, and the swap acts on its Hermite basis
        ok = PresentedModule(c2, 2, IntMatrix(2, 2, [[2, 0], [0, 2]]), [IntMatrix.identity(2), swap])
        assert validate_module(ok) == []
        f, r, iota = equivariant_presentation(ok)
        assert f.relations.cols == 0 and f.action == ok.action
        assert iota == IntMatrix(2, 2, [[2, 0], [0, 2]]) and r.action[1] == swap
        lattice = norm_one_lattice_of(c2)
        assert equivariant_presentation(lattice)[0] is lattice and equivariant_presentation(lattice)[1].gens == 0

    def test_map_commuting_with_generators_from_an_invalid_source(self):
        """The identity from a module broken off the generators commutes with every generator
        but not with the broken element; the source is invalid, so the full loop runs."""
        from conftest import random_module

        rng = random.Random(1204)
        caught = 0
        groups = self.groups()
        for trial in range(24):
            group = groups[trial % 8]
            others = [g for g in range(group.order) if g != group.identity and g not in group.generators()]
            if not others:
                continue
            target = random_module(group, rng)
            assert validate_module(target) == []
            g = rng.choice(others)
            source = _with_action(target, g, target.action[g].neg())
            validate_module(source)
            f = ModuleMap(source, target, IntMatrix.identity(target.gens))
            expected = full_map_validate(f)
            assert f.validate() == expected
            if expected:
                assert all(target.matrix_congruent(source.action[s], target.action[s]) for s in group.generators())
                caught += 1
        assert caught >= 8

    def test_map_off_the_relations_takes_the_full_loop(self):
        """Z/3 -> Z, 1 |-> 1, over C3 with 2 acting by 4 on Z/3: the map commutes with the
        generator, but not with 2, because it does not send the relation 3 to zero."""
        c3 = FiniteGroup.cyclic(3)
        source = PresentedModule(c3, 1, IntMatrix(1, 1, [[3]]), [IntMatrix(1, 1, [[x]]) for x in (1, 1, 4)])
        target = trivial_module(c3)
        assert validate_module(source) == [] and validate_module(target) == []
        f = ModuleMap(source, target, IntMatrix.identity(1))
        assert f.validate() == full_map_validate(f) == [
            "map does not send source relations into target relations",
            "map does not commute with the action of element 2",
        ]

    def test_constructed_modules_are_valid(self):
        from conftest import random_lattice_with_relations, random_module

        rng = random.Random(1205)
        for group in self.groups():
            subgroups = {frozenset(group.power(g, k) for k in range(group.element_order(g))) for g in range(group.order)}
            induced = [induced_module(group, sorted(h)) for h in sorted(subgroups, key=sorted)]
            lattice = random_lattice_with_relations(group, rng)
            assert validate_module(lattice) == []
            built = induced + [zero_module(group), direct_sum_many(induced + [zero_module(group)])]
            built += [lattice_form(lattice)[0], dual_lattice(lattice), dual_lattice(induced[-1])]
            for m in built:
                assert validate_module(m) == []
                assert full_validate_module(m) == []
            # modules built from one that no check has seen are valid all the same
            unseen = random_module(group, rng, allow_torsion=False)
            assert validate_module(unseen) == []
            assert validate_module(direct_sum_many([induced[0], unseen])) == []
            assert validate_module(lattice_form(random_lattice_with_relations(group, rng))[0]) == []
            assert validate_module(dual_lattice(unseen)) == []

    def test_only_the_checks_mark_validity(self):
        """`_violations` is set to anything but None only by `validate_module` and `ModuleMap.validate`,
        so no constructor can hand back a module or map that skips its check."""
        import ast
        from pathlib import Path

        import upic

        writers = set()
        for path in sorted(Path(upic.__file__).parent.glob("*.py")):
            stack = []

            def visit(node):
                named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                if named:
                    stack.append(node.name)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    none = isinstance(node.value, ast.Constant) and node.value.value is None
                    for target in targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Attribute) and sub.attr == "_violations" and not none:
                                writers.add((path.name, ".".join(stack)))
                for child in ast.iter_child_nodes(node):
                    visit(child)
                if named:
                    stack.pop()

            visit(ast.parse(path.read_text()))
        assert writers == {("modules.py", "validate_module"), ("modules.py", "ModuleMap.validate")}
