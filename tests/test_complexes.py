import pytest

from upic.cohomology import cohomology_invariants, is_quasi_iso
from upic.complexes import BoundedComplex, ComplexMap, cone, one_term, two_term, zero_complex
from upic.errors import HasTorsion, NotExact, PreconditionH0, ValidationError
from upic.groups import FiniteGroup
from upic.intmatrix import AbelianInvariants, IntMatrix, cokernel_invariants, free_cohomology, solve_integer
from upic.modules import (
    ModuleMap,
    PresentedModule,
    direct_sum,
    equivariant_by_transfer,
    finite_cyclic_module,
    free_module,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
    validate_module,
    zero_module,
)
from upic.reference import (
    _kernel_lattice_module,
    TwoTermSES,
    add_relations,
    cohomology,
    collapse,
    dual_complex,
    fibre,
    identity_chain_map,
    identity_map,
    is_acyclic,
    resolve_torsion_free,
    shift,
    structurally_equal,
    zero_chain_map,
)

T = FiniteGroup.trivial()


def z_mod(n, group=T):
    return finite_cyclic_module(group, n)


def times(k, group=T):
    m = trivial_module(group)
    return ModuleMap(m, m, IntMatrix(1, 1, [[k]]))


class TestTwoTerm:
    def test_concentrated_degree_1(self):
        c = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        assert c.trim().lowest_degree == 1

    def test_times_two(self):
        c = two_term(times(2))
        assert cohomology_invariants(c, 0).is_trivial
        assert cohomology_invariants(c, 1) == AbelianInvariants(0, [2])

    def test_concentrated_degree_0(self):
        c = two_term(ModuleMap.zero(trivial_module(T), zero_module(T)))
        assert c.trim().highest_degree == 0

    def test_base_degree(self):
        c = shift(two_term(times(2)), -5)
        assert cohomology_invariants(c, 6) == AbelianInvariants(0, [2])

    def test_differential_must_connect_its_terms(self):
        """A differential between equal-rank modules other than the terms is refused."""
        c2 = FiniteGroup.cyclic(2)
        sign = free_module(c2, [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        z = trivial_module(c2)
        with pytest.raises(ValidationError):
            BoundedComplex(c2, 0, [sign, z], [identity_map(trivial_module(c2))])
        equal = BoundedComplex(c2, 0, [z, trivial_module(c2)], [identity_map(trivial_module(c2))])
        assert cohomology_invariants(equal, 0).is_trivial

    def test_dd_zero_enforced(self):
        m = trivial_module(T)
        with pytest.raises(ValidationError):
            BoundedComplex(T, 0, [m, m, m], [times(1), times(1)])


class TestConeAndFibre:
    def test_cone_of_identity_acyclic(self):
        assert is_acyclic(cone(identity_chain_map(one_term(trivial_module(T), 0))))

    def test_cone_of_zero_map_between_lines(self):
        # target sits in degree 0, shifted source in degree -1
        phi = ComplexMap(one_term(trivial_module(T), 0), one_term(trivial_module(T), 0), {0: times(0)})
        c = cone(phi)
        assert cohomology_invariants(c, -1) == AbelianInvariants(1)
        assert cohomology_invariants(c, 0) == AbelianInvariants(1)
        f = fibre(phi)
        assert cohomology_invariants(f, 0) == AbelianInvariants(1)
        assert cohomology_invariants(f, 1) == AbelianInvariants(1)

    def test_cone_from_zero_complex_is_target(self):
        k = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        assert structurally_equal(cone(ComplexMap(zero_complex(T), k, {})), k)

    def test_fibre_is_shifted_cone(self, rng):
        phi = ComplexMap(one_term(trivial_module(T), 0), one_term(trivial_module(T), 0), {0: times(3)})
        assert structurally_equal(fibre(phi), shift(cone(phi), -1))
        assert structurally_equal(fibre(phi), two_term(times(3)))

    def test_object_level_signs(self):
        # cone: -f with target in degree 0; fibre: +f with source in degree 0
        phi = ComplexMap(one_term(trivial_module(T), 0), one_term(trivial_module(T), 0), {0: times(5)})
        c = cone(phi)
        assert c.differential(-1).matrix.data == [[-5]]
        assert fibre(phi).differential(0).matrix.data == [[5]]


class TestCohomology:
    def test_examples(self):
        k = two_term(times(2))
        assert cohomology_invariants(k, 1) == AbelianInvariants(0, [2])
        assert cohomology_invariants(k, 0).is_trivial
        k2 = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        assert cohomology_invariants(k2, 1) == AbelianInvariants(0, [2])

    def test_subquotient_attached(self):
        cycles, relations = cohomology(two_term(times(2)), 1)
        assert cycles.rows == 1 and relations.rows == cycles.cols
        assert cokernel_invariants(relations) == AbelianInvariants(0, [2])

    def test_out_of_range_trivial(self):
        k = two_term(times(2))
        assert cohomology_invariants(k, 7).is_trivial

    def test_long_complex(self):
        # H^i reads the terms of degrees i-1, i and i+1 only, so no degree of a long complex is over a limit
        z = trivial_module(T)
        c = BoundedComplex(T, 0, [z] * 8, [times(2), times(0)] * 3 + [times(2)])
        assert [cohomology_invariants(c, i).render() for i in c.degrees()] == ["0", "Z/2"] * 4


class TestQuasiIso:
    def test_identity(self):
        k = two_term(times(2))
        ok, _ = is_quasi_iso(identity_chain_map(k))
        assert ok

    def test_reduction_map(self):
        k = two_term(times(2))
        k2 = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        phi = ComplexMap(k, k2, {1: ModuleMap(trivial_module(T), z_mod(2), IntMatrix.identity(1))})
        ok, report = is_quasi_iso(phi)
        assert ok and all(v.is_trivial for v in report.values())

    def test_zero_map_fails(self):
        k2 = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        ok, _ = is_quasi_iso(ComplexMap(k2, k2, {}))
        assert not ok


def seeded_complexes_and_maps(rng, trials=15):
    """Seeded complexes over C2, C3, C4, S3 and V4, and valid chain maps between them.

    For seeded f: A -> B and g: B -> C: the complexes [A -f-> B],
    [A -f-> B -> B/f(A)] and [A -gf-> C]; the identity and zero maps of the
    first two, the chain map (1, g) from the first to the third, and the
    torsion-free resolution of the first two.
    """
    from conftest import random_equivariant_map, random_module

    groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4)] + [FiniteGroup.symmetric(3), FiniteGroup.klein_four()]
    complexes, maps = [], []
    for trial in range(trials):
        group = groups[trial % len(groups)]
        a, b, c = (random_module(group, rng, max_rank=2) for _ in range(3))
        f = random_equivariant_map(a, b, rng)
        g = random_equivariant_map(b, c, rng)
        quotient = add_relations(b, f.matrix)
        k = two_term(f)
        k3 = BoundedComplex(group, 0, [a, b, quotient], [f, ModuleMap(b, quotient, IntMatrix.identity(b.gens))])
        kg = two_term(g.compose(f))
        complexes += [k, k3, kg]
        maps += [identity_chain_map(k), zero_chain_map(k, k), identity_chain_map(k3), zero_chain_map(k3, k3)]
        maps += [ComplexMap(k, kg, {0: identity_map(a), 1: g}), resolve_torsion_free(k), resolve_torsion_free(k3)]
    return complexes, maps


def dd_modulo_two(group=T):
    """Z -2-> Z -1-> Z/2, whose d*d = 2 vanishes only modulo the relations."""
    z, z2 = trivial_module(group), z_mod(2, group)
    return BoundedComplex(group, 0, [z, z, z2], [times(2, group), ModuleMap(z, z2, IntMatrix.identity(1))])


class TestCohomologyRoutes:
    def test_free_route_matches_the_subquotient_presentation(self, rng):
        """cohomology_invariants, which reads HyperTotal over the trivial group, equals the invariants of
        the reference `cohomology`'s subquotient presentation in every degree; and where C^(i+1) has no
        relation columns, it equals free_cohomology(d_i, d_(i-1) | R_i), with C^i's relations R_i among
        the boundaries.  The complexes include shifted ones from degree 5 on and Z -2-> Z -1-> Z/2."""
        complexes, maps = seeded_complexes_and_maps(rng)
        complexes += [dd_modulo_two(), dd_modulo_two(FiniteGroup.cyclic(2))]
        complexes += [shift(c, -5) for c in complexes[::4]] + [shift(dd_modulo_two(), -7)]
        routes = {"free": 0, "relations folded": 0, "subquotient": 0}
        for c in complexes + [cone(phi) for phi in maps]:
            for i in range(c.lowest_degree - 1, c.highest_degree + 2):
                want = cohomology_invariants(c, i)
                assert want == cokernel_invariants(cohomology(c, i)[1])
                if c.term(i + 1).relations.cols:
                    routes["subquotient"] += 1
                    continue
                relations = c.term(i).relations
                boundaries = c.differential(i - 1).matrix.hstack(relations)
                assert free_cohomology(c.differential(i).matrix, boundaries) == want
                routes["relations folded" if relations.cols else "free"] += 1
        assert all(routes.values()), routes

    def test_no_subquotient_route_at_run_time(self, rng, monkeypatch):
        """With the subquotient routines refused in every upic module that holds them, and the cycle
        lattice everywhere but the resolutions' kernel step (which builds the trivial group's F_1), the
        torus comparison and the quasi-isomorphism test still give their verdicts."""
        import sys

        from upic.cli import fixture_text
        from upic.homspace import verify_torus_comparison
        from upic.taskfile import parse_task_text

        (data,) = parse_task_text(fixture_text("sl2_pgl2_comparison")).build().comparisons.values()
        groups = verify_torus_comparison(data).cohomology
        assert sum(len(by_degree) for by_degree in groups.values()) == 6
        _, maps = seeded_complexes_and_maps(rng)
        want = []
        for phi in maps:
            cn = cone(phi)
            invariants = {i: cokernel_invariants(cohomology(cn, i)[1]) for i in cn.degrees()}
            report = {i: inv for i, inv in invariants.items() if not inv.is_trivial}
            want.append((not report, report))
        assert {ok for ok, _ in want} == {True, False}

        def refuse(*args):
            raise AssertionError("the subquotient route ran")

        patched = set()
        for name, module in list(sys.modules.items()):
            if name == "upic" or name.startswith("upic."):
                for attr in ("subquotient_relations", "subquotient_invariants", "cycle_lattice"):
                    if hasattr(module, attr) and (attr, name) != ("cycle_lattice", "upic.resolutions"):
                        monkeypatch.setattr(module, attr, refuse)
                        patched.add(f"{name}.{attr}")
        holders = ("upic.intmatrix", "upic.cohomology")
        assert {f"{h}.{a}" for h in holders for a in ("cycle_lattice", "subquotient_invariants")} <= patched
        rep = verify_torus_comparison(data)
        assert rep.verdict and rep.quasi_iso == {"top": True, "bottom": True} and rep.cohomology == groups
        assert [is_quasi_iso(phi) for phi in maps] == want


class TestAcyclicity:
    """The membership test agrees with the invariants of every H^i, and cones need no check."""

    def test_verdicts_match_invariants(self, rng):
        from conftest import invariant_acyclic

        complexes, maps = seeded_complexes_and_maps(rng)
        for k in (two_term(times(2)), two_term(times(0)), two_term(times(-1))):  # torsion, free, none
            complexes.append(k)
            maps += [identity_chain_map(k), zero_chain_map(k, k), resolve_torsion_free(k)]
        seen = set()
        for c in complexes + [cone(phi) for phi in maps]:
            expected = invariant_acyclic(c)
            assert is_acyclic(c) == expected
            seen.add(expected)
        for phi in maps:
            cn = cone(phi)
            ok, report = is_quasi_iso(phi)
            assert ok == invariant_acyclic(cn)
            invariants = {i: cohomology_invariants(cn, i) for i in cn.degrees()}
            assert report == {i: inv for i, inv in invariants.items() if not inv.is_trivial}
            seen.add(("quasi-iso", ok))
        assert seen == {True, False, ("quasi-iso", True), ("quasi-iso", False)}
        assert not is_acyclic(two_term(times(2))) and not is_acyclic(two_term(times(0)))
        assert is_acyclic(two_term(times(-1)))

    def test_resolution_cones_are_acyclic_without_a_smith_form(self, rng, monkeypatch):
        from conftest import invariant_acyclic
        from upic._backend import kernels

        complexes, _ = seeded_complexes_and_maps(rng)
        psis = [resolve_torsion_free(c) for c in complexes + [two_term(times(2))]]
        assert all(invariant_acyclic(cone(psi)) for psi in psis)
        calls = []
        snf = kernels.snf
        monkeypatch.setattr(kernels, "snf", lambda *args: calls.append(args) or snf(*args))
        for psi in psis:
            assert is_acyclic(cone(psi))
        assert calls == []
        monkeypatch.undo()
        # the runtime test takes a Smith diagonal of every remainder, so it is checked outside the patch
        for psi in psis:
            assert is_quasi_iso(psi) == (True, {})

    def test_cones_and_fibres_of_valid_maps_are_valid(self, rng):
        _, maps = seeded_complexes_and_maps(rng)
        for phi in maps:
            assert cone(phi).validate() == []
            assert fibre(phi).validate() == []


def identity_ses():
    """0 -> [0 -> Z> -> [Z -> Z> -> [Z -> 0> -> 0 with the identity middle."""
    z = trivial_module(T)
    b = two_term(identity_map(z))
    a = BoundedComplex(T, 0, [zero_module(T), z], [ModuleMap.zero(zero_module(T), z)])
    c = BoundedComplex(T, 0, [z, zero_module(T)], [ModuleMap.zero(z, zero_module(T))])
    mu = ComplexMap(a, b, {1: identity_map(z)})
    nu = ComplexMap(b, c, {0: identity_map(z)})
    return TwoTermSES(mu, nu)


class TestCollapse:
    def test_minimal_case(self):
        res = collapse(identity_ses())
        assert cohomology_invariants(res.collapsed, 0) == AbelianInvariants(1)
        assert cohomology_invariants(res.collapsed, 1).is_trivial
        ok_eps, _ = is_quasi_iso(res.eps)
        ok_lam, _ = is_quasi_iso(res.lam)
        assert ok_eps and ok_lam

    def test_trivial_sub(self):
        b = two_term(times(2))
        a = two_term(ModuleMap.zero(zero_module(T), zero_module(T)))
        res = collapse(TwoTermSES(ComplexMap(a, b, {}), identity_chain_map(b)))
        assert cohomology_invariants(res.collapsed, 1) == AbelianInvariants(0, [2])
        assert cohomology_invariants(res.collapsed, 0).is_trivial

    def test_sigma_sign(self):
        # sigma carries a minus sign relative to the inclusion
        res = collapse(identity_ses())
        assert res.sigma.matrix.data == [[-1]]

    def test_h0_precondition(self):
        z = trivial_module(T)
        b = two_term(ModuleMap.zero(z, z))  # H^0 = Z != 0
        a = two_term(ModuleMap.zero(zero_module(T), zero_module(T)))
        mu = ComplexMap(a, b, {})
        with pytest.raises(PreconditionH0):
            collapse(TwoTermSES(mu, identity_chain_map(b)))

    def test_not_exact(self):
        z = trivial_module(T)
        b = two_term(identity_map(z))
        a = BoundedComplex(T, 0, [zero_module(T), z], [ModuleMap.zero(zero_module(T), z)])
        mu = ComplexMap(a, b, {1: ModuleMap(z, z, IntMatrix(1, 1, [[2]]))})  # not surjective onto ker
        nu = identity_chain_map(b)
        with pytest.raises(NotExact):
            collapse(TwoTermSES(mu, nu))


# The dual_resolution benchmark's seeded cases [J_C8 -> Z/n1 (+) Z/n2], seeds 1-5: the
# moduli, the 2x7 seed of the transfer, and the ranks of the resolution in degrees 0..1.
J_C8_TO_FINITE = [
    (7, 2, [[2, -2, 2, 1, 3, 1, 1], [2, 0, 1, -2, -1, 3, -3]], [8, 1]),
    (6, 2, [[-2, -3, 3, -1, 2, 3, -3], [2, 3, -1, 1, 3, 3, -2]], [9, 2]),
    (7, 2, [[0, -1, 2, 2, 3, -3, -1], [-3, 1, -2, 3, 0, 2, -1]], [8, 1]),
    (6, 5, [[-3, 3, -1, 3, -1, 1, 2], [3, 1, 0, 0, -3, -2, 3]], [8, 1]),
    (2, 8, [[-3, 0, 0, -3, -2, 0, -3], [-1, -1, 2, 0, 3, 3, 1]], [10, 3]),
]
ONE_TERM_GROUPS = {f"C{n}": FiniteGroup.cyclic(n) for n in (2, 7, 8, 9)} | {
    "S3": FiniteGroup.symmetric(3),
    "V4": FiniteGroup.klein_four(),
    "C2xC4": FiniteGroup.cyclic(2).direct_product(FiniteGroup.cyclic(4)),
}


def j_c8_to_finite(n1, n2, seed_rows):
    """[J_C8 -> Z/n1 (trivial) (+) Z/n2 (sign)] by transfer, both modules validated."""
    c8 = FiniteGroup.cyclic(8)
    xg = norm_one_lattice_of(c8)
    signs = [IntMatrix(2, 2, [[1, 0], [0, (-1) ** k]]) for k in range(8)]
    xh = PresentedModule(c8, 2, IntMatrix(2, 2, [[n1, 0], [0, n2]]), signs)
    assert validate_module(xg) == [] and validate_module(xh) == []
    return two_term(equivariant_by_transfer(xg, xh, IntMatrix(2, 7, seed_rows)))


def assert_resolves_to_itself(y):
    """psi is the identity of y.trim() into y, built with no cycle lattice, cone or certificate."""
    import upic.reference as reference

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cycle_lattice", "cone", "is_quasi_iso"):
            real = getattr(reference, name)
            mp.setattr(reference, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        psi = resolve_torsion_free(y)
    assert calls == []
    yt = y.trim()
    assert psi.target is y
    assert list(psi.source.degrees()) == list(yt.degrees())
    assert all(s is t for s, t in zip(psi.source.terms, yt.terms))
    for i in yt.degrees():
        c = psi.component(i)
        assert c.source is yt.term(i) and c.target is yt.term(i)
        assert c.matrix == IntMatrix.identity(yt.term(i).gens)
    assert is_quasi_iso(psi) == (True, {})


class TestResolve:
    def test_z_mod_2(self):
        y = two_term(ModuleMap.zero(zero_module(T), z_mod(2)))
        psi = resolve_torsion_free(y)
        m = psi.source.trim()
        assert [t.gens for t in m.terms] == [1, 1]
        assert m.differentials[0].matrix.data == [[2]]

    def test_torsion_free_input(self):
        y = two_term(times(2))
        psi = resolve_torsion_free(y)
        assert all(t.torsion_free() for t in psi.source.terms)
        assert cohomology_invariants(psi.source.trim(), 1) == AbelianInvariants(0, [2])

    def test_zero_complex(self):
        psi = resolve_torsion_free(zero_complex(T))
        assert not psi.source.terms

    def test_group_action_resolution(self):
        c2 = FiniteGroup.cyclic(2)
        sign_z4 = PresentedModule(c2, 1, IntMatrix(1, 1, [[4]]), [IntMatrix.identity(1), IntMatrix(1, 1, [[-1]])])
        y = two_term(ModuleMap.zero(zero_module(c2), sign_z4))
        psi = resolve_torsion_free(y)
        assert all(t.torsion_free() for t in psi.source.terms)
        ok, _ = is_quasi_iso(psi)
        assert ok

    def test_independent_resolutions_agree_on_invariants(self):
        # the algorithm's resolution and a hand-built non-minimal one are
        # different torsion-free complexes; all invariants must match
        c2 = FiniteGroup.cyclic(2)
        z2 = finite_cyclic_module(c2, 2)
        y = two_term(ModuleMap.zero(zero_module(c2), z2))
        first = resolve_torsion_free(y).source

        pair = trivial_module(c2, 2)
        second = two_term(ModuleMap(pair, pair, IntMatrix(2, 2, [[2, 0], [0, 1]])))
        psi2 = ComplexMap(second, y, {1: ModuleMap(pair, z2, IntMatrix(1, 2, [[1, 0]]))})
        ok, _ = is_quasi_iso(psi2)
        assert ok
        assert not structurally_equal(first, second)
        degrees = set(y.degrees()) | set(first.degrees()) | set(second.degrees())
        for i in degrees:
            hy = cohomology_invariants(y, i)
            assert cohomology_invariants(first, i) == hy
            assert cohomology_invariants(second, i) == hy

    def test_random_torsion_complexes(self, rng):
        from conftest import random_equivariant_map, random_module

        groups = [FiniteGroup.cyclic(n) for n in (2, 3, 4)] + [FiniteGroup.symmetric(3)]
        for trial in range(8):
            group = groups[trial % len(groups)]
            a = random_module(group, rng, max_rank=2)
            b = random_module(group, rng, max_rank=2)
            f = random_equivariant_map(a, b, rng)
            quotient = add_relations(b, f.matrix)
            proj = ModuleMap(b, quotient, IntMatrix.identity(b.gens))
            y = BoundedComplex(group, 0, [a, b, quotient], [f, proj.compose(identity_map(b))])
            psi = resolve_torsion_free(y)
            assert all(t.torsion_free() for t in psi.source.terms)
            assert len(psi.source.terms) <= len(y.trim().terms) + 1

    def test_kernel_lattice_action_matches_solving_every_element(self, rng):
        """The lowest term's action equals the per-element solve, and the term is a valid module."""
        from conftest import full_validate_module, random_equivariant_map, random_module

        groups = [FiniteGroup.cyclic(n) for n in (2, 4, 6)] + [FiniteGroup.symmetric(3), FiniteGroup.klein_four()]
        for trial in range(10):
            group = groups[trial % len(groups)]
            a = random_module(group, rng, max_rank=2)
            b = random_module(group, rng, max_rank=2)
            validate_module(a)
            validate_module(b)
            f = random_equivariant_map(a, b, rng)
            y = BoundedComplex(group, 0, [a, b], [f])
            psi = resolve_torsion_free(y)
            m, s = psi.source, psi.source.lowest_degree
            # the final stage's pair: the cover above plus Y^s, and the attaching matrix
            a_prime, bottom = m.terms[0], direct_sum(m.term(s + 1), y.term(s))
            basis = m.differentials[0].matrix.vstack(psi.component(s).matrix)
            assert full_validate_module(a_prime) == []
            for g in range(group.order):
                moved = bottom.action[g].mul(basis)
                expected = IntMatrix.from_columns(basis.cols, [solve_integer(basis, c) for c in moved.columns()])
                assert a_prime.action[g] == expected

    def test_kernel_lattice_action_falls_back_to_solving(self):
        """Over Z/5 with C4 acting by powers of 2 the action is a homomorphism only modulo 5;
        every element is solved, and the lifted action on Z fails validation."""
        c4 = FiniteGroup.cyclic(4)
        bottom = PresentedModule(c4, 1, IntMatrix(1, 1, [[5]]), [IntMatrix(1, 1, [[2**k % 5]]) for k in range(4)])
        assert validate_module(bottom) == []
        a_prime = _kernel_lattice_module(bottom, IntMatrix.identity(1))
        assert [x.data for x in a_prime.action] == [[[1]], [[2]], [[4]], [[3]]]
        assert a_prime._violations is None and validate_module(a_prime) != []

    @pytest.mark.parametrize("n1, n2, seed_rows, ranks", J_C8_TO_FINITE, ids=[f"seed{i}" for i in range(1, 6)])
    def test_lattice_bottom_resolves_on_the_support(self, n1, n2, seed_rows, ranks):
        """[J_C8 -> Z/n1 (+) Z/n2] resolves to the fibre product [J_C8 x P -> P] in degrees 0..1."""
        y = j_c8_to_finite(n1, n2, seed_rows)
        m = resolve_torsion_free(y).source
        assert (m.lowest_degree, m.highest_degree) == (0, 1)
        assert [t.gens for t in m.terms] == ranks
        assert ranks[0] == y.term(0).gens + ranks[1]

    @pytest.mark.parametrize("name", ONE_TERM_GROUPS)
    def test_one_term_lattice_resolves_to_one_term(self, name):
        group = ONE_TERM_GROUPS[name]
        j = norm_one_lattice_of(group)
        assert validate_module(j) == []
        for y in (one_term(j, 0), two_term(ModuleMap.zero(j, zero_module(group)))):
            m = resolve_torsion_free(y).source
            assert (m.lowest_degree, m.highest_degree) == (0, 0)
            assert m.terms[0].gens == j.gens

    @pytest.mark.parametrize("name", ONE_TERM_GROUPS)
    def test_one_term_lattice_is_kept_as_it_is(self, name):
        """A one-term J_G is its own resolution: M's term is J_G itself, not a rebuilt copy."""
        y = one_term(norm_one_lattice_of(ONE_TERM_GROUPS[name]), 0)
        assert resolve_torsion_free(y).source.term(0) is y.term(0)
        assert_resolves_to_itself(y)

    def test_lattice_complexes_resolve_to_themselves(self, rng):
        """[A -> B] with no relation columns in either term is returned as it is, over C2, C4, C6, S3 and V4."""
        from conftest import random_equivariant_map, random_module

        groups = [FiniteGroup.cyclic(n) for n in (2, 4, 6)] + [FiniteGroup.symmetric(3), FiniteGroup.klein_four()]
        for trial in range(10):
            group = groups[trial % len(groups)]
            a, b = (random_module(group, rng, max_rank=2, allow_torsion=False) for _ in range(2))
            validate_module(a)
            validate_module(b)
            assert_resolves_to_itself(two_term(random_equivariant_map(a, b, rng)))
        c2 = FiniteGroup.cyclic(2)
        assert_resolves_to_itself(two_term(ModuleMap.zero(zero_module(c2), trivial_module(c2))))

    def test_lattice_bottom_dual_matches_the_layout_one_below(self, rng):
        """The dual invariants agree whether the lowest lattice is kept (with the whole complex,
        when b has no relations) or, presented with one zero relation column, covered and
        resolved one degree below."""
        from conftest import random_equivariant_map, random_module

        groups = [FiniteGroup.cyclic(n) for n in (2, 4, 6)] + [FiniteGroup.symmetric(3), FiniteGroup.klein_four()]
        drawn = set()
        for trial in range(10):
            group = groups[trial % len(groups)]
            a = random_module(group, rng, max_rank=2, allow_torsion=False)
            b = random_module(group, rng, max_rank=2)
            validate_module(a)
            validate_module(b)
            f = random_equivariant_map(a, b, rng)
            padded = add_relations(a, IntMatrix.zeros(a.gens, 1))
            y = two_term(f)
            kept = resolve_torsion_free(y).source
            below = resolve_torsion_free(two_term(ModuleMap(padded, b, f.matrix))).source
            assert (kept.lowest_degree, below.lowest_degree) == (0, -1)
            # a relation-free b makes y its own resolution; a torsion b is covered
            assert (kept is y) == (not b.relations.cols) == b.torsion_free()
            drawn.add(kept is y)
            for i in (-1, 0, 1):
                assert cohomology_invariants(dual_complex(kept), i) == cohomology_invariants(dual_complex(below), i)
        assert drawn == {True, False}

    def test_one_certificate_per_resolution(self, monkeypatch):
        import upic.reference as reference

        calls = []
        certify = reference.is_quasi_iso
        monkeypatch.setattr(reference, "is_quasi_iso", lambda psi: calls.append(psi) or certify(psi))
        y = j_c8_to_finite(*J_C8_TO_FINITE[0][:3])
        a, b = y.term(0), y.term(1)
        padded = add_relations(a, IntMatrix.zeros(a.gens, 1))
        for layout in (y, two_term(ModuleMap(padded, b, y.differential(0).matrix))):
            calls.clear()
            psi = resolve_torsion_free(layout)
            assert calls == [psi]


class TestDual:
    def test_times_two(self):
        d = dual_complex(two_term(times(2)))
        assert d.lowest_degree == -1 and d.highest_degree == 0
        assert d.differential(-1).matrix.data == [[2]]

    def test_zero(self):
        assert not dual_complex(zero_complex(T)).terms

    def test_permutation_complex(self):
        c2 = FiniteGroup.cyclic(2)
        reg = regular_module(c2)
        k = BoundedComplex(c2, 0, [reg, zero_module(c2)], [ModuleMap.zero(reg, zero_module(c2))])
        d = dual_complex(k).trim()
        assert d.lowest_degree == 0 and d.highest_degree == 0
        assert d.term(0).action_of(1) == reg.action_of(1)

    def test_double_dual_identity(self):
        k = two_term(times(6))
        assert structurally_equal(dual_complex(dual_complex(k)), k)

    def test_torsion_rejected(self):
        with pytest.raises(HasTorsion):
            dual_complex(two_term(ModuleMap.zero(zero_module(T), z_mod(2))))

    def test_resolution_then_dual_gives_ext(self):
        for n in (2, 3, 4):
            y = two_term(ModuleMap.zero(zero_module(T), z_mod(n)))
            d = dual_complex(resolve_torsion_free(y).source)
            assert cohomology_invariants(d, 0) == AbelianInvariants(0, [n])
            assert cohomology_invariants(d, -1).is_trivial

    def test_resolution_then_dual_with_sign_action(self):
        c6 = FiniteGroup.cyclic(6)
        sign_z6 = PresentedModule(
            c6, 1, IntMatrix(1, 1, [[6]]), [IntMatrix(1, 1, [[(-1) ** k]]) for k in range(6)]
        )
        y = two_term(ModuleMap.zero(zero_module(c6), sign_z6))
        d = dual_complex(resolve_torsion_free(y).source)
        assert cohomology_invariants(d, 0) == AbelianInvariants(0, [6])
        assert cohomology_invariants(d, -1).is_trivial


class TestShift:
    def test_shift_round_trip(self):
        k = two_term(times(2))
        assert structurally_equal(shift(shift(k, 3), -3), k)

    def test_odd_shift_negates(self):
        k = two_term(times(2))
        assert shift(k, 1).differential(-1).matrix.data == [[-2]]
