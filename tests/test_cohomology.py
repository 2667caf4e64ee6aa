import itertools
import math
import re
import time

import pytest

from upic import cohomology
from upic.cohomology import (
    COCHAIN_RANK_LIMIT,
    DEGREE_LIMIT,
    ENUMERATION_LIMIT,
    RESOLUTION_BUILD_LIMIT,
    BarResolution,
    HyperTotal,
    SmallResolution,
    cochain_differential,
    cyclic_oracle,
    finite_coeff_bruteforce,
    group_cohomology,
    hypercohomology,
    small_resolution,
)
from upic.complexes import one_term, two_term, zero_complex
from upic.errors import BudgetExceeded, ExactnessViolation, NotCyclic, ValidationError
from upic.groups import ORDER_CAP, FiniteGroup
from upic.intmatrix import AbelianInvariants, IntMatrix, smith_normal_form, unimodular_inverse
from upic.modules import (
    ModuleMap,
    finite_cyclic_module,
    free_module,
    norm_one_lattice,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
)
from upic.resolutions import AbelianResolution

T = FiniteGroup.trivial()
C2 = FiniteGroup.cyclic(2)


def elementary_abelian(k):
    g = FiniteGroup.trivial()
    for _ in range(k):
        g = g.direct_product(C2)
    return g


def _no_assembly(*args):
    raise AssertionError("cochains assembled for an oversized input")


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
        assert DEGREE_LIMIT == 4
        assert group_cohomology(C2, trivial_module(C2), 4) == AbelianInvariants(0, [2])
        with pytest.raises(BudgetExceeded, match="degree 5 is over the limit 4"):
            group_cohomology(C2, trivial_module(C2), 5)

    def test_cochain_sizes(self):
        c6 = FiniteGroup.cyclic(6)
        m = regular_module(c6)
        assert BarResolution(c6).rank(3) * m.gens == 6 * 125
        d = cochain_differential(c6, m, 1)
        assert d.rows == 6 * 25 and d.cols == 6 * 5

    def test_cochain_differential_squares_to_zero(self):
        from upic.intmatrix import solve_integer

        c4 = FiniteGroup.cyclic(4)
        m = finite_cyclic_module(c4, 4)
        for p in (0, 1):
            square = cochain_differential(c4, m, p + 1).compose(cochain_differential(c4, m, p))
            rel = IntMatrix.block_diagonal([m.relations] * 3 ** (p + 2))
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


def _frozen_slots(group, p):
    nonidentity = [g for g in range(group.order) if g != group.identity]
    return {t: i for i, t in enumerate(itertools.product(nonidentity, repeat=p))}


class _FrozenFiniteModule:
    """The element table finite_coeff_bruteforce used before its cocycle search."""

    __slots__ = ("m", "diag", "u", "u_inv", "elements", "index", "action_tables", "size")

    def __init__(self, m):
        s = smith_normal_form(m.relations)
        self.m = m
        self.diag = s.diagonal()
        if 0 in self.diag:
            raise ValidationError(["module is infinite; the enumeration oracle needs finite coefficients"])
        self.u = s.u
        self.u_inv = unimodular_inverse(s.u)
        self.size = math.prod(self.diag)
        if self.size > ENUMERATION_LIMIT:
            raise BudgetExceeded(f"module has more than {ENUMERATION_LIMIT} elements")
        self.elements = list(itertools.product(*map(range, self.diag)))
        self.index = {t: i for i, t in enumerate(self.elements)}
        self.action_tables = []
        for g in range(m.group.order):
            mat = self.u.mul(m.action_of(g)).mul(self.u_inv)
            table = []
            for t in self.elements:
                moved = mat.apply(list(t))
                table.append(self.index[self._reduce(moved)])
            self.action_tables.append(table)

    def _reduce(self, coords):
        return tuple(c % d for c, d in zip(coords, self.diag))

    def zero(self) -> int:
        return self.index[tuple(0 for _ in self.diag)]

    def add(self, i: int, j: int) -> int:
        a, b = self.elements[i], self.elements[j]
        return self.index[self._reduce([x + y for x, y in zip(a, b)])]

    def neg(self, i: int) -> int:
        return self.index[self._reduce([-x for x in self.elements[i]])]

    def scale(self, k: int, i: int) -> int:
        return self.index[self._reduce([k * x for x in self.elements[i]])]


def _frozen_bruteforce(group, m, degree):
    """finite_coeff_bruteforce as it was, by filtering every cochain; returns (invariants, cocycles)."""
    if degree < 0 or degree > 2:
        raise ValueError("enumeration oracle supports degrees 0..2")
    fm = _FrozenFiniteModule(m)
    slot_of = _frozen_slots(group, degree)
    n_slots = len(slot_of)
    if fm.size**n_slots > ENUMERATION_LIMIT:
        raise BudgetExceeded(f"{fm.size}^{n_slots} cochains exceed the limit {ENUMERATION_LIMIT}")
    e = group.identity
    zero = fm.zero()

    def coboundary(cochain, index, tup):
        # (d c)(g_1..g_k) for the (k-1)-cochain c whose slots `index` numbers;
        # normalized, so a face with an identity entry contributes nothing
        acc = fm.action_tables[tup[0]][cochain[index[tup[1:]]]]
        sign = -1
        for i in range(1, len(tup)):
            h = group.mul(tup[i - 1], tup[i])
            if h != e:
                v = cochain[index[tup[: i - 1] + (h,) + tup[i + 1 :]]]
                acc = fm.add(acc, v if sign > 0 else fm.neg(v))
            sign = -sign
        v = cochain[index[tup[:-1]]]
        return fm.add(acc, v if sign > 0 else fm.neg(v))

    up_tuples = list(itertools.product([g for g in range(group.order) if g != e], repeat=degree + 1))
    cocycles = [
        cochain
        for cochain in itertools.product(range(fm.size), repeat=n_slots)
        if all(coboundary(cochain, slot_of, tup) == zero for tup in up_tuples)
    ]
    if degree == 0:
        coboundaries = {(zero,)}
    else:
        down_slot = _frozen_slots(group, degree - 1)
        coboundaries = {
            tuple(coboundary(low, down_slot, tup) for tup in slot_of)
            for low in itertools.product(range(fm.size), repeat=len(down_slot))
        }

    def vec_scale(k, cochain):
        return tuple(fm.scale(k, x) for x in cochain)

    order = len(cocycles) // len(coboundaries)
    if order * len(coboundaries) != len(cocycles):
        raise ExactnessViolation("coboundaries do not divide cocycles")
    if order == 1:
        return AbelianInvariants(0), cocycles

    # invariants from the counting function N(k) = #{z : k*z is a coboundary}
    def count(k: int) -> int:
        c = sum(1 for z in cocycles if vec_scale(k, z) in coboundaries)
        if c % len(coboundaries):
            raise ExactnessViolation("order counting is inconsistent")
        return c // len(coboundaries)

    primes = []
    x = order
    p = 2
    while p * p <= x:
        if x % p == 0:
            primes.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        primes.append(x)

    # For H = (+) Z/e_i, count(p^s) = prod_i p^min(s, v_p(e_i)); hence
    # log_p(count(p^s)/count(p^(s-1))) counts the factors with v_p >= s.
    per_prime = {}
    for p in primes:
        at_least = []
        prev = 1
        s = 1
        while True:
            cur = count(p**s)
            num = cur // prev
            k = 0
            while num > 1:
                num //= p
                k += 1
            if k == 0:
                break
            at_least.append(k)
            prev = cur
            s += 1
        powers = []
        for s in range(len(at_least), 0, -1):
            exactly = at_least[s - 1] - (at_least[s] if s < len(at_least) else 0)
            powers.extend([p**s] * exactly)
        per_prime[p] = sorted(powers, reverse=True)

    length = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for pos in range(length):
        d = 1
        for vals in per_prime.values():
            if pos < len(vals):
                d *= vals[pos]
        chain.append(d)
    return AbelianInvariants(0, sorted(chain)), cocycles


def _sign_character(group):
    """The first nontrivial homomorphism from the group to {1, -1}, or None."""
    n = group.order
    for bits in range(1, 1 << n):
        chi = [-1 if bits >> g & 1 else 1 for g in range(n)]
        if all(chi[group.mul(a, b)] == chi[a] * chi[b] for a in range(n) for b in range(n)):
            return chi
    return None


def _search_cases(rng):
    """Z/n with the trivial and a sign action, and seeded modules of rank at most 2 in a random basis."""
    from conftest import random_module
    from upic.modules import PresentedModule, add_relations

    groups = {
        "C2": C2,
        "C3": FiniteGroup.cyclic(3),
        "C4": FiniteGroup.cyclic(4),
        "V4": FiniteGroup.klein_four(),
        "S3": FiniteGroup.symmetric(3),
    }
    for name, group in groups.items():
        actions = {"trivial": [1] * group.order}
        chi = _sign_character(group)
        if chi is not None:
            actions["sign"] = chi
        for n in (2, 3, 4, 6):
            for kind, chi in actions.items():
                line = [IntMatrix(1, 1, [[c]]) for c in chi]
                yield f"{name} Z/{n} {kind}", group, PresentedModule(group, 1, IntMatrix(1, 1, [[n]]), line)
        for k in range(2):
            m = random_module(group, rng, max_rank=2)
            yield f"{name} seeded {k}", group, add_relations(m, IntMatrix.identity(m.gens).scale(rng.choice([2, 3])))


# The frozen filter takes about 5 s on a cochain space of 4^9 points (pure
# Python); spaces larger than this are checked against group_cohomology.
FROZEN_CHECK_LIMIT = 1 << 16


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
            finite_coeff_bruteforce(c4, finite_cyclic_module(c4, 6), 2)

    def test_search_matches_frozen_filter(self, rng):
        compared = refused = hermite = 0
        for label, group, m in _search_cases(rng):
            for degree in range(3):
                try:
                    value = finite_coeff_bruteforce(group, m, degree)
                except BudgetExceeded:
                    value = None
                smith = smith_normal_form(m.relations)
                space = math.prod(smith.diagonal()) ** ((group.order - 1) ** degree)
                if value is not None and space > FROZEN_CHECK_LIMIT:
                    assert value == group_cohomology(group, m, degree), (label, degree)
                    hermite += 1
                    continue
                try:
                    frozen, frozen_cocycles = _frozen_bruteforce(group, m, degree)
                except BudgetExceeded:
                    assert value is None, (label, degree)
                    refused += 1
                    continue
                assert value == frozen, (label, degree)
                fm = cohomology._FiniteModule(m, smith)
                assert cohomology._cocycles(group, fm, degree) == frozen_cocycles, (label, degree)
                compared += 1
        assert (compared, refused, hermite) == (118, 15, 5)

    def test_budget_checked_before_tables(self, monkeypatch):
        from upic.modules import PresentedModule

        def no_tables(*args):
            raise AssertionError("element tables built for an over-budget module")

        monkeypatch.setattr(cohomology, "_FiniteModule", no_tables)
        k4 = FiniteGroup.klein_four()
        for n, degree, message in (
            (1024, 1, "1048576^3 cochains exceed the limit 1048576"),
            (2048, 0, "module has more than 1048576 elements"),
        ):
            m = PresentedModule(k4, 2, IntMatrix.identity(2).scale(n), [IntMatrix.identity(2)] * 4)
            with pytest.raises(BudgetExceeded, match=re.escape(message)):
                finite_coeff_bruteforce(k4, m, degree)

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
        # cyclic period two visible in degree 3
        for n in (2, 3):
            g = FiniteGroup.cyclic(n)
            j = norm_one_lattice(n)
            assert group_cohomology(g, j, 3) == cyclic_oracle(g, j, 3)
            assert cyclic_oracle(g, j, 3) == cyclic_oracle(g, j, 1)

    def test_degree_bound(self, monkeypatch):
        # refused before any resolution level is built or cochain assembled
        monkeypatch.setattr(cohomology, "hom_differential", _no_assembly)
        monkeypatch.setattr(cohomology, "cycle_lattice", _no_assembly)
        g = FiniteGroup.cyclic(2)
        s = sign_module(g)
        with pytest.raises(BudgetExceeded, match=f"degree {DEGREE_LIMIT + 1} is over the limit {DEGREE_LIMIT}"):
            hypercohomology(g, one_term(s, 0), DEGREE_LIMIT + 1)
        with pytest.raises(BudgetExceeded, match="over the limit"):
            hypercohomology(g, two_term(ModuleMap.zero(s, s)), 10**9)
        assert g._resolution is None

    def test_cochain_rank_limit(self, monkeypatch):
        # C40 with trivial Z: over the small resolution (one generator per
        # degree) H^2 is computed; over the bar resolution its degree-3
        # cochains have rank 39^3 = 59319 and are refused before assembly
        g = FiniteGroup.cyclic(40)
        z = trivial_module(g)
        assert group_cohomology(g, z, 2) == AbelianInvariants(0, [40]) == cyclic_oracle(g, z, 2)

        monkeypatch.setattr(cohomology, "hom_differential", _no_assembly)
        assert 39**3 > COCHAIN_RANK_LIMIT
        with pytest.raises(BudgetExceeded, match="rank 59319"):
            HyperTotal(g, one_term(z, 0), 2, resolution=BarResolution(g))

    def test_resolution_build_limit(self, monkeypatch):
        # H^4 of C2^5 needs F_5.  Any free resolution of C2^5 has r_4 >= 70,
        # the F_2-Betti number C(8, 4), so the kernel step for F_5 (or an
        # earlier one) is over the limit: refused before that step runs and
        # before any cochain is assembled.
        kernel_ranks = []
        real_cycle_lattice = cohomology.cycle_lattice

        def watched(d, relations):
            kernel_ranks.append(d.cols)
            return real_cycle_lattice(d, relations)

        monkeypatch.setattr(cohomology, "hom_differential", _no_assembly)
        monkeypatch.setattr(cohomology, "cycle_lattice", watched)
        g = elementary_abelian(5)
        assert 70 * g.order > RESOLUTION_BUILD_LIMIT
        with pytest.raises(BudgetExceeded, match=f"over the limit {RESOLUTION_BUILD_LIMIT}"):
            HyperTotal(g, one_term(trivial_module(g), 0), 4, resolution=SmallResolution(g))
        assert kernel_ranks and max(kernel_ranks) <= RESOLUTION_BUILD_LIMIT

    def test_square_zero_check_runs(self):
        s = sign_module()
        k = two_term(ModuleMap.zero(s, s))
        ht = HyperTotal(C2, k, 1)
        assert ht.cohomology() == AbelianInvariants(0, [2])

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


def _old_cochain_differential(group, m, p):
    """The inhomogeneous differential built directly on tuples: the matrices the bar coboundary must reproduce."""
    from upic.intmatrix import SparseCols

    nonidentity = [g for g in range(group.order) if g != group.identity]
    src = {t: i for i, t in enumerate(itertools.product(nonidentity, repeat=p))}
    tgt = {t: i for i, t in enumerate(itertools.product(nonidentity, repeat=p + 1))}
    n = m.gens
    out = SparseCols(n * len(tgt), n * len(src))
    if n == 0:
        return out
    ident = IntMatrix.identity(n)
    e = group.identity
    for tup, ti in tgt.items():
        r0 = ti * n
        out.add_block(r0, src[tup[1:]] * n, m.action_of(tup[0]))
        for i in range(1, p + 1):
            h = group.mul(tup[i - 1], tup[i])
            if h != e:
                merged = tup[: i - 1] + (h,) + tup[i + 1 :]
                out.add_block(r0, src[merged] * n, ident, sign=(-1) ** i)
        out.add_block(r0, src[tup[:p]] * n, ident, sign=(-1) ** (p + 1))
    return out


def _perm_group(*perms):
    return FiniteGroup.from_permutations(perms)[0]


SMALL_GROUPS = {
    "C1": T,
    "C2": C2,
    "C3": FiniteGroup.cyclic(3),
    "C4": FiniteGroup.cyclic(4),
    "C5": FiniteGroup.cyclic(5),
    "C6": FiniteGroup.cyclic(6),
    "K4": FiniteGroup.klein_four(),
    "S3": FiniteGroup.symmetric(3),
}


# the groups of order 7 to 12 that the tests build (test_homspace's Schur
# multiplier and frontier cases); with SMALL_GROUPS, every group up to order 12
AGREEMENT_GROUPS = {
    **SMALL_GROUPS,
    "C2xC4": C2.direct_product(FiniteGroup.cyclic(4)),
    "D4": _perm_group((1, 2, 3, 0), (0, 3, 2, 1)),
    "Q8": _perm_group((1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)),
    "C2^3": elementary_abelian(3),
    "C9": FiniteGroup.cyclic(9),
    "A4": _perm_group((1, 2, 0, 3), (1, 0, 3, 2)),
    "C2xC6": C2.direct_product(FiniteGroup.cyclic(6)),
    "C12": FiniteGroup.cyclic(12),
}
# Largest bar rank of Tot^(n+1) the agreement test runs.  Free coefficients
# up to rank 3750 take under 0.5 s; torsion ones send every relation column
# to the dense Hermite form (D4 with Z/6 in degree 3, rank 2401, took 263 s).
BAR_TEST_RANK = {"free": 4000, "torsion": 700}


def _coefficients(group):
    return {
        "Z": trivial_module(group),
        "Z[G]": regular_module(group),
        "J_G": norm_one_lattice_of(group),
        "Z/6": finite_cyclic_module(group, 6),
    }


def _bar_route(group, coeffs, degree):
    return HyperTotal(group, coeffs, degree, resolution=BarResolution(group)).cohomology()


class TestResolutions:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_bar_reproduces_inhomogeneous_differential(self, name, rng):
        from conftest import random_module

        g = SMALL_GROUPS[name]
        mods = list(_coefficients(g).values()) + [random_module(g, rng)]
        for m in mods:
            for p in range(3):
                new, old = cochain_differential(g, m, p), _old_cochain_differential(g, m, p)
                assert (new.rows, new.cols) == (old.rows, old.cols)
                assert new.entries == old.entries

    @pytest.mark.parametrize("name", list(AGREEMENT_GROUPS))
    def test_bar_and_small_agree(self, name):
        # degrees 0-3 with trivial Z on every group (bar rank at most 11^4,
        # about 3 s each at order 12), the other coefficients wherever their
        # bar cochains are affordable: all of them up to order 6
        g = AGREEMENT_GROUPS[name]
        compared = 0
        for label, m in _coefficients(g).items():
            limit = BAR_TEST_RANK["torsion" if m.relations.cols else "free"]
            for degree in range(4):
                if label == "Z" or m.gens * (g.order - 1) ** (degree + 1) <= limit:
                    assert group_cohomology(g, m, degree) == _bar_route(g, one_term(m, 0), degree), (label, degree)
                    compared += 1
        assert compared == 16 if g.order <= 6 else compared >= 10

    def test_hypercohomology_agrees_on_fixture_complexes(self):
        from upic.cli import FIXTURES, fixture_text
        from upic.homspace import upic_complex
        from upic.taskfile import parse_task_text

        cases = 0
        for name in FIXTURES:
            built = parse_task_text(fixture_text(name)).build()
            for data in built.homspace.values():
                k = upic_complex(data)
                for degree in range(4):
                    assert hypercohomology(built.group, k, degree) == _bar_route(built.group, k, degree)
                    cases += 1
        assert cases >= 36

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "K4", "S3"])
    def test_hypercohomology_agrees_on_random_maps(self, name, rng):
        from conftest import random_equivariant_map, random_module

        g = SMALL_GROUPS[name]
        for _ in range(2):
            a, b = random_module(g, rng), random_module(g, rng)
            k = two_term(random_equivariant_map(a, b, rng))
            for degree in range(4):
                assert hypercohomology(g, k, degree) == _bar_route(g, k, degree)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "kind, message",
        [("doubled", "proper sublattice"), ("stray term", "do not compose to zero")],
    )
    def test_tampered_boundary(self, monkeypatch, level, kind, message):
        # doubling a boundary keeps d d = 0 but leaves index 2^k in the kernel;
        # adding the generator below to it breaks d d = 0
        real = cohomology._choose_generators
        calls = []

        def tampered(group, kernel, rows):
            gens = real(group, kernel, rows)
            calls.append(len(calls) + 1)
            if calls[-1] == level:
                first = gens[0]
                if kind == "doubled":
                    gens[0] = {key: 2 * c for key, c in first.items()}
                else:
                    key = (0, group.identity)
                    gens[0] = {**first, key: first.get(key, 0) + 1}
            return gens

        monkeypatch.setattr(cohomology, "_choose_generators", tampered)
        g = FiniteGroup.cyclic(4)
        with pytest.raises(ExactnessViolation, match=message):
            HyperTotal(g, one_term(trivial_module(g), 0), 2, resolution=SmallResolution(g))

    @pytest.mark.parametrize(
        "name, ranks, values",
        [
            ("S3", [1, 2, 3, 3, 3], ["0", "Z/2", "0"]),
            ("D4", [1, 2, 3, 4, 6], ["0", "Z/2 x Z/2", "Z/2"]),
            ("A4", [1, 2, 3, 4, 4], ["0", "Z/3", "Z/2"]),
            ("S4", [1, 2, 3, 4, 8], ["0", "Z/2", "Z/2"]),
        ],
    )
    def test_greedy_route_is_pinned(self, name, ranks, values):
        """The ranks of F_0..F_4 and H^1..H^3(Z) on the greedy route: a changed generator choice shows here."""
        g = FiniteGroup.symmetric(4) if name == "S4" else AGREEMENT_GROUPS[name]
        res = SmallResolution(g)
        assert isinstance(small_resolution(g), SmallResolution)
        assert [res.rank(p) for p in range(5)] == ranks
        z = one_term(trivial_module(g), 0)
        assert [HyperTotal(g, z, d, resolution=res).cohomology().render() for d in (1, 2, 3)] == values

    def test_group_and_resolution_form_no_cycle(self):
        # the resolution kept on a group must not refer back to it, or every
        # group built and dropped waits for the cyclic collector to be freed
        import gc

        def work():
            g = FiniteGroup.cyclic(6)
            group_cohomology(g, norm_one_lattice_of(g), 2)
            assert g._resolution is not None

        work()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            work()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_concurrent_extension(self):
        # threads sharing one group extend its cached resolution; each level
        # must be appended once, and every thread must see the same values
        import sys
        import threading

        alone = FiniteGroup.symmetric(4)
        want = {d: group_cohomology(alone, trivial_module(alone), d) for d in (1, 2, 3)}
        reference = alone._resolution
        g = FiniteGroup.symmetric(4)
        results, errors = [], []

        def work(degree):
            try:
                results.append((degree, group_cohomology(g, trivial_module(g), degree)))
            except Exception as e:  # reported through the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(1 + k % 3,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(results) == 8 and all(value == want[d] for d, value in results)
        assert g._resolution.boundaries == reference.boundaries


def _invariant_chains(n, least=1):
    """Every chain n_1 | n_2 | ... | n_k of factors >= 2, each a multiple of `least`, with product n."""
    if n == 1:
        yield ()
    for a in range(2, n + 1):
        if n % a == 0 and a % least == 0:
            for rest in _invariant_chains(n // a, a):
                yield (a,) + rest


def _primary_product(chain):
    """The abelian group with these invariant factors, as a product of cyclic groups of prime-power order."""
    g = T
    for a in chain:
        p = 2
        while a > 1:
            q = 1
            while a % p == 0:
                a, q = a // p, q * p
            if q > 1:
                g = g.direct_product(FiniteGroup.cyclic(q))
            p += 1
    return g


# the abelian groups the tests use, by invariant factors, plus C3xC6 and C4xC4
ABELIAN_CHAINS = {
    **{name: (g.order,) for name, g in AGREEMENT_GROUPS.items() if g.order > 1 and g.cyclic_generator() is not None},
    **{"K4": (2, 2), "C2xC4": (2, 4), "C2^3": (2, 2, 2), "C2xC6": (2, 6), "C2^4": (2, 2, 2, 2)},
    **{"C14": (14,), "C40": (40,), "C48": (48,), "C3xC6": (3, 6), "C4xC4": (4, 4)},
}


class TestAbelianResolution:
    @pytest.mark.parametrize("name", list(ABELIAN_CHAINS))
    def test_agrees_with_greedy_and_bar(self, name):
        # test_bar_and_small_agree compares the groups of AGREEMENT_GROUPS with the bar route
        g = _primary_product(ABELIAN_CHAINS[name])
        assert isinstance(small_resolution(g), AbelianResolution)
        greedy = SmallResolution(g)
        for label, m in _coefficients(g).items():
            limit = 0 if name in AGREEMENT_GROUPS else BAR_TEST_RANK["torsion" if m.relations.cols else "free"]
            for degree in range(4):
                value = group_cohomology(g, m, degree)
                assert value == HyperTotal(g, one_term(m, 0), degree, resolution=greedy).cohomology(), (label, degree)
                if m.gens * (g.order - 1) ** (degree + 1) <= limit:
                    assert value == _bar_route(g, one_term(m, 0), degree), (label, degree)

    @pytest.mark.parametrize("chain", [(2,), (48,), (2, 4), (3, 6), (4, 12), (2, 2, 2, 6), (2,) * 5])
    def test_ranks(self, chain):
        res = small_resolution(_primary_product(chain))
        k = len(chain)
        assert res.orders == list(chain)
        for p in range(1, DEGREE_LIMIT + 2):
            assert len(res.boundary(p)) == res.rank(p) == math.comb(p + k - 1, k - 1)

    def test_h3_is_the_schur_multiplier(self):
        # H^3(G, Z) = M(G) = (+)_(i<j) Z/gcd(n_i, n_j) for invariant factors
        # n_1 | ... | n_k, so n_i once for each j > i; every abelian group of
        # order 2 to 48, C2^5 and C2^4 x C3 among them
        seen = 0
        for n in range(2, ORDER_CAP + 1):
            for chain in _invariant_chains(n):
                g = _primary_product(chain)
                schur = [a for i, a in enumerate(chain) for _ in range(len(chain) - 1 - i)]
                assert small_resolution(g).orders == list(chain)
                assert group_cohomology(g, trivial_module(g), 3) == AbelianInvariants(0, schur), chain
                seen += 1
        assert seen == 81

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("kind, message", [("doubled", None), ("stray term", "do not compose to zero")])
    def test_changed_boundary_coefficient(self, monkeypatch, level, kind, message):
        # one coefficient of the last generator's boundary doubled, or the
        # first generator below added to it, which breaks d d = 0
        real = AbelianResolution._generators

        def tampered(self, p, element):
            gens = real(self, p, element)
            if p == level:
                last = gens[-1]
                if kind == "doubled":
                    key = next(iter(last))
                    last[key] *= 2
                else:
                    key = (0, self.group.identity)
                    last[key] = last.get(key, 0) + 1
            return gens

        monkeypatch.setattr(AbelianResolution, "_generators", tampered)
        with pytest.raises(ExactnessViolation, match=message):
            AbelianResolution(_primary_product((2, 4))).boundary(3)

    @pytest.mark.parametrize("degree", [-1, 0, 1, 2])
    def test_dropped_homotopy_entry(self, monkeypatch, degree):
        real = AbelianResolution._homotopy

        def tampered(self, p, element):
            h = real(self, p, element)
            if p == degree:
                col = next(col for col in reversed(h.entries) if col)
                del col[next(iter(col))]
            return h

        monkeypatch.setattr(AbelianResolution, "_homotopy", tampered)
        with pytest.raises(ExactnessViolation, match=f"contracting homotopy fails on F_{max(degree, 0)}"):
            AbelianResolution(_primary_product((2, 4))).boundary(3)

    def test_permuted_factor_coordinate(self):
        # values 1 and 2 of the C4 coordinate swapped: still a bijection onto
        # Z/2 x Z/4, but not a homomorphism
        res = AbelianResolution(_primary_product((2, 4)))
        res.coords = [a[:1] + ({1: 2, 2: 1}.get(a[1], a[1]),) for a in res.coords]
        with pytest.raises(ExactnessViolation, match="contracting homotopy"):
            res.boundary(3)

    def test_group_and_resolution_form_no_cycle(self):
        import gc

        def work():
            g = _primary_product((2, 4))
            group_cohomology(g, norm_one_lattice_of(g), 2)
            assert isinstance(g._resolution, AbelianResolution)

        work()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            work()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_concurrent_extension(self):
        # each level appended once, and every thread sees the same values
        import sys
        import threading

        alone = _primary_product((2, 2, 2))
        want = {d: group_cohomology(alone, trivial_module(alone), d) for d in (1, 2, 3, 4)}
        g = _primary_product((2, 2, 2))
        results, errors = [], []

        def work(degree):
            try:
                results.append((degree, group_cohomology(g, trivial_module(g), degree)))
            except Exception as e:  # reported through the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(1 + k % 4,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(results) == 8 and all(value == want[d] for d, value in results)
        assert g._resolution.boundaries == alone._resolution.boundaries

    @pytest.mark.parametrize("chain", [(48,), (2,) * 5, (2, 2, 2, 6), (4, 12), (2, 24)])
    def test_top_degree_within_budget(self, chain):
        # H^DEGREE_LIMIT needs F_(DEGREE_LIMIT + 1) and no kernel step; the
        # value is finite with exponent dividing |G|
        start = time.perf_counter()
        g = _primary_product(chain)
        value = group_cohomology(g, trivial_module(g), DEGREE_LIMIT)
        elapsed = time.perf_counter() - start
        assert value.free_rank == 0 and value.torsion and all(g.order % t == 0 for t in value.torsion)
        assert elapsed < 2.0, f"H^{DEGREE_LIMIT} of {chain} took {elapsed:.2f}s"
