"""Pipelines from lattice data to the invariants of a homogeneous space.

Input: a finite Galois quotient, the character lattice of the acting group
(torsion free), the character group of the stabilizer (torsion allowed),
and the restriction map between them.  The two-term complex they span is
the engine for everything here: its hypercohomology in degrees 1 and 2
gives the Picard group and the algebraic Brauer group (up to a caveat that
is echoed into every report rather than silently dropped), and its derived
dual carries the topological invariants.

The derived dual is computed twice, by design: once by universal
coefficients from the complex's own H^0 and H^1 (exact; H^1 off one Smith
diagonal, rank H^0 off the Euler characteristic, `_complex_cohomology`),
and once through the five-term dual sequence (rank and torsion-order
bookkeeping).  Any disagreement is raised as an internal error, never
returned as a value.  The tested references for the formula are
`cohomology.cohomology_invariants` and the termwise dual of a resolution in
`upic.reference`, which runs only in the tests.
"""

from __future__ import annotations

from .cohomology import cohomology_invariants, hypercohomology, is_quasi_iso
from .complexes import BoundedComplex, ComplexMap, two_term
from .errors import ExactnessViolation, ValidationError
from .groups import FiniteGroup
from .intmatrix import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
)
from .modules import ModuleMap, PresentedModule, direct_sum, lattice_form, validate_module

PIC_CAVEAT = "injection into H^1; equality holds if X(k) is nonempty or Br(k) = 0"
BRAUER_CAVEAT = "injection into H^2; equality holds if X(k) is nonempty or H^3(k, Gm) = 0"
# Pic and Br_a are the hypercohomology of `upic_complex` in these degrees
DEGREE_OF = {"pic": 1, "brauer_a": 2}


class HomSpaceData:
    """Lattice-level input for a homogeneous space.

    `assume_pic_trivial` records the hypothesis on the acting group that
    cannot be checked from lattice data; it is echoed into every report.
    """

    __slots__ = ("group", "xg", "xh", "res", "assume_pic_trivial")

    def __init__(
        self,
        group: FiniteGroup,
        xg: PresentedModule,
        xh: PresentedModule,
        res: ModuleMap,
        assume_pic_trivial: bool = True,
    ):
        problems = []
        if xg.group != group or xh.group != group:
            problems.append("modules must live over the declared group")
        if not xg.torsion_free():
            problems.append("the character lattice of the acting group must be torsion free")
        if not res._connects(xg, xh):
            problems.append("restriction map does not connect the two modules")
        problems.extend(f"acting-group lattice: {v}" for v in validate_module(xg))
        problems.extend(f"stabilizer characters: {v}" for v in validate_module(xh))
        problems.extend(f"restriction map: {v}" for v in res.validate())
        if problems:
            raise ValidationError(problems)
        self.group = group
        self.xg = xg
        self.xh = xh
        self.res = res
        self.assume_pic_trivial = assume_pic_trivial


class InvariantReport:
    __slots__ = ("value", "caveat", "assume_pic_trivial")

    def __init__(self, value: AbelianInvariants, caveat: str, assume_pic_trivial: bool):
        self.value = value
        self.caveat = caveat
        self.assume_pic_trivial = assume_pic_trivial

    def render(self) -> str:
        return self.value.render()


def upic_complex(data: HomSpaceData) -> BoundedComplex:
    """The two-term complex with the acting-group lattice in degree 0."""
    return two_term(data.res)


def pic(data: HomSpaceData) -> InvariantReport:
    value = hypercohomology(data.group, upic_complex(data), DEGREE_OF["pic"])
    return InvariantReport(value, PIC_CAVEAT, data.assume_pic_trivial)


def brauer_a(data: HomSpaceData) -> InvariantReport:
    value = hypercohomology(data.group, upic_complex(data), DEGREE_OF["brauer_a"])
    return InvariantReport(value, BRAUER_CAVEAT, data.assume_pic_trivial)


class DualReport:
    """H^0 and H^-1 of the derived dual, with the five-term bookkeeping."""

    __slots__ = (
        "h0",
        "hminus1",
        "kernel_invariants",
        "cokernel_invariants",
        "stabilizer_torsion",
        "assume_pic_trivial",
    )

    def __init__(self, h0, hminus1, kernel_invariants, cokernel_invariants, stabilizer_torsion, assume_pic_trivial):
        self.h0 = h0
        self.hminus1 = hminus1
        self.kernel_invariants = kernel_invariants
        self.cokernel_invariants = cokernel_invariants
        self.stabilizer_torsion = stabilizer_torsion
        self.assume_pic_trivial = assume_pic_trivial

    def render(self) -> str:
        return f"H0={self.h0.render()}, H-1={self.hminus1.render()}"


def _dual_hom_map(data: HomSpaceData):
    """Matrix of Hom(stabilizer characters, Z) -> Hom(acting lattice, Z), and the Smith diagonal it is read from.

    Hom(xh, Z) is read in one of three ways, the transforms of a Smith form
    only where they are needed:

    - xh has no relation columns: Hom(xh, Z) is the dual of its own
      generators, so the map is `res` itself and the diagonal is all zeros.
    - xh is finite: its Smith diagonal (no transforms) has no zero entry.
      Every homomorphism to Z sends a generator of order d to an element
      of order dividing d, which in Z is 0, so Hom(xh, Z) = 0 and the map
      has no rows.  A matrix with fewer columns than rows always has a zero
      entry, so only a square or wide one is read this way first.
    - otherwise (relations and a free part): Hom(xh, Z) is spanned by the
      rows of u at the zero entries of the Smith form u * relations * v == d.

    The acting lattice is read on a basis: its generators when it has no
    relation columns, which need no `lattice_form`, and otherwise the basis
    `lattice_form` maps in.
    """
    relations = data.xh.relations
    if not relations.cols:
        hom, diag = data.res.matrix, [0] * relations.rows
    elif relations.cols >= relations.rows and 0 not in (diag := smith_diagonal(relations)):
        hom = IntMatrix.zeros(0, data.xg.gens)
    else:
        s = smith_normal_form(relations)
        diag = s.diagonal()
        rows = [row for row, d in zip(s.u.data, diag) if d == 0]
        hom = IntMatrix(len(rows), data.xh.gens, rows).mul(data.res.matrix)
    if data.xg.relations.cols:
        hom = hom.mul(lattice_form(data.xg)[2].matrix)
    return hom.transpose(), diag


def _complex_cohomology(data: HomSpaceData, rank_g: int, rank_h: int):
    """H^0 and H^1 of [X(G) -> X(H)], given the ranks of the two modules.

    H^1 = Z^b / span[res | R_H], with R_H the relations of X(H), is read off
    that matrix's own Smith diagonal, with no transforms; with no relation
    columns the matrix is `res` itself.  H^0 is the kernel of a map out of a
    lattice, so it is free, and the Euler characteristic over Q gives its
    rank: rank X(G) - rank X(H) + rank H^1.
    """
    relations = data.xh.relations
    diag = smith_diagonal(data.res.matrix.hstack(relations) if relations.cols else data.res.matrix)
    h1 = AbelianInvariants(diag.count(0), [d for d in diag if d > 1])
    return AbelianInvariants(rank_g - rank_h + h1.free_rank), h1


def upic_dual(data: HomSpaceData) -> DualReport:
    """H^0 and H^-1 of RHom(complex, Z), exactly.

    Primary route: universal coefficients over Z, read off the complex's
    own cohomology.  H^-1 = Hom(H^1, Z) is free of rank H^1, and
    H^0 = Hom(H^0, Z) + Ext^1(H^1, Z) is free of rank H^0 plus the torsion
    of H^1.  `_complex_cohomology` reads H^1 off one Smith diagonal and
    rank H^0 off the Euler characteristic; it shares only the ranks of the
    two input modules with the check below.  No resolution is built here.
    Secondary route: the five-term dual sequence, which pins H^-1 exactly
    and constrains the rank and torsion order of H^0 (on a lattice complex
    the stabilizer torsion is trivial, so it pins the torsion order too).
    Its map Hom(X(H), Z) -> Hom(X(G), Z) comes from `_dual_hom_map`, which
    takes a Smith form with transforms only when X(H) has both relations
    and a free part: with no relations the map is `res` itself, and for a
    finite X(H) Hom(X(H), Z) = 0 is read off the transform-free Smith
    diagonal, which also gives the stabilizer torsion.
    A failed cross-check is an internal error (ExactnessViolation).
    """
    dmap, xh_diag = _dual_hom_map(data)
    c0, c1 = _complex_cohomology(data, dmap.rows, dmap.cols)
    h0 = AbelianInvariants(c0.free_rank, c1.torsion)
    hminus1 = AbelianInvariants(c1.free_rank)

    kernel = kernel_basis(dmap)
    kernel_inv = AbelianInvariants(kernel.cols)
    coker_inv = cokernel_invariants(dmap)
    xh_tors = AbelianInvariants(0, [d for d in xh_diag if d > 1])

    problems = []
    if hminus1 != kernel_inv:
        problems.append(f"H^-1 = {hminus1.render()} differs from the kernel {kernel_inv.render()}")
    if h0.free_rank != coker_inv.free_rank:
        problems.append(f"rank H^0 = {h0.free_rank} differs from the cokernel rank {coker_inv.free_rank}")
    if h0.torsion_order() % coker_inv.torsion_order():
        problems.append("cokernel torsion does not divide the torsion of H^0")
    if (coker_inv.torsion_order() * xh_tors.torsion_order()) % h0.torsion_order():
        problems.append("torsion of H^0 exceeds the bound from the dual sequence")
    # rank bookkeeping across the five terms
    fh = dmap.cols
    fg = dmap.rows
    if fh - kernel_inv.free_rank != fg - coker_inv.free_rank:
        problems.append("ranks are inconsistent across the dual sequence")
    if problems:
        raise ExactnessViolation("; ".join(problems))
    return DualReport(h0, hminus1, kernel_inv, coker_inv, xh_tors, data.assume_pic_trivial)


class TopologicalReport:
    __slots__ = ("h0", "hminus1", "h0_label", "hminus1_label", "note", "assume_pic_trivial")

    def __init__(self, h0, hminus1, h0_label, hminus1_label, note, assume_pic_trivial):
        self.h0 = h0
        self.hminus1 = hminus1
        self.h0_label = h0_label
        self.hminus1_label = hminus1_label
        self.note = note
        self.assume_pic_trivial = assume_pic_trivial

    def render(self) -> str:
        left = f"{self.h0_label or 'H0'} = {self.h0.render()}"
        right = f"{self.hminus1_label or 'H-1'} = {self.hminus1.render()}"
        out = f"{left}; {right}"
        if self.note:
            out += f" ({self.note})"
        return out


def topological_report(
    data: HomSpaceData,
    stabilizer_connected: bool,
    condition_h1: bool = False,
) -> TopologicalReport:
    """Label the dual cohomology with its topological meaning when allowed.

    H^0 is the fundamental group of the complex points only for connected
    stabilizers; H^-1 is pi_2 modulo torsion under the weaker kernel
    condition as well.  With neither flag the values are reported
    unlabeled -- the labels are user-asserted hypotheses, not conclusions.
    """
    dual = upic_dual(data)
    h0_label = "pi_1(X(C))" if stabilizer_connected else None
    hminus1_label = "pi_2(X(C))/torsion" if (stabilizer_connected or condition_h1) else None
    note = "" if (stabilizer_connected or condition_h1) else "hypotheses not asserted; values unlabeled"
    return TopologicalReport(dual.h0, dual.hminus1, h0_label, hminus1_label, note, dual.assume_pic_trivial)


class TorusComparisonData:
    """The five lattices and six maps of the maximal-torus comparison diagram.

    Rows: top `res_gm`, middle (`mu_m`, `mu_sc`) into the direct sum,
    bottom `rho`.  Columns: `down` from the top row's degree-0 lattice and
    `up` from the bottom row's, both into the middle degree-0 lattice.
    """

    __slots__ = ("group", "xg_prime", "xm", "xt", "xt_prime", "xtsc", "res_gm", "mu_m", "mu_sc", "rho", "down", "up")

    def __init__(self, group, xg_prime, xm, xt, xt_prime, xtsc, res_gm, mu_m, mu_sc, rho, down, up):
        self.group = group
        self.xg_prime = xg_prime
        self.xm = xm
        self.xt = xt
        self.xt_prime = xt_prime
        self.xtsc = xtsc
        self.res_gm = res_gm
        self.mu_m = mu_m
        self.mu_sc = mu_sc
        self.rho = rho
        self.down = down
        self.up = up
        modules = {"xg_prime": xg_prime, "xm": xm, "xt": xt, "xt_prime": xt_prime, "xtsc": xtsc}
        problems = []
        if any(mod.group != group for mod in modules.values()):
            problems.append("modules must live over the declared group")
        for name, mod in modules.items():
            problems.extend(f"{name}: {v}" for v in validate_module(mod))
        for name, f, source, target in [
            ("res_gm", res_gm, "xg_prime", "xm"),
            ("mu_m", mu_m, "xt_prime", "xm"),
            ("mu_sc", mu_sc, "xt_prime", "xtsc"),
            ("rho", rho, "xt", "xtsc"),
            ("down", down, "xg_prime", "xt_prime"),
            ("up", up, "xt", "xt_prime"),
        ]:
            if not f._connects(modules[source], modules[target]):
                problems.append(f"{name} does not map {source} to {target}")
            problems.extend(f"{name}: {v}" for v in f.validate())
        if problems:
            raise ValidationError(problems)


class ComparisonReport:
    __slots__ = ("verdict", "cohomology", "square_failures", "quasi_iso")

    def __init__(self, verdict, cohomology, square_failures, quasi_iso):
        self.verdict = verdict
        self.cohomology = cohomology
        self.square_failures = square_failures
        self.quasi_iso = quasi_iso


def verify_torus_comparison(data: TorusComparisonData) -> ComparisonReport:
    """Check that both rows of the comparison diagram are quasi-isomorphic
    to the middle complex through the canonical vertical maps.

    Returns the verdict with all six cohomology groups.  A non-commuting
    square yields verdict False (with the square named) rather than an
    error; errors are reserved for structurally invalid data.
    """
    middle_target = direct_sum(data.xm, data.xtsc)
    mid = ModuleMap(data.xt_prime, middle_target, data.mu_m.matrix.vstack(data.mu_sc.matrix))
    top = two_term(data.res_gm)
    middle = two_term(mid)
    bottom = two_term(data.rho)

    report = {
        "top": {i: cohomology_invariants(top, i) for i in (0, 1)},
        "middle": {i: cohomology_invariants(middle, i) for i in (0, 1)},
        "bottom": {i: cohomology_invariants(bottom, i) for i in (0, 1)},
    }

    incl_m = ModuleMap(
        data.xm, middle_target, IntMatrix.identity(data.xm.gens).vstack(IntMatrix.zeros(data.xtsc.gens, data.xm.gens))
    )
    incl_sc = ModuleMap(
        data.xtsc, middle_target, IntMatrix.zeros(data.xm.gens, data.xtsc.gens).vstack(IntMatrix.identity(data.xtsc.gens))
    )

    square_failures = []
    quasi = {}
    for name, cmplx, vertical0, incl in (
        ("top", top, data.down, incl_m),
        ("bottom", bottom, data.up, incl_sc),
    ):
        lhs = mid.compose(vertical0)
        rhs = incl.compose(cmplx.differential(0))
        if not middle_target.matrix_congruent(lhs.matrix, rhs.matrix):
            square_failures.append(f"{name} square does not commute")
            continue
        phi = ComplexMap(cmplx, middle, {0: vertical0, 1: incl})
        ok, _ = is_quasi_iso(phi)
        quasi[name] = ok

    verdict = not square_failures and all(quasi.get(k, False) for k in ("top", "bottom"))
    return ComparisonReport(verdict, report, square_failures, quasi)
