"""Bounded cochain complexes of presented modules.

The cone of f: P -> Q, a sign convention relied on everywhere, has
term^i = P^(i+1) (+) Q^i, the shifted source part first, and d(p, q) =
(-d_P p, d_Q q - f p): for modules in degree 0 it is P --(-f)--> Q with Q
in degree 0.  `two_term` follows the fibre convention instead: P --(+f)--> Q
with P in degree 0.

`trim` and `cone` build their output unchecked: it is valid when their
input is (see `cone`).  This module holds the complexes, chain maps and
cones only.  Their cohomology is the hypercohomology of the trivial group,
read by `HyperTotal` like every other value (`cohomology.cohomology_invariants`
and `cohomology.is_quasi_iso`).  Shifts, fibres, resolutions, termwise
duals and the subquotient route to H^i serve only as the tests'
references and live in `upic.reference`.
"""

from __future__ import annotations

from .errors import ValidationError
from .groups import FiniteGroup
from .intmatrix import IntMatrix
from .modules import ModuleMap, PresentedModule, direct_sum, zero_module


class BoundedComplex:
    __slots__ = ("group", "lowest_degree", "terms", "differentials")

    def __init__(self, group: FiniteGroup, lowest_degree: int, terms, differentials, check: bool = True):
        terms = tuple(terms)
        differentials = tuple(differentials)
        if terms and len(differentials) != len(terms) - 1:
            raise ValidationError(["need exactly one differential between consecutive terms"])
        if not terms and differentials:
            raise ValidationError(["empty complex cannot carry differentials"])
        self.group = group
        self.lowest_degree = lowest_degree
        self.terms = terms
        self.differentials = differentials
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError(problems)

    @property
    def highest_degree(self) -> int:
        return self.lowest_degree + len(self.terms) - 1

    def degrees(self):
        return range(self.lowest_degree, self.lowest_degree + len(self.terms))

    def term(self, i: int) -> PresentedModule:
        if self.lowest_degree <= i <= self.highest_degree:
            return self.terms[i - self.lowest_degree]
        return zero_module(self.group)

    def differential(self, i: int) -> ModuleMap:
        if self.lowest_degree <= i < self.highest_degree:
            return self.differentials[i - self.lowest_degree]
        return ModuleMap.zero(self.term(i), self.term(i + 1))

    def validate(self) -> list:
        out = []
        for idx, d in enumerate(self.differentials):
            if not d._connects(self.terms[idx], self.terms[idx + 1]):
                out.append(f"differential {idx} does not connect consecutive terms")
            out.extend(f"differential at degree {self.lowest_degree + idx}: {v}" for v in d.validate())
        for idx in range(len(self.differentials) - 1):
            comp = self.differentials[idx + 1].matrix.mul(self.differentials[idx].matrix)
            if not self.terms[idx + 2].contains_columns(comp):
                out.append(f"d*d is nonzero from degree {self.lowest_degree + idx}")
        return out

    def trim(self) -> "BoundedComplex":
        """Drop zero-rank terms at both ends (bookkeeping-only change)."""
        lo, hi = 0, len(self.terms)
        while lo < hi and self.terms[lo].gens == 0:
            lo += 1
        while hi > lo and self.terms[hi - 1].gens == 0:
            hi -= 1
        if lo == 0 and hi == len(self.terms):
            return self
        return BoundedComplex(
            self.group,
            self.lowest_degree + lo,
            self.terms[lo:hi],
            self.differentials[lo : max(hi - 1, lo)],
            check=False,
        )

    def __repr__(self):
        ranks = ",".join(str(t.gens) for t in self.terms)
        return f"BoundedComplex(degrees {self.lowest_degree}..{self.highest_degree}, ranks [{ranks}])"


def one_term(m: PresentedModule, degree: int) -> BoundedComplex:
    return BoundedComplex(m.group, degree, [m], [], check=False)


def zero_complex(group: FiniteGroup) -> BoundedComplex:
    return BoundedComplex(group, 0, [], [], check=False)


def two_term(f: ModuleMap) -> BoundedComplex:
    """The fibre-convention complex [source -> target> in degrees 0 and 1."""
    return BoundedComplex(f.source.group, 0, [f.source, f.target], [f])


class ComplexMap:
    """Degreewise module maps commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: BoundedComplex, target: BoundedComplex, components, check: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        for i, c in self.components.items():
            if c.source.gens != source.term(i).gens or c.target.gens != target.term(i).gens:
                raise ValidationError([f"component at degree {i} has the wrong shape"])
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError(problems)

    def component(self, i: int) -> ModuleMap:
        c = self.components.get(i)
        if c is not None:
            return c
        return ModuleMap.zero(self.source.term(i), self.target.term(i))

    def validate(self) -> list:
        out = []
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for i in sorted(degs):
            out.extend(f"component {i}: {v}" for v in self.component(i).validate())
            lhs = self.target.differential(i).matrix.mul(self.component(i).matrix)
            rhs = self.component(i + 1).matrix.mul(self.source.differential(i).matrix)
            if not self.target.term(i + 1).matrix_congruent(lhs, rhs):
                out.append(f"square at degree {i} does not commute")
        return out


def cone(phi: ComplexMap) -> BoundedComplex:
    """Mapping cone: term^i = source^(i+1) (+) target^i (source part first).

    Built unchecked, so the caller must pass a valid chain map f: P -> Q
    between valid complexes: P and Q validated, and f validated or a zero
    or identity map (`upic.reference.zero_chain_map`/`identity_chain_map`).
    Then the differential D(p, q) = (-d_P p, d_Q q - f p) has D^2(p, q) =
    (d_P^2 p, d_Q^2 q - d_Q f p + f d_P p) = 0 by d_P^2 = 0, d_Q^2 = 0 and
    d_Q f = f d_P, all modulo relations; D is equivariant and keeps
    relations because its blocks do.  On any other input D^2 may be
    nonzero, and whether the result has vanishing cohomology
    (`cohomology.is_quasi_iso`) means nothing.
    """
    s, t = phi.source, phi.target
    group = t.group
    if not s.terms and not t.terms:
        return zero_complex(group)
    lo = min(s.lowest_degree - 1, t.lowest_degree)
    hi = max(s.highest_degree - 1, t.highest_degree)
    terms = [direct_sum(s.term(i + 1), t.term(i)) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        tsrc = t.term(i)
        stgt = s.term(i + 2)
        top = s.differential(i + 1).matrix.neg().hstack(IntMatrix.zeros(stgt.gens, tsrc.gens))
        bottom = phi.component(i + 1).matrix.neg().hstack(t.differential(i).matrix)
        diffs.append(ModuleMap(terms[i - lo], terms[i - lo + 1], top.vstack(bottom)))
    return BoundedComplex(group, lo, terms, diffs, check=False)
