"""Exact invariants of homogeneous spaces from finite-level Galois lattice data.

The public layers, bottom up: exact integer linear algebra (`intmatrix`),
finite groups and presented modules (`groups`, `modules`), bounded
complexes with cones, resolutions, and duals (`complexes`), group and
hypercohomology over free resolutions with independent oracles
(`cohomology`, `resolutions`), and the invariant pipelines (`homspace`).
The `upic` command drives everything from declarative task files.
"""

__version__ = "0.1.0"

from ._backend import backend_name
from .intmatrix import (
    AbelianInvariants,
    IntMatrix,
    SmithDecomposition,
    cokernel_invariants,
    cycle_lattice,
    in_column_span,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    subquotient_invariants,
)
from .groups import FiniteGroup
from .modules import (
    ModuleMap,
    PresentedModule,
    dual_lattice,
    induced_module,
    norm_one_lattice,
    norm_one_lattice_of,
    regular_module,
    trivial_module,
    validate_module,
    zero_module,
)
from .complexes import (
    BoundedComplex,
    ComplexMap,
    TwoTermSES,
    cohomology,
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
from .cohomology import (
    cyclic_oracle,
    finite_coeff_bruteforce,
    group_cohomology,
    hypercohomology,
)
from .homspace import (
    HomSpaceData,
    TorusComparisonData,
    brauer_a,
    pic,
    topological_report,
    upic_complex,
    upic_dual,
    verify_torus_comparison,
)

__all__ = [
    "AbelianInvariants",
    "BoundedComplex",
    "ComplexMap",
    "FiniteGroup",
    "HomSpaceData",
    "IntMatrix",
    "ModuleMap",
    "PresentedModule",
    "SmithDecomposition",
    "TorusComparisonData",
    "TwoTermSES",
    "backend_name",
    "brauer_a",
    "cohomology",
    "cohomology_invariants",
    "cokernel_invariants",
    "collapse",
    "cone",
    "cycle_lattice",
    "cyclic_oracle",
    "dual_complex",
    "dual_lattice",
    "fibre",
    "finite_coeff_bruteforce",
    "group_cohomology",
    "hypercohomology",
    "in_column_span",
    "induced_module",
    "is_quasi_iso",
    "kernel_basis",
    "norm_one_lattice",
    "norm_one_lattice_of",
    "one_term",
    "pic",
    "regular_module",
    "resolve_torsion_free",
    "shift",
    "smith_normal_form",
    "solve_integer",
    "subquotient_invariants",
    "topological_report",
    "trivial_module",
    "two_term",
    "upic_complex",
    "upic_dual",
    "validate_module",
    "verify_torus_comparison",
    "zero_module",
]
