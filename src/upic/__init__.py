"""Exact invariants of homogeneous spaces from finite-level Galois lattice data.

The public layers, bottom up: exact integer linear algebra (`intmatrix`),
finite groups and presented modules (`groups`, `modules`), bounded
complexes, chain maps and cones (`complexes`), group and hypercohomology
over free resolutions with independent oracles, the cohomology of a
complex and the quasi-isomorphism test (`cohomology`, `resolutions`), and
the invariant pipelines (`homspace`).  The `upic` command drives everything from
declarative task files.

`upic.reference` holds what only the tests run (shifts, fibres, the
torsion-free resolution, the termwise dual, collapse and the subquotient
route to a complex's cohomology); neither this
package nor the `upic` command imports it.
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
    cone,
    one_term,
    two_term,
)
from .cohomology import (
    cohomology_invariants,
    cyclic_oracle,
    finite_coeff_bruteforce,
    group_cohomology,
    hypercohomology,
    is_quasi_iso,
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
    "backend_name",
    "brauer_a",
    "cohomology_invariants",
    "cokernel_invariants",
    "cone",
    "cycle_lattice",
    "cyclic_oracle",
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
