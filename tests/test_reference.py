"""The reference layer stays off the runtime path.

`upic.reference` imports the runtime modules; none of them, the package
included, imports it back, and the names it took over live nowhere else.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import upic
import upic.complexes as complexes
import upic.modules as modules
from upic.complexes import BoundedComplex, ComplexMap
from upic.modules import ModuleMap, PresentedModule

PACKAGE = Path(upic.__file__).parent

MOVED_FUNCTIONS = (
    "shift",
    "fibre",
    "is_acyclic",
    "TwoTermSES",
    "CollapseResult",
    "collapse",
    "_canonical_class_generators",
    "_kernel_lattice_module",
    "resolve_torsion_free",
    "dual_complex",
    "add_relations",
    "dual_lattice",
    "relation_route",
    "_cohomology_vanishes",
)
MOVED_METHODS = {
    BoundedComplex: ("structurally_equal",),
    PresentedModule: ("stabilizer",),
    ModuleMap: ("kernel_lattice", "is_injective", "is_surjective", "is_zero_map"),
}
# methods that became functions under another name, as `zero` and `identity` say little outside their class
RENAMED_METHODS = {
    (ModuleMap, "neg"): "neg_map",
    (ModuleMap, "identity"): "identity_map",
    (ComplexMap, "zero"): "zero_chain_map",
    (ComplexMap, "identity"): "identity_chain_map",
}
MOVED = (
    MOVED_FUNCTIONS
    + tuple(name for names in MOVED_METHODS.values() for name in names)
    + tuple(RENAMED_METHODS.values())
)


def test_cli_import_does_not_load_the_reference():
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = "import sys, upic.cli; print(sorted(m for m in sys.modules if m.startswith('upic')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out)
    assert "upic.cli" in loaded and "upic.complexes" in loaded
    assert "upic.reference" not in loaded


def test_no_runtime_module_imports_the_reference():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name == "reference" or name.endswith(".reference") for name in names):
                importers.append((path.name, node.lineno))
    assert importers == []


def test_moved_names_live_only_in_the_reference():
    import upic.reference as reference

    for name in MOVED:
        assert hasattr(reference, name), name
        for holder in (upic, complexes, modules):
            assert not hasattr(holder, name), f"{holder.__name__}.{name}"
    for cls, names in MOVED_METHODS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    for cls, name in RENAMED_METHODS:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_complexes_hold_no_cohomology_route():
    """`complexes` defines the complexes, chain maps and cones only.  Their cohomology is read in
    `upic.cohomology`, and the subquotient route, `upic.reference.cohomology`, is the tests' reference."""
    import upic.cohomology
    import upic.reference as reference

    defined = {name for name, obj in vars(complexes).items() if getattr(obj, "__module__", None) == complexes.__name__}
    assert defined == {"BoundedComplex", "ComplexMap", "one_term", "two_term", "zero_complex", "cone"}
    for name in ("cycle_lattice", "subquotient_relations", "in_column_span", "cokernel_invariants"):
        assert not hasattr(complexes, name), name
    assert reference.cohomology.__module__ == reference.__name__
    for name in ("cohomology_invariants", "is_quasi_iso"):
        assert getattr(upic, name) is getattr(upic.cohomology, name) and name in upic.__all__


def test_public_surface_resolves():
    assert len(set(upic.__all__)) == len(upic.__all__)
    for name in upic.__all__:
        assert getattr(upic, name) is not None, name
    assert not set(upic.__all__) & set(MOVED)
