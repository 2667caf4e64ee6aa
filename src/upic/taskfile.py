"""Declarative task files: one JSON document describing a group, modules,
maps, derived data, and a list of operations to run.

All matrices are row-major nested arrays of exact integers.  Module
actions are given on a generating set of the group (element indices; the
action of every other element is derived through the multiplication
table, and consistency is checked during validation).  Relations are
gens-row matrices whose columns are the relators; `[]` means no relators.
"""

from __future__ import annotations

import json

from .errors import TaskFileError, ValidationError
from .groups import FiniteGroup
from .homspace import HomSpaceData, TorusComparisonData
from .intmatrix import IntMatrix
from .modules import ModuleMap, PresentedModule, validate_module

FORMAT_TAG = "upic-task-v1"

KNOWN_OPS = (
    "pic",
    "brauer_a",
    "upic_dual",
    "topological_report",
    "verify_torus_comparison",
    "group_cohomology",
    "hypercohomology",
)


class TaskFile:
    """Parsed, canonicalized task file; `build()` produces engine objects."""

    __slots__ = ("group_spec", "generators", "modules", "maps", "homspace", "comparisons", "tasks")

    def __init__(self, group_spec, generators, modules, maps, homspace, comparisons, tasks):
        self.group_spec = group_spec
        self.generators = generators
        self.modules = modules
        self.maps = maps
        self.homspace = homspace
        self.comparisons = comparisons
        self.tasks = tasks

    def __eq__(self, other):
        return isinstance(other, TaskFile) and self.to_json_dict() == other.to_json_dict()

    def to_json_dict(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "group": self.group_spec,
            "generators": self.generators,
            "modules": self.modules,
            "maps": self.maps,
            "homspace": self.homspace,
            "comparisons": self.comparisons,
            "tasks": self.tasks,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def build(self) -> "BuiltTasks":
        return BuiltTasks(self)


def _require(cond, msg):
    if not cond:
        raise TaskFileError(msg)


def _as_matrix(obj, rows, what) -> IntMatrix:
    _require(isinstance(obj, list), f"{what}: expected a nested array")
    if not obj:
        return IntMatrix.zeros(rows, 0)
    _require(all(isinstance(r, list) for r in obj), f"{what}: expected a nested array")
    width = len(obj[0])
    _require(all(len(r) == width for r in obj), f"{what}: ragged rows")
    for r in obj:
        for x in r:
            _require(isinstance(x, int) and not isinstance(x, bool), f"{what}: entries must be exact integers")
    _require(len(obj) == rows, f"{what}: expected {rows} rows, got {len(obj)}")
    return IntMatrix(rows, width, obj)


def parse_task_text(text: str) -> TaskFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TaskFileError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("format") == FORMAT_TAG, f"missing or unsupported format tag (want {FORMAT_TAG!r})")
    group_spec = doc.get("group")
    _require(isinstance(group_spec, dict), "missing group description")
    _require(
        ("table" in group_spec) != ("permutations" in group_spec),
        "group needs exactly one of 'table' or 'permutations'",
    )
    generators = doc.get("generators")
    modules = doc.get("modules", {})
    maps = doc.get("maps", {})
    homspace = doc.get("homspace", {})
    comparisons = doc.get("comparisons", {})
    tasks = doc.get("tasks", [])
    _require(isinstance(modules, dict), "'modules' must be an object")
    _require(isinstance(maps, dict), "'maps' must be an object")
    _require(isinstance(homspace, dict), "'homspace' must be an object")
    _require(isinstance(comparisons, dict), "'comparisons' must be an object")
    _require(isinstance(tasks, list), "'tasks' must be a list")
    for t in tasks:
        _require(isinstance(t, dict) and "op" in t, "each task needs an 'op' field")
        _require(t["op"] in KNOWN_OPS, f"unknown op {t['op']!r} (known: {', '.join(KNOWN_OPS)})")
    return TaskFile(group_spec, generators, modules, maps, homspace, comparisons, tasks)


def parse_task_file(path) -> TaskFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_task_text(fh.read())


def _extend_actions(group: FiniteGroup, gen_indices, gen_mats, gens: int, name: str):
    mats = {group.identity: IntMatrix.identity(gens)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gm in zip(gen_indices, gen_mats):
                y = group.mul(gi, x)
                if y not in mats:
                    mats[y] = gm.mul(mats[x])
                    nxt.append(y)
        frontier = nxt
    if len(mats) != group.order:
        raise ValidationError([f"module {name}: the declared generators do not generate the group"])
    return [mats[g] for g in range(group.order)]


class BuiltTasks:
    """Engine objects constructed from a TaskFile, fully validated."""

    __slots__ = ("group", "generator_indices", "modules", "maps", "homspace", "comparisons", "tasks")

    def __init__(self, tf: TaskFile):
        if "table" in tf.group_spec:
            group = FiniteGroup(tf.group_spec["table"])
            gen_indices = tf.generators if tf.generators is not None else list(range(group.order))
        else:
            cap = tf.group_spec.get("cap", 48)
            group, gen_indices = FiniteGroup.from_permutations(tf.group_spec["permutations"], cap=cap)
            if tf.generators is not None:
                gen_indices = tf.generators
        for g in gen_indices:
            if not (isinstance(g, int) and 0 <= g < group.order):
                raise ValidationError([f"generator index {g} out of range"])
        self.group = group
        self.generator_indices = gen_indices

        self.modules = {}
        for name, spec in tf.modules.items():
            gens = spec.get("gens")
            _require(isinstance(gens, int) and gens >= 0, f"module {name}: integer 'gens' required")
            relations = _as_matrix(spec.get("relations", []), gens, f"module {name} relations")
            action_list = spec.get("action", [])
            _require(
                len(action_list) == len(gen_indices),
                f"module {name}: need one action matrix per generator ({len(gen_indices)})",
            )
            gen_mats = [_as_matrix(a, gens, f"module {name} action") for a in action_list]
            for mat in gen_mats:
                _require(mat.cols == gens, f"module {name}: action matrices must be {gens}x{gens}")
            action = _extend_actions(group, gen_indices, gen_mats, gens, name)
            mod = PresentedModule(group, gens, relations, action)
            violations = validate_module(mod)
            if violations:
                raise ValidationError([f"module {name}: {v}" for v in violations])
            self.modules[name] = mod

        self.maps = {}
        for name, spec in tf.maps.items():
            src = self._module(spec.get("source"), f"map {name} source")
            tgt = self._module(spec.get("target"), f"map {name} target")
            mat = _as_matrix(spec.get("matrix", []), tgt.gens, f"map {name} matrix")
            if tgt.gens == 0:
                mat = IntMatrix.zeros(0, src.gens)
            _require(mat.cols == src.gens, f"map {name}: matrix must have {src.gens} columns")
            mm = ModuleMap(src, tgt, mat)
            violations = mm.validate()
            if violations:
                raise ValidationError([f"map {name}: {v}" for v in violations])
            self.maps[name] = mm

        self.homspace = {}
        for name, spec in tf.homspace.items():
            xg = self._module(spec.get("xg"), f"homspace {name} xg")
            xh = self._module(spec.get("xh"), f"homspace {name} xh")
            res = self._map(spec.get("res"), f"homspace {name} res")
            self.homspace[name] = HomSpaceData(
                self.group, xg, xh, res, bool(spec.get("assume_pic_trivial", True))
            )

        self.comparisons = {}
        for name, spec in tf.comparisons.items():
            kw = {}
            for field in ("xg_prime", "xm", "xt", "xt_prime", "xtsc"):
                kw[field] = self._module(spec.get(field), f"comparison {name} {field}")
            for field in ("res_gm", "mu_m", "mu_sc", "rho", "down", "up"):
                kw[field] = self._map(spec.get(field), f"comparison {name} {field}")
            self.comparisons[name] = TorusComparisonData(group=self.group, **kw)

        for idx, task in enumerate(tf.tasks, start=1):
            op = task["op"]
            if op in ("group_cohomology", "hypercohomology"):
                degree = task.get("degree", 1)
                if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
                    raise ValidationError([f"task {idx} ({op}): degree must be a nonnegative integer"])
            if op in ("pic", "brauer_a", "upic_dual", "topological_report", "hypercohomology"):
                if task.get("data") not in self.homspace:
                    raise ValidationError([f"task {idx} ({op}): unknown homspace data {task.get('data')!r}"])
            elif op == "verify_torus_comparison":
                if task.get("data") not in self.comparisons:
                    raise ValidationError([f"task {idx} ({op}): unknown comparison data {task.get('data')!r}"])
            elif op == "group_cohomology":
                if task.get("module") not in self.modules:
                    raise ValidationError([f"task {idx} ({op}): unknown module {task.get('module')!r}"])
        self.tasks = tf.tasks

    def _module(self, name, what) -> PresentedModule:
        if name not in self.modules:
            raise ValidationError([f"{what}: unknown module {name!r}"])
        return self.modules[name]

    def _map(self, name, what) -> ModuleMap:
        if name not in self.maps:
            raise ValidationError([f"{what}: unknown map {name!r}"])
        return self.maps[name]
