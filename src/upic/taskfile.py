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

# Every op, with the task field naming its input and the file section that
# input must exist in.  Parse, build and the command line all read this.
OPS = {
    "pic": ("data", "homspace"),
    "brauer_a": ("data", "homspace"),
    "upic_dual": ("data", "homspace"),
    "topological_report": ("data", "homspace"),
    "hypercohomology": ("data", "homspace"),
    "verify_torus_comparison": ("data", "comparisons"),
    "group_cohomology": ("module", "modules"),
}


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
    """`obj` as a `rows`-row integer matrix; `rows=None` takes any non-zero row count."""
    _require(isinstance(obj, list) and all(isinstance(r, list) for r in obj), f"{what}: expected a nested array")
    if rows is None:
        _require(obj, f"{what}: expected a non-empty nested array")
        rows = len(obj)
    if not obj:
        return IntMatrix.zeros(rows, 0)
    width = len(obj[0])
    _require(all(len(r) == width for r in obj), f"{what}: ragged rows")
    for r in obj:
        for x in r:
            _require(isinstance(x, int) and not isinstance(x, bool), f"{what}: entries must be exact integers")
    _require(len(obj) == rows, f"{what}: expected {rows} rows, got {len(obj)}")
    return IntMatrix(rows, width, obj)


def _flag(spec: dict, key: str, default: bool, what: str) -> bool:
    value = spec.get(key, default)
    _require(isinstance(value, bool), f"{what}: {key!r} must be true or false")
    return value


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
    for key in ("table", "permutations"):
        if key in group_spec:
            _as_matrix(group_spec[key], None, f"group {key}")
    generators = doc.get("generators")
    _require(generators is None or isinstance(generators, list), "'generators' must be a list")
    modules = doc.get("modules", {})
    maps = doc.get("maps", {})
    homspace = doc.get("homspace", {})
    comparisons = doc.get("comparisons", {})
    tasks = doc.get("tasks", [])
    for key, section in (("modules", modules), ("maps", maps), ("homspace", homspace), ("comparisons", comparisons)):
        _require(isinstance(section, dict), f"{key!r} must be an object")
        for name, spec in section.items():
            _require(isinstance(spec, dict), f"{key} {name}: entry must be an object")
    _require(isinstance(tasks, list), "'tasks' must be a list")
    for idx, t in enumerate(tasks, start=1):
        _require(isinstance(t, dict) and "op" in t, "each task needs an 'op' field")
        op = t["op"]
        _require(isinstance(op, str) and op in OPS, f"unknown op {op!r} (known: {', '.join(OPS)})")
        for key in ("stabilizer_connected", "condition_h1"):
            _flag(t, key, False, f"task {idx} ({op})")
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
            gen_indices = list(range(group.order))
        else:
            group, gen_indices = FiniteGroup.from_permutations(tf.group_spec["permutations"])
        if tf.generators is not None:
            gen_indices = tf.generators
        for g in gen_indices:
            if not (type(g) is int and 0 <= g < group.order):
                raise ValidationError([f"generator index {g} out of range"])
        self.group = group
        self.generator_indices = gen_indices

        self.modules = {}
        for name, spec in tf.modules.items():
            gens = spec.get("gens")
            _require(type(gens) is int and gens >= 0, f"module {name}: integer 'gens' required")
            relations = _as_matrix(spec.get("relations", []), gens, f"module {name} relations")
            action_list = spec.get("action", [])
            _require(
                isinstance(action_list, list) and len(action_list) == len(gen_indices),
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
            src = self._ref("modules", spec.get("source"), f"map {name} source")
            tgt = self._ref("modules", spec.get("target"), f"map {name} target")
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
            self.homspace[name] = HomSpaceData(
                self.group,
                self._ref("modules", spec.get("xg"), f"homspace {name} xg"),
                self._ref("modules", spec.get("xh"), f"homspace {name} xh"),
                self._ref("maps", spec.get("res"), f"homspace {name} res"),
                _flag(spec, "assume_pic_trivial", True, f"homspace {name}"),
            )

        self.comparisons = {}
        for name, spec in tf.comparisons.items():
            kw = {}
            for field in ("xg_prime", "xm", "xt", "xt_prime", "xtsc"):
                kw[field] = self._ref("modules", spec.get(field), f"comparison {name} {field}")
            for field in ("res_gm", "mu_m", "mu_sc", "rho", "down", "up"):
                kw[field] = self._ref("maps", spec.get(field), f"comparison {name} {field}")
            self.comparisons[name] = TorusComparisonData(group=self.group, **kw)

        for idx, task in enumerate(tf.tasks, start=1):
            op = task["op"]
            if op in ("group_cohomology", "hypercohomology"):
                degree = task.get("degree", 1)
                if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
                    raise ValidationError([f"task {idx} ({op}): degree must be a nonnegative integer"])
            self.input_of(task, f"task {idx} ({op})")
        self.tasks = tf.tasks

    def input_of(self, task: dict, what: str = "task"):
        """The built object that `task` reads: `OPS` names its field and section."""
        field, section = OPS[task["op"]]
        return self._ref(section, task.get(field), f"{what} {field}")

    def _ref(self, section: str, name, what: str):
        entries = getattr(self, section)
        if not isinstance(name, str) or name not in entries:
            raise ValidationError([f"{what}: no {section} entry named {name!r}"])
        return entries[name]
