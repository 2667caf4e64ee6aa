"""Span tracer that wraps upic's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced upic
modules, a few named methods, and the elimination kernels with wrappers
that record a span (name, start, end, parent) per call plus the counters
the per-layer metrics need.  Names bound with ``from .x import name`` are
rebound in every upic module that holds them; the kernels are patched on
the ``upic._backend.kernels`` object, where the library looks them up at
call time.  `uninstall()` restores every original binding.

Spans stay in memory; self time of a span is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("intmatrix", "modules", "complexes", "cohomology", "homspace", "taskfile", "cli")

# (module, class, method, span name)
TRACED_METHODS = (
    ("modules", "ModuleMap", "validate", "modules.ModuleMap.validate"),
    ("complexes", "BoundedComplex", "validate", "complexes.BoundedComplex.validate"),
    ("complexes", "ComplexMap", "validate", "complexes.ComplexMap.validate"),
    ("cohomology", "HyperTotal", "__init__", "cohomology.HyperTotal.init"),
    ("cohomology", "HyperTotal", "cohomology", "cohomology.HyperTotal.cohomology"),
    ("taskfile", "TaskFile", "build", "taskfile.build"),
)

# span names that differ from "<module>.<function>"
RENAMED = {
    "taskfile.parse_task_text": "taskfile.parse",
}

KERNELS = ("hnf_cols", "snf", "matmul")

# the benchmark calls these itself; wrapping them would hide the layers below
NOT_TRACED = {"cli.main"}

INSTRUMENTATION = "trace.instrumentation"


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                b = abs(x).bit_length()
                if b > best:
                    best = b
    return best


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self.max_entry_bits = 0
        self._stack = []
        self._patches = []
        self._paused = 0

    # --- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, op: str, fn):
        tracer = self
        name = f"kernels.{op}"

        def traced(*args):
            if tracer._paused:
                return fn(*args)
            c = tracer.counters
            with tracer.instrumentation():
                if op == "matmul":
                    a, b = args
                    c[f"{name}.cells"] += len(a) * (len(a[0]) if a else 0) + len(b) * (len(b[0]) if b else 0)
                else:
                    c[f"{name}.cells"] += args[1] * args[2]
                    if op == "hnf_cols":
                        c[f"{name}.nnz"] += sum(1 for row in args[0] for x in row if x)
                c[f"{name}.calls"] += 1
            idx = tracer._enter(name)
            try:
                out = fn(*args)
            finally:
                tracer._exit(idx)
            if op != "matmul":
                with tracer.instrumentation():
                    # outputs: (h, v, pivots) or (d, u, v); pivots and absent transforms are skipped
                    bits = max((_bits(part) for part in out if part and isinstance(part[0], list)), default=0)
                    tracer.max_entry_bits = max(tracer.max_entry_bits, bits)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap_kernel_basis(self, fn):
        counters = self.counters

        def counted(a):
            counters["intmatrix.kernel_basis.cells"] += a.rows * a.cols
            return fn(a)

        counted.__wrapped__ = fn
        return counted

    def _count_cochains(self, fn):
        tracer = self

        def counted(group, m, degree, *args, **kwargs):
            out = fn(group, m, degree, *args, **kwargs)
            with tracer.instrumentation(), tracer.pause():
                size = m.underlying_invariants().torsion_order()
            tracer.counters["cohomology.finite_coeff_bruteforce.cochains"] += size ** ((group.order - 1) ** degree)
            return out

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextmanager
    def instrumentation(self):
        """Time spent counting is its own span, so it is not charged to the caller's self time."""
        idx = self._enter(INSTRUMENTATION)
        try:
            yield
        finally:
            self._exit(idx)

    # --- patching --------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        import upic._backend

        mods = {name: sys.modules[f"upic.{name}"] for name in TRACED_MODULES if f"upic.{name}" in sys.modules}
        holders = [m for n, m in sys.modules.items() if (n == "upic" or n.startswith("upic.")) and m is not None]
        replacements = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                if name in NOT_TRACED:
                    continue
                wrapped = self._wrap(name, obj)
                if name == "intmatrix.kernel_basis":
                    wrapped = self._wrap_kernel_basis(wrapped)
                if name == "cohomology.finite_coeff_bruteforce":
                    wrapped = self._count_calls("cohomology.finite_coeff_bruteforce.calls", self._count_cochains(wrapped))
                elif name.endswith((".solve_integer", ".subquotient_invariants", ".smith_normal_form", ".cokernel_invariants")):
                    wrapped = self._count_calls(f"{name}.calls", wrapped)
                replacements[id(obj)] = (obj, wrapped)
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(holder, attr, hit[1])
        for short, cls_name, meth, name in TRACED_METHODS:
            cls = getattr(mods[short], cls_name)
            wrapped = self._wrap(name, getattr(cls, meth))
            if name == "modules.ModuleMap.validate":
                wrapped = self._count_calls(f"{name}.calls", wrapped)
            self._set(cls, meth, wrapped)
        intmatrix = mods["intmatrix"]
        self._set(intmatrix.IntMatrix, "hermite", self._count_calls("intmatrix.hermite.calls", intmatrix.IntMatrix.hermite))
        kernels = upic._backend.kernels
        for op in KERNELS:
            self._set(kernels, op, self._wrap_kernel(op, getattr(kernels, op)))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)
        # a task cut off by its time cap can leave spans open
        self._stack.clear()

    # --- aggregation -----------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (name, t0, t1, _), covered in zip(self.spans, child):
            out[name] += (t1 - t0) - covered
        return out

    def top_level_seconds(self, since: int) -> float:
        """Summed duration of the upic spans from index `since` on that have no parent among them."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] < since and s[0] != INSTRUMENTATION)
