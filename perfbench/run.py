#!/usr/bin/env python3
"""End-to-end benchmark of upic, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload brauer_ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: upic is imported from ``src/``.
Each workload is a closed loop with one caller that runs a fixed, seeded
task list one task at a time, in whole passes, until ``--seconds`` have
passed (at least one pass).  Every result is checked against a reference that does not
come from upic (see ``reference.py``); a task that raises, exits non-zero,
runs over its time cap or disagrees with the reference is failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see ``tracer.py``).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A detailed report (environment, per-task medians, failures,
every traced row, spans) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import INSTRUMENTATION, Tracer  # noqa: E402

TASK_CAP_S = 30.0  # one in-process pipeline call
CLI_CAP_S = 20.0  # one upic process, spawn to exit
HARD_DEADLINE_S = 140.0  # no task starts after this, counted from the start of the run
SETUP_REPEATS = 9
PROBE_REPEATS = 5
KERNEL_REPEATS = 3  # kernel cases report the best of up to this many runs,
KERNEL_CASE_BUDGET_S = 0.5  # fewer once a case has used this many seconds

END_TO_END = {
    "wall_s": "s",
    "task_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer self times, reported as "<name>.s"
SELF_TIMES = (
    "kernels.hnf_cols",
    "kernels.matmul",
    "kernels.snf",
    "intmatrix.kernel_basis",
    "intmatrix.solve_integer",
    "intmatrix.subquotient_invariants",
    "intmatrix.smith_normal_form",
    "intmatrix.cokernel_invariants",
    "modules.ModuleMap.validate",
    "modules.validate_module",
    "complexes.BoundedComplex.validate",
    "complexes.ComplexMap.validate",
    "complexes.resolve_torsion_free",
    "complexes.cone",
    "complexes.is_quasi_iso",
    "complexes.dual_complex",
    "complexes.cohomology",
    "cohomology.HyperTotal.init",
    "cohomology.HyperTotal.cohomology",
    "cohomology.cochain_differential",
    "cohomology.group_cohomology",
    "cohomology.finite_coeff_bruteforce",
    "cohomology.cyclic_oracle",
    "homspace.pic",
    "homspace.brauer_a",
    "homspace.upic_dual",
    "homspace.topological_report",
    "taskfile.parse",
    "taskfile.build",
    "cli.run_tasks",
)
COUNTS = (
    "kernels.hnf_cols.calls",
    "kernels.hnf_cols.cells",
    "kernels.matmul.calls",
    "kernels.matmul.cells",
    "kernels.snf.calls",
    "kernels.snf.cells",
    "intmatrix.kernel_basis.cells",
    "intmatrix.solve_integer.calls",
    "intmatrix.subquotient_invariants.calls",
    "intmatrix.smith_normal_form.calls",
    "intmatrix.cokernel_invariants.calls",
    "modules.ModuleMap.validate.calls",
    "cohomology.finite_coeff_bruteforce.calls",
    "cohomology.finite_coeff_bruteforce.cochains",
)
KERNEL_CASES = ("dense10", "dense20", "dense30", "cochain_d2_g4", "cochain_d2_g6")
KERNEL_OPS = ("snf", "hnf_cols")


def per_layer_units() -> dict:
    units = {f"{name}.s": "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "kernels.hnf_cols.nnz_frac": "ratio",
            "kernels.max_entry_bits": "bits",
            "intmatrix.hermite.hit_ratio": "ratio",
            "cli.interpreter_s": "s",
            "cli.import_s": "s",
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.census_s": "s",
            "trace.overhead": "ratio",
            "trace.coverage": "ratio",
        }
    )
    for case in KERNEL_CASES:
        for op in KERNEL_OPS:
            units[f"kernels.bench.{case}.{op}.s"] = "s"
    return units


class TaskTimeout(BaseException):
    """Raised by the interval timer inside an in-process task that ran over its cap."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


# --- environment --------------------------------------------------------------


def load_upic(with_cli: bool):
    if not os.path.isfile(os.path.join(SRC, "upic", "__init__.py")):
        raise SystemExit(f"error: no upic sources under {SRC}; run from the root of a upic checkout")
    sys.path.insert(0, SRC)
    import upic

    if os.path.dirname(os.path.abspath(upic.__file__)) != os.path.join(SRC, "upic"):
        raise SystemExit(f"error: imported upic from {upic.__file__}, not from {SRC}")
    import upic.homspace  # noqa: F401
    import upic.modules  # noqa: F401

    if with_cli:
        import upic.cli  # noqa: F401
    return upic


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(SRC, "upic")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".task")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(upic, args) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "backend": upic.backend_name(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- task runners ---------------------------------------------------------------


class InProcessRunner:
    """Pipeline calls in this process; inputs are rebuilt (untimed) before every pass."""

    def __init__(self, upic, workload: str, seed: int):
        self.build = lambda: getattr(workloads, workload)(upic, seed)
        self.tasks = self.build()
        self.labels = [t.label for t in self.tasks]

    def new_pass(self):
        self.tasks = self.build()

    def run(self, k: int, cap: float):
        task = self.tasks[k]
        return _with_cap(cap, lambda: task.check(task.run()))


class ColdCliRunner:
    """One ``python -m upic.cli run --oracle on --out`` process per task file."""

    def __init__(self, cases):
        self.cases = cases
        self.labels = [c.label for c in cases]
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def new_pass(self):
        pass

    def run(self, k: int, cap: float):
        case = self.cases[k]
        _remove(case.out_path)
        cmd = [sys.executable, "-m", "upic.cli", "run", case.path, "--oracle", "on", "--out", case.out_path]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=cap)
        except subprocess.TimeoutExpired:
            return f"{case.label}: over the {cap:.0f} s time cap"
        if proc.returncode != 0:
            return f"{case.label}: exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"
        return case.check(_read_records(case.out_path))


class InProcessCliRunner:
    """The same task files through ``upic.cli.main`` in this process (traced runs)."""

    def __init__(self, upic, cases):
        self.cli = upic.cli
        self.cases = cases
        self.labels = [c.label for c in cases]

    def new_pass(self):
        pass

    def run(self, k: int, cap: float):
        case = self.cases[k]
        _remove(case.out_path)
        argv = ["run", case.path, "--oracle", "on", "--out", case.out_path]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = self.cli.main(argv)
                except SystemExit as e:  # argparse exits instead of returning
                    code = e.code
            if code != 0:
                return f"{case.label}: exit code {code}: {sink.getvalue().strip()[-300:]}"
            return case.check(_read_records(case.out_path))

        return _with_cap(cap, call)


def _with_cap(cap: float, fn):
    """Run fn under an interval timer; any exception or overrun becomes an error string."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    except TaskTimeout:
        return f"over the {cap:.0f} s time cap"
    except Exception as e:  # a failing task is counted, the run goes on
        return f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _remove(path: str):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _read_records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- set-up -------------------------------------------------------------------


def make_runner(upic, workload: str, seed: int, workdir: str, cold: bool):
    if workload == "cli_verified":
        cases = workloads.write_cli_cases(ROOT, workdir, seed)
        return ColdCliRunner(cases) if cold else InProcessCliRunner(upic, cases)
    return InProcessRunner(upic, workload, seed)


def setup_probe(args) -> int:
    """The set-up a fresh process pays before its first task: import, build, validate, write files."""
    upic = load_upic(with_cli=args.workload == "cli_verified")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        make_runner(upic, args.workload, args.seed, workdir, cold=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return out


# --- the closed loop ------------------------------------------------------------


class Tally:
    def __init__(self, labels):
        self.labels = labels
        self.samples = [[] for _ in labels]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, k: int, seconds: float, error):
        self.samples[k].append(seconds)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 50:
                self.errors.append(f"{self.labels[k]}: {error}")


def run_task(runner, k: int, tally: Tally, slot: int, cap: float, deadline: float) -> float:
    """Run task k of the runner and record it in the tally under `slot`; returns its seconds."""
    now = time.perf_counter()
    if now >= deadline:
        tally.add(slot, cap, "not started before the run deadline")
        return cap
    cap = max(1.0, min(cap, deadline - now))
    t0 = time.perf_counter()
    error = runner.run(k, cap)
    dt = time.perf_counter() - t0
    tally.add(slot, dt, error)
    return dt


def closed_loop(runner, tally: Tally, seconds: float, cap: float, deadline: float):
    """One caller, one task at a time, whole passes over the task list until `seconds` have passed.

    Only whole passes run, so every task has the same number of samples and
    the percentiles weigh every task alike.
    """
    start = time.perf_counter()
    while True:
        for k in range(len(tally.labels)):
            run_task(runner, k, tally, k, cap, deadline)
        if time.perf_counter() - start >= seconds:
            return
        runner.new_pass()


def end_to_end(args, upic, workdir: str) -> tuple:
    cold = args.workload == "cli_verified"
    runner = make_runner(upic, args.workload, args.seed, workdir, cold=True)
    cap = CLI_CAP_S if cold else TASK_CAP_S
    tally = Tally(runner.labels)
    closed_loop(runner, tally, args.seconds, cap, args.start + HARD_DEADLINE_S)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    setups = measure_setup(args)
    every = [s for per_task in tally.samples for s in per_task]
    medians = [statistics.median(s) for s in tally.samples]
    passes = [sum(pass_samples) for pass_samples in zip(*tally.samples)]
    metrics = {
        "wall_s": statistics.median(passes),
        "task_s.p50": statistics.median(every),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    detail = {
        # not an end-to-end metric: on the in-process workloads it is the time of one or two
        # tasks, and it varies from run to run by more than any bound allowed
        "task_s.p90": statistics.quantiles(every, n=10)[8] if len(every) > 1 else every[0],
        "samples": len(every),
        "pass_s": passes,
        "task_median_s": dict(zip(tally.labels, medians)),
        "task_samples_s": dict(zip(tally.labels, tally.samples)),
        "setup_s_runs": setups,
    }
    return tally, metrics, detail


# --- the traced run -------------------------------------------------------------


def _one_pass(runner, tally: Tally, cap: float, deadline: float, offset: int = 0) -> float:
    total = 0.0
    for k in range(len(runner.labels)):
        total += run_task(runner, k, tally, offset + k, cap, deadline)
    return total


def kernel_rows(upic, seed: int) -> dict:
    """The kernel microbenchmark cases, best of KERNEL_REPEATS, on every backend that imports."""
    import random

    from upic import _kernels_py
    from upic.cohomology import cochain_differential

    backends = {"pure-python": _kernels_py}
    with contextlib.suppress(ImportError):
        from upic import _kernels

        backends["compiled"] = _kernels
    rng = random.Random(f"kernels:{seed}")
    cases = {}
    for size in (10, 20, 30):
        cases[f"dense{size}"] = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
    for order in (4, 6):
        g = upic.FiniteGroup.cyclic(order)
        cases[f"cochain_d2_g{order}"] = cochain_differential(g, upic.regular_module(g), 2).to_dense().data
    rows = {}
    for backend, mod in backends.items():
        for case, data in cases.items():
            m, n = len(data), len(data[0])
            for op, call in (("snf", lambda k: k.snf(data, m, n, True)), ("hnf_cols", lambda k: k.hnf_cols(data, m, n))):
                times = []
                while len(times) < KERNEL_REPEATS and sum(times) < KERNEL_CASE_BUDGET_S:
                    t0 = time.perf_counter()
                    call(mod)
                    times.append(time.perf_counter() - t0)
                best = min(times)
                rows[f"{backend}:{case}.{op}"] = best
    return rows


def cold_probes() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import upic.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60, capture_output=True)
        imports.append(float(proc.stdout.decode().strip()))
    return {"cli.interpreter_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def traced(args, upic, workdir: str) -> tuple:
    """Per-layer numbers: each task runs untraced and then traced, back to back.

    Pairing per task, rather than per pass, keeps a slow spell of the host
    out of `trace.overhead`.  Two runners keep the inputs of the two runs
    apart, so the traced run cannot reuse anything cached by the untraced one.
    """
    plain = make_runner(upic, args.workload, args.seed, workdir, cold=False)
    runner = make_runner(upic, args.workload, args.seed, workdir, cold=False)
    census = InProcessCliRunner(upic, workloads.census_cases(workdir))
    cap = TASK_CAP_S
    tally = Tally(runner.labels + census.labels)
    deadline = args.start + HARD_DEADLINE_S
    tracer = Tracer()
    untraced_s, traced_s, census_s = [], [], []
    task_s = covered_s = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.new_pass()
        runner.new_pass()
        mark = len(tracer.spans)
        untraced_s.append(0.0)
        traced_s.append(0.0)
        for k in range(len(runner.labels)):
            untraced_s[-1] += run_task(plain, k, tally, k, cap, deadline)
            tracer.install()
            try:
                traced_s[-1] += run_task(runner, k, tally, k, cap, deadline)
            finally:
                tracer.uninstall()
        tracer.install()
        try:
            census_s.append(_one_pass(census, tally, cap, deadline, offset=len(runner.labels)))
        finally:
            tracer.uninstall()
        task_s += traced_s[-1] + census_s[-1]
        covered_s += tracer.top_level_seconds(mark)
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    passes = len(traced_s)
    selfs = tracer.self_times()
    c = tracer.counters
    metrics = {f"{name}.s": selfs.get(name, 0.0) / passes for name in SELF_TIMES}
    metrics.update({name: c.get(name, 0) / passes for name in COUNTS})
    hermite_calls = c.get("intmatrix.hermite.calls", 0)
    metrics["kernels.hnf_cols.nnz_frac"] = c.get("kernels.hnf_cols.nnz", 0) / max(1, c.get("kernels.hnf_cols.cells", 0))
    metrics["kernels.max_entry_bits"] = tracer.max_entry_bits
    metrics["intmatrix.hermite.hit_ratio"] = 1.0 - c.get("kernels.hnf_cols.calls", 0) / hermite_calls if hermite_calls else 0.0
    metrics["trace.wall_s"] = statistics.median(t + s for t, s in zip(traced_s, census_s))
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_s)
    metrics["trace.census_s"] = statistics.median(census_s)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.coverage"] = covered_s / task_s
    metrics.update(cold_probes())
    kernels = kernel_rows(upic, args.seed)
    active = upic.backend_name()
    for case in KERNEL_CASES:
        for op in KERNEL_OPS:
            metrics[f"kernels.bench.{case}.{op}.s"] = kernels[f"{active}:{case}.{op}"]
    detail = {
        "traced_passes": passes,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "census_pass_s": census_s,
        "coverage_check": "pass" if metrics["trace.coverage"] >= 0.95 else "FAIL (top-level spans cover under 95% of task seconds)",
        "self_s_per_pass": {k: v / passes for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])},
        "instrumentation_s_per_pass": selfs.get(INSTRUMENTATION, 0.0) / passes,
        "counters_per_pass": {k: v / passes for k, v in sorted(c.items())},
        "kernel_rows_s": kernels,
        "spans": len(tracer.spans),
    }
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": [[index[s[0]], round(s[1] - start, 7), round(s[2] - start, 7), s[3]] for s in tracer.spans]}, fh)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return tally, metrics, detail


# --- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.start = time.perf_counter()
    if args.setup_probe:
        return setup_probe(args)

    signal.signal(signal.SIGALRM, _on_alarm)
    upic = load_upic(with_cli=args.trace == 1 or args.workload == "cli_verified")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = environment(upic, args)
    try:
        if args.trace:
            tally, values, detail = traced(args, upic, workdir)
            units = per_layer_units()
        else:
            tally, values, detail = end_to_end(args, upic, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(env=env, attempted=tally.attempted, failed=tally.failed, errors=tally.errors, metrics=values)
    report = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# report {os.path.relpath(report, ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
