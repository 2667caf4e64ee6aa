"""Command-line surface: run declarative task files, list or run the
bundled fixture library.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 task error.
Human-readable results go to stdout; `--out` additionally writes a
machine-readable JSON record list (only on success, never partially),
before the listing: a run whose records cannot be written prints none.
`--oracle on` cross-checks every cohomology result against whichever
independent oracle applies (cyclic closed form, finite enumeration) and
fails with exit code 4 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from . import __version__
from ._backend import backend_name
from .cohomology import cyclic_oracle, finite_coeff_bruteforce, group_cohomology, hypercohomology
from .complexes import one_term
from .errors import BudgetExceeded, TaskError, TaskFileError, UpicError, ValidationError
from .homspace import brauer_a, pic, topological_report, upic_complex, upic_dual, verify_torus_comparison
from .taskfile import OPS, BuiltTasks, parse_task_file, parse_task_text

TOOL = f"upic {__version__}"


def _oracle_check(group, complex_, degree, value):
    """Compare a hypercohomology value against an applicable oracle.

    Returns a note string; raises TaskError on a mismatch.  Applicable
    means: the (trimmed) coefficient complex is concentrated in one degree,
    and either the group is cyclic or the coefficients are finite and small
    enough to enumerate.
    """
    trimmed = complex_.trim()
    if len(trimmed.terms) > 1:
        return "no oracle for genuinely two-term coefficients"
    if not trimmed.terms:
        return "zero coefficients; nothing to check"
    q = trimmed.lowest_degree
    m = trimmed.terms[0]
    i = degree - q
    if i < 0:
        return "degree below the support; nothing to check"
    expected = None
    used = None
    if group.cyclic_generator() is not None:
        expected = cyclic_oracle(group, m, i)
        used = "cyclic oracle"
    elif m.underlying_invariants().free_rank == 0 and i <= 2:
        try:
            expected = finite_coeff_bruteforce(group, m, i)
            used = "enumeration oracle"
        except BudgetExceeded:
            return "enumeration oracle over budget; skipped"
    if expected is None:
        return "no oracle applies"
    if expected != value:
        raise TaskError(f"{used} disagrees: oracle {expected.render()} vs computed {value.render()}")
    return f"{used} agreed"


# pic and brauer_a are hypercohomology in a fixed degree; the raw ops take the task's
_FIXED_DEGREE = {"pic": 1, "brauer_a": 2}


def _degree(task: dict) -> int:
    return _FIXED_DEGREE.get(task["op"], task.get("degree", 1))


def _run_one(built: BuiltTasks, task: dict, oracle: bool) -> dict:
    op = task["op"]
    arg = built.input_of(task)
    record = {"task": task, "tool": TOOL}
    if op in ("pic", "brauer_a", "hypercohomology", "group_cohomology"):
        degree = _degree(task)
        if op == "group_cohomology":
            value = group_cohomology(built.group, arg, degree)
        elif op == "hypercohomology":
            value = hypercohomology(built.group, upic_complex(arg), degree)
        else:
            rep = (pic if op == "pic" else brauer_a)(arg)
            value = rep.value
            record.update(caveat=rep.caveat, assumes_pic_trivial=rep.assume_pic_trivial)
        record["result"] = value.render()
        if oracle:
            coeffs = one_term(arg, 0) if op == "group_cohomology" else upic_complex(arg)
            record["oracle"] = _oracle_check(built.group, coeffs, degree, value)
    elif op == "upic_dual":
        rep = upic_dual(arg)
        record.update(
            result=rep.render(),
            detail={
                "h0": rep.h0.render(),
                "hminus1": rep.hminus1.render(),
                "kernel": rep.kernel_invariants.render(),
                "cokernel": rep.cokernel_invariants.render(),
                "stabilizer_torsion": rep.stabilizer_torsion.render(),
            },
            assumes_pic_trivial=rep.assume_pic_trivial,
        )
        if oracle:
            record["oracle"] = "dual sequence bookkeeping verified internally"
    elif op == "topological_report":
        rep = topological_report(arg, task.get("stabilizer_connected", False), task.get("condition_h1", False))
        record.update(
            result=rep.render(),
            detail={
                "h0": rep.h0.render(),
                "hminus1": rep.hminus1.render(),
                "h0_label": rep.h0_label,
                "hminus1_label": rep.hminus1_label,
                "note": rep.note,
            },
        )
    else:
        rep = verify_torus_comparison(arg)
        record.update(
            result="true" if rep.verdict else "false",
            detail={
                "cohomology": {k: {str(i): v.render() for i, v in d.items()} for k, d in rep.cohomology.items()},
                "square_failures": rep.square_failures,
                "quasi_isomorphisms": rep.quasi_iso,
            },
        )
    return record


def _describe(task: dict) -> str:
    op = task["op"]
    name = task[OPS[op][0]]
    if op in ("group_cohomology", "hypercohomology"):
        return f"H^{_degree(task)}({name})"
    return f"{op}({name})"


def run_tasks(built: BuiltTasks, oracle: bool) -> list:
    records = []
    for idx, task in enumerate(built.tasks, start=1):
        t0 = time.perf_counter()
        record = _run_one(built, task, oracle)
        record["seconds"] = round(time.perf_counter() - t0, 6)
        record["index"] = idx
        records.append(record)
    return records


def _print_records(records) -> None:
    for r in records:
        line = f"[{r['index']}] {_describe(r['task'])} = {r['result']}"
        if r.get("caveat"):
            line += f" | {r['caveat']}"
        if r.get("assumes_pic_trivial"):
            line += " | assumes Pic(Gbar) = 0"
        if r.get("oracle"):
            line += f" | oracle: {r['oracle']}"
        print(line)


def _cmd_run(args) -> int:
    try:
        tf = parse_task_file(args.file)
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    except TaskFileError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        built = tf.build()
    except TaskFileError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 3
    try:
        records = run_tasks(built, args.oracle == "on")
    except UpicError as e:
        print(f"task error: {e}", file=sys.stderr)
        return 4
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            print(f"task error: cannot write {args.out}: {e}", file=sys.stderr)
            return 4
    _print_records(records)
    return 0


FIXTURES = {
    "norm_one_2": "cyclic degree-2 norm-one torus; pic = Z/2, brauer_a = 0",
    "norm_one_3": "cyclic degree-3 norm-one torus; pic = Z/3, brauer_a = 0",
    "norm_one_4": "cyclic degree-4 norm-one torus; pic = Z/4, brauer_a = 0",
    "norm_one_5": "cyclic degree-5 norm-one torus; pic = Z/5, brauer_a = 0",
    "norm_one_6": "cyclic degree-6 norm-one torus; pic = Z/6, brauer_a = 0",
    "quasitrivial_c2": "quasi-trivial torus over a quadratic extension; pic = 0",
    "sln_normalizer": "torus normalizer in SL_n over a closed field; pic = Z/2, dual (Z/2, 0)",
    "sl2_pgl2_comparison": "central extension comparison diagram; verdict true, H^1 = Z/2 throughout",
    "biquadratic_norm_one": "biquadratic norm-one torus; pic = Z/2 x Z/2, brauer_a = Z/2",
    "quadratic_sign_stabilizer": "order-4 stabilizer characters inverted by a quadratic action; pic = Z/2, brauer_a = Z/2, dual (Z/4, 0)",
}

FIXTURE_EXPECTATIONS = {
    "norm_one_2": {"pic(D)": "Z/2", "brauer_a(D)": "0"},
    "norm_one_3": {"pic(D)": "Z/3", "brauer_a(D)": "0"},
    "norm_one_4": {"pic(D)": "Z/4", "brauer_a(D)": "0"},
    "norm_one_5": {"pic(D)": "Z/5", "brauer_a(D)": "0"},
    "norm_one_6": {"pic(D)": "Z/6", "brauer_a(D)": "0"},
    "quasitrivial_c2": {"pic(D)": "0"},
    "sln_normalizer": {"pic(D)": "Z/2", "upic_dual(D)": "H0=Z/2, H-1=0"},
    "sl2_pgl2_comparison": {"verify_torus_comparison(T)": "true"},
    "biquadratic_norm_one": {"pic(D)": "Z/2 x Z/2", "brauer_a(D)": "Z/2"},
    "quadratic_sign_stabilizer": {
        "pic(D)": "Z/2",
        "brauer_a(D)": "Z/2",
        "upic_dual(D)": "H0=Z/4, H-1=0",
    },
}


def fixture_text(name: str) -> str:
    return resources.files("upic").joinpath("fixtures", f"{name}.task").read_text(encoding="utf-8")


def _cmd_fixtures(args) -> int:
    if not args.run_all:
        for name, desc in FIXTURES.items():
            print(f"{name}: {desc}")
        return 0
    failures = []
    for name in FIXTURES:
        tf = parse_task_text(fixture_text(name))
        built = tf.build()
        try:
            records = run_tasks(built, args.oracle == "on")
        except UpicError as e:
            failures.append(f"{name}: {e}")
            continue
        expected = FIXTURE_EXPECTATIONS[name]
        got = {_describe(r["task"]): r["result"] for r in records}
        for label, want in expected.items():
            actual = got.get(label)
            status = "ok" if actual == want else f"MISMATCH (expected {want})"
            print(f"{name}: {label} = {actual} [{status}]")
            if actual != want:
                failures.append(f"{name}: {label} = {actual}, expected {want}")
    if failures:
        print("failures:", "; ".join(failures), file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="upic",
        description="Invariants of homogeneous spaces from lattice-level Galois data "
        f"(kernel backend: {backend_name()}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a task file")
    p_run.add_argument("file")
    p_run.add_argument("--out", help="write machine-readable JSON records here")
    p_run.add_argument("--oracle", choices=("on", "off"), default="off")
    p_run.set_defaults(func=_cmd_run)

    p_fix = sub.add_parser("fixtures", help="list or run the bundled fixtures")
    group = p_fix.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", default=False)
    group.add_argument("--run-all", action="store_true", default=False)
    p_fix.add_argument("--oracle", choices=("on", "off"), default="off")
    p_fix.set_defaults(func=_cmd_fixtures)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
