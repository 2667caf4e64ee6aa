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

from . import __version__
from ._backend import backend_name
from .cohomology import cyclic_oracle, finite_coeff_bruteforce, group_cohomology, hypercohomology
from .complexes import one_term
from .errors import BudgetExceeded, TaskError, TaskFileError, UpicError, ValidationError
from .homspace import DEGREE_OF, brauer_a, pic, topological_report, upic_complex, upic_dual, verify_torus_comparison
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


def _run_one(built: BuiltTasks, task: dict, oracle: bool) -> dict:
    op = task["op"]
    arg = built.input_of(task)
    record = {"task": task, "tool": TOOL}
    if op in ("pic", "brauer_a", "hypercohomology", "group_cohomology"):
        degree = DEGREE_OF.get(op, task.get("degree", 1))
        if op == "group_cohomology":
            value = group_cohomology(built.group, arg, degree)
        elif op == "hypercohomology":
            value = hypercohomology(built.group, upic_complex(arg), degree)
        else:
            rep = (pic if op == "pic" else brauer_a)(arg)
            value = rep.value
            record["caveat"] = rep.caveat
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
        )
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
    if op in ("pic", "brauer_a", "upic_dual", "topological_report"):  # each echoes the Pic(Gbar) = 0 hypothesis
        record["assumes_pic_trivial"] = arg.assume_pic_trivial
    if oracle and op in ("upic_dual", "topological_report"):
        # both run upic_dual, whose five-term check always runs
        record["oracle"] = "dual sequence bookkeeping verified internally"
    return record


def _describe(task: dict) -> str:
    op = task["op"]
    name = task[OPS[op][0]]
    if op in ("group_cohomology", "hypercohomology"):
        return f"H^{task.get('degree', 1)}({name})"
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


# the stderr prefix of each failing exit code of `_execute`
_FAILURE = {2: "parse error", 3: "validation error", 4: "task error"}


def _execute(parse, source, oracle: bool):
    """Parse, build and run one task file, for `upic run` and `upic fixtures --run-all` alike.

    (0, records), or (exit code, error) at the first failure: 2 unreadable or unparsable, 3 invalid, 4 a task failed.
    """
    try:
        built = parse(source).build()
    except TaskFileError as e:
        return 2, e
    except ValidationError as e:
        return 3, e
    try:
        return 0, run_tasks(built, oracle)
    except UpicError as e:
        return 4, e


def _cmd_run(args) -> int:
    code, result = _execute(parse_task_file, args.file, args.oracle == "on")
    if code:
        print(f"{_FAILURE[code]}: {result}", file=sys.stderr)
        return code
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            print(f"task error: cannot write {args.out}: {e}", file=sys.stderr)
            return 4
    _print_records(result)
    return 0


# what each fixture is; the values `fixtures --run-all` compares are in FIXTURE_EXPECTATIONS
FIXTURES = {
    "norm_one_2": "cyclic degree-2 norm-one torus",
    "norm_one_3": "cyclic degree-3 norm-one torus",
    "norm_one_4": "cyclic degree-4 norm-one torus",
    "norm_one_5": "cyclic degree-5 norm-one torus",
    "norm_one_6": "cyclic degree-6 norm-one torus",
    "quasitrivial_c2": "quasi-trivial torus over a quadratic extension",
    "sln_normalizer": "torus normalizer in SL_n over a closed field",
    "sl2_pgl2_comparison": "central extension comparison diagram",
    "biquadratic_norm_one": "biquadratic norm-one torus",
    "quadratic_sign_stabilizer": "order-4 stabilizer characters inverted by a quadratic action",
    "norm_one_d4": "norm-one torus of a D4 extension (splitting field of x^4 - 2)",
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
    "norm_one_d4": {"pic(D)": "Z/2 x Z/2", "brauer_a(D)": "Z/2"},
}


def fixture_text(name: str) -> str:
    # imported here, the one reader of package data: `upic run` then starts without it
    from importlib import resources

    return resources.files("upic").joinpath("fixtures", f"{name}.task").read_text(encoding="utf-8")


def _cmd_fixtures(args) -> int:
    if not args.run_all:
        for name, desc in FIXTURES.items():
            values = "".join(f" | {label} = {want}" for label, want in FIXTURE_EXPECTATIONS[name].items())
            print(f"{name}: {desc}{values}")
        return 0
    failures = []
    for name in FIXTURES:
        code, result = _execute(parse_task_text, fixture_text(name), args.oracle == "on")
        if code:
            failures.append(f"{name}: {result}")
            continue
        got = {_describe(r["task"]): r["result"] for r in result}
        for label, want in FIXTURE_EXPECTATIONS[name].items():
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
