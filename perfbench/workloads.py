"""The three benchmark workloads: seeded inputs, the task list, and checks.

Each workload is a closed loop with one caller: the function named after
the in-process workload (or `write_cli_cases` for ``cli_verified``) returns
the fixed task list for a seed, and the runner executes it one task at a
time, over and over.  Inputs are generated here (group tables, action matrices, task
files); upic only ever sees the generated inputs.  Every task carries a
check against a value from `reference`, which does not use upic.

* ``brauer_ladder`` -- in-process `pic` and `brauer_a` on the norm-one
  lattice J_G of six groups of order 6-8, plus seeded two-term data
  [Z[C6] -> Z/n] with a sign action.
* ``dual_resolution`` -- in-process `upic_dual` / `topological_report`
  on J_G for D4, C2xC4, C8, C9, C10, plus seeded two-term torsion data
  over C8 built by transfer.
* ``cli_verified`` -- cold ``python -m upic.cli run --oracle on --out``
  processes over the bundled fixtures and seeded task files of
  `group_cohomology` tasks with trivial Z/m coefficients.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random

import reference as ref

WORKLOADS = ("brauer_ladder", "dual_resolution", "cli_verified")


# --- group tables (built here, independent of upic) -------------------------


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(a, b):
    n, m = len(a), len(b)
    return [[a[x // m][y // m] * m + b[x % m][y % m] for y in range(n * m)] for x in range(n * m)]


def permutation_table(perms):
    """Breadth-first closure of permutations; element 0 is the identity."""
    deg = len(perms[0])
    ident = tuple(range(deg))
    elements, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for p in perms:
                pq = tuple(p[q[i]] for i in range(deg))
                if pq not in index:
                    index[pq] = len(elements)
                    elements.append(pq)
                    nxt.append(pq)
        frontier = nxt
    return [[index[tuple(a[b[i]] for i in range(deg))] for b in elements] for a in elements]


def relabel(table, rng: random.Random):
    """An isomorphic copy of the table with its elements renumbered at random."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out, perm


GROUPS = {
    "C2": cyclic_table(2),
    "C3": cyclic_table(3),
    "C4": cyclic_table(4),
    "C5": cyclic_table(5),
    "C6": cyclic_table(6),
    "S3": permutation_table([(1, 0, 2), (1, 2, 0)]),
    "C7": cyclic_table(7),
    "C2xC4": product_table(cyclic_table(2), cyclic_table(4)),
    "D4": permutation_table([(1, 2, 3, 0), (0, 3, 2, 1)]),
    "C2^3": product_table(product_table(cyclic_table(2), cyclic_table(2)), cyclic_table(2)),
    "C8": cyclic_table(8),
    "C9": cyclic_table(9),
    "C10": cyclic_table(10),
    "V4": product_table(cyclic_table(2), cyclic_table(2)),
}

# invariant factors of the abelian groups used for generated task files
FACTORS = {"V4": (2, 2), "C2xC4": (2, 4)}
# generators of each abelian product group, by canonical element index
PRODUCT_GENERATORS = {"V4": (2, 1), "C2xC4": (4, 1)}


# --- modules (action matrices built here) -----------------------------------


def norm_one_action(table):
    """Z[G]/Z*norm on the basis of all elements but the last: g.e_j = e_gj, e_last = -sum."""
    o = len(table)
    k = o - 1
    mats = []
    for g in range(o):
        mat = [[0] * k for _ in range(k)]
        for j in range(k):
            tgt = table[g][j]
            if tgt < k:
                mat[tgt][j] = 1
            else:
                for i in range(k):
                    mat[i][j] = -1
        mats.append(mat)
    return mats


def regular_action(table):
    o = len(table)
    mats = []
    for g in range(o):
        mat = [[0] * o for _ in range(o)]
        for j in range(o):
            mat[table[g][j]][j] = 1
        mats.append(mat)
    return mats


def alternating_sign(k: int) -> int:
    """The sign character of an even cyclic group, on the canonical labelling."""
    return -1 if k % 2 else 1


class Task:
    """One pipeline call: `run()` returns the result, `check(result)` an error or None."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _expect_invariants(expected: tuple):
    def check(value):
        got = (value.free_rank, value.torsion)
        if got != expected:
            return f"got {ref.render(got)}, reference {ref.render(expected)}"
        return None

    return check


def _homspace_data(upic, table, xg_action, xh_relations, xh_action, res_rows):
    """HomSpaceData from raw matrices; xg is free, xh is given by relations and action."""
    IntMatrix = upic.IntMatrix
    g = upic.FiniteGroup(table)
    xg_gens = len(xg_action[0])
    xh_gens = len(xh_action[0])
    xg = upic.PresentedModule(g, xg_gens, IntMatrix.zeros(xg_gens, 0), [IntMatrix(xg_gens, xg_gens, m) for m in xg_action])
    rel_cols = len(xh_relations[0]) if xh_relations else 0
    xh = upic.PresentedModule(
        g, xh_gens, IntMatrix(xh_gens, rel_cols, xh_relations), [IntMatrix(xh_gens, xh_gens, m) for m in xh_action]
    )
    res = upic.ModuleMap(xg, xh, IntMatrix(xh_gens, xg_gens, res_rows))
    return upic.HomSpaceData(g, xg, xh, res)


def _norm_one_data(upic, name):
    table = GROUPS[name]
    o = len(table)
    return _homspace_data(upic, table, norm_one_action(table), [], [[]] * o, [])


# --- brauer_ladder ----------------------------------------------------------

BRAUER_GROUPS = ("C6", "S3", "C7", "C2xC4", "D4", "C2^3")
# pic is cheap on every group up to order 10, so the ladder asks it of all of them; the
# cheap calls are then the majority and the median task sits among several pic calls of
# similar cost instead of on the gap between pic and brauer_a
PIC_GROUPS = ("C2", "C3", "C4", "C5") + BRAUER_GROUPS + ("C8", "C9", "C10")


def brauer_ladder(upic, seed: int) -> list:
    homspace = upic.homspace
    tasks = []
    for name in PIC_GROUPS:
        data = _norm_one_data(upic, name)
        table = GROUPS[name]
        tasks.append(Task(f"pic J_{name}", lambda d=data: homspace.pic(d).value, _expect_invariants(ref.norm_one_pic(table))))
        if name in BRAUER_GROUPS:
            tasks.append(
                Task(
                    f"brauer_a J_{name}",
                    lambda d=data: homspace.brauer_a(d).value,
                    _expect_invariants(ref.norm_one_brauer(table, name)),
                )
            )
    # seeded [Z[C6] -> Z/n], e |-> a: pic and brauer_a with the trivial and with the
    # alternating sign, and brauer_a once more with the trivial sign
    rng = random.Random(f"brauer_ladder:{seed}")
    table = GROUPS["C6"]
    for alternating, ops in ((False, ("pic", "brauer_a")), (True, ("pic", "brauer_a")), (False, ("brauer_a",))):
        n = rng.randint(2, 12)
        a = rng.randint(1, n - 1)
        signs = [alternating_sign(k) if alternating else 1 for k in range(6)]
        data = _homspace_data(upic, table, regular_action(table), [[n]], [[[s]] for s in signs], [[s * a for s in signs]])
        expected = ref.regular_to_signed_cyclic(6, n, a, alternating)
        case = f"Z[C6]->Z/{n} e->{a} ({'alt' if alternating else 'triv'}, case {len(tasks)})"
        for op in ops:
            tasks.append(Task(f"{op} {case}", lambda d=data, op=op: getattr(homspace, op)(d).value, _expect_invariants(expected[op])))
    return tasks


# --- dual_resolution --------------------------------------------------------

# J_C7 is the one cheap call: with it the median task falls inside the cluster of
# D4, C2xC4 and C8 calls of similar cost instead of next to the seeded case
DUAL_GROUPS = ("C7", "D4", "C2xC4", "C8", "C9")
LABELS = {
    (True, False): ("pi_1(X(C))", "pi_2(X(C))/torsion"),
    (False, True): (None, "pi_2(X(C))/torsion"),
    (False, False): (None, None),
}


def _expect_dual(expected: dict, labels=None):
    def check(rep):
        got = {"h0": (rep.h0.free_rank, rep.h0.torsion), "hminus1": (rep.hminus1.free_rank, rep.hminus1.torsion)}
        for key in ("h0", "hminus1"):
            if got[key] != expected[key]:
                return f"{key} = {ref.render(got[key])}, reference {ref.render(expected[key])}"
        if labels is not None and (rep.h0_label, rep.hminus1_label) != labels:
            return f"labels {(rep.h0_label, rep.hminus1_label)}, expected {labels}"
        return None

    return check


def _bookkeeping(rank_a: int, moduli, inner):
    """Long-exact-sequence checks on the dual: rank H^0 = rank A, |tors H^0| divides |B|, H^-1 = 0."""

    def check(rep):
        order = math.prod(rep.h0.torsion)
        size = math.prod(moduli)
        if rep.h0.free_rank != rank_a:
            return f"rank H^0 = {rep.h0.free_rank}, rank of the lattice is {rank_a}"
        if size % order:
            return f"torsion of H^0 has order {order}, which does not divide |B| = {size}"
        if not rep.hminus1.is_trivial:
            return "H^-1 is nonzero for a finite target"
        return inner(rep)

    return check


def dual_resolution(upic, seed: int) -> list:
    homspace = upic.homspace
    tasks = []
    for name in DUAL_GROUPS:
        data = _norm_one_data(upic, name)
        rank = len(GROUPS[name]) - 1
        tasks.append(Task(f"upic_dual J_{name}", lambda d=data: homspace.upic_dual(d), _expect_dual({"h0": (rank, ()), "hminus1": (0, ())})))
    rng = random.Random(f"dual_resolution:{seed}")
    flags = rng.choice(sorted(LABELS))
    data = _norm_one_data(upic, "C10")
    tasks.append(
        Task(
            f"topological_report J_C10 {flags}",
            lambda d=data, f=flags: homspace.topological_report(d, *f),
            _expect_dual({"h0": (9, ()), "hminus1": (0, ())}, LABELS[flags]),
        )
    )
    # seeded [J_C8 -> Z/n1 (trivial) (+) Z/n2 (alternating)], the map a transfer of a random seed matrix
    table = GROUPS["C8"]
    n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
    xg_action = norm_one_action(table)
    rank = len(xg_action[0])
    signs = [[1, alternating_sign(k)] for k in range(8)]
    seed_rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(2)]
    xh_action = [[[s[0], 0], [0, s[1]]] for s in signs]
    g = upic.FiniteGroup(table)
    IntMatrix = upic.IntMatrix
    xg = upic.PresentedModule(g, rank, IntMatrix.zeros(rank, 0), [IntMatrix(rank, rank, m) for m in xg_action])
    xh = upic.PresentedModule(g, 2, IntMatrix(2, 2, [[n1, 0], [0, n2]]), [IntMatrix(2, 2, m) for m in xh_action])
    res = upic.modules.equivariant_by_transfer(xg, xh, IntMatrix(2, rank, seed_rows))
    data = upic.HomSpaceData(g, xg, xh, res)
    expected = ref.dual_of_lattice_to_finite(rank, res.matrix.data, (n1, n2))
    tasks.append(
        Task(
            f"upic_dual J_C8->Z/{n1}+Z/{n2}",
            lambda d=data: homspace.upic_dual(d),
            _bookkeeping(rank, (n1, n2), _expect_dual(expected)),
        )
    )
    return tasks


# --- cli_verified -----------------------------------------------------------

# The bundled fixtures and their frozen results, copied from the README table.
FIXTURES = {
    "norm_one_2": {"pic": "Z/2", "brauer_a": "0"},
    "norm_one_3": {"pic": "Z/3", "brauer_a": "0"},
    "norm_one_4": {"pic": "Z/4", "brauer_a": "0"},
    "norm_one_5": {"pic": "Z/5", "brauer_a": "0"},
    "norm_one_6": {"pic": "Z/6", "brauer_a": "0"},
    "quasitrivial_c2": {"pic": "0"},
    "sln_normalizer": {"pic": "Z/2", "upic_dual": ("Z/2", "0")},
    "sl2_pgl2_comparison": {"verify_torus_comparison": "true"},
    "biquadratic_norm_one": {"pic": "Z/2 x Z/2", "brauer_a": "Z/2"},
    "quadratic_sign_stabilizer": {"pic": "Z/2", "brauer_a": "Z/2", "upic_dual": ("Z/4", "0")},
}


def _check_fixture_records(name: str, records: list) -> str | None:
    expected = FIXTURES[name]
    seen = set()
    for r in records:
        op = r["task"]["op"]
        if op not in expected:
            continue
        seen.add(op)
        want = expected[op]
        if op == "verify_torus_comparison":
            if r["result"] != want:
                return f"{name}: {op} = {r['result']}, README says {want}"
        elif op == "upic_dual":
            h0, hm1 = r["result"].split(", ")
            got = (ref.parse(h0.split("=", 1)[1]), ref.parse(hm1.split("=", 1)[1]))
            if got != (ref.parse(want[0]), ref.parse(want[1])):
                return f"{name}: {op} = {r['result']}, README says H0={want[0]}, H-1={want[1]}"
        elif ref.parse(r["result"]) != ref.parse(want):
            return f"{name}: {op} = {r['result']}, README says {want}"
    missing = set(expected) - seen
    if missing:
        return f"{name}: no record for {sorted(missing)}"
    return None


def _trivial_module_spec(m: int, n_generators: int) -> dict:
    return {"gens": 1, "relations": [[m]], "action": [[[1]]] * n_generators}


def _cohomology_file(table, generators, modules: dict, degrees) -> dict:
    return {
        "format": "upic-task-v1",
        "group": {"table": table},
        "generators": list(generators),
        "modules": {name: _trivial_module_spec(m, len(generators)) for name, m in modules.items()},
        "tasks": [{"op": "group_cohomology", "module": name, "degree": d} for name in modules for d in degrees],
    }


def generated_task_files(seed: int) -> list:
    """(file name, task document, {(module, degree): reference}) for the seeded task files.

    The mix is fixed so that every seed costs about the same: three cyclic
    groups (cyclic oracle), two V4 files and two C2xC4 files (enumeration
    oracle, sized to stay under its budget).  The seed picks orders and
    moduli for the cyclic files and renumbers the elements of the others.
    """
    rng = random.Random(f"cli_verified:{seed}")
    out = []
    for i in range(3):
        n = rng.randint(3, 5)
        mods = {f"Zmod{m}": m for m in sorted({rng.randint(2, 12) for _ in range(2)})}
        doc = _cohomology_file(cyclic_table(n), [1], mods, (1, 2))
        expect = {(name, d): ref.trivial_coeff_cohomology((n,), m, d) for name, m in mods.items() for d in (1, 2)}
        out.append((f"gen_cyclic_{i}_C{n}.task", doc, expect))
    for group, moduli, degrees in (("V4", (3,), (1, 2)), ("V4", (2,), (1, 2)), ("C2xC4", (4,), (1,)), ("C2xC4", (2, 3), (1,))):
        table, perm = relabel(GROUPS[group], rng)
        gens = [perm[g] for g in PRODUCT_GENERATORS[group]]
        mods = {f"Zmod{m}": m for m in moduli}
        doc = _cohomology_file(table, gens, mods, degrees)
        expect = {(name, d): ref.trivial_coeff_cohomology(FACTORS[group], m, d) for name, m in mods.items() for d in degrees}
        out.append((f"gen_{group}_{'_'.join(map(str, moduli))}.task", doc, expect))
    return out


def _check_generated_records(label: str, expect: dict, records: list) -> str | None:
    if len(records) != len(expect):
        return f"{label}: {len(records)} records for {len(expect)} tasks"
    for r in records:
        key = (r["task"]["module"], r["task"]["degree"])
        want = expect[key]
        if ref.parse(r["result"]) != want:
            return f"{label}: H^{key[1]}({key[0]}) = {r['result']}, universal coefficients give {ref.render(want)}"
        if "agreed" not in r.get("oracle", ""):
            return f"{label}: H^{key[1]}({key[0]}) oracle note is {r.get('oracle')!r}, not an agreement"
    return None


class CliCase:
    """One task file run as one upic process; `check(records)` returns an error or None."""

    __slots__ = ("label", "path", "out_path", "check")

    def __init__(self, label, path, out_path, check):
        self.label = label
        self.path = path
        self.out_path = out_path
        self.check = check


def write_cli_cases(root: str, workdir: str, seed: int) -> list:
    """Write the seeded task files into workdir and return the cases, fixtures first."""
    cases = []
    fixture_dir = os.path.join(root, "src", "upic", "fixtures")
    for name in FIXTURES:
        check = functools.partial(_check_fixture_records, name)
        cases.append(CliCase(name, os.path.join(fixture_dir, f"{name}.task"), os.path.join(workdir, f"{name}.out.json"), check))
    for fname, doc, expect in generated_task_files(seed):
        path = os.path.join(workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        check = functools.partial(_check_generated_records, fname, expect)
        cases.append(CliCase(fname, path, path[: -len(".task")] + ".out.json", check))
    return cases


# --- census -----------------------------------------------------------------


def census_cases(workdir: str) -> list:
    """Two tiny task files that together touch every traced layer (about 0.1 s).

    The traced run appends them to every traced pass, so each per-layer row
    is a measured value on every workload; rows for layers a workload does
    not use show the census alone.  The C4 file reaches the pipelines and the
    cyclic oracle, the V4 file the enumeration oracle.
    """
    c4 = cyclic_table(4)
    pipelines = {
        "format": "upic-task-v1",
        "group": {"table": c4},
        "generators": [1],
        "modules": {
            "J": {"gens": 3, "relations": [], "action": [norm_one_action(c4)[1]]},
            "zero": {"gens": 0, "relations": [], "action": [[]]},
        },
        "maps": {"res": {"source": "J", "target": "zero", "matrix": []}},
        "homspace": {"D": {"xg": "J", "xh": "zero", "res": "res"}},
        "tasks": [
            {"op": "pic", "data": "D"},
            {"op": "brauer_a", "data": "D"},
            {"op": "topological_report", "data": "D", "stabilizer_connected": True},
        ],
    }
    expected = {"pic": ref.norm_one_pic(c4), "brauer_a": ref.norm_one_brauer(c4, "C4")}

    def check_pipelines(records):
        for r in records:
            op = r["task"]["op"]
            if op == "topological_report":
                if (ref.parse(r["detail"]["h0"]), ref.parse(r["detail"]["hminus1"])) != ((3, ()), (0, ())):
                    return f"census C4: topological_report = {r['result']}, reference pi_1 = Z^3, pi_2/torsion = 0"
            elif ref.parse(r["result"]) != expected[op]:
                return f"census C4: {op} = {r['result']}, reference {ref.render(expected[op])}"
        return None

    enumeration = _cohomology_file(GROUPS["V4"], PRODUCT_GENERATORS["V4"], {"Zmod2": 2}, (1, 2))
    expect = {("Zmod2", d): ref.trivial_coeff_cohomology(FACTORS["V4"], 2, d) for d in (1, 2)}

    cases = []
    check_enumeration = functools.partial(_check_generated_records, "census V4", expect)
    for label, doc, check in (("census_C4", pipelines, check_pipelines), ("census_V4", enumeration, check_enumeration)):
        path = os.path.join(workdir, f"{label}.task")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cases.append(CliCase(label, path, os.path.join(workdir, f"{label}.out.json"), check))
    return cases
