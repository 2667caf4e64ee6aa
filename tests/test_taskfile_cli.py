import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from upic import cohomology
from upic.cli import FIXTURES, FIXTURE_EXPECTATIONS, fixture_text, main, run_tasks
from upic.cohomology import DEGREE_LIMIT
from upic.errors import TaskFileError, ValidationError
from upic.groups import FiniteGroup
from upic.modules import PresentedModule, validate_module
from upic.taskfile import OPS, parse_task_text


def fixture_doc(name):
    return json.loads(fixture_text(name))


class TestParsing:
    def test_round_trip(self):
        tf = parse_task_text(fixture_text("norm_one_3"))
        again = parse_task_text(tf.serialize())
        assert tf == again
        assert parse_task_text(again.serialize()) == tf

    def test_json_error_carries_position(self):
        with pytest.raises(TaskFileError, match=r"line 1, column"):
            parse_task_text("{broken")

    def test_format_tag_required(self):
        with pytest.raises(TaskFileError, match="format"):
            parse_task_text("{}")

    def test_unknown_op_rejected(self):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [{"op": "frobenius"}]
        with pytest.raises(TaskFileError, match="unknown op"):
            parse_task_text(json.dumps(doc))

    def test_group_needs_one_description(self):
        doc = fixture_doc("norm_one_2")
        doc["group"] = {"table": [[0]], "permutations": [[0]]}
        with pytest.raises(TaskFileError):
            parse_task_text(json.dumps(doc))

    def test_non_integer_entries_rejected(self):
        doc = fixture_doc("norm_one_2")
        doc["modules"]["XT"]["action"] = [[[1.5]]]
        with pytest.raises(TaskFileError, match="exact integers"):
            parse_task_text(json.dumps(doc)).build()


class TestBuilding:
    def test_malformed_relations_name_module(self):
        doc = fixture_doc("sln_normalizer")
        doc["modules"]["XH"]["relations"] = [[2], [0]]  # wrong row count
        with pytest.raises(TaskFileError, match="XH"):
            parse_task_text(json.dumps(doc)).build()

    def test_invalid_action_names_module(self):
        doc = fixture_doc("norm_one_2")
        doc["modules"]["XT"]["action"] = [[[2]]]
        with pytest.raises(ValidationError, match="XT"):
            parse_task_text(json.dumps(doc)).build()

    def test_permutation_group_input(self):
        doc = {
            "format": "upic-task-v1",
            "group": {"permutations": [[1, 0]]},
            "modules": {
                "XG": {"gens": 1, "relations": [], "action": [[[-1]]]},
                "zero": {"gens": 0, "relations": [], "action": [[]]},
            },
            "maps": {"res": {"source": "XG", "target": "zero", "matrix": []}},
            "homspace": {"D": {"xg": "XG", "xh": "zero", "res": "res"}},
            "tasks": [{"op": "pic", "data": "D"}],
        }
        built = parse_task_text(json.dumps(doc)).build()
        assert built.group.order == 2
        assert built.modules["XG"].action_of(1).data == [[-1]]

    def test_generators_must_generate(self):
        doc = fixture_doc("biquadratic_norm_one")
        doc["generators"] = [1]  # one factor cannot reach the other
        doc["modules"]["XT"]["action"] = doc["modules"]["XT"]["action"][:1]
        doc["modules"]["zero"]["action"] = doc["modules"]["zero"]["action"][:1]
        with pytest.raises(ValidationError, match="generate"):
            parse_task_text(json.dumps(doc)).build()

    def test_table_over_order_cap_rejected(self):
        doc = fixture_doc("norm_one_2")
        doc["group"] = {"table": [[(i + j) % 49 for j in range(49)] for i in range(49)]}
        with pytest.raises(ValidationError, match="order cap 48"):
            parse_task_text(json.dumps(doc)).build()

    @pytest.mark.parametrize(
        "group, generators, gens, action",
        [
            ([[0, 1], [1, 0]], [1], 3_000_000, [[]]),  # relations and action would be 3e6-row arrays
            ([[0]], [], 97, []),  # the trivial group's identity action would be 97x97
        ],
        ids=["action", "trivial-group"],
    )
    def test_module_rank_over_cap_rejected(self, group, generators, gens, action):
        doc = {
            "format": "upic-task-v1",
            "group": {"table": group},
            "generators": generators,
            "modules": {"M": {"gens": gens, "action": action}},
        }
        with pytest.raises(ValidationError, match=f"rank {gens} exceeds the module rank cap 96"):
            parse_task_text(json.dumps(doc)).build()


    def test_each_check_runs_once(self, monkeypatch):
        """Module and map checks run once across BuiltTasks, HomSpaceData and the pic and brauer_a ops."""
        doc = fixture_doc("quadratic_sign_stabilizer")
        doc["tasks"] = [t for t in doc["tasks"] if t["op"] in ("pic", "brauer_a")]
        calls = []
        original = PresentedModule.matrix_congruent

        def counted(self, a, b):
            calls.append(self)
            return original(self, a, b)

        monkeypatch.setattr(PresentedModule, "matrix_congruent", counted)
        built = parse_task_text(json.dumps(doc)).build()
        records = run_tasks(built, oracle=False)
        assert [r["result"] for r in records] == ["Z/2", "Z/2"]
        n, k = built.group.order, len(built.group.generators())
        target = built.maps["res"].target
        # validate_module(target): the identity and the k*n generator products;
        # ModuleMap.validate: one per generator
        assert sum(1 for m in calls if m is target) == 1 + k * n + k
        before = len(calls)
        assert validate_module(target) == [] and built.maps["res"].validate() == []
        assert len(calls) == before

class TestCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def fixture_path(self, tmp_path, name):
        p = tmp_path / f"{name}.task"
        p.write_text(fixture_text(name), encoding="utf-8")
        return str(p)

    def test_run_norm_one_5(self, capsys, tmp_path):
        path = self.fixture_path(tmp_path, "norm_one_5")
        code, out, _ = self.run_cli(capsys, "run", path, "--oracle", "on")
        assert code == 0
        assert "pic(D) = Z/5" in out
        assert "cyclic oracle agreed" in out

    def test_run_sln_normalizer(self, capsys, tmp_path):
        path = self.fixture_path(tmp_path, "sln_normalizer")
        code, out, _ = self.run_cli(capsys, "run", path)
        assert code == 0
        assert "pic(D) = Z/2" in out
        assert "upic_dual(D) = H0=Z/2, H-1=0" in out

    def test_machine_output(self, capsys, tmp_path):
        path = self.fixture_path(tmp_path, "norm_one_2")
        out_path = tmp_path / "records.json"
        code, _, _ = self.run_cli(capsys, "run", path, "--out", str(out_path))
        assert code == 0
        records = json.loads(out_path.read_text())
        assert [r["result"] for r in records] == ["Z/2", "0"]
        assert all(r["tool"].startswith("upic ") for r in records)
        assert all("seconds" in r for r in records)

    def test_deterministic_output(self, capsys, tmp_path):
        path = self.fixture_path(tmp_path, "norm_one_3")
        code1, out1, _ = self.run_cli(capsys, "run", path)
        code2, out2, _ = self.run_cli(capsys, "run", path)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.task"
        p.write_text("{nope", encoding="utf-8")
        code, _, err = self.run_cli(capsys, "run", str(p))
        assert code == 2
        assert "parse error" in err

    def test_validation_error_exit_3(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_2")
        doc["modules"]["XT"]["action"] = [[[2]]]
        p = tmp_path / "invalid.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = self.run_cli(capsys, "run", str(p))
        assert code == 3
        assert "validation error" in err and "XT" in err

    def test_unresolved_reference_exit_3(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [{"op": "pic", "data": "MISSING"}]
        p = tmp_path / "taskerr.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "never.json"
        code, _, err = self.run_cli(capsys, "run", str(p), "--out", str(out_path))
        assert code == 3
        assert not out_path.exists()

    def test_res_from_another_module_exit_3(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_3")
        doc["modules"]["Z2"] = {"gens": 2, "relations": [], "action": [[[1, 0], [0, 1]]]}
        doc["maps"]["res"]["source"] = "Z2"  # while the homspace's xg stays XT
        p = tmp_path / "res.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 3
        assert "restriction map does not connect the two modules" in err
        assert out == ""

    @pytest.mark.parametrize(
        "task",
        [
            {"op": "hypercohomology", "data": "D", "degree": "two"},
            {"op": "group_cohomology", "module": "XT", "degree": True},
        ],
    )
    def test_bad_degree_exit_3(self, capsys, tmp_path, task):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [task]
        p = tmp_path / "degree.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 3
        assert "degree must be a nonnegative integer" in err
        assert out == ""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("group",), {"table": 5}),
            (("group",), {"table": [5]}),
            (("group",), {"table": [[0.0]]}),
            (("group",), {"permutations": 5}),
            (("group",), {"permutations": []}),
            (("generators",), 1),
            (("generators",), [True]),
            (("modules", "XT"), 5),
            (("maps", "res"), 5),
            (("homspace", "D"), 5),
            (("comparisons",), {"T": 5}),
            (("modules", "XT", "action"), 5),
            (("modules", "XT", "gens"), True),
            (("maps", "res", "source"), ["XT"]),
            (("tasks",), [{"op": "pic", "data": ["D"]}]),
            (("homspace", "D", "assume_pic_trivial"), "no"),
            (("tasks",), [{"op": "topological_report", "data": "D", "stabilizer_connected": "false"}]),
        ],
    )
    def test_malformed_input_exits_cleanly(self, capsys, tmp_path, path, value):
        doc = fixture_doc("norm_one_2")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        p = tmp_path / "malformed.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code in (2, 3)
        assert out == ""
        assert "Traceback" not in err

    def test_comparison_maps_off_their_lattices_exit_3(self, capsys, tmp_path):
        """mu_m and mu_sc with different sources are a validation error, not a crash in verification."""
        doc = fixture_doc("sl2_pgl2_comparison")
        doc["modules"]["B"] = {"gens": 2, "action": [[[1, 0], [0, 1]]]}
        doc["maps"]["mu_sc"] = {"source": "B", "target": "XTsc", "matrix": [[1, 0]]}
        p = tmp_path / "comparison.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 3
        assert "mu_sc does not map xt_prime to xtsc" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw",
        [
            b"[" * 100_000 + b"]" * 100_000,  # nesting deeper than the decoder's recursion limit
            b'{"format": "upic-task-v1", "gens": 1' + b"0" * 5000 + b"}",  # integer over the digit limit
            b'\xff\xfe{"format": "upic-task-v1"}',  # not UTF-8
        ],
        ids=["deep-nesting", "long-integer", "not-utf8"],
    )
    def test_unreadable_text_exit_2(self, capsys, tmp_path, raw):
        p = tmp_path / "raw.task"
        p.write_bytes(raw)
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 2
        assert err.startswith("parse error:") and out == ""

    def test_task_error_exit_4_and_no_partial_output(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [{"op": "group_cohomology", "module": "XT", "degree": 9}]
        p = tmp_path / "taskerr.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "never.json"
        code, _, err = self.run_cli(capsys, "run", str(p), "--out", str(out_path))
        assert code == 4
        assert "task error" in err
        assert not out_path.exists()

    def test_unwritable_out_exit_4_without_listing(self, capsys, tmp_path):
        path = self.fixture_path(tmp_path, "norm_one_2")
        code, out, err = self.run_cli(capsys, "run", path, "--out", str(tmp_path))
        assert code == 4
        assert "cannot write" in err
        assert out == ""

    def test_cochain_rank_limit_exit_4(self, capsys, tmp_path):
        # C40 H^2(Z) is computed over the small resolution and checked by the cyclic oracle
        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[(i + j) % 40 for j in range(40)] for i in range(40)]},
            "generators": [1],
            "modules": {"Z": {"gens": 1, "relations": [], "action": [[[1]]]}},
            "tasks": [{"op": "group_cohomology", "module": "Z", "degree": 2}],
        }
        p = tmp_path / "c40.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = self.run_cli(capsys, "run", str(p), "--oracle", "on")
        assert code == 0
        assert "H^2(Z) = Z/40 | oracle: cyclic oracle agreed" in out
        # S3 x C2^3 H^3(Z) needs F_4 of the greedy resolution, whose kernel step
        # (rank 40 * 48 = 1920) is over the build limit
        g = FiniteGroup.symmetric(3)
        for _ in range(3):
            g = g.direct_product(FiniteGroup.cyclic(2))
        doc["group"] = {"table": g.table}
        doc["generators"] = list(g.generators())
        doc["modules"]["Z"]["action"] = [[[1]]] * len(doc["generators"])
        doc["tasks"][0]["degree"] = 3
        p = tmp_path / "big.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 4
        assert "over the limit" in err and out == ""

    @pytest.mark.parametrize("oracle", ["off", "on"])
    def test_invariant_beyond_int_str_limit(self, capsys, tmp_path, oracle):
        # H^0 of Z^2 / diag(10^4000 + 1, 10^4000 + 3) under C2 (or K4) is cyclic
        # of order 10^8000 + 4*10^4000 + 3, longer than Python's 4300-digit
        # int-to-str limit; it is rendered in full
        a, b = 10**4000 + 1, 10**4000 + 3
        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[0, 1], [1, 0]]},
            "generators": [1],
            "modules": {"M": {"gens": 2, "relations": [[a, 0], [0, b]], "action": [[[1, 0], [0, 1]]]}},
            "tasks": [{"op": "group_cohomology", "module": "M", "degree": 0}],
        }
        if oracle == "on":  # not cyclic: the enumeration oracle is asked, and is over budget
            doc["group"] = {"table": [[i ^ j for j in range(4)] for i in range(4)]}
            doc["generators"] = [1, 2]
            doc["modules"]["M"]["action"] = [[[1, 0], [0, 1]]] * 2
        p = tmp_path / "huge.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "records.json"
        code, out, err = self.run_cli(capsys, "run", str(p), "--oracle", oracle, "--out", str(out_path))
        assert code == 0, err
        order = "1" + "0" * 3999 + "4" + "0" * 3999 + "3"
        assert f"H^0(M) = Z/{order}" in out
        assert json.loads(out_path.read_text())[0]["result"] == f"Z/{order}"

    def test_fixtures_run_all(self, capsys):
        code = main(["fixtures", "--run-all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISMATCH" not in out
        assert "biquadratic_norm_one: brauer_a(D) = Z/2 [ok]" in out

    def test_enumeration_oracle_note(self, capsys, tmp_path):
        doc = fixture_doc("biquadratic_norm_one")
        doc["modules"]["T2"] = {"gens": 1, "relations": [[2]], "action": [[[1]], [[1]]]}
        doc["tasks"] = [{"op": "group_cohomology", "module": "T2", "degree": 1}]
        p = tmp_path / "enum.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", str(p), "--oracle", "on"])
        out = capsys.readouterr().out
        assert code == 0
        assert "enumeration oracle agreed" in out

    def test_enumeration_oracle_refuses_before_tables(self, capsys, tmp_path, monkeypatch):
        # Z/1024 + Z/1024 over V4 in degree 1: 2^20 elements, within the element
        # limit, and 2^60 cochains; building its element tables took 20 s
        def no_tables(*args):
            raise AssertionError("element tables built for an over-budget module")

        monkeypatch.setattr(cohomology, "_FiniteModule", no_tables)
        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[i ^ j for j in range(4)] for i in range(4)]},
            "generators": [1, 2],
            "modules": {"M": {"gens": 2, "relations": [[1024, 0], [0, 1024]], "action": [[[1, 0], [0, 1]]] * 2}},
            "tasks": [{"op": "group_cohomology", "module": "M", "degree": 1}],
        }
        p = tmp_path / "big.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = self.run_cli(capsys, "run", str(p), "--oracle", "on")
        assert time.perf_counter() - start < 5
        assert code == 0, err
        assert "H^1(M) = Z/2 x Z/2 x Z/2 x Z/2 | oracle: enumeration oracle over budget; skipped" in out

    def test_degree_bound_flag(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [{"op": "group_cohomology", "module": "XT", "degree": DEGREE_LIMIT}]
        p = tmp_path / "deep.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = self.run_cli(capsys, "run", str(p), "--oracle", "on")
        assert code == 0
        assert f"H^{DEGREE_LIMIT}(XT) = " in out and "cyclic oracle agreed" in out
        doc["tasks"][0]["degree"] = DEGREE_LIMIT + 1
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p))
        assert code == 4
        assert "over the limit" in err and out == ""

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = self.run_cli(capsys, "run", str(tmp_path / "ghost.task"))
        assert code == 2


class TestFixtures:
    def test_listing(self, capsys):
        code = main(["fixtures", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        for n in range(2, 7):
            assert f"norm_one_{n}" in out
        assert "sl2_pgl2_comparison" in out
        assert "biquadratic_norm_one" in out

    def test_expectations_cover_all(self):
        assert set(FIXTURES) == set(FIXTURE_EXPECTATIONS)

    def test_all_fixtures_parse_and_validate(self):
        for name in FIXTURES:
            built = parse_task_text(fixture_text(name)).build()
            assert built.tasks


# --- fuzzing the exit-code contract ---------------------------------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 7), max_size=3),
    st.builds(lambda: [[1.5]]),
    st.builds(dict),
)


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _matrix(draw, rows, cols):
    return [[draw(st.integers(-2, 2)) for _ in range(cols)] for _ in range(rows)]


def _action(draw, kind, r):
    if kind == "trivial":
        return [[int(i == j) for j in range(r)] for i in range(r)]
    if kind == "sign":
        return [[-int(i == j) for j in range(r)] for i in range(r)]
    if kind == "shift":
        return [[int(j == (i + 1) % r) for j in range(r)] for i in range(r)]
    return _matrix(draw, r, r)


def _slots(node):
    """Every (container, key) position in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def task_documents(draw):
    """Small task files, valid or not: order <= 6, rank <= 4, and at most one junk field."""
    shape = draw(st.sampled_from(["table", "cyclic_perm", "s3"]))
    n = draw(st.integers(1, 6))
    if shape == "table":
        group, generators, n_gens = {"table": _cyclic_table(n)}, [1 % n], 1
    elif shape == "cyclic_perm":
        group, generators, n_gens = {"permutations": [[(i + 1) % n for i in range(n)]]}, None, 1
    else:
        group, generators, n_gens = {"permutations": [[1, 0, 2], [1, 2, 0]]}, None, 2
    modules = {}
    for name in ("A", "B"):
        r = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["trivial", "sign", "shift", "random"]))
        spec = {"gens": r, "action": [_action(draw, kind, r) for _ in range(n_gens)]}
        if r and draw(st.booleans()):
            spec["relations"] = _matrix(draw, r, draw(st.integers(1, 2)))
        modules[name] = spec
    ra, rb = modules["A"]["gens"], modules["B"]["gens"]
    res = draw(st.sampled_from(["zero", "identity", "random"]))
    if res == "identity" and ra == rb:
        matrix = [[int(i == j) for j in range(ra)] for i in range(rb)]
    elif res == "random":
        matrix = _matrix(draw, rb, ra)
    else:
        matrix = [[0] * ra for _ in range(rb)]
    maps = {"AB": {"source": "A", "target": "B", "matrix": matrix}}
    doc = {
        "format": "upic-task-v1",
        "group": group,
        "modules": modules,
        "maps": maps,
        "homspace": {"D": {"xg": "A", "xh": "B", "res": "AB"}},
        "tasks": [],
    }
    ops = draw(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=2))
    for op in ops:
        task = {"op": op, "data": "D", "module": draw(st.sampled_from(["A", "B"]))}
        if op in ("group_cohomology", "hypercohomology"):
            task["degree"] = draw(st.integers(0, DEGREE_LIMIT + 1))
        doc["tasks"].append(task)
    if "verify_torus_comparison" in ops:
        # A comparison over lattices drawn among A and B; its maps connect
        # them, except at most one drawn among the other named maps, so that
        # a mismatch occurs without stopping most documents at build.
        maps["AA"] = {"source": "A", "target": "A", "matrix": [[int(i == j) for j in range(ra)] for i in range(ra)]}
        maps["BA"] = {"source": "B", "target": "A", "matrix": [[0] * rb for _ in range(ra)]}
        maps["BB"] = {"source": "B", "target": "B", "matrix": [[int(i == j) for j in range(rb)] for i in range(rb)]}
        comparison = {key: draw(st.sampled_from(["A", "B"])) for key in ("xg_prime", "xm", "xt", "xt_prime", "xtsc")}
        arrows = {
            "res_gm": ("xg_prime", "xm"),
            "mu_m": ("xt_prime", "xm"),
            "mu_sc": ("xt_prime", "xtsc"),
            "rho": ("xt", "xtsc"),
            "down": ("xg_prime", "xt_prime"),
            "up": ("xt", "xt_prime"),
        }
        for key, (source, target) in arrows.items():
            comparison[key] = comparison[source] + comparison[target]
        mismatched = draw(st.sampled_from([None, *arrows]))
        if mismatched is not None:
            others = sorted(set(maps) - {comparison[mismatched]})
            comparison[mismatched] = draw(st.sampled_from(others))
        doc["comparisons"] = {"D": comparison}
    if generators is not None:
        doc["generators"] = generators
    if draw(st.booleans()):
        parent, key = draw(st.sampled_from(list(_slots(doc))))
        parent[key] = draw(JUNK)
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=task_documents(), oracle=st.sampled_from(["on", "off"]))
def test_cli_contract_fuzz(doc, oracle):
    """Every small task file, valid or not, ends in exit 0, 2, 3 or 4 without a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.task")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path, "--oracle", oracle])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
