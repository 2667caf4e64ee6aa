import contextlib
import io
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from upic import cohomology
from upic.cli import FIXTURES, FIXTURE_EXPECTATIONS, fixture_text, main, run_tasks
from upic.cohomology import DEGREE_LIMIT
from upic.errors import TaskError, TaskFileError, ValidationError
from upic.groups import PERMUTATION_DEGREE_CAP, FiniteGroup
from upic.modules import PresentedModule, validate_module
from upic.taskfile import OPS, parse_task_text


def fixture_doc(name):
    return json.loads(fixture_text(name))


class TestParsing:
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

    @pytest.mark.parametrize("generator, shown", [("1", "'1'"), (True, "True"), (2, "2")])
    def test_generator_must_be_an_element_index(self, capsys, tmp_path, generator, shown):
        # over C2 the string "1" and true are not indices, although 1 is in range
        doc = fixture_doc("norm_one_2")
        doc["generators"] = [generator]
        message = f"generator {shown}: need an integer element index in 0..1"
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_task_text(json.dumps(doc)).build()
        p = tmp_path / "bad.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(p)]) == 3
        assert message in capsys.readouterr().err

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

    def test_upic_dual_with_a_mixed_stabilizer(self, capsys, tmp_path, monkeypatch):
        """Z[C2] -> Z + Z/2: the one route of `upic_dual` that takes a Smith form with transforms (X(H)
        with relations and a free part), which no fixture reaches.  The record equals the report."""
        import upic.homspace as homspace
        from upic.homspace import upic_dual

        doc = fixture_doc("quadratic_sign_stabilizer")
        doc["modules"] = {
            "XG": {"gens": 2, "relations": [], "action": [[[0, 1], [1, 0]]]},
            "XH": {"gens": 2, "relations": [[0], [2]], "action": [[[1, 0], [0, 1]]]},
        }
        doc["maps"]["res"]["matrix"] = [[1, 1], [1, 1]]
        doc["tasks"] = [{"data": "D", "op": "upic_dual"}]
        text = json.dumps(doc)
        p, out_path = tmp_path / "mixed.task", tmp_path / "records.json"
        p.write_text(text, encoding="utf-8")
        calls = []
        real = homspace.smith_normal_form
        monkeypatch.setattr(homspace, "smith_normal_form", lambda a: calls.append(a) or real(a))
        code, _, _ = self.run_cli(capsys, "run", str(p), "--out", str(out_path))
        assert code == 0 and len(calls) == 1
        (record,) = json.loads(out_path.read_text())
        rep = upic_dual(parse_task_text(text).build().homspace["D"])
        assert record["result"] == rep.render() == "H0=Z x Z/2, H-1=0"
        assert record["detail"] == {
            "h0": rep.h0.render(),
            "hminus1": rep.hminus1.render(),
            "kernel": rep.kernel_invariants.render(),
            "cokernel": rep.cokernel_invariants.render(),
            "stabilizer_torsion": rep.stabilizer_torsion.render(),
        }

    @pytest.mark.parametrize("oracle", ["off", "on"])
    @pytest.mark.parametrize("assume", [True, False])
    def test_report_records_echo_the_pic_hypothesis(self, capsys, tmp_path, assume, oracle):
        """Each of the four report ops carries the input's assume_pic_trivial, and under --oracle on both
        ops that run upic_dual carry its note; topological_report had neither.  The raw op carries no flag."""
        from upic.homspace import topological_report

        doc = fixture_doc("sln_normalizer")
        doc["homspace"]["D"]["assume_pic_trivial"] = assume
        ops = ("pic", "brauer_a", "upic_dual", "topological_report", "hypercohomology")
        doc["tasks"] = [{"op": op, "data": "D", "stabilizer_connected": True} for op in ops]
        text = json.dumps(doc)
        p, out_path = tmp_path / "reports.task", tmp_path / "records.json"
        p.write_text(text, encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p), "--oracle", oracle, "--out", str(out_path))
        assert code == 0, err
        records = {r["task"]["op"]: r for r in json.loads(out_path.read_text())}
        assert [records[op].get("assumes_pic_trivial") for op in ops] == [assume] * 4 + [None]
        note = "dual sequence bookkeeping verified internally" if oracle == "on" else None
        assert records["upic_dual"].get("oracle") == records["topological_report"].get("oracle") == note
        rep = topological_report(parse_task_text(text).build().homspace["D"], True)
        assert rep.assume_pic_trivial is assume
        line = f"[4] topological_report(D) = {rep.render()}"
        line += " | assumes Pic(Gbar) = 0" * assume + f" | oracle: {note}" * (note is not None)
        assert out.splitlines()[3] == line

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

    def test_permutations_at_the_degree_cap_run(self, capsys, tmp_path):
        """C2 as a transposition of PERMUTATION_DEGREE_CAP points gives what its table gives."""
        doc = fixture_doc("norm_one_2")
        p = tmp_path / "table.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        expected = self.run_cli(capsys, "run", str(p))
        doc["group"] = {"permutations": [[1, 0] + list(range(2, PERMUTATION_DEGREE_CAP))]}
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert self.run_cli(capsys, "run", str(p)) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("degree", [PERMUTATION_DEGREE_CAP + 1, 100_000])
    def test_permutations_over_the_degree_cap_exit_3(self, capsys, tmp_path, degree):
        """Refused before closure: an order-48 group (a 16-cycle times a 3-cycle) on 100,000 points
        would take seconds to close, the time growing with the degree."""
        doc = fixture_doc("norm_one_2")
        perm = list(range(1, 16)) + [0, 17, 18, 16] + list(range(19, degree))
        doc["group"] = {"permutations": [perm]}
        p = tmp_path / "wide.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, _, err = self.run_cli(capsys, "run", str(p))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert f"permutation degree {degree} exceeds the degree cap {PERMUTATION_DEGREE_CAP}" in err

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

    def test_oracle_mismatch_exit_4(self, capsys, tmp_path, monkeypatch):
        # a wrong value is caught by the cyclic oracle: exit 4 and no records written
        from upic import cli
        from upic.intmatrix import AbelianInvariants

        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
            "generators": [1],
            "modules": {"Z": {"gens": 1, "relations": [], "action": [[[1]]]}},
            "tasks": [{"op": "group_cohomology", "module": "Z", "degree": 2}],
        }
        p = tmp_path / "c3.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "records.json"
        monkeypatch.setattr(cli, "group_cohomology", lambda group, m, degree: AbelianInvariants(0, [2]))
        code, out, err = self.run_cli(capsys, "run", str(p), "--oracle", "on", "--out", str(out_path))
        assert code == 4
        assert "cyclic oracle disagrees: oracle Z/3 vs computed Z/2" in err
        assert out == "" and not out_path.exists()

    def test_group_cohomology_failing_the_exponent_check_exit_4(self, capsys, tmp_path, monkeypatch):
        # without an oracle a free H^2(C3, Z) is still refused: above degree 0 |G| kills the value
        from upic import cohomology
        from upic.intmatrix import AbelianInvariants

        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
            "generators": [1],
            "modules": {"Z": {"gens": 1, "relations": [], "action": [[[1]]]}},
            "tasks": [{"op": "group_cohomology", "module": "Z", "degree": 2}],
        }
        p = tmp_path / "c3.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "records.json"
        real = cohomology.free_cohomology
        monkeypatch.setattr(
            cohomology,
            "free_cohomology",
            lambda d_out, d_in: AbelianInvariants(real(d_out, d_in).free_rank + 1, real(d_out, d_in).torsion),
        )
        code, out, err = self.run_cli(capsys, "run", str(p), "--out", str(out_path))
        assert code == 4
        assert "task error: H^2 = Z x Z/3 is not killed by |G| = 3" in err
        assert out == "" and not out_path.exists()

    def test_wrong_lattice_cohomology_is_caught_by_the_oracle(self, capsys, tmp_path, monkeypatch):
        # the lattice route (free_cohomology) against the cyclic oracle's subquotient route
        from upic import cohomology
        from upic.intmatrix import AbelianInvariants

        real = cohomology.free_cohomology
        monkeypatch.setattr(
            cohomology, "free_cohomology", lambda d_out, d_in: AbelianInvariants(real(d_out, d_in).free_rank + 1)
        )
        code, out, err = self.run_cli(capsys, "run", self.fixture_path(tmp_path, "norm_one_4"), "--oracle", "on")
        assert code == 4
        assert "cyclic oracle disagrees: oracle Z/4 vs computed Z\n" in err

    @pytest.mark.parametrize("name", ["biquadratic_norm_one", "quadratic_sign_stabilizer", "norm_one_d4"])
    def test_hypercohomology_op_matches_pic_and_brauer_a(self, capsys, tmp_path, name):
        doc = fixture_doc(name)
        doc["tasks"] += [{"op": "hypercohomology", "data": "D", "degree": d} for d in (1, 2)]
        p = tmp_path / f"{name}.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = self.run_cli(capsys, "run", str(p), "--oracle", "on")
        assert code == 0
        value = {}
        for line in out.splitlines():
            label, rest = line.split("] ", 1)[1].split(" = ", 1)
            value[label] = rest.split(" | ")[0]
        assert value["H^1(D)"] == value["pic(D)"] == FIXTURE_EXPECTATIONS[name]["pic(D)"]
        assert value["H^2(D)"] == value["brauer_a(D)"] == FIXTURE_EXPECTATIONS[name]["brauer_a(D)"]
        if "upic_dual(D)" in FIXTURE_EXPECTATIONS[name]:
            assert "oracle: dual sequence bookkeeping verified internally" in out

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

    def test_cli_import_leaves_importlib_resources_unloaded(self):
        """Under -S (no site-packages, whose start-up hooks may import it) `import upic.cli` does not
        load importlib.resources; `fixture_text`, its one reader, loads it and reads a fixture."""
        import subprocess
        import sys

        import upic

        paths = [os.path.dirname(os.path.dirname(upic.__file__)), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        probe = (
            "import sys, upic.cli; before = 'importlib.resources' in sys.modules; "
            "text = upic.cli.fixture_text('norm_one_3'); "
            "print(before, 'importlib.resources' in sys.modules, text == open(sys.argv[1], encoding='utf-8').read())"
        )
        fixture = os.path.join(os.path.dirname(upic.__file__), "fixtures", "norm_one_3.task")
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe, fixture], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == ["False", "True", "True"]

    def test_sources_parse_as_python_3_10(self):
        """The package and the tests use no syntax newer than the oldest supported Python, 3.10."""
        import ast
        import glob

        import upic

        package = os.path.dirname(upic.__file__)
        paths = glob.glob(os.path.join(package, "*.py")) + glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))
        assert len(paths) >= 20
        for path in paths:
            with open(path, encoding="utf-8") as f:
                ast.parse(f.read(), filename=path, feature_version=(3, 10))

    def test_fixtures_run_all_reports_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setitem(FIXTURE_EXPECTATIONS, "norm_one_3", {"pic(D)": "Z/9", "brauer_a(D)": "0"})
        code, out, err = self.run_cli(capsys, "fixtures", "--run-all")
        assert code == 4
        assert "norm_one_3: pic(D) = Z/3 [MISMATCH (expected Z/9)]" in out
        assert "norm_one_3: brauer_a(D) = 0 [ok]" in out
        assert err.startswith("failures:")
        assert "norm_one_3: pic(D) = Z/3, expected Z/9" in err

    def test_fixtures_run_all_reports_a_task_error(self, capsys, monkeypatch):
        import upic.cli as cli

        real = cli.run_tasks

        def failing(built, oracle):  # norm_one_5 is the one fixture over a group of order 5
            if built.group.order == 5:
                raise TaskError("injected failure")
            return real(built, oracle)

        monkeypatch.setattr(cli, "run_tasks", failing)
        code, out, err = self.run_cli(capsys, "fixtures", "--run-all")
        assert code == 4
        assert "norm_one_5:" not in out
        assert "norm_one_4: pic(D) = Z/4 [ok]" in out
        assert "biquadratic_norm_one: brauer_a(D) = Z/2 [ok]" in out
        assert err.startswith("failures:")
        assert "norm_one_5: injected failure" in err and err.count("injected failure") == 1

    def test_fixtures_run_all_reports_fixtures_that_do_not_build(self, capsys, monkeypatch):
        """A bundled fixture that fails to parse or to validate is a failures: entry and exit 4, not a
        traceback; the other fixtures are still compared."""
        import upic.cli as cli

        real = cli.fixture_text

        def damaged(name):
            if name == "norm_one_3":
                return "{broken"
            doc = json.loads(real(name))
            if name == "quasitrivial_c2":
                doc["modules"]["XG"]["action"] = [[[2, 0], [0, 2]]]
            return json.dumps(doc)

        monkeypatch.setattr(cli, "fixture_text", damaged)
        code, out, err = self.run_cli(capsys, "fixtures", "--run-all")
        assert code == 4
        assert "norm_one_3:" not in out and "quasitrivial_c2:" not in out
        for name in set(FIXTURES) - {"norm_one_3", "quasitrivial_c2"}:
            for label, want in FIXTURE_EXPECTATIONS[name].items():
                assert f"{name}: {label} = {want} [ok]" in out
        assert err.startswith("failures:") and "Traceback" not in err
        assert "norm_one_3: line 1, column 2" in err
        assert "quasitrivial_c2: module XG:" in err

    def test_degree_below_the_support(self, capsys, tmp_path):
        doc = {
            "format": "upic-task-v1",
            "group": {"table": [[0, 1], [1, 0]]},
            "generators": [1],
            "modules": {
                "zero": {"gens": 0, "relations": [], "action": [[]]},
                "T2": {"gens": 1, "relations": [[2]], "action": [[[1]]]},
            },
            "maps": {"res": {"source": "zero", "target": "T2", "matrix": [[]]}},
            "homspace": {"D": {"xg": "zero", "xh": "T2", "res": "res"}},
            "comparisons": {},
            "tasks": [{"op": "hypercohomology", "data": "D", "degree": 0}, {"op": "upic_dual", "data": "D"}],
        }
        p = tmp_path / "below.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(p), "--oracle", "on")
        assert code == 0, err
        assert "H^0(D) = 0 | oracle: degree below the support; nothing to check" in out
        assert "upic_dual(D) = H0=Z/2, H-1=0" in out

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

    def test_norm_one_d4_frozen_after_greedy_and_bar_agree(self):
        # the first fixture over a non-abelian group: its frozen values are
        # what the greedy and bar routes give, and the default route is dihedral
        from upic.cohomology import BarResolution, HyperTotal
        from upic.homspace import upic_complex
        from upic.resolutions import DihedralResolution, SmallResolution, small_resolution

        built = parse_task_text(fixture_text("norm_one_d4")).build()
        g, k = built.group, upic_complex(built.homspace["D"])
        assert g.order == 8 and isinstance(small_resolution(g), DihedralResolution)
        want = [FIXTURE_EXPECTATIONS["norm_one_d4"][label] for label in ("pic(D)", "brauer_a(D)")]
        for route in (SmallResolution(g), BarResolution(g)):
            assert [HyperTotal(g, k, d, resolution=route).cohomology().render() for d in (1, 2)] == want
        assert [r["result"] for r in run_tasks(built, oracle=False)] == want

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
