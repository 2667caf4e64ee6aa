import json

import pytest

from upic.cli import FIXTURES, FIXTURE_EXPECTATIONS, fixture_text, main
from upic.errors import TaskFileError, ValidationError
from upic.taskfile import parse_task_text


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

    def test_degree_bound_flag(self, capsys, tmp_path):
        doc = fixture_doc("norm_one_2")
        doc["tasks"] = [{"op": "group_cohomology", "module": "XT", "degree": 4}]
        p = tmp_path / "deep.task"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = self.run_cli(capsys, "run", str(p))
        assert code == 4  # beyond the default bound
        code, out, _ = self.run_cli(capsys, "run", str(p), "--degree-bound", "4")
        assert code == 0

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
