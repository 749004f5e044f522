"""End-to-end CLI tests: verbs, exit codes, byte determinism, start-up."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polybase.cli import main

K3_DOC = {
    "ground": ["a", "b", "c"],
    "f": {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    "w": [2, 2, 2],
    "k": 3,
}

U24_DOC = {
    "ground": ["a", "b", "c", "d"],
    "f": {"type": "uniform", "rank": 2},
}

BAD_TABLE_DOC = {
    "ground": ["a", "b"],
    "f": {"type": "table", "values": {"a": 0, "b": 0, "a,b": 1}},
}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


class TestCheck:
    def test_matroid_report(self, write, capsys):
        code = main(["check", write(U24_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "submodular: yes" in out
        assert "matroid rank: yes" in out
        assert "f(E) = 2" in out
        assert "dim B_f = 3" in out

    def test_violation_exits_one_with_pair(self, write, capsys):
        code = main(["check", write(BAD_TABLE_DOC)])
        out = capsys.readouterr().out
        assert code == 1
        assert "submodular: no" in out
        assert "A = {a}, B = {b}" in out

    def test_dual_wrapped_matroid_is_not_rank(self, write, capsys):
        doc = {
            "ground": ["a", "b", "c"],
            "f": {"type": "dual", "inner": {"type": "uniform", "rank": 2}},
        }
        code = main(["check", write(doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "matroid rank: no" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2


class TestDecompose:
    def test_certificate_shape(self, write, capsys):
        code = main(["decompose", write(K3_DOC), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 3
        assert doc["w"] == [2, 2, 2]
        assert doc["distinct"] == 3
        assert doc["dim"] == 2
        assert doc["bound_ok"] is True
        points = [term["point"] for term in doc["terms"]]
        assert points == sorted(points)
        assert sum(term["weight"] for term in doc["terms"]) == 3

    def test_flags_override_file(self, write, capsys):
        code = main(["decompose", write(K3_DOC), "--w", "3,3,0", "--k", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["terms"] == [{"point": [1, 1, 0], "weight": 3}]

    def test_membership_failure_exits_one(self, write, capsys):
        code = main(["decompose", write(K3_DOC), "--w", "3,0,0", "--k", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "x(" in err

    def test_missing_target_exits_one(self, write):
        assert main(["decompose", write(U24_DOC)]) == 1

    def test_trace_attached_and_replayable(self, write, capsys):
        code = main(["decompose", write(K3_DOC), "--trace"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["trace"]["case"] in ("split", "face_drop", "direct_sum")
        assert doc["trace"]["w"] == [2, 2, 2]

    def test_byte_determinism(self, write, capsys):
        path = write(K3_DOC)
        main(["decompose", path, "--trace"])
        first = capsys.readouterr().out
        main(["decompose", path, "--trace"])
        second = capsys.readouterr().out
        assert first == second

    def test_certificate_dim_comes_from_the_decomposition(self, write, capsys, monkeypatch):
        import polybase.cli as cli

        def boom(fn):
            raise AssertionError("dimension recomputed for the certificate")

        monkeypatch.setattr(cli, "dimension", boom)
        assert main(["decompose", write(K3_DOC)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 2

    def test_invariant_violation_exits_three(self, write, capsys, monkeypatch):
        import polybase.cli as cli
        from polybase import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("forced failure", dump="x({a}) <= 1")

        monkeypatch.setattr(cli, "run_decompose", boom)
        code = main(["decompose", write(K3_DOC)])
        err = capsys.readouterr().err
        assert code == 3
        assert "forced failure" in err
        assert "x({a}) <= 1" in err

    def test_certificate_round_trip_verifies(self, write, capsys):
        from polybase import WeightedDecomposition, load_instance, verify

        path = write(K3_DOC)
        main(["decompose", path])
        doc = json.loads(capsys.readouterr().out)
        inst = load_instance(path)
        dec = WeightedDecomposition.from_terms(
            [(t["weight"], tuple(t["point"])) for t in doc["terms"]],
            tuple(doc["w"]),
            doc["k"],
        )
        ok, failures = verify(inst.fn, dec)
        assert ok, failures


class TestExitCodes:
    @pytest.mark.parametrize("f", [
        {"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, "x"]]},
        {"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, 1.7]]},
        {"type": "partition", "blocks": ["ab"], "caps": [1]},
    ])
    def test_malformed_node_exits_two(self, write, capsys, f):
        doc = {"ground": ["a", "b"], "w": [1, 0], "k": 1, "f": f}
        assert main(["decompose", write(doc)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_submodular_exits_one_naming_pair(self, write, capsys):
        doc = dict(BAD_TABLE_DOC, w=[1, 0], k=1)
        assert main(["decompose", write(doc)]) == 1
        err = capsys.readouterr().err
        assert "not submodular" in err and "A = {a}, B = {b}" in err

    def test_deep_nesting_exits_two(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(_scale_chain(3000))
        assert main(["decompose", str(path)]) == 2

    def test_deep_scale_chain_decomposes(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(_scale_chain(600))
        assert main(["decompose", str(path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2 and doc["bound_ok"] is True


def _scale_chain(depth: int) -> str:
    """K3_DOC with its graphic node wrapped in depth scale-by-1 nodes.

    Built as text, since json.dumps itself recurses once per level.
    """
    leaf = json.dumps(K3_DOC["f"])
    f = '{"type": "scale", "r": 1, "inner": ' * depth + leaf + "}" * depth
    return f'{{"ground": ["a", "b", "c"], "w": [2, 2, 2], "k": 3, "f": {f}}}'


class TestOracle:
    def test_u12_report(self, write, capsys):
        doc = {"ground": ["a", "b"], "f": {"type": "uniform", "rank": 1}}
        code = main(["oracle", write(doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cr >= 2" in out
        assert "dim + 1 = 2" in out
        assert "n = 2" in out
        assert "n + r - 1 = 2" in out

    def test_k3_report(self, write, capsys):
        code = main(["oracle", write(K3_DOC), "--k-max", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cr >= 3" in out
        assert "dim + 1 = 3" in out
        assert "n + r - 1 = 4" in out

    def test_budget_exceeded_exits_four(self, write, capsys):
        doc = {
            "ground": list("abcdefgh"),
            "f": {"type": "uniform", "rank": 2},
        }
        assert main(["oracle", write(doc)]) == 4


class TestEnumerate:
    def test_base_points(self, write, capsys):
        doc = {"ground": ["a", "b"], "f": {"type": "uniform", "rank": 1}}
        code = main(["enumerate", write(doc)])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == [[0, 1], [1, 0]]

    def test_vertices(self, write, capsys):
        code = main(["enumerate", write(K3_DOC), "--vertices"])
        assert code == 0
        pts = json.loads(capsys.readouterr().out)
        assert pts == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


class TestDirectoryMode:
    def test_summary_lines_and_worst_code(self, tmp_path, capsys):
        (tmp_path / "one.json").write_text(json.dumps(U24_DOC))
        (tmp_path / "two.json").write_text(json.dumps(BAD_TABLE_DOC))
        code = main(["check", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("dim B_f = 3") and "one.json" in lines[0]
        assert "exit 1" in lines[1]

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        for i in range(3):
            doc = dict(K3_DOC)
            doc["w"] = [2, 2, 2]
            (tmp_path / f"i{i}.json").write_text(json.dumps(doc))
        main(["decompose", str(tmp_path), "--verify"])
        serial = capsys.readouterr().out
        main(["decompose", str(tmp_path), "--verify", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert serial.count(": ok ") == 3

    def test_empty_directory_is_input_error(self, tmp_path):
        assert main(["check", str(tmp_path)]) == 1


class TestStartup:
    def test_import_skips_modules_a_run_does_not_use(self):
        # every CLI run pays for what importing polybase.cli pulls in;
        # --jobs imports concurrent.futures where it needs it
        src = Path(__file__).resolve().parent.parent / "src"
        unused = ["dataclasses", "inspect", "concurrent.futures", "typing"]
        code = f"import sys, polybase.cli; print([m for m in {unused!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert proc.stdout.strip() == "[]"


class TestLimitFlag:
    def test_limit_forbids_large_ground(self, write):
        import polybase.core as core

        doc = {"ground": ["a", "b", "c", "d"], "f": {"type": "uniform", "rank": 1}}
        try:
            assert main(["check", write(doc), "--limit-n", "3"]) == 2
        finally:
            core.set_ground_limit(None)

    def test_env_var_respected(self, write, monkeypatch):
        monkeypatch.setenv("POLYBASE_LIMIT_N", "2")
        doc = {"ground": ["a", "b", "c"], "f": {"type": "uniform", "rank": 1}}
        assert main(["check", write(doc)]) == 2
