"""End-to-end CLI tests: verbs, exit codes, byte determinism, start-up."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polybase import decompose, load_instance, replay, trace_dict
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

# files json cannot decode: bytes that are not UTF-8, and an integer
# literal past the interpreter's 4300-digit limit
UNDECODABLE_FILES = {
    "latin1.json": '{"ground": ["\xe9"], "f": {"type": "uniform", "rank": 1}}'.encode("latin-1"),
    "digits.json": b'{"ground": ["a"], "f": {"type": "uniform", "rank": 1}, "k": '
    + b"1" * 5000 + b"}",
}

# directory-mode files: ok runs, input errors and, under --limit-n 3, a
# parse error, so summary lines carry every status
DIRECTORY_DOCS = {
    "k3.json": K3_DOC,
    "u23.json": {"ground": ["a", "b", "c"], "f": {"type": "uniform", "rank": 2},
                 "w": [2, 1, 1], "k": 2},
    "u24.json": U24_DOC,
    "bad.json": BAD_TABLE_DOC,
}

DIRECTORY_FLAGS = [
    ["check"],
    ["decompose", "--verify"],
    ["decompose", "--w", "2,1,1", "--k", "2", "--trace", "--verify", "--limit-n", "3"],
    ["oracle", "--k-max", "2"],
    ["enumerate", "--vertices"],
]


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
        files = {"broken.json": b"{not json", **UNDECODABLE_FILES}
        for name, data in files.items():
            path = tmp_path / name
            path.write_bytes(data)
            assert main(["check", str(path)]) == 2, name
            assert f"invalid JSON in {path}" in capsys.readouterr().err

    def test_unspellable_table_key_exits_two(self, write, capsys):
        doc = {"ground": ["a", "b", "a,b"], "f": {"type": "table", "values": {"a": 1}}}
        assert main(["check", write(doc)]) == 2
        assert "cannot spell element 'a,b'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", ""])
    def test_unspellable_name_exits_two_under_every_node_type(self, write, capsys, name):
        uniform = {"type": "uniform", "rank": 1}
        graphic = {"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, 1]]}
        for f in (uniform, {"type": "dual", "inner": uniform}, graphic):
            assert main(["check", write({"ground": ["c", name], "f": f})]) == 2
            assert f"error: table keys cannot spell element {name!r}" in capsys.readouterr().err


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
        path = write(K3_DOC)
        code = main(["decompose", path, "--trace"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["trace"]["case"] in ("split", "face_drop", "direct_sum")
        assert doc["trace"]["w"] == [2, 2, 2]
        # the printed tree is the library's trace, and replaying that trace
        # gives the printed terms
        inst = load_instance(path)
        _, trace = decompose(inst.fn, inst.w, inst.k)
        assert trace_dict(inst.fn, trace) == doc["trace"]
        printed = [(t["weight"], tuple(t["point"])) for t in doc["terms"]]
        assert list(replay(trace).terms) == printed

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

    def test_empty_vertex_step_exits_three_with_its_system(self, write, capsys, monkeypatch):
        engine = sys.modules["polybase.decompose"]
        monkeypatch.setattr(engine, "find_vertex", lambda system: None)
        code = main(["decompose", write(K3_DOC)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err[0] == "internal error: empty split intersection; decomposition theory violated"
        assert len(err) == 1 + 2 * 2**3 + 2
        assert all(line.startswith("x({") for line in err[1:])

    def test_chain_step_violation_exits_three(self, write, capsys, monkeypatch):
        from polybase import UsageError

        engine = sys.modules["polybase.decompose"]

        def outside(f, x, k=1, *, sums=None):
            raise UsageError("outside")

        monkeypatch.setattr(engine, "minimal_face_of_point", outside)
        code = main(["decompose", write(K3_DOC)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: derived point left its polytope: outside\n"

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
        {"type": "block_restrict", "a_prev": ["a"], "block": ["a", "b"],
         "inner": {"type": "uniform", "rank": 1}},
        {"type": "partition", "blocks": [["a"], ["a", "b"]], "caps": [1, 1]},
        {"type": "partition", "blocks": [["a"]], "caps": [1]},
        {"type": "partition", "blocks": [["a"], ["b"]], "caps": [1]},
        {"type": "table", "values": {"": 5, "a": 1, "b": 1, "a,b": 1}},
        {"type": "block_restrict", "a_prev": ["a"], "block": [],
         "inner": {"type": "uniform", "rank": 1}},
    ])
    def test_malformed_node_exits_two(self, write, capsys, f):
        doc = {"ground": ["a", "b"], "w": [1, 0], "k": 1, "f": f}
        assert main(["decompose", write(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_instance_exits_two(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read" in err

    def test_non_integer_target_exits_one(self, write, capsys):
        assert main(["decompose", write(K3_DOC), "--w", "1,x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--w must be comma-separated integers" in err

    def test_non_submodular_exits_one_naming_pair(self, write, capsys):
        doc = dict(BAD_TABLE_DOC, w=[1, 0], k=1)
        assert main(["decompose", write(doc)]) == 1
        err = capsys.readouterr().err
        assert "not submodular" in err and "A = {a}, B = {b}" in err

    def test_derived_integers_past_the_digit_cap_exit_one(self, tmp_path, capsys):
        # every literal is within json's digit cap, but k * f(E) is not
        big = 9 * 10**4299
        doc = {"ground": ["a", "b"], "w": [big, 0], "k": 2,
               "f": {"type": "table", "values": {"a": big, "b": big, "a,b": big}}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        digit_cap = getattr(sys, "get_int_max_str_digits", lambda: None)
        cap = digit_cap()
        assert main(["decompose", str(path)]) == 1
        assert digit_cap() == cap
        err = capsys.readouterr().err
        assert err.startswith(f"error: x(E) = {big} != 18{'0' * 4299} = 2 * f(E)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_one_quietly(self, write, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "polybase", "decompose", write(K3_DOC)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, check=False,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_deep_nesting_exits_two(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(_scale_chain(3000))
        assert main(["decompose", str(path)]) == 2

    def test_deep_trace_exits_with_a_documented_code(self, tmp_path, capsys):
        # the printed trace wraps f in shift, scale, dual and reduce_at
        # nodes, so it nests deeper than the document; every depth up to
        # the first one parsing refuses exits 0 (1 for an odd number of
        # duals, whose f(E) < 0) or 2, never with a traceback
        path = tmp_path / "deep.json"
        refused_print = 0
        for depth in itertools.count(800):
            path.write_text(_dual_chain(depth))
            code = main(["decompose", str(path), "--trace"])
            err = capsys.readouterr().err
            assert code in (depth % 2, 2), err
            assert "Traceback" not in err
            if "to parse" in err:
                break
            refused_print += "nests too deeply to print its trace" in err
        assert refused_print
        # without --trace the deepest document that parses still decomposes
        depth -= 2 - depth % 2
        path.write_text(_dual_chain(depth))
        assert main(["decompose", str(path)]) == 0

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


def _dual_chain(depth: int) -> str:
    """A uniform rank-2 instance on four elements inside depth dual nodes."""
    f = '{"type": "dual", "inner": ' * depth + '{"type": "uniform", "rank": 2}' + "}" * depth
    return f'{{"ground": ["a", "b", "c", "d"], "w": [2, 2, 1, 1], "k": 3, "f": {f}}}'


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


@pytest.mark.parametrize(
    "flags", [["oracle"], ["enumerate"], ["enumerate", "--vertices"]], ids="_".join
)
def test_oracle_verbs_refuse_non_submodular(write, capsys, flags):
    # B_f is empty, so any rank bound or point list would be a false report
    code = main([flags[0], write(BAD_TABLE_DOC), *flags[1:]])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (
        "error: f is not submodular: f(A) + f(B) < f(A | B) + f(A & B)"
        " for A = {a}, B = {b}\n"
    )


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

    def test_undecodable_files_exit_two_without_traceback(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(json.dumps(K3_DOC))
        for name, data in UNDECODABLE_FILES.items():
            (tmp_path / name).write_bytes(data)
        code = main(["decompose", str(tmp_path)])
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert code == 2 and len(lines) == 3
        for path, line in zip(sorted(str(p) for p in tmp_path.glob("*.json")), lines):
            status = "ok" if path.endswith("good.json") else "exit 2"
            assert line.startswith(f"{path}: {status}")
        assert "Traceback" not in captured.out + captured.err

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("flags", DIRECTORY_FLAGS, ids="_".join)
    def test_summary_is_last_line_of_per_file_run(self, tmp_path, capsys, flags, jobs):
        for name, doc in DIRECTORY_DOCS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        verb, rest = flags[0], flags[1:]
        expected, worst = [], 0
        for path in sorted(str(p) for p in tmp_path.glob("*.json")):
            code = main([verb, path, *rest])
            tail = capsys.readouterr().out.strip().splitlines()[-1:]
            status = "ok" if code == 0 else f"exit {code}"
            expected.append(" ".join([f"{path}: {status}", *tail]))
            worst = max(worst, code)
        code = main([verb, str(tmp_path), *rest, "--jobs", jobs])
        assert capsys.readouterr().out.splitlines() == expected
        assert code == worst

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("target", ["file", "directory"])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, jobs, target):
        (tmp_path / "u24.json").write_text(json.dumps(U24_DOC))
        path = tmp_path if target == "directory" else tmp_path / "u24.json"
        assert main(["check", str(path), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_jobs_capped_at_file_count(self, tmp_path, monkeypatch):
        # a pool forks all its workers at the first submit, so --jobs 5000
        # on two files must ask for two; a recording pool maps serially
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for name in ("one.json", "two.json"):
            (tmp_path / name).write_text(json.dumps(U24_DOC))
        assert main(["check", str(tmp_path), "--jobs", "5000"]) == 0
        assert sizes == [2]
        (tmp_path / "two.json").unlink()
        assert main(["check", str(tmp_path), "--jobs", "5000"]) == 0
        assert sizes == [2]  # one file runs serially, without a pool


class TestStartup:
    def test_import_skips_modules_a_run_does_not_use(self):
        # every CLI run pays for what importing polybase.cli pulls in;
        # --jobs imports concurrent.futures, the oracle and enumerate verbs
        # polybase.oracle, and a non-integral vertex fractions, where needed
        src = Path(__file__).resolve().parent.parent / "src"
        unused = [
            "dataclasses",
            "inspect",
            "concurrent.futures",
            "typing",
            "fractions",
            "decimal",
            "polybase.oracle",
        ]
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
        doc = {"ground": ["a", "b", "c", "d"], "f": {"type": "uniform", "rank": 1}}
        assert main(["check", write(doc), "--limit-n", "3"]) == 2

    def test_limit_lasts_for_one_run(self, write):
        u24 = write(U24_DOC)
        assert main(["check", u24, "--limit-n", "3"]) == 2
        assert main(["check", u24]) == 0
        assert load_instance(u24).ground.n == 4
        u13 = write({"ground": [f"e{i}" for i in range(13)], "f": {"type": "uniform", "rank": 1}},
                    "u13.json")
        assert main(["check", u13, "--limit-n", "13"]) == 0
        assert main(["check", u13]) == 2

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_exits_two(self, write, capsys, limit):
        assert main(["check", write(U24_DOC), "--limit-n", limit]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ground set size limit must be at least 1, got {limit}\n"
