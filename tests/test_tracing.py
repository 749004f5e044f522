"""The benchmark's tracer must still find every name it wraps, and the
benchmark must still print the pinned certificates.

``bench/tracing.py`` replaces functions under the names polybase's modules
bind; a refactor that unbinds one would otherwise only show up as a crash
of a traced benchmark run.  A refactor that changes any certificate of a
seeded benchmark run changes that run's digest.
"""

import importlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polybase.cli  # noqa: F401  (loads every module the tracer wraps)
import polybase.core as core
import polybase.lp as lp
from corpus import ground, k3, random_table, u23
from polybase import greedy_vertex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    for name, targets in _tracing().SPANS.items():
        for mod, attr in targets:
            assert callable(vars(importlib.import_module(mod)).get(attr)), (name, mod, attr)


def test_counter_targets_resolve():
    assert callable(vars(lp).get("_null_direction"))
    assert {"pivots", "infeasible_systems"} <= set(lp.stats)
    assert "__call__" in vars(core.SubmodularFn)


def test_run_targets_resolve():
    # every bench/run.py run, traced or not, reads these bindings
    names = ("decompose", "instance", "cli", "lp")
    modules = {name: sys.modules.get(f"polybase.{name}") for name in names}
    assert None not in modules.values()
    targets = [("instance", "parse_instance"), ("decompose", "decompose"), ("decompose", "verify"),
               ("decompose", "split_into_k_bases"), ("cli", "main")]
    for mod, attr in targets:
        assert callable(vars(modules[mod]).get(attr)), (mod, attr)
    assert "nonintegral_vertices" in modules["lp"].stats


def test_tracer_installs_and_restores():
    before = core.SubmodularFn.__call__
    with _tracing().Tracer() as tracer:
        # through the module, whose binding the tracer replaced
        sys.modules["polybase.decompose"].decompose(u23(), (2, 1, 1), 2)
    assert core.SubmodularFn.__call__ is before
    assert tracer.layer_totals()["calls"]["decompose.entry"] == 1


def test_face_drop_run_records_polytope_spans():
    # w = k b for an integer base point b, as in the benchmark's face-drop
    # workload: a call rerouted around the wrapped names would zero these
    # per-layer metrics without failing anything else
    f = random_table(ground(5), random.Random(8))
    k = 3
    w = tuple(k * v for v in greedy_vertex(f, (3, 1, 4, 0, 2)))
    engine = sys.modules["polybase.decompose"]
    with _tracing().Tracer() as tracer:
        dec, _ = engine.decompose(f, w, k)
        assert engine.verify(f, dec) == (True, [])
    calls = tracer.layer_totals()["calls"]
    for name in ("polytope.face", "polytope.member", "polytope.dim"):
        assert calls[name] >= 1, name


def test_vertex_steps_record_lp_spans():
    # the split case and split_into_k_bases share one vertex step; it must
    # call the LP under the names the tracer wraps, or the lp.* per-layer
    # metrics would read 0 without failing anything else; a system holds
    # both tables' 2^n rows plus the two level equalities
    f = random_table(ground(5), random.Random(21))
    engine = sys.modules["polybase.decompose"]
    runs = [
        (5, lambda: engine.decompose(f, (1, 2, 1, -3, -1), 3)),
        (3, lambda: engine.split_into_k_bases(u23(), (2, 2, 2), 3)),
    ]
    for n, run in runs:
        with _tracing().Tracer() as tracer:
            run()
        calls = tracer.layer_totals()["calls"]
        assert calls["lp.build"] >= 1 and calls["lp.solve"] >= 1
        assert tracer.counts["lp.rows"] == calls["lp.build"] * (2 * 2**n + 2)


def test_trace_walk_counts_node_cases():
    # bench/run.py reads decompose.nodes.* and decompose.depth_max from
    # the tracer's walk over each node's case and children; a trace whose
    # nodes stopped carrying them would zero those metrics silently
    engine = sys.modules["polybase.decompose"]
    with _tracing().Tracer() as tracer:
        engine.decompose(k3(), (2, 2, 2), 3)
    assert tracer.nodes["split"] >= 1 and tracer.nodes["leaf"] >= 1
    assert tracer.depth_max >= 2


# certificate digests of ``bench/run.py --workload W --seed 5 --rounds 2``; the
# cli workload runs one subprocess per instance file, about 5 s
BENCH_DIGESTS = {
    "cli": "1fc275f92bde689de1413995a194d88f8753022d1a51803a8442d5ae999db976",
    "corpus": "84a51aae15aa208d6085fdb77ad296f0163b9979901128c84f8265eb106a2277",
    "face-drop": "4374886beee83e063e6b3651055372eaa8fae564e8d48fe25ea0f76d027b22b8",
    "idp-split": "159b7a8df98cb2f76bd8832ea582b51ddf4af162ce9c59c11d339e4781a7347d",
}


@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_benchmark_certificates_are_pinned(workload):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "5", "--rounds", "2"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"  certificate digest {BENCH_DIGESTS[workload]}" in lines
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0


def test_traced_benchmark_reports_every_layer():
    # a traced run wraps every span target and walks every trace node; it
    # must stay correct and report each per-layer metric BENCHMARK.json
    # declares, with node counts that are not all zero (about 1 s)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "corpus",
           "--seed", "5", "--rounds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    names = {layer["name"] for layer in declared}
    metrics = summary["metrics"]
    assert names <= metrics.keys()
    assert sum(metrics[name]["value"] for name in names if name.startswith("decompose.nodes.")) > 0
