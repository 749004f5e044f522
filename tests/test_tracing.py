"""The benchmark's tracer must still find every name it wraps.

``bench/tracing.py`` replaces functions under the names polybase's modules
bind; a refactor that unbinds one would otherwise only show up as a crash
of a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import polybase.cli  # noqa: F401  (loads every module the tracer wraps)
import polybase.core as core
import polybase.lp as lp
from corpus import u23

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


def test_tracer_installs_and_restores():
    before = core.SubmodularFn.__call__
    with _tracing().Tracer() as tracer:
        # through the module, whose binding the tracer replaced
        sys.modules["polybase.decompose"].decompose(u23(), (2, 1, 1), 2)
    assert core.SubmodularFn.__call__ is before
    assert tracer.layer_totals()["calls"]["decompose.entry"] == 1
