"""polybase benchmark: four closed-loop workloads in one process, one thread.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the repository root; polybase is imported from ``src/``.  Each
workload is a stream of rounds generated from ``--seed`` (``gen.py``); a
round is a fixed, stratified set of operations, run back to back by one
caller.  Pass 1 runs whole rounds for ``--seconds`` and supplies every
timing, scaled to a reference host speed (``speed.py``); pass 2 runs round
0 again, and its outputs must hash to the same digest.  ``check.py``,
which shares no code with polybase, checks every output.  With
``--trace 1`` pass 1 takes half the time and pass 2 re-runs all of its
rounds under ``tracing.Tracer`` to report per-layer metrics instead.  The
last line of stdout is one JSON object.

``--rounds N`` runs exactly N rounds in pass 1 with no time limit, which
regenerates the certificate digest of a run that timed N rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

import check  # noqa: E402  (bench/ is on sys.path as the script's folder)
import gen  # noqa: E402
from speed import COMPUTE, SPAWN, Speed  # noqa: E402
from tracing import NODE_CASES, Tracer  # noqa: E402

WORKLOADS = ("corpus", "face-drop", "idp-split", "cli")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3

# The cli workload's documents that polybase mishandles today: a graphic
# edge [0, "x"] escapes as a ValueError traceback, a partition block
# given as the string "ab" is read as {a, b}, and a supermodular table is
# decomposed without a submodularity check.  Each expects its documented
# exit code and no traceback; until polybase is fixed each op fails.
INVALID_DOCS = (
    ("graphic-edge-not-int", 2, {
        "ground": ["a", "b"], "w": [1, 0], "k": 1,
        "f": {"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, "x"]]}}),
    ("partition-block-string", 2, {
        "ground": ["a", "b"], "w": [1, 0], "k": 1,
        "f": {"type": "partition", "blocks": ["ab"], "caps": [1]}}),
    ("supermodular-table", 1, {
        "ground": ["a", "b", "c"], "w": [1, 1, 1], "k": 1,
        "f": {"type": "table", "values": {
            "a": 1, "b": 1, "a,b": 3, "c": 2, "a,c": 3, "b,c": 3, "a,b,c": 3}}}),
)

SETUP_CODE = """\
import json, sys
from polybase.instance import parse_instance
with open(sys.argv[1], encoding="utf-8") as handle:
    docs = json.load(handle)
for doc in docs:
    inst = parse_instance(doc)
    inst.fn(inst.ground.full_mask)
"""


@dataclass
class Op:
    """One operation: its inputs, its checker data and (cli) its file."""

    inst: dict | None
    w: tuple
    k: int
    doc: dict
    values: list = field(default_factory=list)
    path: str = ""
    expect_exit: int = 0
    label: str = ""


# ---------------------------------------------------------------------------
# workloads: one round of operations from a seeded generator
# ---------------------------------------------------------------------------

def _families(n: int, index: int) -> list[str]:
    """The three rank families and one table family, rotating with the
    round index, so each kind is a quarter of the ops as in the test
    suite's acceptance corpus."""
    return [*gen.RANK_FAMILIES, gen.TABLE_FAMILIES[(n + index) % len(gen.TABLE_FAMILIES)]]


def _op(family: str, n: int, rng: random.Random, target) -> Op:
    inst = gen.make_instance(family, n, rng)
    values = gen.table(inst)
    w, k = target(values, n, rng)
    return Op(inst=inst, w=tuple(w), k=k, doc=gen.document(inst, w, k), values=values)


def _ops(sizes, rng: random.Random, index: int, target) -> list[Op]:
    """One op per kind and size; target(values, n, rng) -> (w, k)."""
    ops = [_op(family, n, rng, target) for n in sizes for family in _families(n, index)]
    rng.shuffle(ops)
    return ops


def _sum_target(k_lo: int, k_hi: int):
    def target(values, n, rng):
        k = rng.randint(k_lo, k_hi)
        return gen.sum_of_vertices(values, n, k, rng), k

    return target


def _face_target(values, n, rng):
    k = rng.randint(1, 25)
    return [k * v for v in gen.random_vertex(values, n, rng)], k


def corpus_round(rng: random.Random, index: int) -> list[Op]:
    """Each kind at every n = 2..8; w is a sum of k <= 25 greedy vertices."""
    return _ops(range(2, 9), rng, index, _sum_target(1, 25))


def face_drop_round(rng: random.Random, index: int) -> list[Op]:
    """Each kind at n = 8..10; w = k b for one integer base point b."""
    return _ops(range(8, 11), rng, index, _face_target)


def idp_split_round(rng: random.Random, index: int) -> list[Op]:
    """Each kind at n = 5; x is a sum of k = 3..5 greedy vertices."""
    return _ops((5,), rng, index, _sum_target(3, 5))


CLI_SIZES = (3, 4, 5, 6, 7, 8, 3, 5, 7)


def cli_round(rng: random.Random, index: int) -> list[Op]:
    """Nine valid documents (n = 3..8, kinds in turn) and the three invalid ones."""
    target = _sum_target(1, 25)
    ops = [_op(_families(n, index)[(i + index) % 4], n, rng, target)
           for i, n in enumerate(CLI_SIZES)]
    for label, code, doc in INVALID_DOCS:
        ops.append(Op(inst=None, w=tuple(doc["w"]), k=doc["k"], doc=doc,
                      expect_exit=code, label=label))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "corpus": corpus_round,
    "face-drop": face_drop_round,
    "idp-split": idp_split_round,
    "cli": cli_round,
}


# ---------------------------------------------------------------------------
# running one operation: (seconds, digest bytes, failure codes, raised)
# ---------------------------------------------------------------------------

class Runner:
    """Runs one op; the cli workload runs polybase.cli.main in this process
    when ``inprocess`` is set (traced runs), else as a subprocess."""

    def __init__(self, workload: str, pb: dict, inprocess: bool):
        self.workload = workload
        self.pb = pb
        self.inprocess = inprocess

    def run(self, op: Op):
        if self.workload == "cli":
            return self._run_cli(op)
        fn = self.pb["instance"].parse_instance(op.doc).fn
        D = self.pb["decompose"]
        start = perf_counter()
        try:
            if self.workload == "idp-split":
                out = D.split_into_k_bases(fn, op.w, op.k)
            else:
                dec, _ = D.decompose(fn, op.w, op.k)
                ok, _ = D.verify(fn, dec)
                out = (dec.terms, ok)
        except Exception as exc:  # an op that raises is counted as failed
            return perf_counter() - start, repr(exc).encode(), [], exc
        took = perf_counter() - start
        return took, repr(out).encode(), self._check(op, out), None

    def _check(self, op: Op, out) -> list[str]:
        n = op.inst["n"]
        if self.workload == "idp-split":
            return check.check_split(op.values, n, op.w, op.k, [tuple(p) for p in out])
        terms, verify_ok = out
        fails = check.check_certificate(op.values, n, op.w, op.k, list(terms))
        if not verify_ok:
            fails.append("polybase_verify")
        if self.workload == "face-drop" and list(terms) != [(op.k, tuple(v // op.k for v in op.w))]:
            fails.append("not_single_term")
        return fails

    def _run_cli(self, op: Op):
        argv = ["decompose", op.path, "--verify"]
        if self.inprocess:
            start = perf_counter()
            out, err = StringIO(), StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.pb["cli"].main(argv)
            except Exception as exc:
                code, err = 1, StringIO(f"Traceback (most recent call last):\n{exc!r}")
            took = perf_counter() - start
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "polybase", *argv],
                                  capture_output=True, text=True, env=child_env(), check=False)
            took = perf_counter() - start
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        digest = f"{code}\n{stdout}".encode()
        if op.inst is None:
            raised = None
            if code != op.expect_exit or "Traceback" in stderr:
                raised = RuntimeError(f"{op.label}: exit {code}, expected {op.expect_exit}"
                                      + (" with a traceback" if "Traceback" in stderr else ""))
            return took, digest, [], raised
        return took, digest, self._check_cli(op, code, stdout, stderr), None

    def _check_cli(self, op: Op, code, stdout, stderr) -> list[str]:
        if code != 0 or stderr:
            return [f"exit_{code}"]
        doc = json.loads(stdout)
        n = op.inst["n"]
        terms = [(t["weight"], tuple(t["point"])) for t in doc["terms"]]
        fails = check.check_certificate(op.values, n, op.w, op.k, terms)
        if doc["k"] != op.k or tuple(doc["w"]) != op.w:
            fails.append("echo")
        if doc["distinct"] != len(terms) or doc["dim"] != check.dim(op.values, n) \
                or doc["bound_ok"] is not True:
            fails.append("certificate_fields")
        return fails


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def load_polybase() -> dict:
    if not (SRC / "polybase" / "__init__.py").is_file():
        sys.exit(f"error: no polybase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polybase
    import polybase.cli  # noqa: F401  (not imported by the package)

    if Path(polybase.__file__).resolve().parent != (SRC / "polybase").resolve():
        sys.exit(f"error: imported polybase from {polybase.__file__}, not {SRC}")
    return {name: sys.modules[f"polybase.{name}"]
            for name in ("decompose", "instance", "cli", "lp")}


def write_round(ops: list[Op], workload: str, seed: int, index: int) -> None:
    if workload != "cli":
        return
    folder = WORK / f"cli-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    for j, op in enumerate(ops):
        op.path = str(folder / f"r{index}-{j}.json")
        with open(op.path, "w", encoding="utf-8") as out:
            json.dump(op.doc, out)


def timed_subprocess(args: list[str]) -> float:
    start = perf_counter()
    subprocess.run(args, env=child_env(), check=True, capture_output=True)
    return perf_counter() - start


def measure_setup(ops: list[Op], seed: int) -> float:
    """Median time, in reference seconds, for a fresh interpreter to import
    polybase and build one round's functions from their documents."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"setup-{seed}.json"
    path.write_text(json.dumps([op.doc for op in ops if op.inst is not None]))
    host = Speed(SPAWN)
    runs = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        runs.append((start, timed_subprocess([sys.executable, "-c", SETUP_CODE, str(path)])))
        host.probe()
    return statistics.median(host.scaled(start, took) for start, took in runs)


# the checker self-test decomposes this fixed instance with polybase:
# uniform rank 2 on four elements, w = (2, 2, 1, 1), k = 3
SELF_TEST = ({"family": "uniform", "n": 4, "rank": 2}, (2, 2, 1, 1), 3)


def self_test(pb: dict) -> list[str]:
    """Corrupted copies of a real certificate that the checker let through."""
    inst, w, k = SELF_TEST
    fn = pb["instance"].parse_instance(gen.document(inst)).fn
    dec, _ = pb["decompose"].decompose(fn, w, k)
    if len(dec.terms) < 2:
        return ["self-test certificate has a single term"]
    return check.self_test(gen.table(inst), inst["n"], w, k, list(dec.terms))


def run(args) -> dict:
    pb = load_polybase()
    workload, seed = args.workload, args.seed
    rng = random.Random(f"{workload}:{seed}")
    runner = Runner(workload, pb, inprocess=bool(args.trace))
    problems = self_test(pb)
    rounds: list[list[Op]] = []  # round 0, or every round when tracing
    timed_rounds = 0
    round_digests: list[list[bytes]] = [[], []]  # per pass
    times: list[list[tuple[float, float]]] = [[], []]  # per pass: (start, took)
    # child processes slow down more than this one in a slow spell
    host = Speed(SPAWN if workload == "cli" and not args.trace else COMPUTE)
    tally = {"attempted": 0, "failed": 0}
    tracer = None
    shutil.rmtree(WORK / f"cli-{seed}", ignore_errors=True)

    def new_round() -> list[Op]:
        ops = ROUNDS[workload](rng, timed_rounds)
        write_round(ops, workload, seed, timed_rounds)
        return ops

    def do_round(ops: list[Op], pass_no: int):
        digest = hashlib.sha256()
        for op in ops:
            if tracer is not None:
                tracer.op = tally["attempted"]
            took, out, fails, raised = runner.run(op)
            tally["attempted"] += 1
            times[pass_no].append((perf_counter() - took, took))
            host.tick()
            digest.update(hashlib.sha256(out).digest())
            if raised is not None:
                tally["failed"] += 1
                print(f"failed op: {raised}", file=sys.stderr)
            elif fails:
                problems.append(f"{op.inst['family']} n={op.inst['n']}: {fails}")
        round_digests[pass_no].append(digest.digest())

    rounds.append(new_round())
    setup_s = measure_setup(rounds[0], seed)
    start = perf_counter()
    do_round(rounds[0], 0)
    timed_rounds = 1
    # untraced: leave time for pass 2, which re-runs round 0 only
    stop = args.seconds / 2 if args.trace else args.seconds - (perf_counter() - start)
    while (timed_rounds < args.rounds) if args.rounds else (perf_counter() - start < stop):
        ops = new_round()
        do_round(ops, 0)
        timed_rounds += 1
        if args.trace:
            rounds.append(ops)
    if args.trace:
        tracer = Tracer()
        with tracer:
            for ops in rounds:
                do_round(ops, 1)
        tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
    else:
        do_round(rounds[0], 1)
    host.probe()
    scaled = [[host.scaled(start, took) for start, took in pass_times] for pass_times in times]
    if round_digests[1] != round_digests[0][:len(round_digests[1])]:
        problems.append("certificates differ between passes over the same rounds")
    if pb["lp"].stats["nonintegral_vertices"]:
        problems.append("non-integral LP vertex found")

    result = {
        "workload": workload, "seed": seed, "rounds": timed_rounds, "rerun": len(round_digests[1]),
        "digest": hashlib.sha256(b"".join(round_digests[0])).hexdigest(),
        "problems": problems, **tally,
    }
    if args.trace:
        result["metrics"] = layer_metrics(tracer, scaled)
    else:
        result["metrics"] = end_to_end_metrics(workload, setup_s, scaled[0])
    return result


def end_to_end_metrics(workload: str, setup_s: float, times: list[float]) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_gmean_ms": (statistics.geometric_mean(times) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, times: list[list[float]]) -> dict:
    """Per-op averages over the traced pass (pass 2)."""
    t = tracer.layer_totals()
    total, calls, counts = t["total"], t["calls"], tracer.counts
    ops = len(times[1])
    core_calls, core_evals = t["core_calls"], t["core_evals"]
    per = {
        "core.calls": core_calls, "core.evals": core_evals,
        "core.reduce_s": counts["core.reduce_s"],
        "lp.build_s": total["lp.build"], "lp.build_calls": calls["lp.build"],
        "lp.rows": counts["lp.rows"],
        "lp.solve_s": total["lp.solve"], "lp.solves": calls["lp.solve"],
        "lp.purify_steps": counts["lp.purify_steps"], "lp.pivots": counts["lp.pivots"],
        "lp.infeasible": counts["lp.infeasible_systems"],
        "polytope.face_s": total["polytope.face"], "polytope.face_calls": calls["polytope.face"],
        "polytope.member_s": total["polytope.member"],
        "polytope.member_calls": calls["polytope.member"],
        "polytope.dim_s": total["polytope.dim"], "polytope.dim_calls": calls["polytope.dim"],
        "decompose.self_s": t["entry_self_s"], "decompose.merge_s": total["decompose.merge"],
        "decompose.verify_s": total["decompose.verify"],
        **{f"decompose.nodes.{case}": tracer.nodes[case] for case in NODE_CASES},
        "instance.parse_s": total["instance.parse"],
        "cli.certificate_s": total["cli.certificate"],
    }
    metrics = {}
    for name, value in per.items():
        unit = "s/op" if name.endswith("_s") else "count/op"
        metrics[name] = (value / ops, unit)
    metrics["core.hit_ratio"] = (1 - core_evals / core_calls if core_calls else 0.0, "ratio")
    metrics["decompose.depth_max"] = (tracer.depth_max, "count")
    import_s = statistics.median(
        timed_subprocess([sys.executable, "-c", "import polybase.cli"])
        for _ in range(IMPORT_REPEATS))
    metrics["cli.import_ms"] = (import_s * 1000, "ms")
    metrics["trace.overhead_pct"] = ((sum(times[1]) / sum(times[0]) - 1) * 100, "%")
    return metrics


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed; "
          f"{result['rounds']} rounds timed, {result['rerun']} re-run")
    print(f"  certificate digest {result['digest']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Run every workload in its own process and combine their last lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--rounds", str(args.rounds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead of --seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
