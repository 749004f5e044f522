"""Command-line front end.

Verbs: ``check`` (submodularity / matroid report), ``decompose`` (emit a
certificate JSON), ``oracle`` (exhaustive rank lower bound) and
``enumerate`` (dump integer base points or greedy vertices).

Exit codes are stable API: 0 success, 1 input-level failure, 2 parse
error, 3 internal invariant violation, 4 oracle budget exceeded.  Output
for a fixed input is byte-identical across runs: JSON is emitted with
sorted keys and certificate terms are sorted by point.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from . import core
from .decompose import decompose as run_decompose
from .decompose import require_submodular
from .decompose import verify as run_verify
from .errors import BudgetExceeded, InvariantViolation, ParseError, UsageError
from .instance import load_instance, trace_dict
from .polytope import bounding_box, dimension

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybase",
        description="Base-polytope checks and integer decompositions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("path", help="instance JSON file (or directory of them)")
        p.add_argument("--limit-n", type=int, default=core.DEFAULT_GROUND_LIMIT,
                       help="override the ground-set size cap")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for directory inputs")

    p_check = sub.add_parser("check", help="report submodularity and polytope facts")
    common(p_check)

    p_dec = sub.add_parser("decompose", help="decompose w in k B_f, print a certificate")
    common(p_dec)
    p_dec.add_argument("--w", default=None, help="target vector, comma-separated integers")
    p_dec.add_argument("--k", type=int, default=None, help="multiplicity")
    p_dec.add_argument("--trace", action="store_true", help="attach the recursion trace")
    p_dec.add_argument("--verify", action="store_true",
                       help="re-check the certificate with the independent checker")

    p_orc = sub.add_parser("oracle", help="exhaustive decomposition-rank lower bound")
    common(p_orc)
    p_orc.add_argument("--k-max", type=int, default=4, dest="k_max")

    p_enum = sub.add_parser("enumerate", help="dump integer base points or vertices")
    common(p_enum)
    p_enum.add_argument("--vertices", action="store_true",
                        help="greedy vertices instead of all integer points")
    return parser


def _parse_w(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--w must be comma-separated integers, got {text!r}")


def certificate_dict(f, w, k, dec, dim: int, trace=None) -> dict:
    """The certificate document for a decomposition of w in k B_f, dim = dim B_f."""
    doc = {
        "k": k,
        "w": list(w),
        "terms": [{"weight": wt, "point": list(p)} for wt, p in dec.terms],
        "distinct": dec.distinct_count,
        "dim": dim,
        "bound_ok": dec.distinct_count <= dim + 1,
    }
    if trace is not None:
        doc["trace"] = trace_dict(f, trace)
    return doc


def to_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-file commands
# ---------------------------------------------------------------------------

def cmd_check(args, inst) -> int:
    ok, pair = core.is_submodular(inst.fn)
    print(f"submodular: {'yes' if ok else 'no'}")
    if not ok:
        a, b = pair
        names = inst.ground.names_of
        print(f"violating pair: A = {{{','.join(names(a))}}}, B = {{{','.join(names(b))}}}")
        return EXIT_INPUT
    print(f"matroid rank: {'yes' if core.is_matroid_rank(inst.fn) else 'no'}")
    print(f"f(E) = {inst.fn(inst.ground.full_mask)}")
    lower, upper = bounding_box(inst.fn)
    print(f"bounding box: lower = {list(lower)}, upper = {list(upper)}")
    print(f"dim B_f = {dimension(inst.fn)}")
    return EXIT_OK


def cmd_decompose(args, inst) -> int:
    w = _parse_w(args.w) if args.w is not None else inst.w
    k = args.k if args.k is not None else inst.k
    if w is None or k is None:
        raise UsageError("decompose needs w and k (flags or instance file)")
    dec, trace = run_decompose(inst.fn, w, k)
    if args.verify:
        ok, failures = run_verify(inst.fn, dec)
        if not ok:
            raise InvariantViolation(
                "certificate failed verification: " + "; ".join(failures)
            )
    try:  # the trace wraps f in more nodes than the document held
        text = to_json(certificate_dict(inst.fn, w, k, dec, trace.dim,
                                        trace if args.trace else None))
    except RecursionError:
        raise ParseError(f"{args.path} nests too deeply to print its trace") from None
    print(text)
    return EXIT_OK


def cmd_oracle(args, inst) -> int:
    from . import oracle

    require_submodular(inst.fn)
    bound = oracle.cr_exact(inst.fn, args.k_max)
    dim = dimension(inst.fn)
    n = inst.ground.n
    print(f"cr >= {bound}")
    print(f"dim + 1 = {dim + 1}")
    print(f"n = {n}")
    if core.is_matroid_rank(inst.fn):
        rank = inst.fn(inst.ground.full_mask)
        print(f"n + r - 1 = {n + rank - 1}")
    return EXIT_OK


def cmd_enumerate(args, inst) -> int:
    from . import oracle

    require_submodular(inst.fn)
    if args.vertices:
        points = oracle.enumerate_vertices(inst.fn)
    else:
        points = oracle.enumerate_base_points(inst.fn)
    print(to_json([list(p) for p in points]))
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "decompose": cmd_decompose,
    "oracle": cmd_oracle,
    "enumerate": cmd_enumerate,
}


# json refuses integer literals past the digit cap, but derived integers
# such as k * f(E) may still pass it when a message or certificate prints them
_get_digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def _run_single(args) -> int:
    try:
        inst = load_instance(args.path, args.limit_n)
        previous = _get_digit_cap()
        _set_digit_cap(0)
        try:
            return _COMMANDS[args.verb](args, inst)
        finally:
            _set_digit_cap(previous)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if exc.dump:
            print(exc.dump, file=sys.stderr)
        return EXIT_INVARIANT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _run_capture(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run_single(args)
    return code, out.getvalue(), err.getvalue()


def _worker(args):
    return (args.path, *_run_capture(args))


def _run_directory(args) -> int:
    paths = sorted(str(p) for p in Path(args.path).glob("*.json"))
    if not paths:
        print(f"error: no *.json instances under {args.path}", file=sys.stderr)
        return EXIT_INPUT
    jobs = [argparse.Namespace(**{**vars(args), "path": p}) for p in paths]
    # a pool starts all its workers up front, so never more than there are files
    workers = min(args.jobs, len(paths))
    if workers > 1:
        # imported here so serial runs skip it and the logging it pulls in
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, jobs))
    else:
        results = [_worker(job) for job in jobs]
    worst = EXIT_OK
    for path, code, out, err in results:
        status = "ok" if code == EXIT_OK else f"exit {code}"
        summary = out.strip().splitlines()
        tail = f" {summary[-1]}" if summary else ""
        print(f"{path}: {status}{tail}")
        if err.strip():
            print(err.strip(), file=sys.stderr)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_PARSE
    run = _run_directory if Path(args.path).is_dir() else _run_single
    try:
        code = run(args)
        sys.stdout.flush()  # so a closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:
        # the recipe in the signal module's docs: later writes, the flush at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
