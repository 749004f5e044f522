"""Integer submodular functions, base polytopes and decompositions.

Any integer vector in k B_f splits into at most dim B_f + 1 distinct
integer base vectors with positive integer weights; this package builds
such decompositions constructively, certifies them independently, and
ships exhaustive oracles for desk-scale validation.
"""

from .core import (
    DEFAULT_GROUND_LIMIT,
    BlockRestrictFn,
    DualFn,
    GraphicRank,
    GroundSet,
    PartitionRank,
    ReduceAtFn,
    ReduceFn,
    ScaleFn,
    ShiftFn,
    SubmodularFn,
    TableFn,
    UniformRank,
    is_matroid_rank,
    is_submodular,
    materialize,
)
from .decompose import (
    DecompositionTrace,
    WeightedDecomposition,
    decompose,
    merge_direct_sum,
    replay,
    split_into_k_bases,
    verify,
)
from .errors import BudgetExceeded, InvariantViolation, ParseError, UsageError
from .instance import InstanceFile, load_instance, node_dict, parse_fn, parse_instance, trace_dict
from .lp import (
    ConstraintSystem,
    assert_integral,
    build_intersection_system,
    dump_system,
    find_vertex,
)
from .polytope import (
    FaceStructure,
    bounding_box,
    dimension,
    face_structure,
    greedy_vertex,
    in_base_polytope,
    in_extended_polymatroid,
    minimal_face_of_point,
    point_tight_family,
    tight_sets,
)

# The exhaustive oracles load on first use, so that a CLI run that does not
# ask for them skips importing (and compiling) polybase.oracle.
_ORACLE_NAMES = frozenset(
    ("PointSet", "cr_exact", "enumerate_base_points", "enumerate_vertices", "min_decomposition_size")
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)


__all__ = [
    "DEFAULT_GROUND_LIMIT",
    "BlockRestrictFn",
    "BudgetExceeded",
    "ConstraintSystem",
    "DecompositionTrace",
    "DualFn",
    "FaceStructure",
    "GraphicRank",
    "GroundSet",
    "InstanceFile",
    "InvariantViolation",
    "ParseError",
    "PartitionRank",
    "PointSet",
    "ReduceAtFn",
    "ReduceFn",
    "ScaleFn",
    "ShiftFn",
    "SubmodularFn",
    "TableFn",
    "UniformRank",
    "UsageError",
    "WeightedDecomposition",
    "assert_integral",
    "bounding_box",
    "build_intersection_system",
    "cr_exact",
    "decompose",
    "dimension",
    "dump_system",
    "enumerate_base_points",
    "enumerate_vertices",
    "face_structure",
    "find_vertex",
    "greedy_vertex",
    "in_base_polytope",
    "in_extended_polymatroid",
    "is_matroid_rank",
    "is_submodular",
    "load_instance",
    "materialize",
    "merge_direct_sum",
    "min_decomposition_size",
    "minimal_face_of_point",
    "node_dict",
    "parse_fn",
    "parse_instance",
    "point_tight_family",
    "replay",
    "split_into_k_bases",
    "tight_sets",
    "trace_dict",
    "verify",
]
