"""Completion algorithms and brute-force certifiers for classes of bounded
integer metric spaces with perimeter constraints."""

from .errors import (
    CapacityError,
    FormatError,
    ParameterError,
    PreconditionError,
    RangeError,
)
from .params import (
    ForkFamilies,
    Params,
    ParamCheck,
    TriangleStatus,
    classify_triangle,
    default_magic,
    fork_choice,
    fork_families,
    fork_range,
    magic_distances,
    require_magic,
    time_function,
    validate_params,
)
from .graphs import (
    EdgeLabelledGraph,
    EppaReport,
    TriangleViolation,
    automorphisms,
    build_graph,
    canonical_cycle,
    cycle_graph,
    find_homomorphism,
    format_graph,
    is_partial_automorphism,
    parse_graph,
    partial_automorphisms,
    verify_eppa_witness,
    violations,
)
from .completion import (
    CompletionResult,
    CompletionStatus,
    CompletionTrace,
    Family,
    SandwichReport,
    TraceStep,
    check_sandwich,
    complete_magic,
    oracle_complete,
    oracle_completions,
    shortest_path_completion,
)
from .obstacles import (
    CatalogueReport,
    Expansion,
    ObstacleCatalogue,
    ObstacleWitness,
    enumerate_obstacle_cycles,
    format_catalogue,
    format_cycle_labels,
    obstacle_trace,
    parse_catalogue,
    parse_cycle_labels,
    substitute_forks,
    verify_catalogue,
)

__version__ = "0.1.0"
