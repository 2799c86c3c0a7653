"""Local-push and random-walk estimators for graph proximity scores.

The package pairs reverse/forward residual pushes with short random walks
to estimate personalized PageRank, multi-step transition probabilities,
heat-kernel scores, and keyword-search rankings on desk-scale graphs, and
ships exact solvers to verify every estimate against.
"""

from .bidir import (
    PprEstimate,
    PprParams,
    choose_delta_from_target,
    default_r_max,
    estimate_ppr,
    estimate_ppr_balanced,
    monte_carlo_ppr,
    num_walks,
)
from .graph import (
    SINK_NAME,
    Graph,
    GraphFormatError,
    apply_sink_convention,
    from_edges,
    load_edge_list,
    parse_edge_lines,
    salsa_transform,
)
from .multistep import (
    HeatKernelParams,
    MstpParams,
    estimate_heat_kernel,
    estimate_mstp,
    estimate_truncated_hitting,
    heat_kernel_paths,
    poisson_weights,
)
from .oracle import (
    ConvergenceError,
    UnreachableTargetError,
    exact_conditional_path_dist,
    exact_first_passage,
    exact_global_pagerank,
    exact_mstp,
    exact_ppr,
    exact_ppr_matrix,
    transition_matrix,
)
from .pathsampling import (
    PathSamplerState,
    precompute_path_samplers,
    sample_path_to_target,
    sample_target_exact,
)
from .push import (
    DenseVec,
    PushResult,
    Row,
    forward_push,
    reverse_push,
    reverse_push_balanced,
)
from .sampling import (
    WalkConfig,
    random_walk_path,
    walk_endpoints,
    weighted_draw,
)
from .search import (
    ForwardVector,
    GroupedIndex,
    IndexFormatError,
    IndexStorageReport,
    KeywordFormatError,
    KeywordIndex,
    ReverseVector,
    TargetSamplerIndex,
    adaptive_r_max,
    build_forward_vector,
    build_grouped_index,
    build_reverse_vector,
    build_target_sampler,
    load_index,
    sample_targets,
    save_index,
    score_targets_direct,
    score_targets_grouped,
    storage_accounting,
)
from .sharding import (
    BrokerQuery,
    Shard,
    SharedWalkParams,
    SharedWalkStore,
    StorageReport,
    broker_estimate,
    build_shared_walk_vectors,
    exact_dot,
    query_shared_walks,
    reassemble,
    shard_vectors,
    storage_model,
    storage_report,
    variable_delta_r_max,
)
from .undirected import (
    check_symmetry,
    estimate_ppr_undirected,
    forward_work_bound_check,
    natural_delta,
    worst_case_r_max,
)

__version__ = "1.0.0"

import types as _types

__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
