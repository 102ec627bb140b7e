"""Local tomography of diffusion networks under partial observation."""

from .errors import ConfigError, NumericError
from .graphs import (
    INFINITE,
    Graph,
    NodeSet,
    PartialErSpec,
    complete_graph,
    degree,
    distance,
    edgeless_graph,
    embed,
    from_edges,
    inherit,
    is_connected,
    load_edge_list,
    local_disconnect,
    max_degree,
    neighborhood,
    ring_graph,
    sample_er,
    sample_partial_er,
    save_edge_list,
    subgraph,
)
from .weights import (
    CombinationMatrix,
    CombinationRule,
    PolicyParams,
    build_matrix,
    check_weight_floor,
    class_tau,
    laplacian_matrix,
    metropolis_matrix,
)
from .dynamics import (
    CorrelationSet,
    NoiseKind,
    SimConfig,
    analytic_correlations,
    simulate_and_accumulate,
)
from .inference import (
    Classifier,
    ClassifierMethod,
    HBoundReport,
    InferenceArtifacts,
    apply_classifier,
    classification_report,
    classify_kmeans2,
    classify_threshold,
    error_matrix,
    granger_truncated,
    h_entry_bound_check,
    two_means_1d,
)
from .patchwork import (
    ReconstructionState,
    TieBreak,
    graph_distance,
    make_patches,
    run_patch_catch,
)
from .lab import (
    CRule,
    EmbeddedSource,
    ExperimentConfig,
    PatchCatchConfig,
    TheoryCheckConfig,
    check_small_distance_rarity,
    correlations,
    derive_seed,
    patch_catch_experiment,
    recovery_probability_experiment,
    theory_check,
)

__version__ = "0.1.0"
