"""marketgraph: learning undirected weighted graphs from multivariate time series.

Estimators for Laplacian-structured precision matrices under Gaussian and
Student-t models, with connected or k-component structure, degree control,
data preprocessing, synthetic ground-truth generators, and graph metrics.
"""

__version__ = "0.1.0"

# The kernels have a single numpy implementation; the flag records that path.
NUMBA_ENABLED = False

from .errors import (
    DataError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    MarketGraphError,
    NumericalError,
    ParameterError,
)
from .metrics import (
    NodeLabels,
    component_count,
    components,
    edge_distribution,
    edge_fscore,
    edge_set,
    modularity,
    relative_error,
)
from .operators import (
    SymmetricMatrix,
    WeightVector,
    adjacency_op,
    degree_adj,
    degree_op,
    edge_linear_index,
    edge_pairs,
    laplacian_adj,
    laplacian_op,
    mm_step_denominator,
)
from .preprocess import (
    ReturnsMatrix,
    SimilaritySpec,
    log_returns,
    remove_market,
    scale_columns,
    similarity,
)
from .solvers import (
    GraphEstimate,
    SolverConfig,
    SolverTrace,
    augmented_lagrangian,
    init_weights,
    learn_connected_gaussian,
    learn_connected_t,
    learn_k_component_gaussian,
    learn_kt,
    weighted_scatter,
)
from .spectral import (
    SubspaceMatrix,
    fan_subspace,
    prox_logdet,
    prox_logdet_rank,
    psd_sqrt_pinv,
    spectral_diagnostics,
)
from .synth import PlantedGraph, planted_k_component, sample_lgmrf, sample_student_t
