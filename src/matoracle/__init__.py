"""Two-oracle (clean/dirty) matroid basis algorithms with query accounting."""

from .algorithms import (
    binary_search_smallest_dependent_prefix,
    costly_strategies,
    default_k,
    error_dependent_basis,
    pair_query_basis,
    rank_oracle_basis,
    robust_basis,
    robust_weighted_basis,
    simple_basis,
    weighted_basis,
)
from .core import (
    ElementSet,
    ExplicitSystem,
    GraphicMatroid,
    GroundSet,
    GuardExceeded,
    MatroidSpec,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    ceil_log2,
    greedy_native,
    spec_from_config,
)
from .errors import (
    ErrorReport,
    IntersectionErrorReport,
    compute_eta,
    compute_intersection_errors,
    enumerate_max_weight_bases,
    modification_sets,
)
from .intersection import (
    ExchangeGraph,
    IntersectionOracles,
    SupersetViolation,
    build_exchange_graph,
    dirty_intersection,
    textbook_intersection,
    warm_start,
)
from .oracles import (
    IncompatiblePerturbation,
    OraclePair,
    PerturbationSpec,
    QueryLedger,
    QueryRecord,
    greedy_basis,
    make_dirty,
    replay_record,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
