"""Bipartite graph analytics: butterfly counting, wing decomposition,
equivalence-class super-graph indices with incremental maintenance, and
personalized dense-subgraph (k-wing) search."""

from .baseline import baseline_search, canonical_wings
from .bench import degree_buckets, run_bench
from .compress import (
    compress,
    deserialize_comp,
    is_forest,
    query_comp,
    serialize_comp,
)
from .decomposition import WingDecomposition, wing_decomposition
from .dynamic import (
    UpdateReport,
    UpdateScope,
    affected_edges,
    apply_update,
    apply_update_comp,
    compute_delta,
    k_level_butterfly_count,
    wing_upper_bound,
)
from .equiwing import (
    EquiWingIndex,
    QueryCounters,
    SuperNode,
    build_equiwing,
    deserialize,
    query_equiwing,
    rebuild_edge_counts,
    serialize,
)
from .errors import (
    GraphFormatError,
    IndexFormatError,
    InternalConsistencyError,
    InvalidArgumentError,
    UnknownEdgeError,
    UnknownVertexError,
    WingSearchError,
)
from .generate import generate_bipartite
from .graph import (
    BipartiteGraph,
    butterflies_containing,
    butterfly_edges,
    butterfly_support,
    load_edge_list,
    save_edge_list,
)

__version__ = "0.1.0"
