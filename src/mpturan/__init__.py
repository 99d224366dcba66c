"""Minimum-degree thresholds for cliques in balanced multipartite graphs.

The package is organized around one quantity: f(n, r, t), the largest
minimum degree among r-partite graphs with parts of size n that contain
no clique on t + 1 vertices.

* :mod:`mpturan.bounds` evaluates every known closed form and bound in
  exact integer and rational arithmetic.
* :mod:`mpturan.constructions` builds the extremal graphs behind the
  lower bounds explicitly, re-measuring every claimed degree.
* :mod:`mpturan.verifier` checks cliques, crossing independent sets,
  colorings, and degree claims by exhaustive search and emits
  machine-checkable certificates.
* :mod:`mpturan.oracle` recomputes f and its complementary covering form
  by brute force on tiny instances, as independent ground truth.
* :mod:`mpturan.graphio` reads and writes graphs as canonical JSON or
  DIMACS.
* :mod:`mpturan.cli` exposes it all as the ``mpturan`` command.
"""

from .bounds import (
    Bound,
    BoundReport,
    aes_threshold,
    apex_value,
    best_known_bounds,
    ceil_div,
    chromatic_upper,
    composition_bound,
    decompose,
    exact_value_cases,
    odd_t_gap,
    sliced_value,
    transfer_large_n,
    transfer_large_r,
    transversal_clique_value,
    turan_sandwich,
)
from .constructions import (
    ConstructionOutput,
    apex_blowup,
    block_composition,
    default_inner_graph,
    sliced_blowup,
    turan_blowup,
)
from .errors import (
    DomainError,
    GraphStructureError,
    InternalConsistencyError,
    NotApplicableError,
    SizeCapError,
    UnknownClaimError,
)
from .graphio import (
    dumps_graph,
    from_dimacs,
    graph_from_json_dict,
    graph_to_json_dict,
    loads_graph,
    to_dimacs,
)
from .graphs import (
    ColorPartition,
    MultipartiteGraph,
    complete_multipartite,
    empty_graph,
    from_edges,
)
from .oracle import (
    DEFAULT_CAP,
    MODE_DELTA,
    MODE_F,
    OracleResult,
    duality_audit,
    oracle_delta,
    oracle_f,
)
from .verifier import (
    CONFIRMED,
    REFUTED,
    VACUOUS,
    Certificate,
    PropertyCheck,
    aes_check,
    certify,
    find_clique,
    find_coloring,
    find_crossing_independent,
)

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "BoundReport",
    "Certificate",
    "ColorPartition",
    "CONFIRMED",
    "ConstructionOutput",
    "DEFAULT_CAP",
    "DomainError",
    "GraphStructureError",
    "InternalConsistencyError",
    "MODE_DELTA",
    "MODE_F",
    "MultipartiteGraph",
    "NotApplicableError",
    "OracleResult",
    "PropertyCheck",
    "REFUTED",
    "SizeCapError",
    "UnknownClaimError",
    "VACUOUS",
    "aes_check",
    "aes_threshold",
    "apex_blowup",
    "apex_value",
    "best_known_bounds",
    "block_composition",
    "ceil_div",
    "certify",
    "chromatic_upper",
    "complete_multipartite",
    "composition_bound",
    "decompose",
    "default_inner_graph",
    "duality_audit",
    "dumps_graph",
    "empty_graph",
    "exact_value_cases",
    "find_clique",
    "find_coloring",
    "find_crossing_independent",
    "from_dimacs",
    "from_edges",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "loads_graph",
    "odd_t_gap",
    "oracle_delta",
    "oracle_f",
    "sliced_blowup",
    "sliced_value",
    "to_dimacs",
    "transfer_large_n",
    "transfer_large_r",
    "transversal_clique_value",
    "turan_blowup",
    "turan_sandwich",
    "__version__",
]
