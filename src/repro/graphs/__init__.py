"""Graph substrate: one port layout (regular, padded, mutable), spectra."""

from repro.graphs.balancing import BalancingGraph
from repro.graphs.errors import (
    GraphConstructionError,
    GraphError,
    GraphValidationError,
)
from repro.graphs.families import (
    FAMILY_BUILDERS,
    build,
    register_family,
    circulant,
    circulant_clique,
    complete,
    complete_bipartite_regular,
    cycle,
    hypercube,
    petersen,
    random_regular,
    ring_of_cliques,
    torus,
)
from repro.graphs.datacenter import fat_tree, leaf_spine
from repro.graphs.irregular import (
    PaddedBalancingGraph,
    from_edge_arrays,
    from_irregular_edges,
    from_networkx_irregular,
)
from repro.graphs.mutable import MutableBalancingGraph
from repro.graphs.ports import PortGraph
from repro.graphs.spectral import (
    SpectralProfile,
    continuous_balancing_time,
    eigenvalue_gap,
    eigenvalues,
    error_norm,
    mixing_time_scale,
    second_eigenvalue,
    spectral_profile,
    stationary_distribution,
)

__all__ = [
    "PortGraph",
    "BalancingGraph",
    "GraphError",
    "GraphValidationError",
    "GraphConstructionError",
    "FAMILY_BUILDERS",
    "build",
    "register_family",
    "cycle",
    "complete",
    "circulant",
    "circulant_clique",
    "hypercube",
    "torus",
    "random_regular",
    "petersen",
    "ring_of_cliques",
    "complete_bipartite_regular",
    "SpectralProfile",
    "spectral_profile",
    "eigenvalues",
    "eigenvalue_gap",
    "second_eigenvalue",
    "stationary_distribution",
    "continuous_balancing_time",
    "mixing_time_scale",
    "error_norm",
    "PaddedBalancingGraph",
    "MutableBalancingGraph",
    "from_edge_arrays",
    "from_irregular_edges",
    "from_networkx_irregular",
    "fat_tree",
    "leaf_spine",
]
