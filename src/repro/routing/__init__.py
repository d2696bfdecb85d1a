"""Routing layers: up/down ECMP for folded Clos, shortest paths for RRN."""

from .deadlock import (
    distance_class_dependency_graph,
    has_cycle,
    minimal_ecmp_dependency_graph,
    updown_dependency_graph,
)
from .diversity import (
    DiversityCensus,
    ecmp_width_histogram,
    path_diversity_census,
)
from .shortest import (
    k_shortest_paths,
    shortest_path,
    shortest_path_lengths,
)
from .updown import RoutingError, UpDownRouter

__all__ = [
    "UpDownRouter",
    "RoutingError",
    "DiversityCensus",
    "ecmp_width_histogram",
    "path_diversity_census",
    "has_cycle",
    "updown_dependency_graph",
    "minimal_ecmp_dependency_graph",
    "distance_class_dependency_graph",
    "shortest_path",
    "shortest_path_lengths",
    "k_shortest_paths",
]
