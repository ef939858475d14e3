"""Compatible normal odd partitions of cubic multigraphs.

A normal partition splits the edges of a cubic graph into trails so that
every vertex is internal to one trail and the end of exactly one trail
end; odd partitions have all trail lengths odd and induce perfect
matchings.  This package builds, transforms, searches and certifies such
partitions and compatible triples of them.
"""

from .graph import (
    BadParameter,
    CubicGraph,
    Malformed,
    NonCubic,
    bridges,
    generate,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
    perfect_matchings,
    proper_3_edge_coloring,
    to_graph6,
)
from .partition import (
    CycleError,
    InvalidPartition,
    NormalPartition,
    agreement,
    associated_matching,
    is_conformal,
    is_odd,
    length_profile,
    partition_violations,
    trails_from_marking,
    validate_normal,
)
from .switching import CapExceeded, conformal_switch, partition_classes
from .construct import (
    ConformalTriple,
    NoMatching,
    NotBipartite,
    NotThreeEdgeColorable,
    SearchExhausted,
    bipartite_triple,
    conformal_triple,
    conformal_triple_general,
    nop_from_matching,
)
from .families import flower_triple, goldberg_triple, petersen_triple
from .search import (
    enumerate_compatible_triples,
    enumerate_nops,
    fan_raspaud_witness,
    find_compatible_triple,
    find_length3_triple,
    find_nop,
)

__version__ = "0.1.0"
