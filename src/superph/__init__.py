"""superph: embedded homology and super-persistent homology of
super-hypergraphs built from graph and point-cloud data."""

from .fields import GF, GF2, QQ
from .delta import (DeltaMorphism, DeltaSet, GradedSubset, SuperHypergraph,
                    delta_closure, from_hypergraph, from_simplicial,
                    full_subset, hypergraph_cone, is_complete, is_regular,
                    max_delta_subset, standard_simplex_delta, validate_morphism)
from .graphs import (MultiGraph, Subgraph, VertexOrder, clique_delta, cliques,
                     completion, is_subgraph, neighborhood_complex, path_complex)
from .faceops import (Clustering, MarkedSubgraph, SubgraphFamily,
                      edge_deletion_complex, extend_graph, link_blowup_faces,
                      partition_faces, primary_vertex_deletion,
                      secondary_vertex_deletion, starting_vertex_faces)
from .homology import (boundary_matrices, embedded_betti, embedded_chain_data,
                       gap_series, geometric_gap_betti, mod2_parity_check,
                       mv_diagnostics, subcomplex_homology)
from .scoring import (PointCloud, WitnessConfig, cech_score, cech_points,
                      constant_scheme, critical_values, is_regular_scheme,
                      min_enclosing_ball, pullback_score, seeded_random_scheme,
                      vr_points, vr_scheme, cech_scheme, vr_score,
                      witness_scheme, witness_score)
from .persistence import (Bar, build_filtration, correlation_matrix,
                          embedded_homology_basis, full_barcode,
                          induced_homology_map, partition_persistence,
                          triangle_report)

__version__ = "0.1.0"
