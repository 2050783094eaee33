"""Content-centrality driven collaborative caching toolkit.

Graph machinery, node centralities (including the content-based variant),
Zipf workloads, cache placement schemes, a deterministic interest-routing
simulator, and an experiment harness with a CLI front end.
"""

from .catalog import (ContentCatalog, InterestWorkload, generate_interests,
                      zipf_catalog, zipf_popularity)
from .centrality import (CentralityScores, PowerIterationError,
                         ReplicationPolicy, betweenness_centrality, cbc_exact,
                         cbc_replication, closeness_centrality,
                         concretize_classes, degree_centrality,
                         eigenvector_centrality, export_scores_csv,
                         normalize_minmax)
from .experiment import (ExperimentPlan, ResultTable, default_plan,
                         default_topologies, derive_seed, emit_report,
                         mean_metric, parse_config, plan_from_config,
                         run_experiment, summary_text, table_to_csv)
from .graph import (PathCache, ShortestPathData, Topology, UNREACHABLE,
                    bfs_shortest_paths, connected_components, from_edges,
                    load_topology, serialize_topology)
from .placement import (CacheAssignment, export_assignment_csv,
                        fog_distinct_items, place_fog, place_greedy_popular,
                        place_noncollaborative)
from .simulator import (RoleAssignment, SimMetrics, assign_roles,
                        cache_hit_rate, pooled_hit_rate, run_simulation,
                        success_rate)
from .synthetic import generate_synthetic_topology

__version__ = "0.1.0"
