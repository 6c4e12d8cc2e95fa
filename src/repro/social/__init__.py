"""Follow-graph substrate.

Periscope's social network is a directed follow graph (Table 2: 12M nodes,
231M edges, average degree 38.6, clustering coefficient 0.130, average path
length 3.74, assortativity -0.057).  The paper observes it resembles
Twitter — negative assortativity driven by asymmetric one-to-many follow
relationships — more than Facebook.  This package generates such graphs
and computes the Table 2 metrics.
"""

from repro.social.graph import CompiledGraph
from repro.social.generation import FollowGraphConfig, generate_follow_graph_compiled
from repro.social.metrics import GraphMetrics, compute_graph_metrics
from repro.social.notifications import NotificationService

__all__ = [
    "CompiledGraph",
    "FollowGraphConfig",
    "generate_follow_graph_compiled",
    "GraphMetrics",
    "compute_graph_metrics",
    "NotificationService",
]
