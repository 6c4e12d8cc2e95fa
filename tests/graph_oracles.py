"""Reference Table 2 clustering and path-length estimates, one node at a time.

These are the plain per-node loops over ``undirected_neighbors`` sets that
:mod:`repro.social.metrics` replaced with numpy passes over one undirected
CSR.  They are slow and easy to check by eye, so the tests hold the numpy
implementations exactly equal to them.  Node sampling mirrors the
library's: the same seeded rng draws the same nodes here and there.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.social import metrics
from repro.social.graph import AnyFollowGraph


def _nodes(graph: AnyFollowGraph) -> np.ndarray:
    return np.fromiter(graph.nodes(), dtype=np.int64, count=graph.node_count)


def local_clustering(graph: AnyFollowGraph, node: int) -> float:
    """Neighbor pairs linked to each other, over all neighbor pairs.

    Pairs count from the earlier neighbor in sorted order; a neighbor with
    more than ``metrics.CLUSTERING_HUB_CUTOFF`` undirected neighbors
    contributes none of its own.
    """
    neighbor_list = sorted(graph.undirected_neighbors(node))
    k = len(neighbor_list)
    if k < 2:
        return 0.0
    links = 0
    for i, u in enumerate(neighbor_list):
        u_neighbors = graph.undirected_neighbors(u)
        if len(u_neighbors) > metrics.CLUSTERING_HUB_CUTOFF:
            continue
        for v in neighbor_list[i + 1 :]:
            if v in u_neighbors:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(
    graph: AnyFollowGraph, rng: np.random.Generator, sample_size: int = 1_000
) -> float:
    nodes = _nodes(graph)
    if len(nodes) == 0:
        return 0.0
    if len(nodes) <= sample_size:
        sample = nodes
    else:
        sample = rng.choice(nodes, size=sample_size, replace=False)
    return float(np.mean([local_clustering(graph, int(node)) for node in sample]))


def bfs_distances(graph: AnyFollowGraph, source: int, cutoff: int = 50) -> dict[int, int]:
    """Undirected BFS distances from ``source``; nodes ``cutoff`` deep are
    not expanded."""
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if depth >= cutoff:
            continue
        for neighbor in graph.undirected_neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def average_path_length(
    graph: AnyFollowGraph,
    rng: np.random.Generator,
    sample_size: int = 50,
    cutoff: int = 50,
) -> float:
    nodes = _nodes(graph)
    if len(nodes) < 2:
        return 0.0
    sources = (
        nodes if len(nodes) <= sample_size else rng.choice(nodes, size=sample_size, replace=False)
    )
    total = 0
    count = 0
    for source in sources:
        for node, distance in bfs_distances(graph, int(source), cutoff).items():
            if node != source:
                total += distance
                count += 1
    return total / count if count else 0.0
