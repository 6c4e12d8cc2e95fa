"""Reference follow graph and Table 2 estimates, one node at a time.

:class:`DictGraph` is the follow graph as a mutable dict of follower and
followee sets: the plain reference the CSR
:class:`~repro.social.graph.CompiledGraph` is tested against.  The metric
functions are the per-node loops over ``undirected_neighbors`` sets that
:mod:`repro.social.metrics` replaced with numpy passes over one undirected
CSR.  They are slow and easy to check by eye, so the tests hold the numpy
implementations exactly equal to them.  Node sampling mirrors the
library's: the same seeded rng draws the same nodes here and there.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

import numpy as np

from repro.social import metrics
from repro.social.graph import CompiledGraph


class DictGraph:
    """A directed follow graph as dicts of sets; ``u -> v`` means u follows v.

    Nodes keep insertion order.  A self-follow raises and a repeated
    follow is ignored, the platform's semantics.
    """

    def __init__(self) -> None:
        self._followees: dict[int, set[int]] = {}
        self._followers: dict[int, set[int]] = {}

    def add_node(self, user_id: int) -> None:
        self._followees.setdefault(user_id, set())
        self._followers.setdefault(user_id, set())

    def add_follow(self, follower: int, followee: int) -> None:
        if follower == followee:
            raise ValueError(f"self-follow not allowed (user {follower})")
        self.add_node(follower)
        self.add_node(followee)
        self._followees[follower].add(followee)
        self._followers[followee].add(follower)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "DictGraph":
        graph = cls()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        return graph

    @property
    def node_count(self) -> int:
        return len(self._followees)

    @property
    def edge_count(self) -> int:
        return sum(len(followees) for followees in self._followees.values())

    def nodes(self) -> Iterator[int]:
        return iter(self._followees)

    def follows(self, follower: int, followee: int) -> bool:
        return followee in self._followees.get(follower, ())

    def followers_of(self, user_id: int) -> set[int]:
        return set(self._followers.get(user_id, ()))

    def followees_of(self, user_id: int) -> set[int]:
        return set(self._followees.get(user_id, ()))

    def follower_count(self, user_id: int) -> int:
        return len(self._followers.get(user_id, ()))

    def edges(self) -> list[tuple[int, int]]:
        """Every ``(follower, followee)`` edge, sorted."""
        return sorted(
            (follower, followee)
            for follower, followees in self._followees.items()
            for followee in followees
        )

    def undirected_neighbors(self, user_id: int) -> set[int]:
        return self.followers_of(user_id) | self.followees_of(user_id)

    def compile(self) -> CompiledGraph:
        """The same graph as a :class:`CompiledGraph` (sorted node IDs)."""
        src, dst = np.array(self.edges(), dtype=np.int64).reshape(-1, 2).T
        node_ids = np.array(sorted(self._followees), dtype=np.int64)
        return CompiledGraph.from_edge_arrays(src, dst, node_ids=node_ids)


def _nodes(graph: CompiledGraph) -> np.ndarray:
    return np.fromiter(graph.nodes(), dtype=np.int64, count=graph.node_count)


def local_clustering(graph: CompiledGraph, node: int) -> float:
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
    graph: CompiledGraph, rng: np.random.Generator, sample_size: int = 1_000
) -> float:
    nodes = _nodes(graph)
    if len(nodes) == 0:
        return 0.0
    if len(nodes) <= sample_size:
        sample = nodes
    else:
        sample = rng.choice(nodes, size=sample_size, replace=False)
    return float(np.mean([local_clustering(graph, int(node)) for node in sample]))


def bfs_distances(graph: CompiledGraph, source: int, cutoff: int = 50) -> dict[int, int]:
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
    graph: CompiledGraph,
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
