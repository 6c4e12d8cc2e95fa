"""Tests for the follow graph structure (the CSR :class:`CompiledGraph`)."""

from __future__ import annotations

import numpy as np
import pytest
from graph_oracles import DictGraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.graph import CompiledGraph


def _graph(edges, extra_nodes=()) -> CompiledGraph:
    """``edges`` (deduplicated, in first-seen order) as a compiled graph
    over their endpoints plus ``extra_nodes``."""
    unique = list(dict.fromkeys(edges))
    src = np.array([u for u, _ in unique], dtype=np.int64)
    dst = np.array([v for _, v in unique], dtype=np.int64)
    node_ids = np.unique(np.concatenate((src, dst, np.array(extra_nodes, dtype=np.int64))))
    return CompiledGraph.from_edge_arrays(src, dst, node_ids=node_ids)


#: Sparse, shuffled user IDs: ``_SPARSE_IDS[k]`` for small ``k`` is never
#: ``0..n-1`` and its order differs from ``k``'s, so every query goes
#: through the ``searchsorted`` translation.
_SPARSE_IDS = (1_000 + 37 * np.random.default_rng(0).permutation(22)).tolist()
_UNKNOWN_IDS = [0, 999, 1_001, _SPARSE_IDS[21]]

sparse_edges = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20))
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: (_SPARSE_IDS[e[0]], _SPARSE_IDS[e[1]])),
    max_size=80,
)


class TestFollowGraph:
    def test_edge_endpoints_are_nodes(self):
        graph = _graph([(1, 2)])
        assert 1 in graph
        assert 2 in graph
        assert 3 not in graph
        assert graph.node_count == 2

    def test_follow_is_directional(self):
        graph = _graph([(1, 2)])
        assert graph.follows(1, 2)
        assert not graph.follows(2, 1)

    def test_self_follow_rejected(self):
        with pytest.raises(ValueError, match="self-follow"):
            CompiledGraph.from_edge_arrays([1, 1], [2, 1], n_nodes=3)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CompiledGraph.from_edge_arrays([1, 1, 2], [2, 2, 0], n_nodes=3)
        with pytest.raises(ValueError, match="duplicate"):
            CompiledGraph.from_edge_arrays(
                [50, 70, 50], [70, 50, 70], node_ids=np.array([50, 70])
            )

    def test_unknown_endpoint_rejected(self):
        # 60 sorts between two known IDs, so it must not be taken for one.
        with pytest.raises(ValueError, match="outside the node set"):
            CompiledGraph.from_edge_arrays([50], [60], node_ids=np.array([50, 70]))
        with pytest.raises(ValueError, match="outside the node set"):
            CompiledGraph.from_edge_arrays([0], [3], n_nodes=3)

    def test_followers_and_followees(self):
        graph = _graph([(1, 3), (2, 3), (3, 4)])
        assert graph.followers_of(3).tolist() == [1, 2]
        assert graph.followees_of(3).tolist() == [4]
        assert graph.follower_count(3) == 2
        assert graph.followee_count(3) == 1

    def test_degree_counts_both_directions(self):
        graph = _graph([(1, 2), (3, 2), (2, 4)])
        assert graph.degree(2) == 3

    def test_edges_iteration(self):
        graph = _graph([(1, 2), (2, 3), (3, 1)])
        assert set(graph.edges()) == {(1, 2), (2, 3), (3, 1)}

    def test_undirected_neighbors(self):
        graph = _graph([(1, 2), (3, 1)])
        assert graph.undirected_neighbors(1) == {2, 3}

    def test_unknown_node_queries_are_empty(self):
        graph = _graph([(10, 20)], extra_nodes=[40])
        assert graph.followers_of(99).tolist() == []
        assert graph.followees_of(30).tolist() == []
        assert graph.followee_count(99) == 0
        assert graph.follower_count(5) == 0
        assert not graph.follows(30, 20)
        assert graph.undirected_neighbors(30) == set()
        assert graph.in_degree_of(np.array([5, 10, 20, 30, 40, 99])).tolist() == [0, 0, 1, 0, 0, 0]

    @given(edges=sparse_edges)
    @settings(max_examples=50, deadline=None)
    def test_edge_count_matches_iteration(self, edges):
        graph = _graph(edges)
        listed = list(graph.edges())
        assert len(listed) == graph.edge_count == len(set(edges))
        assert len(set(listed)) == graph.edge_count  # no duplicates

    @given(edges=sparse_edges)
    @settings(max_examples=50, deadline=None)
    def test_follower_followee_symmetry(self, edges):
        """u in followers_of(v) iff v in followees_of(u)."""
        graph = _graph(edges)
        for node in graph.nodes():
            for follower in graph.followers_of(node).tolist():
                assert node in graph.followees_of(follower)
            for followee in graph.followees_of(node).tolist():
                assert node in graph.followers_of(followee)

    @given(edges=sparse_edges)
    @settings(max_examples=50, deadline=None)
    def test_total_degree_is_twice_edges(self, edges):
        graph = _graph(edges)
        total_degree = sum(graph.degree(node) for node in graph.nodes())
        assert total_degree == 2 * graph.edge_count
        assert int(graph.total_degrees().sum()) == 2 * graph.edge_count

    @given(edges=sparse_edges, seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_of_sets_oracle(self, edges, seed):
        """Every query agrees with the dict-of-sets reference, whatever
        order the oracle saw the nodes and edges in."""
        rng = np.random.default_rng(seed)
        oracle = DictGraph()
        for index in rng.permutation(len(edges)):
            oracle.add_follow(*edges[index])
        graph = oracle.compile()
        assert graph.node_count == oracle.node_count
        assert graph.edge_count == oracle.edge_count
        known = sorted(oracle.nodes())
        probes = known + _UNKNOWN_IDS
        for user in probes:
            assert graph.followers_of(user).tolist() == sorted(oracle.followers_of(user))
            assert graph.followees_of(user).tolist() == sorted(oracle.followees_of(user))
            assert graph.undirected_neighbors(user) == oracle.undirected_neighbors(user)
        assert graph.in_degree_of(np.array(probes)).tolist() == [
            oracle.follower_count(user) for user in probes
        ]
        for follower in probes:
            for followee in probes:
                assert graph.follows(follower, followee) == oracle.follows(follower, followee)
