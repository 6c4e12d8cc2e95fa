"""Tests for follow-graph generation and Table 2 metrics."""

from __future__ import annotations

from unittest import mock

import graph_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social import metrics as social_metrics
from repro.social.generation import FollowGraphConfig, generate_follow_graph_compiled
from repro.social.graph import CompiledGraph
from repro.social.metrics import (
    TABLE2_REFERENCE,
    average_clustering,
    average_path_length,
    compute_graph_metrics,
    degree_assortativity,
    local_clustering,
)
from repro.social.notifications import NotificationService


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _compiled(edges) -> CompiledGraph:
    """``edges`` through the dict-of-sets oracle (which drops repeats)."""
    return oracle.DictGraph.from_edges(edges).compile()


class TestGeneration:
    def test_node_count(self, rng):
        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=500), rng)
        assert graph.node_count == 500

    def test_mean_degree_near_target(self, rng):
        config = FollowGraphConfig(n_nodes=2000, mean_out_degree=10.0)
        graph = generate_follow_graph_compiled(config, rng)
        avg_total_degree = 2.0 * graph.edge_count / graph.node_count
        assert avg_total_degree == pytest.approx(20.0, rel=0.35)

    def test_heavy_tailed_in_degree(self, rng):
        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=2000), rng)
        in_degrees = sorted(graph.follower_count(n) for n in graph.nodes())
        median = in_degrees[len(in_degrees) // 2]
        assert in_degrees[-1] > 10 * max(median, 1)  # celebrities exist

    def test_deterministic_for_same_seed(self):
        config = FollowGraphConfig(n_nodes=300)
        a = generate_follow_graph_compiled(config, np.random.default_rng(5))
        b = generate_follow_graph_compiled(config, np.random.default_rng(5))
        assert set(a.edges()) == set(b.edges())

    def test_no_self_loops(self, rng):
        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=400), rng)
        assert all(u != v for u, v in graph.edges())

    # Edge counts for fixed (config, seed) pairs.  These pin the triadic
    # closure step to snapshot semantics: closures in a chunk pick "via"
    # and target nodes from the adjacency frozen *before* the chunk, never
    # from edges added inside it.  A rewrite that lets the hot loop read
    # its own writes shifts the closure targets and changes these counts.
    EDGE_COUNT_PINS = [(500, 7, 6766), (2000, 11, 37189)]

    @pytest.mark.parametrize("n_nodes,seed,expected_edges", EDGE_COUNT_PINS)
    def test_edge_counts_pinned_for_fixed_seed(self, n_nodes, seed, expected_edges):
        config = FollowGraphConfig(n_nodes=n_nodes)
        compiled = generate_follow_graph_compiled(config, np.random.default_rng(seed))
        assert compiled.edge_count == expected_edges

    def test_compiled_and_mutable_paths_agree(self):
        # The generator's packed-key build and a dict-of-sets copy compiled
        # through from_edge_arrays give the same CSR arrays.
        config = FollowGraphConfig(n_nodes=400)
        compiled = generate_follow_graph_compiled(config, np.random.default_rng(3))
        edges = list(compiled.edges())
        mutable = oracle.DictGraph()
        for index in np.random.default_rng(4).permutation(len(edges)):
            mutable.add_follow(*edges[index])
        for node in compiled.nodes():
            mutable.add_node(node)
            assert compiled.follower_count(node) == mutable.follower_count(node)
        recompiled = mutable.compile()
        for name in ("node_ids", "indptr", "indices", "rindptr", "rindices"):
            assert np.array_equal(getattr(recompiled, name), getattr(compiled, name)), name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=1)
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=100, seed_nodes=1)
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=100, pref_prob=0.8, triadic_prob=0.5)
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=100, reciprocation_prob=1.5)

    def test_table2_shape_holds(self, rng):
        """The generated graph shows the paper's structural signature."""
        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=3000), rng)
        metrics = compute_graph_metrics(graph, rng, clustering_sample=300, path_sample=20)
        assert metrics.assortativity < 0.05  # Twitter-like, not Facebook-like
        assert 0.02 < metrics.clustering_coefficient < 0.4
        assert 2.0 < metrics.avg_path_length < 6.0


class TestMetrics:
    def test_local_clustering_triangle(self):
        graph = _compiled([(1, 2), (2, 3), (3, 1)])
        assert local_clustering(graph, 1) == pytest.approx(1.0)

    def test_local_clustering_star_is_zero(self):
        graph = _compiled([(1, 2), (1, 3), (1, 4)])
        assert local_clustering(graph, 1) == 0.0

    def test_local_clustering_degree_one(self):
        graph = _compiled([(1, 2)])
        assert local_clustering(graph, 1) == 0.0

    def test_average_clustering_bounds(self, rng):
        graph = _compiled([(1, 2), (2, 3), (3, 1), (3, 4)])
        value = average_clustering(graph, rng)
        assert 0.0 <= value <= 1.0

    def test_path_length_on_chain(self, rng):
        graph = _compiled([(1, 2), (2, 3), (3, 4)])
        # Undirected chain of 4: mean pairwise distance = 20/12.
        assert average_path_length(graph, rng, sample_size=4) == pytest.approx(20 / 12)

    def test_assortativity_negative_for_star(self):
        """A star graph is maximally disassortative."""
        edges = [(0, hub) for hub in [99]] + [(i, 99) for i in range(1, 30)]
        graph = _compiled(edges)
        assert degree_assortativity(graph) <= 0.0

    def test_assortativity_zero_on_tiny_graph(self):
        graph = _compiled([(1, 2)])
        assert degree_assortativity(graph) == 0.0

    def test_compute_graph_metrics_row(self, rng, small_graph):
        metrics = compute_graph_metrics(small_graph, rng, clustering_sample=100, path_sample=10)
        row = metrics.as_row()
        assert row["nodes"] == small_graph.node_count
        assert row["edges"] == small_graph.edge_count
        assert row["avg_degree"] == pytest.approx(
            2 * small_graph.edge_count / small_graph.node_count, abs=0.01
        )

    def test_reference_rows_match_paper(self):
        periscope = TABLE2_REFERENCE["Periscope"]
        assert periscope["avg_degree"] == 38.6
        assert periscope["assortativity"] == -0.057
        assert TABLE2_REFERENCE["Facebook"]["assortativity"] > 0
        assert TABLE2_REFERENCE["Twitter"]["assortativity"] < 0


class TestSampledAssortativity:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_follow_graph_compiled(
            FollowGraphConfig(n_nodes=800), np.random.default_rng(31)
        )

    def test_full_source_sample_equals_exact(self, graph, rng):
        # Sampling every source node covers every edge, so the estimator
        # must reproduce the exact correlation (edge order is irrelevant
        # to Pearson r).
        exact = degree_assortativity(graph)
        sampled = degree_assortativity(
            graph, rng, max_exact_nodes=0, source_sample=graph.node_count
        )
        assert sampled == pytest.approx(exact, abs=1e-9)

    def test_partial_sample_close_to_exact(self, graph):
        exact = degree_assortativity(graph)
        sampled = degree_assortativity(
            graph,
            np.random.default_rng(5),
            max_exact_nodes=0,
            source_sample=400,
        )
        assert sampled == pytest.approx(exact, abs=0.1)

    def test_sampling_is_deterministic_for_a_seed(self, graph):
        a = degree_assortativity(
            graph, np.random.default_rng(12), max_exact_nodes=0, source_sample=200
        )
        b = degree_assortativity(
            graph, np.random.default_rng(12), max_exact_nodes=0, source_sample=200
        )
        assert a == b

    def test_small_graph_stays_exact_even_with_rng(self, graph, rng):
        # Below the node threshold the rng must not be consulted.
        before = rng.bit_generator.state
        value = degree_assortativity(graph, rng)
        assert rng.bit_generator.state == before
        assert value == degree_assortativity(graph)


class TestClusteringHubGuard:
    def test_huge_hub_neighbors_are_skipped(self, monkeypatch):
        # The guard used to be a no-op `continue` at the end of the loop
        # body; with a cutoff of 0 every neighbor counts as a hub and the
        # coefficient must collapse to zero.
        from repro.social import metrics as social_metrics

        edges = [(1, 2), (2, 3), (3, 1)]  # a triangle: clustering 1.0
        graph = _compiled(edges)
        assert local_clustering(graph, 1) == 1.0
        monkeypatch.setattr(social_metrics, "CLUSTERING_HUB_CUTOFF", 0)
        assert local_clustering(graph, 1) == 0.0


def _relabelled(graph: CompiledGraph, seed: int) -> oracle.DictGraph:
    """``graph`` as a dict-of-sets graph with sparse, shuffled IDs whose
    insertion order differs from their sorted order."""
    rng = np.random.default_rng(seed)
    ids = 10_000 + 37 * rng.permutation(graph.node_count)
    relabelled = oracle.DictGraph()
    for index in rng.permutation(graph.node_count):
        relabelled.add_node(int(ids[index]))
    src, dst = graph.edge_arrays()
    for edge in rng.permutation(len(src)):
        relabelled.add_follow(int(ids[src[edge]]), int(ids[dst[edge]]))
    return relabelled


def _assert_matches_oracle(graph, seed: int, sample_size: int) -> None:
    assert average_clustering(
        graph, np.random.default_rng(seed), sample_size
    ) == oracle.average_clustering(graph, np.random.default_rng(seed), sample_size)
    assert average_path_length(
        graph, np.random.default_rng(seed), sample_size
    ) == oracle.average_path_length(
        graph, np.random.default_rng(seed), sample_size, social_metrics.BFS_CUTOFF
    )


class TestNumpyMetricsMatchOracles:
    """Exact equality with the per-node reference loops in graph_oracles."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return generate_follow_graph_compiled(
            FollowGraphConfig(n_nodes=400), np.random.default_rng(11)
        )

    @pytest.mark.parametrize("sample_size", [25, 1_000])
    def test_seeded_compiled_graph(self, compiled, sample_size):
        _assert_matches_oracle(compiled, seed=5, sample_size=sample_size)

    def test_compute_graph_metrics_draws_the_same_samples(self, compiled):
        rng = np.random.default_rng(9)
        clustering = oracle.average_clustering(compiled, rng, 150)
        path = oracle.average_path_length(compiled, rng, 12)
        metrics = compute_graph_metrics(compiled, np.random.default_rng(9), 150, 12)
        assert metrics.clustering_coefficient == clustering
        assert metrics.avg_path_length == path

    @pytest.mark.parametrize("sample_size", [40, 1_000])
    def test_follow_graph_with_shuffled_sparse_ids(self, compiled, sample_size):
        relabelled = _relabelled(compiled, seed=3)
        assert list(relabelled.nodes()) != sorted(relabelled.nodes())
        graph = relabelled.compile()
        _assert_matches_oracle(graph, seed=8, sample_size=sample_size)
        # Only the labels changed, so the unsampled metrics match the
        # original's (up to the order of a float sum).
        assert average_clustering(graph, np.random.default_rng(0)) == pytest.approx(
            average_clustering(compiled, np.random.default_rng(0)), abs=1e-12
        )
        assert degree_assortativity(graph) == pytest.approx(
            degree_assortativity(compiled), abs=1e-12
        )

    def test_disconnected_components_and_isolated_nodes(self):
        edges = [(1, 2), (2, 3), (3, 1), (3, 4), (10, 11), (11, 12), (20, 21)]
        mutable = oracle.DictGraph.from_edges(edges)
        for lonely in (7, 30, 15):
            mutable.add_node(lonely)
        graph = mutable.compile()
        assert graph.node_count == 12
        for seed in range(3):
            _assert_matches_oracle(graph, seed, sample_size=5)
            _assert_matches_oracle(graph, seed, sample_size=100)
        # Only reachable ordered pairs count: 12 pairs summing to 16 hops
        # in {1, 2, 3, 4}, 6 summing to 8 in {10, 11, 12}, 2 in {20, 21}.
        full = average_path_length(graph, np.random.default_rng(0), sample_size=100)
        assert full == (16 + 8 + 2) / (12 + 6 + 2)

    def test_mutual_follows_are_one_undirected_neighbor(self):
        # 1 and 2 follow each other, and so do 2 and 3: node 1 has two
        # neighbors {2, 3} that are linked once, so clustering is exactly 1.
        graph = _compiled([(1, 2), (2, 1), (1, 3), (2, 3), (3, 2)])
        assert graph.edge_count == 5
        assert local_clustering(graph, 1) == 1.0
        assert average_clustering(graph, np.random.default_rng(0)) == 1.0
        assert average_path_length(graph, np.random.default_rng(0)) == 1.0

    @pytest.mark.parametrize("cutoff,expected", [(0, 0.0), (1, 1.0), (2, 20 / 14)])
    def test_small_bfs_cutoff(self, cutoff, expected, monkeypatch):
        # An undirected chain 1-2-3-4-5: with cutoff c only pairs at most
        # c hops apart are reached.
        graph = _compiled([(1, 2), (3, 2), (3, 4), (4, 5)])
        monkeypatch.setattr(social_metrics, "BFS_CUTOFF", cutoff)
        assert average_path_length(graph, np.random.default_rng(0), 10) == expected
        _assert_matches_oracle(graph, seed=1, sample_size=3)

    def test_intermediate_hub_cutoff_uses_sorted_neighbor_order(self, compiled, monkeypatch):
        # Some neighbors are hubs at this cutoff, so pair counting depends
        # on neighbor order; both sides count in sorted order.
        assert max(len(compiled.undirected_neighbors(n)) for n in compiled.nodes()) > 40
        monkeypatch.setattr(social_metrics, "CLUSTERING_HUB_CUTOFF", 40)
        _assert_matches_oracle(compiled, seed=2, sample_size=80)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
            max_size=40,
        ),
        seed=st.integers(0, 2**16),
        sample_size=st.integers(1, 14),
        cutoff=st.integers(0, 6),
    )
    def test_random_small_graphs(self, edges, seed, sample_size, cutoff):
        graph = _compiled(edges)
        with mock.patch.object(social_metrics, "BFS_CUTOFF", cutoff):
            _assert_matches_oracle(graph, seed, sample_size)


class TestNotifications:
    def test_notifies_all_followers(self, small_graph):
        service = NotificationService(graph=small_graph)
        broadcaster = next(iter(small_graph.nodes()))
        notified = service.notify_followers(broadcaster)
        assert np.array_equal(notified, small_graph.followers_of(broadcaster))
        assert service.notifications_sent == len(notified)

    def test_joining_followers_subset(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=0.5)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        joiners = service.joining_followers(broadcaster, rng)
        assert set(joiners) <= set(small_graph.followers_of(broadcaster).tolist())

    def test_zero_open_rate_joins_nobody(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=0.0)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        assert service.joining_followers(broadcaster, rng) == []

    def test_full_open_rate_joins_everyone(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=1.0)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        joiners = service.joining_followers(broadcaster, rng)
        assert joiners == small_graph.followers_of(broadcaster).tolist()

    def test_binomial_shortcut_for_large_fanouts(self, rng):
        graph = CompiledGraph.from_edge_arrays(np.arange(1, 500), np.zeros(499), n_nodes=500)
        service = NotificationService(graph=graph, open_rate=0.1, max_sampled_followers=100)
        joiners = service.joining_followers(0, rng)
        assert 10 <= len(joiners) <= 120  # ~50 expected
        assert len(set(joiners)) == len(joiners)

    def test_follower_less_broadcaster(self, rng):
        graph = CompiledGraph.from_edge_arrays([2, 3], [1, 1], node_ids=np.array([1, 2, 3, 9]))
        service = NotificationService(graph=graph, open_rate=1.0)
        for broadcaster in (2, 9, 50):  # a followee, an isolated node, an unknown ID
            assert service.joining_followers(broadcaster, rng) == []
        assert service.notifications_sent == 0

    def test_many_follower_broadcaster(self, rng):
        graph = CompiledGraph.from_edge_arrays(
            [70, 20, 40, 20], [10, 10, 10, 40], node_ids=np.array([10, 20, 40, 70])
        )
        service = NotificationService(graph=graph, open_rate=1.0)
        assert service.joining_followers(10, rng) == [20, 40, 70]
        assert service.joining_followers(40, rng) == [20]
        assert service.notifications_sent == 4

    def test_invalid_open_rate_rejected(self, small_graph):
        with pytest.raises(ValueError):
            NotificationService(graph=small_graph, open_rate=1.5)

    def test_expected_joiners(self, small_graph):
        service = NotificationService(graph=small_graph, open_rate=0.1)
        broadcaster = next(iter(small_graph.nodes()))
        expected = service.expected_notified_joiners(broadcaster)
        assert expected == pytest.approx(
            small_graph.follower_count(broadcaster) * 0.1
        )


class TestDegreeDistribution:
    def test_ccdf_monotone_decreasing(self, rng):
        from repro.social.metrics import degree_ccdf

        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=1000), rng)
        degrees, ccdf = degree_ccdf(graph, kind="in")
        assert list(degrees) == sorted(degrees)
        assert all(b <= a for a, b in zip(ccdf, ccdf[1:]))
        assert ccdf[0] <= 1.0
        assert ccdf[-1] > 0.0

    def test_ccdf_kinds(self, rng, small_graph):
        from repro.social.metrics import degree_ccdf

        for kind in ("in", "out", "total"):
            degrees, ccdf = degree_ccdf(small_graph, kind=kind)
            assert len(degrees) == len(ccdf)
        with pytest.raises(ValueError):
            degree_ccdf(small_graph, kind="sideways")

    def test_powerlaw_alpha_in_plausible_range(self, rng):
        from repro.social.metrics import estimate_powerlaw_alpha

        graph = generate_follow_graph_compiled(FollowGraphConfig(n_nodes=3000), rng)
        alpha = estimate_powerlaw_alpha(graph, kind="in", x_min=5)
        assert 1.3 < alpha < 4.0  # heavy-tailed, social-graph-like

    def test_powerlaw_validation(self, rng, small_graph):
        from repro.social.metrics import estimate_powerlaw_alpha

        with pytest.raises(ValueError):
            estimate_powerlaw_alpha(small_graph, x_min=1)
