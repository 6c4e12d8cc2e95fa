"""Tests for the follow-graph crawler."""

from __future__ import annotations

import numpy as np
import pytest
from graph_oracles import DictGraph

from repro.crawler.graph_crawler import FollowGraphCrawler, GraphApi
from repro.crawler.rate_limit import TokenBucket
from repro.social.generation import FollowGraphConfig, generate_follow_graph_compiled
from repro.social.graph import CompiledGraph
from repro.social.metrics import compute_graph_metrics


@pytest.fixture
def truth(rng):
    return generate_follow_graph_compiled(
        FollowGraphConfig(n_nodes=250, mean_out_degree=6.0), rng
    )


def _same_graph(a: CompiledGraph, b: CompiledGraph) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("node_ids", "indptr", "indices", "rindptr", "rindices")
    )


class TestGraphApi:
    def test_pagination(self):
        graph = CompiledGraph.from_edge_arrays(
            np.arange(1, 251), np.full(250, 999), node_ids=np.append(np.arange(1, 251), 999)
        )
        api = GraphApi(graph, page_size=100)
        page0, more0 = api.follower_page(999, 0)
        page1, more1 = api.follower_page(999, 1)
        page2, more2 = api.follower_page(999, 2)
        assert len(page0) == len(page1) == 100
        assert len(page2) == 50
        assert (more0, more1, more2) == (True, True, False)
        assert api.requests_served == 3

    def test_pagination_with_sparse_ids(self):
        # Shuffled, non-contiguous IDs: pages come out in ID order and
        # concatenate to the oracle's sorted lists.
        rng = np.random.default_rng(3)
        ids = (5_000 + 41 * rng.permutation(60)).tolist()
        oracle = DictGraph()
        for follower in ids[1:]:
            oracle.add_follow(follower, ids[0])
        for followee in ids[1:40:3]:
            oracle.add_follow(ids[0], followee)
        api = GraphApi(oracle.compile(), page_size=7)
        for fetch, expected in (
            (api.follower_page, sorted(oracle.followers_of(ids[0]))),
            (api.followee_page, sorted(oracle.followees_of(ids[0]))),
        ):
            pages, more, page = [], True, 0
            while more:
                members, more = fetch(ids[0], page)
                assert len(members) == 7 or not more
                pages.extend(members)
                page += 1
            assert pages == expected
        assert api.follower_page(ids[0], 100) == ([], False)  # past the end
        assert api.follower_page(4_999, 0) == ([], False)  # unknown user

    def test_empty_lists(self):
        graph = CompiledGraph.from_edge_arrays([], [], node_ids=np.array([1]))
        api = GraphApi(graph)
        members, has_more = api.follower_page(1, 0)
        assert members == []
        assert not has_more

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphApi(CompiledGraph.from_edge_arrays([], [], n_nodes=0), page_size=0)


class TestFollowGraphCrawler:
    def test_full_crawl_recovers_connected_component(self, truth):
        api = GraphApi(truth)
        crawler = FollowGraphCrawler(api)
        # The generator's graph is connected (seed clique + attachment).
        result = crawler.crawl(seeds=[0])
        assert result.edge_coverage(truth) == 1.0
        assert result.users_visited == truth.node_count
        assert result.frontier_remaining == 0
        assert _same_graph(result.crawled, truth)

    def test_crawled_graph_reproduces_metrics(self, truth, rng):
        """Table 2 computed from the crawl matches the ground truth."""
        api = GraphApi(truth)
        result = FollowGraphCrawler(api).crawl(seeds=[0])
        crawled_metrics = compute_graph_metrics(
            result.crawled, np.random.default_rng(0), clustering_sample=100, path_sample=10
        )
        truth_metrics = compute_graph_metrics(
            truth, np.random.default_rng(0), clustering_sample=100, path_sample=10
        )
        assert crawled_metrics == truth_metrics

    def test_request_budget_truncates_crawl(self, truth):
        api = GraphApi(truth)
        crawler = FollowGraphCrawler(api, request_budget=20)
        result = crawler.crawl(seeds=[0])
        assert result.requests_made <= 20
        assert result.edge_coverage(truth) < 1.0
        assert result.frontier_remaining > 0
        assert set(result.crawled.edges()) < set(truth.edges())

    def test_rate_limit_with_spacing_completes(self, truth):
        bucket = TokenBucket(rate_per_s=1000.0, capacity=10.0)
        crawler = FollowGraphCrawler(GraphApi(truth), rate_limit=bucket)
        result = crawler.crawl(seeds=[0], request_spacing_s=0.01)
        assert result.edge_coverage(truth) == 1.0

    def test_rate_limit_without_refill_truncates(self, truth):
        bucket = TokenBucket(rate_per_s=0.001, capacity=15.0)
        crawler = FollowGraphCrawler(GraphApi(truth), rate_limit=bucket)
        result = crawler.crawl(seeds=[0], request_spacing_s=0.0)
        assert result.requests_made <= 15
        assert result.edge_coverage(truth) < 1.0

    def test_disconnected_node_needs_its_own_seed(self):
        mutable = DictGraph.from_edges([(1, 2)])
        mutable.add_node(99)  # isolated
        graph = mutable.compile()
        api = GraphApi(graph)
        partial = FollowGraphCrawler(api).crawl(seeds=[1])
        assert 99 not in partial.crawled
        complete = FollowGraphCrawler(GraphApi(graph)).crawl(seeds=[1, 99])
        assert 99 in complete.crawled
        assert _same_graph(complete.crawled, graph)

    def test_validation(self, truth):
        with pytest.raises(ValueError):
            FollowGraphCrawler(GraphApi(truth), request_budget=0)
        with pytest.raises(ValueError):
            FollowGraphCrawler(GraphApi(truth)).crawl(seeds=[])
