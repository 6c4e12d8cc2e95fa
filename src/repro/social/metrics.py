"""Graph metrics for Table 2.

Computes the statistics the paper reports for the Periscope follow graph
and compares against its Facebook/Twitter reference rows: node and edge
counts, average (total) degree, average clustering coefficient, average
shortest-path length, and degree assortativity.

Clustering and path length are estimated on random node samples — exact
computation is quadratic and the paper's own numbers for 12M-node graphs
are necessarily sampled too.  Both run on one undirected CSR built per
call: the path-length BFS expands a whole frontier per numpy step, and
clustering intersects sorted neighbor lists with ``searchsorted``, so
neither walks nodes one at a time in Python.

Assortativity (Pearson correlation of total degrees across directed
edges, the convention the referenced Twitter/Facebook studies use) is
exact on small graphs and switches to a seeded source-node sampling
estimator above :data:`ASSORTATIVITY_EXACT_MAX_NODES` nodes, where the
all-edges scan made scale >= 0.01 graphs intractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.social.graph import _PACK_MASK, _PACK_SHIFT, CompiledGraph


@dataclass(frozen=True)
class GraphMetrics:
    """The Table 2 row for one social graph."""

    nodes: int
    edges: int
    avg_degree: float
    clustering_coefficient: float
    avg_path_length: float
    assortativity: float

    def as_row(self) -> dict[str, float]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "avg_degree": round(self.avg_degree, 2),
            "clustering_coef": round(self.clustering_coefficient, 3),
            "avg_path": round(self.avg_path_length, 2),
            "assortativity": round(self.assortativity, 3),
        }


#: Reference rows from Table 2 of the paper.
TABLE2_REFERENCE: dict[str, dict[str, float]] = {
    "Periscope": {
        "nodes": 12_000_000,
        "edges": 231_000_000,
        "avg_degree": 38.6,
        "clustering_coef": 0.130,
        "avg_path": 3.74,
        "assortativity": -0.057,
    },
    "Facebook": {
        "nodes": 1_220_000,
        "edges": 121_000_000,
        "avg_degree": 199.6,
        "clustering_coef": 0.175,
        "avg_path": 5.13,
        "assortativity": 0.17,
    },
    "Twitter": {
        "nodes": 1_620_000,
        "edges": 11_300_000,
        "avg_degree": 13.99,
        "clustering_coef": 0.065,
        "avg_path": 6.49,
        "assortativity": -0.19,
    },
}


#: Undirected degree above which a neighbor is skipped in clustering counts.
CLUSTERING_HUB_CUTOFF = 50_000

#: Hop limit of the path-length BFS: nodes this deep are not expanded.
BFS_CUTOFF = 50

#: Neighbor entries the clustering count gathers per step.  Its working
#: memory is a few int64 arrays of this length (a few MiB), however heavy
#: the sampled nodes' neighborhoods are; the whole gather at default scale
#: is about 3M entries.
_CLUSTERING_GATHER_BUDGET = 1 << 16


def _degree_values(graph: CompiledGraph, kind: str) -> np.ndarray:
    """Per-node degrees of the requested ``kind`` ("in"/"out"/"total")."""
    if kind == "in":
        return graph.in_degrees()
    if kind == "out":
        return graph.out_degrees()
    if kind == "total":
        return graph.total_degrees()
    raise ValueError(f"unknown degree kind {kind!r}")


def _gather(
    indices: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The slices ``indices[lo[i]:hi[i]]`` laid end to end, and their lengths."""
    counts = hi - lo
    starts = np.zeros(len(lo) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    offsets = np.arange(starts[-1], dtype=np.int64) + np.repeat(lo - starts[:-1], counts)
    return indices[offsets], counts


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int arrays as a plain sort and neighbor compare,
    several times faster than numpy's own on wide int64 keys."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(frozen=True)
class _UndirectedCSR:
    """The follow graph with edge direction dropped, as one CSR.

    Row ``i`` holds the sorted CSR indices of node ``node_ids[i]``'s
    followers and followees; a mutual follow appears once.  Its neighbors
    above ``i`` start at ``above[i]``.
    """

    node_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    above: np.ndarray

    @classmethod
    def of(cls, graph: CompiledGraph) -> "_UndirectedCSR":
        """Pack both directions of every edge as ``a << 32 | b`` keys; one
        sort dedupes them, one ``searchsorted`` cuts the rows."""
        n = graph.node_count
        src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
        dst = graph.indices
        keys = _sorted_unique(
            np.concatenate(((src << _PACK_SHIFT) | dst, (dst << _PACK_SHIFT) | src))
        )
        rows = np.arange(n + 1, dtype=np.int64)
        indptr = np.searchsorted(keys, rows << _PACK_SHIFT)
        above = np.searchsorted(keys, (rows[:-1] << _PACK_SHIFT) | rows[:-1])
        return cls(graph.node_ids, indptr, keys & _PACK_MASK, above)

    def neighbors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbor lists of ``rows`` laid end to end, and their lengths."""
        return _gather(self.indices, self.indptr[rows], self.indptr[rows + 1])

    def rows_of(self, user_ids: np.ndarray) -> np.ndarray:
        """CSR rows of known ``user_ids``, in the given order."""
        return np.searchsorted(self.node_ids, user_ids)


def _clustering_coefficients(csr: _UndirectedCSR, rows: np.ndarray) -> np.ndarray:
    """Local clustering coefficient of each CSR row in ``rows``, in order.

    The sampled rows' sorted neighbor lists become one strictly
    increasing haystack of ``sample_position * n + neighbor`` keys.  For
    each non-hub neighbor ``u`` of a row, the neighbors of ``u`` above
    ``u`` (exactly those that can sit after ``u`` in the row's sorted
    list) are looked up in that row's stretch; each hit is one link, so
    every neighbor pair counts at most once.
    """
    n = len(csr.node_ids)
    degrees = np.diff(csr.indptr)
    neighbors, k = csr.neighbors(rows)
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), k)
    haystack = owner * n + neighbors
    links = np.zeros(len(rows), dtype=np.int64)
    not_hub = degrees[neighbors] <= CLUSTERING_HUB_CUTOFF
    searched, searched_owner = neighbors[not_hub], owner[not_hub]
    lo, hi = csr.above[searched], csr.indptr[searched + 1]
    steps = np.cumsum(hi - lo) // _CLUSTERING_GATHER_BUDGET
    for part in np.split(np.arange(len(searched)), np.flatnonzero(np.diff(steps)) + 1):
        second, counts = _gather(csr.indices, lo[part], hi[part])
        query_owner = np.repeat(searched_owner[part], counts)
        query = query_owner * n + second
        found = np.minimum(np.searchsorted(haystack, query), len(haystack) - 1)
        hit = haystack[found] == query
        links += np.bincount(query_owner[hit], minlength=len(rows))
    return 2.0 * links / np.maximum(k * (k - 1), 1)


def local_clustering(graph: CompiledGraph, node: int) -> float:
    """Undirected local clustering coefficient of ``node`` (0.0 if unknown).

    Builds the undirected CSR of the whole graph, so score many nodes with
    :func:`average_clustering` rather than one call each.  Neighbor pairs
    are counted from the earlier neighbor in sorted-ID order, and a
    neighbor whose undirected degree exceeds
    :data:`CLUSTERING_HUB_CUTOFF` contributes no pairs of its own.  With
    no such hub among the neighbors the order does not matter.
    """
    if node not in graph:
        return 0.0
    csr = _UndirectedCSR.of(graph)
    rows = csr.rows_of(np.array([node], dtype=np.int64))
    return float(_clustering_coefficients(csr, rows)[0])


def _mean_clustering(csr: _UndirectedCSR, rng: np.random.Generator, sample_size: int) -> float:
    nodes = csr.node_ids
    if len(nodes) == 0:
        return 0.0
    if len(nodes) <= sample_size:
        sample = nodes
    else:
        sample = rng.choice(nodes, size=sample_size, replace=False)
    return float(np.mean(_clustering_coefficients(csr, csr.rows_of(sample))))


def average_clustering(
    graph: CompiledGraph,
    rng: np.random.Generator,
    sample_size: int = 1_000,
) -> float:
    """Average local clustering over a random sample of the sorted node IDs.

    Hub handling as in :func:`local_clustering`.
    """
    return _mean_clustering(_UndirectedCSR.of(graph), rng, sample_size)


def _mean_path_length(csr: _UndirectedCSR, rng: np.random.Generator, sample_size: int) -> float:
    nodes = csr.node_ids
    if len(nodes) < 2:
        return 0.0
    sources = (
        nodes if len(nodes) <= sample_size else rng.choice(nodes, size=sample_size, replace=False)
    )
    visited = np.zeros(len(csr.node_ids), dtype=bool)
    total = 0
    count = 0
    for source in csr.rows_of(sources):
        # Level-synchronous BFS: expand the whole frontier at once.
        visited[:] = False
        visited[source] = True
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while len(frontier) and depth < BFS_CUTOFF:
            reached, _ = csr.neighbors(frontier)
            frontier = _sorted_unique(reached[~visited[reached]])
            visited[frontier] = True
            depth += 1
            total += depth * len(frontier)
            count += len(frontier)
    return total / count if count else 0.0


def average_path_length(
    graph: CompiledGraph,
    rng: np.random.Generator,
    sample_size: int = 50,
) -> float:
    """Mean shortest-path length estimated from BFS on sampled sources.

    Paths are measured on the undirected version of the graph (the
    convention of the studies Table 2 cites).  Unreachable pairs are
    excluded, and so are nodes more than :data:`BFS_CUTOFF` hops from a
    source.
    """
    return _mean_path_length(_UndirectedCSR.of(graph), rng, sample_size)


#: Above this many nodes Table 2 estimates assortativity from a sample of
#: source nodes instead of scanning every directed edge.
ASSORTATIVITY_EXACT_MAX_NODES = 50_000

#: Source nodes drawn by the sampling estimator — every out-edge of a
#: sampled source enters the correlation, so the effective edge sample is
#: ~``mean_out_degree`` times larger.
ASSORTATIVITY_SOURCE_SAMPLE = 20_000


def _assortativity_of_arrays(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two degree arrays (0.0 when degenerate)."""
    if len(x) < 2:
        return 0.0
    x = x.astype(float)
    y = y.astype(float)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def degree_assortativity(
    graph: CompiledGraph,
    rng: np.random.Generator | None = None,
    max_exact_nodes: int = ASSORTATIVITY_EXACT_MAX_NODES,
    source_sample: int = ASSORTATIVITY_SOURCE_SAMPLE,
) -> float:
    """Pearson correlation of total degree across directed edges.

    Exact over all edges up to ``max_exact_nodes`` nodes.  Above that
    (and when a seeded ``rng`` is provided) it estimates from the
    out-edges of a uniform source-node sample — every edge has the same
    inclusion probability, so the estimator is unbiased, and the seeded
    rng keeps it deterministic.  Pass ``rng=None`` to force the exact
    path at any size.
    """
    degrees = graph.total_degrees()
    if rng is None or graph.node_count <= max_exact_nodes:
        src_idx = np.repeat(
            np.arange(graph.node_count, dtype=np.int64), graph.out_degrees()
        )
        return _assortativity_of_arrays(degrees[src_idx], degrees[graph.indices])
    sample_size = min(source_sample, graph.node_count)
    sources = rng.choice(
        np.arange(graph.node_count, dtype=np.int64), size=sample_size, replace=False
    )
    targets, counts = _gather(graph.indices, graph.indptr[sources], graph.indptr[sources + 1])
    src_idx = np.repeat(sources, counts)
    return _assortativity_of_arrays(degrees[src_idx], degrees[targets])


def compute_graph_metrics(
    graph: CompiledGraph,
    rng: np.random.Generator,
    clustering_sample: int = 1_000,
    path_sample: int = 50,
) -> GraphMetrics:
    """All Table 2 metrics for ``graph``; one undirected CSR serves both the
    clustering and the path-length estimate."""
    nodes = graph.node_count
    edges = graph.edge_count
    avg_degree = 2.0 * edges / nodes if nodes else 0.0
    undirected = _UndirectedCSR.of(graph)
    return GraphMetrics(
        nodes=nodes,
        edges=edges,
        avg_degree=avg_degree,
        clustering_coefficient=_mean_clustering(undirected, rng, clustering_sample),
        avg_path_length=_mean_path_length(undirected, rng, path_sample),
        assortativity=degree_assortativity(graph, rng),
    )


def degree_ccdf(
    graph: CompiledGraph, kind: str = "in"
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF of node degree (Figure 7's x-axis spans decades).

    Returns ``(degrees, P(D >= degree))`` over the distinct degree values,
    for ``kind`` in {"in", "out", "total"}.
    """
    values = _degree_values(graph, kind)
    if len(values) == 0:
        raise ValueError("empty graph")
    values = np.sort(values)
    distinct = np.unique(values)
    ccdf = 1.0 - np.searchsorted(values, distinct, side="left") / len(values)
    return distinct, ccdf


def estimate_powerlaw_alpha(
    graph: CompiledGraph, kind: str = "in", x_min: int = 5
) -> float:
    """Discrete MLE power-law exponent of the degree tail.

    Uses the standard continuous approximation
    ``alpha = 1 + n / sum(ln(d / (x_min - 0.5)))`` over degrees >= x_min.
    Heavy-tailed follow graphs land around alpha ~ 2-3.
    """
    if x_min < 2:
        raise ValueError("x_min must be at least 2")
    values = _degree_values(graph, kind)
    tail = values[values >= x_min].astype(float)
    if len(tail) < 10:
        raise ValueError("tail too small to fit")
    return float(1.0 + len(tail) / np.sum(np.log(tail / (x_min - 0.5))))
