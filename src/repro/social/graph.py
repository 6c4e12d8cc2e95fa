"""The directed follow graph, as a frozen CSR snapshot.

:class:`CompiledGraph` holds the graph as compressed sparse rows — two
int64 arrays per direction — so ``follower_count`` is an O(1) array
lookup and ``followers_of`` / ``followees_of`` are sorted array slices.
Every builder (the synthetic generator, the graph crawler, the examples)
produces one, and every consumer (trace generation, Table 2 metrics,
notifications) reads one.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

#: Edge packing for the sort-based CSR build: an edge ``(src, dst)``
#: becomes the single int64 ``src << 32 | dst``, so lexicographic
#: ``(src, dst)`` order equals numeric key order and one ``np.sort`` of
#: keys orders each direction.  Node indices must fit 31 bits, so a graph
#: holds at most 2**31 nodes (the paper's has 12M; the ``node_ids`` array
#: of a larger one alone would be 16 GiB).
_PACK_SHIFT = 32
_PACK_MASK = np.int64((1 << _PACK_SHIFT) - 1)
_PACK_MAX_NODES = 1 << 31


def _positions(node_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices of ``ids`` in the sorted ``node_ids``; every ID must be there."""
    positions = np.searchsorted(node_ids, ids)
    if len(ids) and (positions.max() >= len(node_ids) or np.any(node_ids[positions] != ids)):
        raise ValueError("edge endpoints outside the node set")
    return positions


class CompiledGraph:
    """A frozen CSR view of a directed follow graph.

    Nodes are stored as a sorted ``node_ids`` array; edges as two CSR pairs:
    ``indptr``/``indices`` for out-adjacency (followees, sorted per node)
    and ``rindptr``/``rindices`` for in-adjacency (followers).  All arrays
    are int64.  Queries accept *original* user IDs; unknown IDs behave like
    isolated nodes (count 0, empty adjacency).

    When ``node_ids`` is exactly ``0..n-1`` (the shape the synthetic
    generator produces), ID-to-index translation is the identity and every
    query is a pure array operation.
    """

    __slots__ = ("node_ids", "indptr", "indices", "rindptr", "rindices", "_contiguous")

    def __init__(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rindptr: np.ndarray,
        rindices: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.rindptr = rindptr
        self.rindices = rindices
        n = len(node_ids)
        self._contiguous = bool(
            n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1)
        )

    @classmethod
    def from_edge_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        n_nodes: Optional[int] = None,
        node_ids: Optional[np.ndarray] = None,
    ) -> "CompiledGraph":
        """Compile ``src -> dst`` edge arrays into CSR form.

        Pass ``n_nodes`` for contiguous ``0..n-1`` node IDs, or an explicit
        sorted ``node_ids`` array otherwise.  Raises ``ValueError`` when an
        edge references an unknown node, follows itself, or repeats.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        n = n_nodes if node_ids is None else len(node_ids)
        if n is None:
            raise ValueError("need n_nodes or node_ids")
        if n > _PACK_MAX_NODES:
            raise ValueError("a follow graph holds at most 2**31 nodes")
        if node_ids is None:
            node_ids = np.arange(n, dtype=np.int64)
        src_idx = _positions(node_ids, src)
        dst_idx = _positions(node_ids, dst)
        if np.any(src_idx == dst_idx):
            raise ValueError("self-follow edges are not allowed")
        keys = np.left_shift(src_idx, _PACK_SHIFT)
        np.bitwise_or(keys, dst_idx, out=keys)
        return cls._from_packed_keys(keys, node_ids, validate=True)

    @classmethod
    def from_packed_keys(
        cls, keys: np.ndarray, n_nodes: int, validate: bool = True
    ) -> "CompiledGraph":
        """Compile edges packed as ``src << 32 | dst`` int64 keys.

        The cheapest construction path: callers that already hold (or can
        build in place) the packed keys skip edge-array concatenation and
        lexsorts entirely.  ``keys`` is consumed — it is sorted in place
        and its storage reused for one of the output arrays.  Requires
        ``n_nodes <= 2**31``, all endpoints within ``[0, n_nodes)`` and
        no duplicate keys (checked when ``validate``; trusted generators
        may skip the extra full-array passes).
        """
        if n_nodes > _PACK_MAX_NODES:
            raise ValueError("packed-key compilation requires n_nodes <= 2**31")
        keys = np.asarray(keys, dtype=np.int64)
        return cls._from_packed_keys(
            keys, np.arange(n_nodes, dtype=np.int64), validate=validate
        )

    @classmethod
    def _from_packed_keys(
        cls, keys: np.ndarray, node_ids: np.ndarray, validate: bool = False
    ) -> "CompiledGraph":
        """CSR pair from packed edge keys (``keys`` is consumed).

        Buffer discipline keeps peak traffic at two extra edge-sized
        allocations: ``keys`` is sorted in place, shifted in place to the
        source halves, and finally overwritten with the reverse indices.
        """
        n = len(node_ids)
        keys.sort()
        if validate and len(keys):
            # Sorted, so the src range check is O(1), and a duplicate edge
            # is two equal neighbors; dst needs one pass.
            if keys[0] < 0 or int(keys[-1] >> _PACK_SHIFT) >= n:
                raise ValueError("edge endpoints outside the node set")
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges are not allowed")
        indices = np.bitwise_and(keys, _PACK_MASK)
        if validate and len(indices) and int(indices.max()) >= n:
            raise ValueError("edge endpoints outside the node set")
        bounds = np.left_shift(np.arange(n + 1, dtype=np.int64), _PACK_SHIFT)
        indptr = np.searchsorted(keys, bounds)

        # Reverse direction: swap the packed halves and re-sort, reusing
        # the keys buffer (its sorted content is no longer needed).
        rkeys = np.left_shift(indices, _PACK_SHIFT)
        np.right_shift(keys, _PACK_SHIFT, out=keys)  # keys := src halves
        np.bitwise_or(rkeys, keys, out=rkeys)
        rkeys.sort()
        np.bitwise_and(rkeys, _PACK_MASK, out=keys)  # keys := rindices
        rindptr = np.searchsorted(rkeys, bounds)
        return cls(node_ids, indptr, indices, rindptr, keys)

    # -- index translation --------------------------------------------

    def _index_of(self, user_id: int) -> int:
        """Internal index of ``user_id``, or -1 if unknown."""
        n = len(self.node_ids)
        if self._contiguous:
            return user_id if 0 <= user_id < n else -1
        pos = int(np.searchsorted(self.node_ids, user_id))
        if pos < n and self.node_ids[pos] == user_id:
            return pos
        return -1

    # -- queries ------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    def __contains__(self, user_id: int) -> bool:
        return self._index_of(user_id) >= 0

    def nodes(self) -> Iterator[int]:
        return iter(self.node_ids.tolist())

    def follows(self, follower: int, followee: int) -> bool:
        u = self._index_of(follower)
        v = self._index_of(followee)
        if u < 0 or v < 0:
            return False
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = int(np.searchsorted(self.indices[lo:hi], v))
        return pos < hi - lo and self.indices[lo + pos] == v

    def followees_of(self, user_id: int) -> np.ndarray:
        """Users that ``user_id`` follows, as a sorted int64 array view."""
        u = self._index_of(user_id)
        if u < 0:
            return np.empty(0, dtype=np.int64)
        return self.node_ids[self.indices[self.indptr[u] : self.indptr[u + 1]]]

    def followers_of(self, user_id: int) -> np.ndarray:
        """Users following ``user_id``, as a sorted int64 array view."""
        u = self._index_of(user_id)
        if u < 0:
            return np.empty(0, dtype=np.int64)
        return self.node_ids[self.rindices[self.rindptr[u] : self.rindptr[u + 1]]]

    def follower_count(self, user_id: int) -> int:
        u = self._index_of(user_id)
        if u < 0:
            return 0
        return int(self.rindptr[u + 1] - self.rindptr[u])

    def followee_count(self, user_id: int) -> int:
        u = self._index_of(user_id)
        if u < 0:
            return 0
        return int(self.indptr[u + 1] - self.indptr[u])

    def degree(self, user_id: int) -> int:
        return self.follower_count(user_id) + self.followee_count(user_id)

    def in_degrees(self) -> np.ndarray:
        """In-degree per node, aligned with ``node_ids`` (O(n), no loop)."""
        return np.diff(self.rindptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per node, aligned with ``node_ids``."""
        return np.diff(self.indptr)

    def total_degrees(self) -> np.ndarray:
        return self.in_degrees() + self.out_degrees()

    def in_degree_of(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorized follower counts for an array of user IDs.

        Unknown IDs get 0, mirroring the scalar :meth:`follower_count`.
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        degrees = self.in_degrees()
        n = len(self.node_ids)
        if self._contiguous:
            known = (user_ids >= 0) & (user_ids < n)
            safe = np.where(known, user_ids, 0)
        else:
            pos = np.searchsorted(self.node_ids, user_ids)
            safe = np.minimum(pos, max(n - 1, 0))
            known = (pos < n) & (self.node_ids[safe] == user_ids) if n else np.zeros(len(user_ids), bool)
        if n == 0:
            return np.zeros(len(user_ids), dtype=np.int64)
        return np.where(known, degrees[safe], 0)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(src_ids, dst_ids)`` arrays (CSR order)."""
        src_idx = np.repeat(
            np.arange(len(self.node_ids), dtype=np.int64), np.diff(self.indptr)
        )
        return self.node_ids[src_idx], self.node_ids[self.indices]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all ``(follower, followee)`` edges (Python-loop cost)."""
        src, dst = self.edge_arrays()
        return zip(src.tolist(), dst.tolist())

    def undirected_neighbors(self, user_id: int) -> set[int]:
        """Neighbors ignoring edge direction (for clustering/path metrics)."""
        u = self._index_of(user_id)
        if u < 0:
            return set()
        out = self.indices[self.indptr[u] : self.indptr[u + 1]]
        inc = self.rindices[self.rindptr[u] : self.rindptr[u + 1]]
        both = np.union1d(out, inc)
        return set(self.node_ids[both].tolist())

