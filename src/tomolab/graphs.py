"""Undirected graphs with mandatory self-loops, stored as sparse rows.

Nodes are labelled ``0 .. n-1``.  A graph keeps its symmetric adjacency in
compressed sparse row form: ``indices[indptr[i]:indptr[i + 1]]`` lists the
neighbours of ``i`` in increasing order, ``i`` itself included, because
each node interacts with itself and the degree of a node counts that
self-loop.  ``.adjacency`` is a read-only dense boolean view built on first
access and cached; it serves tests and |S|-sized graphs, and no code path
here reads it on an N-sized graph.  ``NodeSet`` instances are strictly
increasing tuples of node ids; their ordering fixes the row/column layout
of every submatrix extracted downstream, so the same ``NodeSet`` always
addresses the same rows.

Graph surgery filters the stored entries, or, where it adds edges,
rebuilds the rows from edge keys ``i * n + j`` with ``i < j``, as the
classifiers and the patch merge do too; that assembly (``_from_upper``)
works in place and holds about 50 bytes per edge.  Only callers outside
the package hand ``Graph`` a dense matrix.  Planting a subgraph on ``S``
looks its candidate pairs up among the sorted keys (``_locate``) instead
of splitting every key.

An Erdos-Renyi draw on ``n`` nodes reads ``n * n`` uniforms of the
generator's stream, and pair ``(i, j)``, ``i < j``, is an edge when uniform
``i * n + j`` falls below ``p``.  Two readers share that layout.  The
samplers (``_er_edges``) draw the uniforms in consecutive row blocks of at
most ``_BLOCK_DOUBLES`` values (512 KB), all into one buffer, and emit the
keys of each block's strict upper triangle that fall below ``p``.
Consecutive ``rng.random`` fills return exactly the values of one
``rng.random((n, n))`` call, so graphs and generator state are those of the
one-shot draw, while the peak allocation is one block of uniforms plus the
edge list, with no N x N array.  ``_er_hops_0_1`` finds the distance from
node 0 to node 1, up to 3 hops, without the graph: it draws rows 0 and 1,
jumps the generator to the few pairs between their neighbors, and jumps
to the end of the draw.

Breadth-first search (``hop_counts``) starts from one node or a node set.
Unreachable node pairs have distance ``INFINITE`` (a float infinity), never
a large stand-in integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np

# numpy 2 imports numpy.random on first use; importing it with the package
# puts that cost into start-up instead of the first sampling call
import numpy.random  # noqa: F401

INFINITE = float("inf")

# Uniforms drawn per block by the Erdos-Renyi samplers (512 KB of float64).
# Each block hands the GIL over in its draw, compare and emit: at N=3000,
# two samplers on two threads took 1-4% longer than with 2 MB blocks, and
# 10-13% longer with blocks of half this size.
_BLOCK_DOUBLES = 1 << 16

# Key arrays of consecutive blocks that ``_er_edges`` joins into one.
_MERGED_BLOCKS = 64

_INT32_MAX = np.iinfo(np.int32).max


class Graph:
    """Immutable symmetric adjacency in CSR form, all self-loops present.

    ``Graph(adjacency)`` always validates the dense boolean matrix it takes,
    which becomes the cached dense view; it serves callers outside the
    library, which builds its graphs from their edge keys.  ``indptr`` and
    ``indices`` are read-only int32 arrays where the sizes fit.
    """

    __slots__ = ("indptr", "indices", "_dense")

    def __init__(self, adjacency):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] == 0:
            raise ValueError("a graph needs at least one node")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not adj.diagonal().all():
            raise ValueError("every node must carry its self-loop")
        adj.setflags(write=False)
        rows, cols = np.nonzero(adj)
        self.indptr, self.indices = _compressed(np.bincount(rows, minlength=len(adj)), cols)
        self._dense = adj

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only dense boolean view, built on first access."""
        if self._dense is None:
            adj = np.zeros((self.n, self.n), dtype=bool)
            adj[_entry_rows(self), self.indices] = True
            adj.setflags(write=False)
            self._dense = adj
        return self._dense

    def edge_count(self) -> int:
        """Number of distinct off-diagonal edges."""
        return (self.indices.size - self.n) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _index_dtype(largest: int):
    return np.int32 if largest <= _INT32_MAX else np.int64


def _compressed(counts: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, indices)`` of row-major ``cols``, ``counts[i]`` in row ``i``."""
    indptr = np.zeros(counts.size + 1, dtype=_index_dtype(cols.size))
    indptr[1:] = np.cumsum(counts)
    indices = cols.astype(_index_dtype(counts.size), copy=False)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _entry_rows(g: Graph) -> np.ndarray:
    """Row of every stored entry, aligned with ``g.indices``."""
    return np.repeat(np.arange(g.n, dtype=g.indices.dtype), np.diff(g.indptr))


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the stored entries of ``rows``, row after row, and the
    end of each row's run among those positions."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    total = ends[-1] if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens), ends


def _adopt(n: int, rows: np.ndarray, cols: np.ndarray) -> Graph:
    """Graph from row-major entries, loops included: ``cols`` ascend within each row."""
    g = Graph.__new__(Graph)
    g.indptr, g.indices = _compressed(np.bincount(rows, minlength=n), cols)
    g._dense = None
    return g


def _from_upper(n: int, keys: np.ndarray) -> Graph:
    """Graph on ``n`` nodes with the edges of the distinct keys ``i * n + j``, ``i < j``.

    The keys may come in any order.  Every stored entry ``(r, c)`` gets the
    key ``r * n + c``; one in-place sort of the upper, lower and loop keys
    puts the entries in CSR order.  The lower keys are built in the column
    array and the columns are split off in the sorted keys, so beyond
    ``keys`` the assembly peaks at about 45 bytes per edge.
    """
    i, lower = np.divmod(keys, n)
    lower *= n
    lower += i
    del i
    entries = np.concatenate([keys, lower, np.arange(n, dtype=keys.dtype) * (n + 1)])
    del lower
    entries.sort()
    rows = np.empty_like(entries)
    np.divmod(entries, n, out=(rows, entries))
    return _adopt(n, rows, entries)


def _from_pairs(n: int, a: np.ndarray, b: np.ndarray) -> Graph:
    """Graph with edges ``(a[k], b[k])``, in any order; loops and repeats collapse."""
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b)
    off = lo != hi
    return _from_upper(n, np.unique(lo[off] * n + hi[off]))


def _upper_keys(g: Graph) -> np.ndarray:
    """Sorted keys ``i * n + j`` of the off-diagonal edges, ``i < j``."""
    rows = _entry_rows(g)
    upper = g.indices > rows
    return rows[upper].astype(np.int64) * g.n + g.indices[upper]


def _member_mask(s: "NodeSet", n: int) -> np.ndarray:
    inside = np.zeros(n, dtype=bool)
    inside[s.indices()] = True
    return inside


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing tuple of node ids."""

    members: tuple[int, ...]

    def __post_init__(self):
        try:
            ids = np.asarray(self.members)
        except (TypeError, ValueError):
            ids = None
        if ids is not None and ids.ndim == 1 and ids.dtype.kind in "iu":
            # every member is an integer: check them as one array
            negative = np.flatnonzero(ids < 0)
            if negative.size:
                m = self.members[negative[0]]
                raise ValueError(f"node ids must be non-negative integers, got {m!r}")
            if np.any(ids[1:] <= ids[:-1]):
                raise ValueError("node ids must be strictly increasing")
            object.__setattr__(self, "members", tuple(ids.tolist()))
            if np.can_cast(ids.dtype, np.intp):
                # seed the indices() cache with the array already in hand
                idx = ids.astype(np.intp)
                idx.setflags(write=False)
                self.__dict__["_index"] = idx
            return
        for m in self.members:
            if not isinstance(m, (int, np.integer)) or m < 0:
                raise ValueError(f"node ids must be non-negative integers, got {m!r}")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("node ids must be strictly increasing")
        object.__setattr__(self, "members", tuple(int(m) for m in self.members))

    @classmethod
    def of(cls, ids: Iterable[int]) -> "NodeSet":
        """Build from any iterable; ids are sorted, duplicates rejected."""
        ordered = sorted(int(i) for i in ids)
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def __getitem__(self, idx: int) -> int:
        return self.members[idx]

    def indices(self) -> np.ndarray:
        """The members as a read-only intp array, built once per set."""
        return self._index

    @cached_property
    def _index(self) -> np.ndarray:
        idx = np.asarray(self.members, dtype=np.intp)
        idx.setflags(write=False)
        return idx

    def complement(self, n: int) -> "NodeSet":
        """Nodes of ``0..n-1`` not in this set, in increasing order."""
        outside = np.ones(n, dtype=bool)
        idx = self.indices()
        outside[idx[idx < n]] = False
        return NodeSet(np.flatnonzero(outside))

    def union(self, other: "NodeSet") -> "NodeSet":
        return NodeSet.of(set(self.members) | set(other.members))

    def check_within(self, n: int) -> None:
        if self.members and self.members[-1] >= n:
            raise ValueError(
                f"node id {self.members[-1]} out of range for a {n}-node graph"
            )


@dataclass(frozen=True)
class PartialErSpec:
    """Partial Erdos-Renyi model: a fixed subgraph embedded in random soup.

    Edges internal to ``observable`` are taken verbatim from ``embedded``;
    every pair with at least one endpoint outside ``observable`` is an
    independent Bernoulli(``p``) draw.
    """

    n_total: int
    p: float
    observable: NodeSet
    embedded: Graph

    def __post_init__(self):
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")
        if len(self.observable) == 0:
            raise ValueError("observable set must be nonempty")
        self.observable.check_within(self.n_total)
        if self.embedded.n != len(self.observable):
            raise ValueError(
                "embedded graph order must match the observable set size "
                f"({self.embedded.n} != {len(self.observable)})"
            )


def edgeless_graph(n: int) -> Graph:
    """Graph with self-loops only."""
    return _from_upper(n, np.empty(0, dtype=np.int64))


def complete_graph(n: int) -> Graph:
    i, j = np.triu_indices(n, 1)
    return _from_upper(n, i * n + j)


def ring_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0 plus self-loops."""
    if n < 1:
        raise ValueError("a graph needs at least one node")
    i = np.arange(n)
    return _from_pairs(n, i, (i + 1) % n)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from ``(i, j)`` pairs, or an ``(m, 2)`` integer array of them."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        i, j = pairs[bad[0]]
        raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
    return _from_pairs(n, pairs[:, 0], pairs[:, 1])


def _er_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted edge keys ``i * n + j`` of an Erdos-Renyi draw on the one-shot stream."""
    if n < 1:
        raise ValueError("cannot sample a graph on zero nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rows = max(1, min(n, _BLOCK_DOUBLES // n))
    block = np.empty((rows, n))
    below = np.empty(rows * n, dtype=bool)
    # upper[a, c]: node i0 + 1 + c lies right of node i0 + a, the diagonal
    # entry of the block's row a
    upper = ~np.tri(rows, rows - 1, -1, dtype=bool)
    # above N = _BLOCK_DOUBLES / 2 every block is one row: merging each run of
    # _MERGED_BLOCKS key arrays keeps about n / _MERGED_BLOCKS arrays alive
    parts, pending = [], []
    for i0 in range(0, n, rows):
        r, w = min(rows, n - i0), n - i0 - 1
        rng.random(out=block[:r])
        # only the w columns right of the block's first diagonal entry count
        hit = below[: r * w].reshape(r, w)
        np.less(block[:r, i0 + 1 :], p, out=hit)
        # the leading r x (r - 1) square keeps its upper triangle
        hit[:, : r - 1] &= upper[:r, : r - 1]
        at = np.flatnonzero(hit)
        # flat position a * w + c holds the key (i0 + a) * n + i0 + 1 + c
        at += at // w * (i0 + 1) + (i0 * (n + 1) + 1)
        pending.append(at)
        if len(pending) == _MERGED_BLOCKS:
            parts.append(np.concatenate(pending))
            pending.clear()
    return np.concatenate(parts + pending)


def _er_hops_0_1(n: int, p: float, rng: np.random.Generator) -> float:
    """``hop_counts(sample_er(n, p, rng), 0, cap=3)[1]`` without drawing the graph.

    The answer depends on rows 0 and 1 of the stream and, when neither an
    edge nor a common neighbor joins nodes 0 and 1, on the pairs ``(a, b)``
    between their other neighbors.  No node neighbors both, so the two sets
    are disjoint and the keys ``min(a, b) * n + max(a, b)`` of those pairs
    are distinct; the generator
    jumps to each in increasing order with ``bit_generator.advance`` and
    draws its one uniform, stopping at the first edge.  It then jumps to the
    end of the ``n * n`` uniforms, so ``rng`` is left where ``sample_er``
    leaves it.  The bit generator must support ``advance`` (PCG64 does).
    """
    if n < 2:
        raise ValueError("nodes 0 and 1 need a graph on at least two nodes")
    rows = rng.random(2 * n) < p
    near0, near1 = rows[:n], rows[n:]
    hops, drawn = INFINITE, 2 * n
    if near0[1]:
        hops = 1.0
    elif (near0[2:] & near1[2:]).any():
        hops = 2.0
    else:
        a = np.flatnonzero(near0[2:]) + 2
        b = np.flatnonzero(near1[2:]) + 2
        keys = np.minimum.outer(a, b) * n + np.maximum.outer(a, b)
        for key in np.sort(keys, axis=None).tolist():
            rng.bit_generator.advance(key - drawn)
            drawn = key + 1
            if rng.random() < p:
                hops = 3.0
                break
    rng.bit_generator.advance(n * n - drawn)
    return hops


def _locate(have: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``want`` in the sorted ``have``, and which of them are there."""
    pos = np.searchsorted(have, want)
    found = pos < have.size
    found[found] = have[pos[found]] == want[found]
    return pos, found


def _replace_inside(keys: np.ndarray, n: int, s: NodeSet, inner: Graph) -> np.ndarray:
    """Sorted ``keys`` without the pairs inside ``s``, in order, then the edges of ``inner``."""
    idx = s.indices()
    # every ordered pair of s, sorted because idx ascends; only i < j can match
    pos, found = _locate(keys, np.add.outer(idx * n, idx).ravel())
    pi, pj = np.divmod(_upper_keys(inner), len(s))
    return np.concatenate([np.delete(keys, pos[found]), idx[pi] * n + idx[pj]])


def sample_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi draw: each off-diagonal pair is Bernoulli(p), i.i.d.

    Pair ``(i, j)``, ``i < j``, is an edge when uniform ``i * n + j`` of the
    generator's stream falls below ``p``; all ``n * n`` uniforms are drawn,
    in row blocks, so the generator ends where ``rng.random((n, n))`` would
    leave it.  Beyond one block of uniforms, memory grows with the edge
    count, not with N^2.
    """
    return _from_upper(n, _er_edges(n, p, rng))


def sample_partial_er(spec: PartialErSpec, rng: np.random.Generator) -> Graph:
    """Draw the random part and install the embedded observable subgraph."""
    n = spec.n_total
    # no name holds the drawn keys, so they are freed before the assembly
    keys = _replace_inside(_er_edges(n, spec.p, rng), n, spec.observable, spec.embedded)
    return _from_upper(n, keys)


def subgraph(g: Graph, s: NodeSet) -> Graph:
    """Restriction of ``g`` to ``s``, rows/cols in ``s`` order."""
    s.check_within(g.n)
    if len(s) == 0:
        raise ValueError("cannot take the subgraph on an empty node set")
    k = len(s)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[s.indices()] = np.arange(k)
    rows = _entry_rows(g)
    keep = (pos[rows] >= 0) & (pos[g.indices] >= 0)
    return _adopt(k, pos[rows[keep]], pos[g.indices[keep]])


def embed(inner: Graph, outer: Graph, s: NodeSet) -> Graph:
    """Replace the edges of ``outer`` internal to ``s`` with those of ``inner``.

    Edges crossing the boundary of ``s`` and edges outside ``s`` are kept.
    The result does not depend on what ``outer`` looked like inside ``s``.
    """
    s.check_within(outer.n)
    if inner.n != len(s):
        raise ValueError(
            f"inner graph order {inner.n} must equal the target set size {len(s)}"
        )
    return _from_upper(outer.n, _replace_inside(_upper_keys(outer), outer.n, s, inner))


def local_disconnect(g: Graph, u1: NodeSet, u2: NodeSet) -> Graph:
    """Remove every edge with one endpoint in ``u1`` and the other in ``u2``.

    Self-loops are preserved, including for nodes in both sets.
    """
    u1.check_within(g.n)
    u2.check_within(g.n)
    in1 = _member_mask(u1, g.n)
    in2 = _member_mask(u2, g.n)
    rows, cols = _entry_rows(g), g.indices
    kept = ~((in1[rows] & in2[cols]) | (in2[rows] & in1[cols])) | (rows == cols)
    return _adopt(g.n, rows[kept], cols[kept])


def inherit(g: Graph, j: int, u: NodeSet) -> Graph:
    """Detach the nodes of ``u`` and hand their external links to ``j``.

    Edges internal to ``u`` and edges from ``u`` to the rest of the graph
    are removed; for every removed external edge ``(u_k, v)`` the edge
    ``(j, v)`` is present in the result.  Nodes in ``u`` keep their
    self-loops.  ``j`` must not belong to ``u``.
    """
    if not 0 <= j < g.n:
        raise ValueError(f"node {j} out of range")
    u.check_within(g.n)
    if j in u:
        raise ValueError(f"inheriting node {j} must lie outside the detached set")
    in_u = _member_mask(u, g.n)
    a, b = np.divmod(_upper_keys(g), g.n)
    kept = ~(in_u[a] | in_u[b])
    external = np.concatenate([b[in_u[a] & ~in_u[b]], a[in_u[b] & ~in_u[a]]])
    return _from_pairs(
        g.n,
        np.concatenate([a[kept], np.full(external.size, j)]),
        np.concatenate([b[kept], external]),
    )


def hop_counts(g: Graph, start: int | np.ndarray, cap: float = INFINITE) -> np.ndarray:
    """BFS hop count from the nearest of ``start`` to every node.

    ``start`` is one node or an array of nodes; repeats are allowed, and an
    empty set reaches nothing.  Nodes no start reaches are ``INFINITE``.
    ``cap`` stops the search early once all nodes within that many hops
    are known; entries beyond the cap stay ``INFINITE``.
    """
    frontier = np.atleast_1d(np.asarray(start, dtype=np.intp))
    bad = frontier[(frontier < 0) | (frontier >= g.n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} out of range")
    hops = np.full(g.n, INFINITE)
    hops[frontier] = 0.0
    d = 0
    while d < cap:
        reached = np.zeros(g.n, dtype=bool)
        reached[g.indices[_row_entries(g.indptr, frontier)[0]]] = True
        reached &= np.isinf(hops)
        frontier = np.flatnonzero(reached)
        if not frontier.size:
            break
        d += 1
        hops[frontier] = d
    return hops


def distance(g: Graph, i: int, j: int) -> int | float:
    """Shortest path length between ``i`` and ``j``; self-loops do not count.

    Returns ``INFINITE`` when the nodes sit in different components.
    """
    if not 0 <= j < g.n:
        raise ValueError(f"node {j} out of range")
    d = hop_counts(g, i)[j]
    return int(d) if np.isfinite(d) else INFINITE


def neighborhood(g: Graph, i: int, r: int) -> NodeSet:
    """Nodes within ``r`` hops of ``i`` (``i`` itself included)."""
    if r < 0:
        raise ValueError("neighborhood order must be non-negative")
    hops = hop_counts(g, i, cap=r)
    return NodeSet(np.flatnonzero(hops <= r))


def degree(g: Graph, i: int) -> int:
    """Number of neighbors of ``i``, counting the self-loop."""
    if not 0 <= i < g.n:
        raise ValueError(f"node {i} out of range")
    return int(g.indptr[i + 1] - g.indptr[i])


def max_degree(g: Graph) -> int:
    return int(np.diff(g.indptr).max())


def is_connected(g: Graph) -> bool:
    return bool(np.isfinite(hop_counts(g, 0)).all())


def save_edge_list(g: Graph, dest: str | TextIO) -> None:
    """Write ``n=<N>`` then one ``i j`` line per off-diagonal edge (i < j).

    Self-loops are implied by the format and omitted.
    """
    rows, cols = np.divmod(_upper_keys(g), g.n)
    lines = [f"n={g.n}"]
    lines.extend(f"{i} {j}" for i, j in zip(rows.tolist(), cols.tolist()))
    text = "\n".join(lines) + "\n"
    if isinstance(dest, str):
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        dest.write(text)


def load_edge_list(src: str | TextIO) -> Graph:
    """Inverse of :func:`save_edge_list`.

    A header with no positive node count, or a line that is not two
    integers, raises ``ValueError`` naming it.
    """
    if isinstance(src, str):
        with open(src, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    else:
        lines = src.read().splitlines()
    lines = [ln.strip() for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("edge list must start with an 'n=<N>' header")
    try:
        n = int(lines[0][2:])
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"bad node count in header: {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        try:
            i, j = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((i, j))
    return from_edges(n, edges)
