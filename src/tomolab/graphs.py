"""Undirected graphs with mandatory self-loops, stored densely.

Nodes are labelled ``0 .. n-1``.  Every graph keeps a symmetric boolean
adjacency matrix whose diagonal is all ``True``: each node interacts with
itself, and the degree of a node counts that self-loop.  ``NodeSet``
instances are strictly increasing tuples of node ids; their ordering fixes
the row/column layout of every submatrix extracted downstream, so the same
``NodeSet`` always addresses the same rows.

The Erdos-Renyi samplers draw the N x N uniforms in consecutive row blocks
of at most ``_BLOCK_DOUBLES`` values and keep only each block's strict
upper triangle.  Consecutive ``rng.random((rows, n))`` calls return exactly
the values of one ``rng.random((n, n))`` call, so graphs and generator
state are those of the one-shot draw, while the peak allocation is about
2 N^2 bytes (the boolean adjacency and one transposed copy) instead of the
8 N^2 bytes of an N x N float array.

Unreachable node pairs have distance ``INFINITE`` (a float infinity), never
a large stand-in integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

INFINITE = float("inf")

# Uniforms drawn per block by the Erdos-Renyi samplers (2 MB of float64).
_BLOCK_DOUBLES = 1 << 18


class Graph:
    """Immutable symmetric boolean adjacency with all self-loops present."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency, validate: bool = True):
        adj = np.array(adjacency, dtype=bool)
        if validate:
            if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
                raise ValueError("adjacency must be a square matrix")
            if adj.shape[0] == 0:
                raise ValueError("a graph needs at least one node")
            if not np.array_equal(adj, adj.T):
                raise ValueError("adjacency must be symmetric")
            if not adj.diagonal().all():
                raise ValueError("every node must carry its self-loop")
        adj.setflags(write=False)
        self.adjacency = adj

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edge_count(self) -> int:
        """Number of distinct off-diagonal edges."""
        return int(np.triu(self.adjacency, 1).sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _adopt(adj: np.ndarray) -> Graph:
    """Wrap an adjacency array this module built, without copying it.

    The caller hands over ownership: ``adj`` is made read-only and must
    already be symmetric with a ``True`` diagonal.
    """
    adj.setflags(write=False)
    g = Graph.__new__(Graph)
    g.adjacency = adj
    return g


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing tuple of node ids."""

    members: tuple[int, ...]

    def __post_init__(self):
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
        return np.asarray(self.members, dtype=np.intp)

    def complement(self, n: int) -> "NodeSet":
        """Nodes of ``0..n-1`` not in this set, in increasing order."""
        inside = frozenset(self.members)
        return NodeSet(tuple(i for i in range(n) if i not in inside))

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
    return _adopt(np.eye(n, dtype=bool))


def complete_graph(n: int) -> Graph:
    return _adopt(np.ones((n, n), dtype=bool))


def ring_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0 plus self-loops."""
    if n < 1:
        raise ValueError("a graph needs at least one node")
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = True
        adj[(i + 1) % n, i] = True
    return _adopt(adj)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        adj[i, j] = True
        adj[j, i] = True
    return _adopt(adj)


def _er_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Writable Erdos-Renyi adjacency drawn from the one-shot uniform stream."""
    if n < 1:
        raise ValueError("cannot sample a graph on zero nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    adj = np.empty((n, n), dtype=bool)
    rows = max(1, _BLOCK_DOUBLES // n)
    for i0 in range(0, n, rows):
        block = rng.random((min(rows, n - i0), n))
        adj[i0 : i0 + rows] = np.triu(block < p, i0 + 1)
    adj |= adj.T
    np.fill_diagonal(adj, True)
    return adj


def sample_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi draw: each off-diagonal pair is Bernoulli(p), i.i.d.

    Pair ``(i, j)``, ``i < j``, is an edge when uniform ``i * n + j`` of the
    generator's stream falls below ``p``; all ``n * n`` uniforms are drawn,
    in row blocks, so the generator ends where ``rng.random((n, n))`` would
    leave it.  Peak memory is about 2 N^2 bytes.
    """
    return _adopt(_er_adjacency(n, p, rng))


def sample_partial_er(spec: PartialErSpec, rng: np.random.Generator) -> Graph:
    """Draw the random part and install the embedded observable subgraph."""
    adj = _er_adjacency(spec.n_total, spec.p, rng)
    idx = spec.observable.indices()
    adj[np.ix_(idx, idx)] = spec.embedded.adjacency
    return _adopt(adj)


def subgraph(g: Graph, s: NodeSet) -> Graph:
    """Restriction of ``g`` to ``s``, rows/cols in ``s`` order."""
    s.check_within(g.n)
    if len(s) == 0:
        raise ValueError("cannot take the subgraph on an empty node set")
    idx = s.indices()
    return _adopt(g.adjacency[np.ix_(idx, idx)])


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
    adj = outer.adjacency.copy()
    idx = s.indices()
    adj[np.ix_(idx, idx)] = inner.adjacency
    return _adopt(adj)


def local_disconnect(g: Graph, u1: NodeSet, u2: NodeSet) -> Graph:
    """Remove every edge with one endpoint in ``u1`` and the other in ``u2``.

    Self-loops are preserved, including for nodes in both sets.
    """
    u1.check_within(g.n)
    u2.check_within(g.n)
    adj = g.adjacency.copy()
    i1 = u1.indices()
    i2 = u2.indices()
    adj[np.ix_(i1, i2)] = False
    adj[np.ix_(i2, i1)] = False
    np.fill_diagonal(adj, True)
    return _adopt(adj)


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
    adj = g.adjacency.copy()
    if len(u) == 0:
        return _adopt(adj)
    uidx = u.indices()
    external = adj[uidx].any(axis=0)
    external[uidx] = False
    adj[uidx, :] = False
    adj[:, uidx] = False
    adj[j, external] = True
    adj[external, j] = True
    np.fill_diagonal(adj, True)
    return _adopt(adj)


def hop_counts(g: Graph, start: int, cap: float = INFINITE) -> np.ndarray:
    """BFS hop count from ``start`` to every node, ``INFINITE`` if unreachable.

    ``cap`` stops the search early once all nodes within that many hops
    are known; entries beyond the cap stay ``INFINITE``.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"node {start} out of range")
    hops = np.full(g.n, INFINITE)
    hops[start] = 0.0
    frontier = np.zeros(g.n, dtype=bool)
    frontier[start] = True
    d = 0
    while d < cap:
        nxt = g.adjacency[frontier].any(axis=0) & np.isinf(hops)
        if not nxt.any():
            break
        d += 1
        hops[nxt] = d
        frontier = nxt
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
    return NodeSet(tuple(int(k) for k in np.flatnonzero(hops <= r)))


def degree(g: Graph, i: int) -> int:
    """Number of neighbors of ``i``, counting the self-loop."""
    if not 0 <= i < g.n:
        raise ValueError(f"node {i} out of range")
    return int(g.adjacency[i].sum())


def max_degree(g: Graph) -> int:
    return int(g.adjacency.sum(axis=1).max())


def is_connected(g: Graph) -> bool:
    return bool(np.isfinite(hop_counts(g, 0)).all())


def save_edge_list(g: Graph, dest: str | TextIO) -> None:
    """Write ``n=<N>`` then one ``i j`` line per off-diagonal edge (i < j).

    Self-loops are implied by the format and omitted.
    """
    rows, cols = np.nonzero(np.triu(g.adjacency, 1))
    lines = [f"n={g.n}"]
    lines.extend(f"{i} {j}" for i, j in zip(rows, cols))
    text = "\n".join(lines) + "\n"
    if isinstance(dest, str):
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        dest.write(text)


def load_edge_list(src: str | TextIO) -> Graph:
    """Inverse of :func:`save_edge_list`."""
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
    except ValueError as exc:
        raise ValueError(f"bad node count in header: {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edges(n, edges)
