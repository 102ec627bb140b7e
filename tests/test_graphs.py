"""Graph container, node sets, the partial-ER sampler and graph surgery."""

import io

import numpy as np
import pytest

from tomolab import (
    INFINITE,
    Graph,
    NodeSet,
    PartialErSpec,
    complete_graph,
    degree,
    distance,
    edgeless_graph,
    embed,
    from_edges,
    inherit,
    is_connected,
    load_edge_list,
    local_disconnect,
    max_degree,
    neighborhood,
    ring_graph,
    sample_er,
    sample_partial_er,
    save_edge_list,
    subgraph,
)
from tomolab import graphs
from tomolab.graphs import (
    _BLOCK_DOUBLES,
    _er_edges,
    _er_hops_0_1,
    _from_upper,
    _replace_inside,
    _upper_keys,
    hop_counts,
)

from conftest import same_bits, traced_peak


def one_shot_er(n, p, rng):
    """The single N x N uniform draw that the row-block sampler reproduces."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    adj = upper | upper.T
    np.fill_diagonal(adj, True)
    return Graph(adj)


def loop_checked_members(members):
    """The member-by-member validation that ``NodeSet`` does with arrays."""
    for m in members:
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"node ids must be non-negative integers, got {m!r}")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ValueError("node ids must be strictly increasing")
    return tuple(int(m) for m in members)


def reach_within(adj, k):
    """Boolean matrix of pairs at hop distance <= k, by repeated squaring-free
    integer powers (self-loops make the powers cumulative)."""
    m = adj.astype(np.int64)
    out = np.eye(adj.shape[0], dtype=np.int64)
    for _ in range(k):
        out = np.minimum(out @ m, 1)
    return out > 0


class TestGraphContainer:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.ones((2, 3), dtype=bool))

    def test_rejects_asymmetric(self):
        adj = np.eye(3, dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adj)

    def test_rejects_missing_self_loop(self):
        adj = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="self-loop"):
            Graph(adj)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((0, 0), dtype=bool))

    def test_adjacency_is_readonly(self):
        g = ring_graph(4)
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = True

    def test_edge_counts(self):
        assert edgeless_graph(5).edge_count() == 0
        assert complete_graph(5).edge_count() == 10
        assert ring_graph(5).edge_count() == 5
        assert ring_graph(1).edge_count() == 0

    def test_equality(self):
        assert ring_graph(4) == ring_graph(4)
        assert ring_graph(4) != complete_graph(4)

    def test_from_edges_bounds(self):
        g = from_edges(3, [(0, 2)])
        assert g.edge_count() == 1
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(0, 3)])


class TestNodeSet:
    def test_of_sorts(self):
        assert NodeSet.of([3, 1, 2]).members == (1, 2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            NodeSet.of([1, 1, 2])

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            NodeSet((2, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NodeSet((-1, 2))

    def test_complement(self):
        assert NodeSet((1, 3)).complement(5).members == (0, 2, 4)

    def test_union(self):
        assert NodeSet((0, 2)).union(NodeSet((2, 4))).members == (0, 2, 4)

    def test_check_within(self):
        NodeSet((0, 4)).check_within(5)
        with pytest.raises(ValueError, match="out of range"):
            NodeSet((0, 5)).check_within(5)

    def test_membership_and_indexing(self):
        s = NodeSet((2, 5, 9))
        assert 5 in s and 4 not in s
        assert s[1] == 5
        assert list(s) == [2, 5, 9]

    @pytest.mark.parametrize(
        "members",
        [
            (),
            (0,),
            (1, 3, 8),
            (True, 2),
            (True,),
            (np.int64(3), 4),
            (np.uint64(2), np.uint64(2**63)),
            (1, 2**70),
            np.array([0, 4, 7]),
            np.array([0, 4, 7], dtype=np.uint8),
            (-1, 2),
            (0, 5, -3),
            (np.int64(-4),),
            (-1, 2**63),
            (2, 1),
            (1, 1),
            (0, 3, 3),
            (1.0, 2),
            (1, 2.0),
            ("a", 1),
            (1, None),
            ((1, 2), 3),
            np.array([[1, 2]]),
            np.array([1.0, 2.0]),
        ],
    )
    def test_validation_matches_member_loop(self, members):
        try:
            expected = loop_checked_members(members)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                NodeSet(members)
            assert str(err.value) == str(exc)
        else:
            got = NodeSet(members).members
            assert got == expected
            assert all(type(m) is int for m in got)

    @pytest.mark.parametrize(
        "members",
        [
            (),
            (1, 3, 8),
            (np.int64(3), 4),
            (True, 2),
            np.array([0, 4, 7], dtype=np.uint8),
            np.array([2, 5, 40000], dtype=np.int32),
            np.arange(0, 30000, 7),  # the int64 array a complement passes in
        ],
    )
    def test_indices_cached_read_only(self, members):
        source = np.array(members, copy=True) if isinstance(members, np.ndarray) else None
        s = NodeSet(members)
        if source is not None:
            members[:] = 0  # the caller's array must not leak into the set
        idx = s.indices()
        assert idx is s.indices()
        assert idx.dtype == np.intp and not idx.flags.writeable
        assert np.array_equal(idx, np.asarray(s.members, dtype=np.intp))
        if source is not None:
            assert np.array_equal(idx, source)
        with pytest.raises(ValueError):
            idx[:1] = 1
        # the cache is no field: equality, hashing and repr see members only
        fresh = NodeSet(tuple(s.members))
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)

    @pytest.mark.parametrize("n", [1, 3000, 30000])
    def test_complement_large_n(self, n):
        rng = np.random.default_rng(n)
        inside = NodeSet.of(rng.choice(n + 5, size=min(n, 40), replace=False))
        got = inside.complement(n)
        taken = set(inside)
        assert got.members == tuple(i for i in range(n) if i not in taken)
        assert all(type(m) is int for m in got.members)


class TestSampling:
    def test_er_extremes(self):
        rng = np.random.default_rng(0)
        assert sample_er(6, 0.0, rng) == edgeless_graph(6)
        assert sample_er(6, 1.0, rng) == complete_graph(6)

    def test_er_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_er(0, 0.5, rng)
        with pytest.raises(ValueError):
            sample_er(5, 1.5, rng)

    def test_er_density(self):
        # 40 draws on 30 nodes: edge count within 5 sigma of C(30,2)*p
        rng = np.random.default_rng(7)
        p = 0.2
        pairs = 30 * 29 // 2
        counts = [sample_er(30, p, rng).edge_count() for _ in range(40)]
        mean = np.mean(counts)
        sigma = np.sqrt(pairs * p * (1 - p) / 40)
        assert abs(mean - pairs * p) < 5 * sigma

    def test_partial_er_preserves_embedded(self):
        rng = np.random.default_rng(3)
        s = NodeSet((2, 7, 11, 12, 19))
        planted = ring_graph(5)
        for _ in range(100):
            g = sample_partial_er(PartialErSpec(25, 0.3, s, planted), rng)
            assert subgraph(g, s) == planted

    def test_partial_er_randomizes_outside(self):
        rng = np.random.default_rng(4)
        s = NodeSet((0, 1, 2))
        spec = PartialErSpec(40, 0.4, s, edgeless_graph(3))
        g = sample_partial_er(spec, rng)
        outside = subgraph(g, s.complement(40))
        assert 0 < outside.edge_count() < outside.n * (outside.n - 1) // 2

    # 2**16 uniforms per block: n=300 (blocks of 218 rows), n=513 (127) and
    # n=2100 (31) end on a ragged last block, n=1024 on the last of 16 full
    # blocks of 64 rows
    @pytest.mark.parametrize("n", [1, 2, 300, 513, 1024, 2100])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.5, 1.0])
    def test_er_matches_one_shot_stream(self, n, p):
        rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
        g = sample_er(n, p, rng)
        assert g == one_shot_er(n, p, oracle_rng)
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("n", [1, 2, 300, 513, 1024, 2100])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.5, 1.0])
    def test_partial_er_matches_one_shot_stream(self, n, p):
        s = NodeSet.of(range(0, n, max(1, n // 5)))
        inner = ring_graph(len(s))
        rng, oracle_rng = np.random.default_rng(23), np.random.default_rng(23)
        g = sample_partial_er(PartialErSpec(n, p, s, inner), rng)
        assert g == embed(inner, one_shot_er(n, p, oracle_rng), s)
        assert rng.random() == oracle_rng.random()
        assert not g.adjacency.flags.writeable

    # n=256 fits one block of 256 rows; n=571 takes five blocks of 114
    # rows and a last block of one row
    @pytest.mark.parametrize("n", [1, 2, 256, 571])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.5, 1.0])
    def test_er_block_boundaries_match_one_shot_stream(self, n, p):
        rows = _BLOCK_DOUBLES // n
        if n == 256:
            assert n <= rows
        elif n == 571:
            assert n % rows == 1
        rng, oracle_rng = np.random.default_rng(29), np.random.default_rng(29)
        g = sample_er(n, p, rng)
        assert g == one_shot_er(n, p, oracle_rng)
        assert rng.random() == oracle_rng.random()

    def test_one_row_blocks_keep_keys_and_merge_their_arrays(self, monkeypatch):
        # above N = _BLOCK_DOUBLES / 2 each block is one row; without merging,
        # one key array per row took 147 bytes per edge here
        n, p = 2000, 0.002
        want_rng = np.random.default_rng(5)
        want = _er_edges(n, p, want_rng)
        monkeypatch.setattr(graphs, "_BLOCK_DOUBLES", 256)
        assert _BLOCK_DOUBLES // n > 1 and graphs._BLOCK_DOUBLES // n == 0
        rng = np.random.default_rng(5)
        got = []
        peak = traced_peak(lambda: got.append(_er_edges(n, p, rng)))
        assert same_bits(got[0], want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        # one row of uniforms and its mask, then the merged keys and their
        # final concatenation: 16 bytes per edge and the pending arrays
        assert peak <= 9 * n + 32 * want.size

    def test_partial_er_peak_memory(self):
        # one block of _BLOCK_DOUBLES uniforms (8 bytes each) and its boolean
        # mask (1 byte each), then the edge keys and their in-place assembly
        # into rows: 56 bytes per expected edge
        n, p = 2000, 0.01
        spec = PartialErSpec(n, p, NodeSet((0, 1, 2)), ring_graph(3))
        rng = np.random.default_rng(0)
        peak = traced_peak(lambda: sample_partial_er(spec, rng))
        assert peak <= 9 * _BLOCK_DOUBLES + 56 * (p * n * (n - 1) / 2)

    def test_row_assembly_bytes_per_edge(self):
        # the lower keys reuse the column array and the sorted keys become
        # the columns in place: beyond the keys, at most 56 bytes per edge
        n = 3000
        keys = _er_edges(n, 0.025, np.random.default_rng(0))
        assert keys.size >= 100_000
        peak = traced_peak(lambda: _from_upper(n, keys))
        assert peak <= 56 * keys.size

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PartialErSpec(10, -0.1, NodeSet((0,)), edgeless_graph(1))
        with pytest.raises(ValueError, match="match"):
            PartialErSpec(10, 0.5, NodeSet((0, 1)), edgeless_graph(3))
        with pytest.raises(ValueError, match="out of range"):
            PartialErSpec(4, 0.5, NodeSet((0, 4)), edgeless_graph(2))


class TestErHopsFromStream:
    """``_er_hops_0_1`` against the graph it avoids drawing."""

    @pytest.mark.parametrize("n", [2, 3, 4, 60, 500])
    @pytest.mark.parametrize("p", [1e-4, 0.02, 0.5, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_full_draw_trial_after_trial(self, n, p, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            hops = _er_hops_0_1(n, p, rng)
            assert hops == hop_counts(sample_er(n, p, oracle_rng), 0, cap=3)[1]
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_every_outcome_occurs(self):
        # n=500 at p=0.02 reaches 1, 2, 3 and beyond within 100 trials
        rng = np.random.default_rng(0)
        seen = {_er_hops_0_1(500, 0.02, rng) for _ in range(100)}
        assert seen == {1.0, 2.0, 3.0, INFINITE}

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="two nodes"):
            _er_hops_0_1(1, 0.5, np.random.default_rng(0))


class TestDistances:
    def test_against_reachability_powers(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            g = sample_er(n, float(rng.uniform(0.05, 0.5)), rng)
            layers = [reach_within(g.adjacency, k) for k in range(n)]
            for i in range(n):
                for j in range(n):
                    want = INFINITE
                    for k in range(n):
                        if layers[k][i, j]:
                            want = k
                            break
                    assert distance(g, i, j) == want

    def test_ring_distances(self):
        g = ring_graph(6)
        assert distance(g, 0, 3) == 3
        assert distance(g, 0, 5) == 1
        assert distance(g, 2, 2) == 0

    def test_disconnected_pair(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert distance(g, 0, 3) == INFINITE
        assert not is_connected(g)

    def test_hop_counts_cap(self):
        g = ring_graph(8)
        hops = hop_counts(g, 0, cap=2)
        assert hops[2] == 2
        assert np.isinf(hops[4])

    def test_neighborhood_matches_powers(self):
        rng = np.random.default_rng(13)
        g = sample_er(18, 0.15, rng)
        for r in range(4):
            within = reach_within(g.adjacency, r)
            for i in range(g.n):
                want = tuple(np.flatnonzero(within[i]))
                assert neighborhood(g, i, r).members == want

    def test_neighborhood_zero_is_self(self):
        assert neighborhood(ring_graph(5), 3, 0).members == (3,)

    def test_edgeless_two_nodes_not_connected(self):
        assert not is_connected(edgeless_graph(2))

    def test_connectivity_rates_in_sparse_regime(self):
        # with offset c the connectivity probability approaches exp(-exp(-c));
        # at c = 4 it is ~0.98, and the self-tuning log log N offset stays
        # above 0.8 at N = 1000
        rng = np.random.default_rng(42)
        n = 500
        p_strong = (np.log(n) + 4.0) / n
        hits = sum(is_connected(sample_er(n, p_strong, rng)) for _ in range(200))
        assert hits / 200 >= 0.9
        n = 1000
        p_weak = (np.log(n) + np.log(np.log(n))) / n
        hits = sum(is_connected(sample_er(n, p_weak, rng)) for _ in range(200))
        assert hits / 200 >= 0.8


class TestDegrees:
    def test_degree_counts_self_loop(self):
        g = from_edges(4, [(0, 1), (0, 2)])
        assert degree(g, 0) == 3
        assert degree(g, 3) == 1
        assert max_degree(g) == 3

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            degree(ring_graph(3), 3)


class TestSurgery:
    def test_embed_replaces_inside(self):
        outer = complete_graph(6)
        inner = from_edges(3, [(0, 1)])
        s = NodeSet((1, 3, 4))
        g = embed(inner, outer, s)
        assert subgraph(g, s) == inner
        # edges not touching s survive
        assert g.adjacency[0, 2] and g.adjacency[0, 5]
        # boundary edges survive
        assert g.adjacency[1, 0]

    def test_embed_ignores_prior_interior(self):
        rng = np.random.default_rng(5)
        s = NodeSet((0, 2, 4, 6))
        inner = ring_graph(4)
        outer1 = sample_er(8, 0.5, rng)
        # rewrite only the interior of s, leave everything else alone
        adj = outer1.adjacency.copy()
        idx = s.indices()
        adj[np.ix_(idx, idx)] = complete_graph(4).adjacency
        outer2 = Graph(adj)
        assert embed(inner, outer1, s) == embed(inner, outer2, s)

    def test_embed_size_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            embed(ring_graph(3), complete_graph(6), NodeSet((0, 1)))

    def test_local_disconnect_cuts_cross_edges(self):
        g = complete_graph(5)
        cut = local_disconnect(g, NodeSet((0, 1)), NodeSet((3, 4)))
        assert not cut.adjacency[0, 3]
        assert not cut.adjacency[1, 4]
        assert cut.adjacency[0, 1]
        assert cut.adjacency[3, 4]
        assert cut.adjacency[0, 2]

    def test_local_disconnect_same_set_keeps_self_loops(self):
        g = complete_graph(4)
        s = NodeSet((1, 2))
        cut = local_disconnect(g, s, s)
        assert not cut.adjacency[1, 2]
        assert cut.adjacency[1, 1]
        assert cut.adjacency[0, 3]

    def test_inherit_moves_external_links(self):
        g = from_edges(5, [(1, 4), (2, 0), (1, 2), (3, 4)])
        out = inherit(g, 3, NodeSet((1, 2)))
        want = from_edges(5, [(3, 4), (3, 0)])
        assert out == want
        assert degree(out, 1) == 1

    def test_inherit_rejects_member_target(self):
        with pytest.raises(ValueError, match="outside"):
            inherit(ring_graph(4), 1, NodeSet((1, 2)))

    def test_subgraph_ordering(self):
        g = from_edges(5, [(0, 3), (3, 4)])
        sg = subgraph(g, NodeSet((0, 3, 4)))
        assert sg.adjacency[0, 1]
        assert sg.adjacency[1, 2]
        assert not sg.adjacency[0, 2]


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        g = sample_er(17, 0.2, rng)
        path = str(tmp_path / "g.edges")
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_format(self):
        buf = io.StringIO()
        save_edge_list(from_edges(3, [(0, 2)]), buf)
        assert buf.getvalue() == "n=3\n0 2\n"

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0 1\n", "header"),
            ("n=0\n", "bad node count in header: 'n=0'"),
            ("n=-1\n0 1\n", "bad node count in header: 'n=-1'"),
        ],
    )
    def test_header_required(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_edge_list(io.StringIO(text))

    @pytest.mark.parametrize("line", ["0 1 2", "0 x"])
    def test_bad_edge_line(self, line):
        with pytest.raises(ValueError, match=f"bad edge line: '{line}'"):
            load_edge_list(io.StringIO(f"n=3\n{line}\n"))


# Dense oracles: the adjacency-matrix constructions the CSR builders replaced.


def dense_ring(n):
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = True
        adj[(i + 1) % n, i] = True
    return adj


def dense_from_edges(n, edges):
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        adj[i, j] = True
        adj[j, i] = True
    return adj


def dense_embed(inner, outer, s):
    adj = outer.copy()
    idx = s.indices()
    adj[np.ix_(idx, idx)] = inner
    return adj


def dense_local_disconnect(adj, u1, u2):
    adj = adj.copy()
    i1, i2 = u1.indices(), u2.indices()
    adj[np.ix_(i1, i2)] = False
    adj[np.ix_(i2, i1)] = False
    np.fill_diagonal(adj, True)
    return adj


def dense_inherit(adj, j, u):
    adj = adj.copy()
    if len(u) == 0:
        return adj
    uidx = u.indices()
    external = adj[uidx].any(axis=0)
    external[uidx] = False
    adj[uidx, :] = False
    adj[:, uidx] = False
    adj[j, external] = True
    adj[external, j] = True
    np.fill_diagonal(adj, True)
    return adj


def dense_hop_counts(adj, start, cap=INFINITE):
    hops = np.full(adj.shape[0], INFINITE)
    hops[start] = 0.0
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[start] = True
    d = 0
    while d < cap:
        nxt = adj[frontier].any(axis=0) & np.isinf(hops)
        if not nxt.any():
            break
        d += 1
        hops[nxt] = d
        frontier = nxt
    return hops


def assert_sparse_rows(g, dense=None):
    """CSR invariants of ``g``; with ``dense``, the view must equal it."""
    n = g.n
    indptr, indices = g.indptr, g.indices
    assert indptr.dtype == indices.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert indptr[0] == 0 and indptr[-1] == indices.size
    lens = np.diff(indptr)
    assert (lens >= 1).all()
    rows = np.repeat(np.arange(n), lens)
    cols = indices.astype(np.int64)
    assert ((cols >= 0) & (cols < n)).all()
    # strictly increasing columns inside each row, so one self-loop per row
    assert (np.diff(cols)[rows[1:] == rows[:-1]] > 0).all()
    assert np.count_nonzero(rows == cols) == n
    # symmetric: the transposed coordinates are the same set
    keys = rows * n + cols
    assert np.array_equal(np.sort(cols * n + rows), keys)
    if dense is not None:
        view = g.adjacency
        assert not view.flags.writeable
        assert view is g.adjacency
        assert np.array_equal(view, dense)
        assert g == Graph(dense)


def random_sets(rng, n):
    s = NodeSet.of(np.flatnonzero(rng.random(n) < 0.3))
    u = NodeSet.of(np.flatnonzero(rng.random(n) < 0.2))
    return s, u


class TestSparseRows:
    def test_builders_match_dense_oracles(self):
        for n in (1, 2, 3, 7, 40):
            assert_sparse_rows(edgeless_graph(n), np.eye(n, dtype=bool))
            assert_sparse_rows(complete_graph(n), np.ones((n, n), dtype=bool))
            assert_sparse_rows(ring_graph(n), dense_ring(n))
        edges = [(0, 3), (3, 0), (2, 2), (4, 1), (1, 4), (0, 1)]
        assert_sparse_rows(from_edges(5, edges), dense_from_edges(5, edges))
        assert_sparse_rows(from_edges(5, np.array(edges)), dense_from_edges(5, edges))
        assert_sparse_rows(from_edges(5, []), np.eye(5, dtype=bool))

    def test_edge_list_round_trip_keeps_rows(self):
        rng = np.random.default_rng(61)
        g = sample_er(60, 0.1, rng)
        buf = io.StringIO()
        save_edge_list(g, buf)
        buf.seek(0)
        assert_sparse_rows(load_edge_list(buf), g.adjacency)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_and_surgery(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 90))
        p = float(rng.choice([0.0, 0.03, 0.2, 0.6, 1.0]))
        oracle_rng = np.random.default_rng(seed)
        g = sample_er(n, p, np.random.default_rng(seed))
        adj = one_shot_er(n, p, oracle_rng).adjacency
        assert_sparse_rows(g, adj)

        s, u = random_sets(rng, n)
        if len(s):
            inner = sample_er(len(s), 0.5, rng)
            assert_sparse_rows(embed(inner, g, s), dense_embed(inner.adjacency, adj, s))
            assert_sparse_rows(subgraph(g, s), adj[np.ix_(s.indices(), s.indices())])
            spec = PartialErSpec(n, p, s, inner)
            g2 = sample_partial_er(spec, np.random.default_rng(seed))
            soup = one_shot_er(n, p, np.random.default_rng(seed)).adjacency
            assert_sparse_rows(g2, dense_embed(inner.adjacency, soup, s))
        assert_sparse_rows(local_disconnect(g, s, u), dense_local_disconnect(adj, s, u))
        assert_sparse_rows(local_disconnect(g, s, s), dense_local_disconnect(adj, s, s))
        outside = [j for j in range(n) if j not in u]
        if outside:
            j = int(rng.choice(outside))
            assert_sparse_rows(inherit(g, j, u), dense_inherit(adj, j, u))
        for start in (0, n - 1):
            for cap in (0, 1, 2, INFINITE):
                want = dense_hop_counts(adj, start, cap)
                assert np.array_equal(hop_counts(g, start, cap), want)
        deg = adj.sum(axis=1)
        assert max_degree(g) == deg.max()
        assert [degree(g, i) for i in range(n)] == deg.tolist()
        assert g.edge_count() == np.triu(adj, 1).sum()

    def test_dense_input_becomes_the_cached_view(self):
        adj = dense_ring(6)
        g = Graph(adj)
        assert_sparse_rows(g, adj)
        assert g == ring_graph(6)

    def test_large_graph_keeps_no_dense_view(self):
        rng = np.random.default_rng(3)
        n = 3000
        s = NodeSet(tuple(range(10)))
        g = sample_partial_er(PartialErSpec(n, 0.003, s, ring_graph(10)), rng)
        cut = local_disconnect(g, s, s)
        subgraph(embed(complete_graph(10), cut, s), s)
        assert g._dense is None and cut._dense is None
        assert g.indices.nbytes + g.indptr.nbytes < n * n // 50

    def test_partial_er_memory_below_one_dense_matrix(self):
        # one block of uniforms and its mask is 9 * _BLOCK_DOUBLES bytes
        # (576 KB) and the rows take 56 bytes per expected edge; the dense
        # sampler held an N x N bool and its transposed copy, 2 N^2 = 8 MB
        n, p = 2000, 0.01
        spec = PartialErSpec(n, p, NodeSet((0, 1, 2)), ring_graph(3))
        rng = np.random.default_rng(0)
        peak = traced_peak(lambda: sample_partial_er(spec, rng))
        assert peak <= 9 * _BLOCK_DOUBLES + 56 * (p * n * (n - 1) / 2) < 2 * n * n

    def test_complement_matches_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(0, 30))
            s = NodeSet.of(np.flatnonzero(rng.random(n + 5) < 0.4))
            inside = frozenset(s.members)
            want = tuple(i for i in range(n) if i not in inside)
            got = s.complement(n).members
            assert got == want
            assert all(type(i) is int for i in got)


def divmod_replace_inside(keys, n, s, inner):
    """Oracle: split every key to find the pairs inside ``s``."""
    i, j = np.divmod(keys, n)
    inside = np.zeros(n, dtype=bool)
    inside[s.indices()] = True
    idx = s.indices()
    pi, pj = np.divmod(_upper_keys(inner), len(s))
    return np.concatenate([keys[~(inside[i] & inside[j])], idx[pi] * n + idx[pj]])


def sorted_random_keys(n, m, rng):
    """About ``m`` distinct sorted upper keys on ``n`` nodes, drawn without the N^2 sampler."""
    a, b = rng.integers(0, n, size=(2, m))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.unique(lo[lo < hi] * n + hi[lo < hi])


class TestReplaceInside:
    @pytest.mark.parametrize("k", [1, 2, 10, 60])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.5, 1.0])
    def test_matches_divmod_filter(self, k, p):
        rng = np.random.default_rng(1000 * k + int(100 * p))
        for _ in range(3):
            n = int(rng.integers(k, 150))
            s = NodeSet.of(rng.choice(n, size=k, replace=False))
            inner = sample_er(k, float(rng.random()), rng)
            keys = _er_edges(n, p, rng)
            assert same_bits(
                _replace_inside(keys, n, s, inner), divmod_replace_inside(keys, n, s, inner)
            )
            outer = sample_er(n, p, rng)
            want = _from_upper(n, divmod_replace_inside(_upper_keys(outer), n, s, inner))
            assert embed(inner, outer, s) == want

    def test_bytes_per_edge(self):
        # one copy of the kept keys and the result: 16 bytes per edge, where
        # splitting every key into two int64 arrays took 32
        n = 30_000
        p = (np.log(n) + np.log(np.log(n))) / n
        rng = np.random.default_rng(0)
        keys = sorted_random_keys(n, int(p * n * (n - 1) / 2), rng)
        s = NodeSet(tuple(range(10)))
        inner = ring_graph(10)
        peak = traced_peak(lambda: _replace_inside(keys, n, s, inner))
        assert peak <= 20 * keys.size


class TestMultiSourceHops:
    @pytest.mark.parametrize("seed", range(4))
    def test_minimum_of_single_source_runs(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 80))
        g = sample_er(n, float(rng.choice([0.02, 0.05, 0.2])), rng)
        for size in (1, 2, 5):
            starts = rng.integers(0, n, size=size)  # repeats allowed
            for cap in (1, 2, 3, INFINITE):
                want = np.minimum.reduce([hop_counts(g, int(i), cap) for i in starts])
                assert same_bits(hop_counts(g, starts, cap), want)

    def test_duplicate_starts(self):
        g = ring_graph(9)
        assert same_bits(hop_counts(g, [3, 3, 3], 2), hop_counts(g, 3, 2))

    def test_empty_start_set_reaches_nothing(self):
        g = complete_graph(5)
        for cap in (1, INFINITE):
            assert np.isinf(hop_counts(g, np.array([], dtype=int), cap)).all()
        assert np.isinf(hop_counts(g, [])).all()

    def test_out_of_range_start_is_named(self):
        g = ring_graph(6)
        with pytest.raises(ValueError, match="node 9 out of range"):
            hop_counts(g, [0, 9, 2])
        with pytest.raises(ValueError, match="node -1 out of range"):
            hop_counts(g, np.array([1, -1]))
        with pytest.raises(ValueError, match="node 6 out of range"):
            hop_counts(g, 6)
