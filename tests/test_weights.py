"""Combination-weight rules and their structural guarantees."""

import math

import numpy as np
import pytest
import scipy.sparse

from tomolab import (
    CombinationMatrix,
    CombinationRule,
    Graph,
    PolicyParams,
    build_matrix,
    check_weight_floor,
    class_tau,
    from_edges,
    laplacian_matrix,
    max_degree,
    metropolis_matrix,
    ring_graph,
)
from conftest import csr_view, random_observed_network, same_bits, unchecked_weights

LAP = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8)
MET = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)


def star_plus_edge():
    """Center 4 linked to 0 and 1, plus the separate edge 2-3.

    Degrees (self-loop included) are 3 for the center and 2 elsewhere, so
    the global maximum degree exceeds the pairwise maximum on edge 2-3 and
    the two rules produce different weights there.
    """
    return from_edges(5, [(0, 4), (1, 4), (2, 3)])


class TestHandValues:
    def test_two_node_laplacian(self):
        a = laplacian_matrix(from_edges(2, [(0, 1)]), LAP)
        assert a.entries == pytest.approx(np.full((2, 2), 0.4))

    def test_star_plus_edge_laplacian(self):
        a = laplacian_matrix(star_plus_edge(), LAP)
        w = 0.8 / 3
        assert a.entries[0, 4] == pytest.approx(w)
        assert a.entries[2, 3] == pytest.approx(w)
        assert a.entries[4, 4] == pytest.approx(0.8 * (1 - 2 / 3))
        assert a.entries[0, 0] == pytest.approx(0.8 * (1 - 1 / 3))
        assert a.entries[0, 1] == 0.0

    def test_star_plus_edge_metropolis(self):
        a = metropolis_matrix(star_plus_edge(), MET)
        assert a.entries[0, 4] == pytest.approx(0.8 / 3)
        # pairwise maximum degree is 2 here, not the global 3
        assert a.entries[2, 3] == pytest.approx(0.4)
        assert a.entries[2, 2] == pytest.approx(0.4)
        assert a.entries[4, 4] == pytest.approx(0.8 - 2 * 0.8 / 3)

    def test_half_step_laplacian(self):
        params = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8, lam=0.5)
        a = laplacian_matrix(ring_graph(4), params)
        assert a.entries[0, 1] == pytest.approx(0.8 * 0.5 / 3)
        assert a.entries[0, 0] == pytest.approx(0.8 * (1 - 0.5 * 2 / 3))

    def test_edgeless_is_rho_identity(self):
        from tomolab import edgeless_graph

        for params in (LAP, MET):
            a = build_matrix(edgeless_graph(4), params)
            assert a.entries == pytest.approx(0.8 * np.eye(4))


class TestStructuralInvariants:
    def test_row_sums_hit_rho_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            _, _, a, params = random_observed_network(
                rng, n_lo=5, n_hi=40, rho=float(rng.uniform(0.3, 0.95))
            )
            assert np.abs(a.row_sums() - params.rho).max() < 1e-12

    def test_support_matches_graph(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            g, _, a, _ = random_observed_network(rng, n_lo=5, n_hi=40)
            assert a.support_graph() == g

    def test_spectral_radius_within_rho(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            _, _, a, params = random_observed_network(rng, n_lo=5, n_hi=40)
            top = np.abs(np.linalg.eigvalsh(a.entries)).max()
            assert top <= params.rho + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            _, _, a, _ = random_observed_network(rng, n_lo=5, n_hi=40)
            assert np.array_equal(a.entries, a.entries.T)


def dense_laplacian(g, params):
    """Dense reference for the Laplacian rule."""
    adj = g.adjacency
    deg = adj.sum(axis=1)
    dmax = int(deg.max())
    w = (params.rho * params.lam / dmax) * adj.astype(np.float64)
    w[np.diag_indices_from(w)] = params.rho * (1.0 - params.lam * (deg - 1) / dmax)
    return w


def dense_metropolis(g, params):
    """Dense reference for the Metropolis rule."""
    adj = g.adjacency
    deg = adj.sum(axis=1)
    ratio = adj.astype(np.float64) / np.maximum.outer(deg, deg)
    np.fill_diagonal(ratio, 0.0)
    w = params.rho * ratio
    w[np.diag_indices_from(w)] = params.rho * (1.0 - ratio.sum(axis=1))
    return w


class TestSparseBuilders:
    @pytest.mark.parametrize(
        "rule, oracle",
        [
            (CombinationRule.LAPLACIAN, dense_laplacian),
            (CombinationRule.METROPOLIS, dense_metropolis),
        ],
    )
    def test_match_dense_formulas(self, rule, oracle):
        rng = np.random.default_rng(37)
        for trial in range(30):
            n_hi = 300 if trial % 10 == 0 else 40
            g, _, a, params = random_observed_network(
                rng, n_lo=5, n_hi=n_hi, rule=rule, rho=float(rng.uniform(0.3, 0.95))
            )
            want = oracle(g, params)
            got = a.entries
            assert np.abs(got - want).max() <= 1e-15
            assert np.array_equal(got != 0.0, want != 0.0)
            assert np.array_equal(got, got.T)
            assert (csr_view(a) != csr_view(a).T).nnz == 0
            assert a.n == got.shape[0] == g.n
            assert np.abs(a.row_sums() - got.sum(axis=1)).max() <= 1e-15
            support = got > 0.0
            np.fill_diagonal(support, True)
            assert a.support_graph() == Graph(support)

    def test_entries_view_is_read_only(self):
        a = metropolis_matrix(ring_graph(5), MET)
        view = a.entries
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 1] = 1.0
        assert a.entries is view
        assert not csr_view(a).data.flags.writeable

    def test_dense_input_is_the_cached_view(self):
        m = np.array([[0.3, 0.2], [0.2, 0.3]])
        a = CombinationMatrix(m, 0.6)
        assert np.array_equal(a.entries, m)
        assert not a.entries.flags.writeable
        assert np.array_equal(csr_view(a).toarray(), m)

    def test_support_ignores_explicit_zeros(self):
        # the off-diagonal pair (0, 1) is stored with value zero
        w = scipy.sparse.csr_array(
            (
                np.array([0.3, 0.0, 0.0, 0.3, 0.5]),
                np.array([0, 1, 0, 1, 2]),
                np.array([0, 2, 4, 5]),
            ),
            shape=(3, 3),
        )
        a = CombinationMatrix(w, 0.6)
        assert csr_view(a).nnz == 5
        assert a.support_graph() == from_edges(3, [])
        assert np.array_equal(a.entries, np.diag([0.3, 0.3, 0.5]))

    def test_sparse_input_is_validated(self):
        w = scipy.sparse.csr_array(np.array([[0.3, 0.1], [0.0, 0.3]]))
        with pytest.raises(ValueError, match="symmetric"):
            CombinationMatrix(w, 0.6)

    @pytest.mark.parametrize(
        "m, match",
        [
            ([[0.1, -0.05], [-0.05, 0.1]], "non-negative"),
            ([[0.5, 0.4], [0.4, 0.5]], "row sums"),
            ([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]], "square"),
            ([[np.nan, 0.1], [0.1, 0.2]], "finite"),
            ([[0.3, np.nan], [np.nan, 0.2]], "finite"),
            ([[np.inf, 0.1], [0.1, 0.2]], "finite"),
        ],
    )
    def test_sparse_input_rejects_what_dense_input_rejects(self, m, match):
        w = scipy.sparse.csr_array(np.array(m))
        with pytest.raises(ValueError, match=match):
            CombinationMatrix(w, 0.8)
        if len(m) == len(m[0]):
            with pytest.raises(ValueError, match=match):
                CombinationMatrix(np.array(m), 0.8)


def scipy_support(a):
    """support_graph read off scipy's COO form of the weights."""
    coo = csr_view(a).tocoo()
    upper = (coo.row < coo.col) & (coo.data > 0.0)
    return from_edges(a.n, np.column_stack([coo.row[upper], coo.col[upper]]))


def scipy_weight_floor(a, g, gamma):
    """check_weight_floor on scipy's sparse difference of the two patterns."""
    data = np.full(g.indices.size, gamma / max_degree(g))
    floor = scipy.sparse.csr_array((data, g.indices, g.indptr), shape=(g.n, g.n))
    slack = (csr_view(a) - floor).tocoo()
    off = slack.row != slack.col
    return bool(slack.data[off].min(initial=np.inf) >= -1e-12)


def assert_matches_scipy_view(a, g):
    """The array code paths agree bit for bit with scipy on the same arrays."""
    got = (a.row_sums(), a.support_graph(), a.entries)
    gammas = (1e-6, a.rho_bound / 2, a.rho_bound, 2 * a.rho_bound)
    floors = [check_weight_floor(a, g, gamma) for gamma in gammas]
    view = csr_view(a)
    assert view.nnz == a.nnz
    assert np.shares_memory(view.data, a.data) and not view.data.flags.writeable
    assert same_bits(got[0], view.sum(axis=1))
    assert got[1] == scipy_support(a)
    assert same_bits(got[2], view.toarray())
    assert floors == [scipy_weight_floor(a, g, gamma) for gamma in gammas]


class TestScipyViewOracle:
    @pytest.mark.parametrize("rule", list(CombinationRule))
    def test_builders_on_random_networks(self, rule):
        rng = np.random.default_rng(39)
        for trial in range(20):
            n_hi = 300 if trial % 5 == 0 else 60
            g, _, a, _ = random_observed_network(rng, n_lo=5, n_hi=n_hi, rule=rule)
            assert_matches_scipy_view(a, g)

    def test_scipy_input_with_an_explicit_zero_and_an_empty_row(self):
        # row 1 stores nothing; the pair (0, 2) is stored as an explicit zero
        w = scipy.sparse.csr_array(
            (
                np.array([0.3, 0.0, 0.0, 0.5, 0.1, 0.1]),
                np.array([0, 2, 0, 2, 3, 2]),
                np.array([0, 2, 2, 5, 6]),
            ),
            shape=(4, 4),
        )
        a = CombinationMatrix(w, 0.7)
        assert a.nnz == 6
        assert a.row_sums()[1] == 0.0
        for g in (from_edges(4, [(2, 3)]), from_edges(4, [(0, 2), (2, 3)])):
            assert_matches_scipy_view(CombinationMatrix(w, 0.7), g)

    def test_dense_input_keeps_its_nonzero_entries(self):
        m = np.array([[0.3, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.2]])
        a = CombinationMatrix(m, 0.5)
        assert a.nnz == 4
        assert a.indptr.tolist() == [0, 2, 2, 4]
        assert a.indices.tolist() == [0, 2, 0, 2]
        assert a.indptr.dtype == a.indices.dtype
        assert same_bits(csr_view(a).toarray(), m)


class TestClassThreshold:
    def test_values(self):
        assert class_tau(LAP) == pytest.approx(0.2943035529371539, abs=1e-15)
        assert class_tau(MET) == pytest.approx(0.2943035529371539, abs=1e-15)
        half = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8, lam=0.5)
        assert class_tau(half) == pytest.approx(0.14715177646857694, abs=1e-15)

    def test_lam_ignored_for_metropolis(self):
        assert class_tau(MET) == class_tau(
            PolicyParams(CombinationRule.METROPOLIS, rho=0.8, lam=1.0)
        )


class TestEdgeWeightFloor:
    def test_laplacian_achieves_equality(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            g, _, a, params = random_observed_network(
                rng, n_lo=5, n_hi=40, rule=CombinationRule.LAPLACIAN
            )
            assert check_weight_floor(a, g, params.rho * params.lam)

    def test_metropolis_clears_rho_floor(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            g, _, a, params = random_observed_network(
                rng, n_lo=5, n_hi=40, rule=CombinationRule.METROPOLIS
            )
            assert check_weight_floor(a, g, params.rho)

    def test_too_large_gamma_fails(self):
        g = star_plus_edge()
        a = metropolis_matrix(g, MET)
        assert not check_weight_floor(a, g, 2 * 0.8)

    def test_gamma_must_be_positive(self):
        g = ring_graph(4)
        a = metropolis_matrix(g, MET)
        with pytest.raises(ValueError, match="positive"):
            check_weight_floor(a, g, 0.0)


def dense_weight_floor(a, g, gamma):
    """The N x N slack computation that check_weight_floor replaced."""
    floor = (gamma / max_degree(g)) * g.adjacency.astype(np.float64)
    slack = a.entries - floor
    off = ~np.eye(a.n, dtype=bool)
    return bool(slack[off].min() >= -1e-12)


class TestEdgeWeightFloorOracle:
    def test_verdicts_match_dense_slack(self):
        rng = np.random.default_rng(38)
        for trial in range(40):
            g, _, a, params = random_observed_network(rng, n_lo=5, n_hi=60)
            edges = np.argwhere(np.triu(g.adjacency, 1))
            gaps = np.argwhere(~g.adjacency)
            if trial % 2 and len(edges) and len(gaps):
                # weights whose support differs from the graph: a missing
                # edge weight, and a small negative or positive weight on a
                # pair the graph does not connect
                dense = a.entries.copy()
                (i, j), (k, m) = edges[trial % len(edges)], gaps[0]
                dense[i, j] = dense[j, i] = 0.0
                dense[k, m] = dense[m, k] = 1e-3 if trial % 4 == 1 else -1e-9
                a = unchecked_weights(dense, params.rho)
            dmax = max_degree(g)
            for gamma in (1e-6, params.rho / 2, params.rho, 2 * params.rho, dmax / 2):
                assert check_weight_floor(a, g, gamma) == dense_weight_floor(a, g, gamma)


class TestValidation:
    def test_policy_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            PolicyParams(CombinationRule.LAPLACIAN, rho=1.0)
        with pytest.raises(ValueError, match="lam"):
            PolicyParams(CombinationRule.LAPLACIAN, rho=0.5, lam=0.0)

    def test_metropolis_takes_no_lam(self):
        with pytest.raises(ValueError, match="laplacian rule only"):
            PolicyParams(CombinationRule.METROPOLIS, rho=0.5, lam=0.3)
        assert PolicyParams(CombinationRule.METROPOLIS, rho=0.5, lam=1.0).lam == 1.0

    def test_rule_mismatch(self):
        g = ring_graph(4)
        with pytest.raises(ValueError, match="expected laplacian"):
            laplacian_matrix(g, MET)
        with pytest.raises(ValueError, match="expected metropolis"):
            metropolis_matrix(g, LAP)

    def test_matrix_rejects_asymmetry(self):
        m = np.zeros((2, 2))
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            CombinationMatrix(m, 0.8)

    def test_matrix_rejects_negative(self):
        m = np.array([[0.1, -0.05], [-0.05, 0.1]])
        with pytest.raises(ValueError, match="non-negative"):
            CombinationMatrix(m, 0.8)

    def test_matrix_rejects_heavy_rows(self):
        m = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(ValueError, match="row sums"):
            CombinationMatrix(m, 0.8)

    def test_matrix_accepts_custom_entries(self):
        m = np.array([[0.3, 0.2], [0.2, 0.3]])
        a = CombinationMatrix(m, 0.6)
        assert a.n == 2
        assert a.row_sums() == pytest.approx([0.5, 0.5])

