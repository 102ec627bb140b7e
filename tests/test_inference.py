"""Topology estimators, the truncation-error algebra and both classifiers."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tomolab import (
    Classifier,
    ClassifierMethod,
    CombinationMatrix,
    CombinationRule,
    CorrelationSet,
    NodeSet,
    NumericError,
    PartialErSpec,
    PolicyParams,
    UnsupportedMethodError,
    analytic_correlations,
    apply_classifier,
    build_matrix,
    class_tau,
    classification_report,
    classify_kmeans2,
    classify_threshold,
    edgeless_graph,
    error_matrix,
    granger_truncated,
    h_entry_bound_check,
    sample_er,
    sample_partial_er,
    subgraph,
    symmetrize,
    two_means_1d,
)
from tomolab.inference import _solve_estimator
from conftest import random_observed_network


def full_set(a):
    return NodeSet(tuple(range(a.n)))


def dense_error(a, s):
    """``A_{SS'} (I - B_{S'})^{-1} B_{S'S}`` with dense matrices: the oracle."""
    A = a.entries
    si, pi = s.indices(), s.complement(a.n).indices()
    B = A @ A
    x = np.linalg.solve(np.eye(len(pi)) - B[np.ix_(pi, pi)], B[np.ix_(pi, si)])
    return A[np.ix_(si, pi)] @ x


class TestFullRecovery:
    def test_exact_on_random_networks(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            _, _, a, _ = random_observed_network(rng, n_lo=5, n_hi=50)
            corr = analytic_correlations(a, 0.2, full_set(a))
            assert np.abs(granger_truncated(corr) - a.entries).max() < 1e-9


class TestTruncationError:
    def test_estimator_decomposition(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            _, s, a, _ = random_observed_network(rng)
            est = granger_truncated(analytic_correlations(a, 0.2, s))
            arts = error_matrix(a, s)
            assert np.abs(est - (arts.a_s_true + arts.e_s)).max() < 1e-9
            assert np.abs(est - arts.a_hat_s).max() < 1e-9

    def test_error_is_nonnegative(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            _, s, a, _ = random_observed_network(rng)
            assert error_matrix(a, s).e_s.min() >= -1e-12

    def test_full_observation_has_zero_error(self):
        rng = np.random.default_rng(65)
        _, _, a, _ = random_observed_network(rng)
        arts = error_matrix(a, full_set(a))
        assert np.array_equal(arts.e_s, np.zeros((a.n, a.n)))

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize(
        "rule", [CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS]
    )
    def test_matches_dense_solve(self, rho, rule):
        rng = np.random.default_rng(int(rho * 1000) + (rule is CombinationRule.LAPLACIAN))
        for n_lo, n_hi in ((20, 60), (200, 300)):
            _, s, a, _ = random_observed_network(
                rng, n_lo=n_lo, n_hi=n_hi, rho=rho, rule=rule
            )
            sets = (s, full_set(a))
            got = [error_matrix(a, nodes) for nodes in sets]
            assert a._dense is None
            for nodes, arts in zip(sets, got):
                idx = nodes.indices()
                assert np.abs(arts.e_s - dense_error(a, nodes)).max() < 1e-12
                assert np.array_equal(arts.a_s_true, a.entries[np.ix_(idx, idx)])
                assert np.array_equal(arts.a_hat_s, arts.a_s_true + arts.e_s)

    def test_non_finite_weights_raise_numeric_error(self):
        # the NaN sits in the observed block for {0} and reaches the
        # hidden rows of the solve for {1}
        a = CombinationMatrix(np.array([[np.nan, 0.0], [0.0, 0.1]]), 0.5, validate=False)
        for nodes in (NodeSet((0,)), NodeSet((1,)), full_set(a)):
            with pytest.raises(NumericError, match="not finite"):
                error_matrix(a, nodes)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(66)
        _, _, a, _ = random_observed_network(rng)
        with pytest.raises(ValueError, match="nonempty"):
            error_matrix(a, NodeSet(()))


class TestHiddenBlockBounds:
    def test_bound_holds_on_random_networks(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            g, s, a, _ = random_observed_network(rng)
            report = h_entry_bound_check(a, g, s)
            assert report.ok
            assert report.violations == 0
            assert report.block_identity_dev <= 1e-12
            assert report.pairs_checked == (a.n - len(s)) * (a.n - len(s) - 1)

    def test_unreachable_pairs_are_vacuous(self):
        # an isolated unobserved node cannot reach any other unobserved
        # node, so all of its bound checks are vacuous zeros
        rng = np.random.default_rng(68)
        s = NodeSet((0, 1, 2))
        spec = PartialErSpec(8, 0.6, s, edgeless_graph(3))
        g = sample_partial_er(spec, rng)
        adj = g.adjacency.copy()
        adj[7, :] = False
        adj[:, 7] = False
        adj[7, 7] = True
        from tomolab import Graph

        g_iso = Graph(adj)
        a = build_matrix(g_iso, PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
        report = h_entry_bound_check(a, g_iso, s)
        assert report.ok
        assert report.vacuous_pairs >= 2 * 4

    def test_complement_built_once(self, monkeypatch):
        rng = np.random.default_rng(70)
        g, s, a, _ = random_observed_network(rng)
        calls = []
        complement = NodeSet.complement

        def counted(self, n):
            calls.append(n)
            return complement(self, n)

        monkeypatch.setattr(NodeSet, "complement", counted)
        assert h_entry_bound_check(a, g, s).ok
        assert calls == [a.n]

    def test_full_observation_report(self):
        rng = np.random.default_rng(69)
        _, _, a, _ = random_observed_network(rng)
        g = a.support_graph()
        report = h_entry_bound_check(a, g, full_set(a))
        assert report.pairs_checked == 0
        assert report.ok


class TestNumericFailures:
    def test_singular_lag0_raises(self):
        corr = CorrelationSet(
            np.zeros((3, 3)), np.zeros((3, 3)), 10, NodeSet((0, 1, 2))
        )
        with pytest.raises(NumericError) as err:
            granger_truncated(corr)
        assert math.isinf(err.value.condition)

    def test_ill_conditioned_lag0_warns(self, caplog):
        r0 = np.diag([1.0, 1e-10])
        corr = CorrelationSet(r0, 0.1 * r0, 10, NodeSet((0, 1)))
        with caplog.at_level("WARNING", logger="tomolab.inference"):
            granger_truncated(corr)
        assert any("poorly conditioned" in rec.message for rec in caplog.records)

    def test_indefinite_lag0_raises_with_condition(self):
        r0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        corr = CorrelationSet(r0, np.zeros((2, 2)), 10, NodeSet((0, 1)))
        with pytest.raises(NumericError) as err:
            granger_truncated(corr)
        assert err.value.condition == pytest.approx(1.0)

    def test_nan_lag0_raises_with_nan_condition(self):
        r0 = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="not finite") as err:
            _solve_estimator(r0, np.eye(2))
        assert math.isnan(err.value.condition)

    def test_failed_factorization_reports_one_norm_condition(self):
        # indefinite, with 1-norm condition 7.5 and 2-norm condition 4.8
        r0 = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 1.0], [0.0, 1.0, 0.1]])
        with pytest.raises(NumericError, match="solve failed") as err:
            _solve_estimator(r0, np.eye(3))
        assert err.value.condition == np.linalg.cond(r0, 1)
        assert err.value.condition == pytest.approx(7.5)

    @pytest.mark.parametrize("cond2, warns", [(0.7e8, False), (0.9e8, True)])
    def test_warning_threshold_uses_one_norm_condition(self, caplog, cond2, warns):
        # eigenvalues 1, 1, 1/cond2 along a rotated axis: the 1-norm
        # condition is 4/3 of the 2-norm one, so 0.9e8 crosses 1e8
        q = np.full(3, 1.0 / math.sqrt(3.0))
        r0 = np.eye(3) - (1.0 - 1.0 / cond2) * np.outer(q, q)
        cond1 = np.linalg.cond(r0, 1)
        assert np.linalg.cond(r0) < 1e8
        assert (cond1 > 1e8) == warns
        with caplog.at_level("WARNING", logger="tomolab.inference"):
            _solve_estimator(r0, 0.1 * r0)
        quoted = [rec.args[0] for rec in caplog.records if "poorly" in rec.message]
        if warns:
            assert quoted == [pytest.approx(cond1, rel=1e-6)]
        else:
            assert quoted == []


class TestSolveOracle:
    @pytest.mark.parametrize("k", [2, 3, 10, 60])
    def test_matches_cholesky_solve(self, k):
        rng = np.random.default_rng(500 + k)
        n = 2 * k + 20
        g = sample_er(n, min(1.0, 3.0 * math.log(n) / n), rng)
        a = build_matrix(g, PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
        corr = analytic_correlations(a, 0.2, NodeSet(tuple(range(k))))
        c, low = scipy.linalg.cho_factor(corr.r0)
        oracle = scipy.linalg.cho_solve((c, low), corr.r1.T).T
        est = granger_truncated(corr)
        assert np.abs(est - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestThresholdClassifier:
    def test_strictness_and_direction(self):
        m = np.array(
            [
                [0.9, 0.30, 0.10],
                [0.05, 0.9, 0.20],
                [0.10, 0.05, 0.9],
            ]
        )
        dec = classify_threshold(m, 0.2)
        # 0.30 > eta connects (0,1); (1,2) holds exactly eta and stays off
        assert dec.adjacency[0, 1] and dec.adjacency[1, 0]
        assert not dec.adjacency[1, 2]
        assert not dec.adjacency[0, 2]
        # either directed entry can clear the threshold
        dec_low = classify_threshold(m, 0.08)
        assert dec_low.adjacency[0, 2]

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(71)
        m = rng.uniform(0, 1, size=(6, 6))
        prev = None
        for eta in (0.1, 0.3, 0.5, 0.7):
            edges = classify_threshold(m, eta).edge_count()
            if prev is not None:
                assert edges <= prev
            prev = edges

    def test_eta_validation(self):
        with pytest.raises(ValueError, match="eta"):
            classify_threshold(np.eye(3), 0.0)
        with pytest.raises(ValueError, match="eta"):
            classify_threshold(np.eye(3), float("nan"))

    def test_recovers_pinned_instance(self):
        # analytic correlations, Laplacian weights, eta = tau / (N p):
        # seed 0 plants two edges with wide margins on both sides
        n, s_size = 200, 10
        p = (math.log(n) + math.log(math.log(n))) / n
        params = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8)
        eta = class_tau(params) / (n * p)
        s = NodeSet(tuple(range(s_size)))
        rng = np.random.default_rng(0)
        planted = sample_er(s_size, p, rng)
        g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
        a = build_matrix(g, params)
        est = granger_truncated(analytic_correlations(a, 0.2, s))
        assert planted.edge_count() == 2
        assert classify_threshold(est, eta) == planted


def brute_force_sse(values):
    best = math.inf
    n = len(values)
    for bits in range(1, 2**n - 1):
        a = [v for k, v in enumerate(values) if bits >> k & 1]
        b = [v for k, v in enumerate(values) if not bits >> k & 1]
        sse = sum((v - sum(a) / len(a)) ** 2 for v in a) + sum(
            (v - sum(b) / len(b)) ** 2 for v in b
        )
        best = min(best, sse)
    return best


class TestTwoMeans:
    def test_separated_clusters(self):
        vals = [0.01, 0.02, 0.50, 0.52, 0.49]
        upper, sse = two_means_1d(vals)
        assert upper.tolist() == [False, False, True, True, True]
        assert sse == pytest.approx(
            np.var([0.01, 0.02]) * 2 + np.var([0.50, 0.52, 0.49]) * 3
        )

    def test_two_values(self):
        upper, sse = two_means_1d([3.0, -1.0])
        assert upper.tolist() == [True, False]
        assert sse == 0.0

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            two_means_1d([1.0])

    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_partitioning(self, values):
        _, sse = two_means_1d(values)
        best = brute_force_sse(values)
        assert sse <= best + 1e-9 * max(1.0, abs(best))

    def test_upper_cluster_has_higher_mean(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            vals = rng.normal(size=rng.integers(2, 12))
            upper, _ = two_means_1d(vals)
            assert vals[upper].mean() > vals[~upper].mean()


class TestKMeansClassifier:
    def test_separated_edge_group(self):
        # three strong pairs and the rest near zero
        k = 4
        m = np.full((k, k), 0.01)
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            m[i, j] = m[j, i] = 0.4
        np.fill_diagonal(m, 0.8)
        dec = classify_kmeans2(m)
        assert dec.adjacency[0, 1] and dec.adjacency[1, 2] and dec.adjacency[2, 3]
        assert not dec.adjacency[0, 2]
        assert not dec.adjacency[0, 3]

    def test_all_equal_values_mean_no_edges(self):
        m = np.full((5, 5), 0.3)
        assert classify_kmeans2(m) == edgeless_graph(5)

    def test_too_few_nodes(self):
        with pytest.raises(UnsupportedMethodError, match="classify_threshold"):
            classify_kmeans2(np.eye(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(73)
        m = rng.uniform(0, 1, size=(7, 7))
        assert classify_kmeans2(m) == classify_kmeans2(3.7 * m)

    def test_uses_symmetrized_entries(self):
        # a strong one-directional entry counts at half strength
        m = np.full((4, 4), 0.01)
        np.fill_diagonal(m, 0.5)
        m[0, 1] = 0.6
        dec = classify_kmeans2(m)
        assert dec.adjacency[0, 1]

    def test_recovery_rate_on_analytic_instances(self):
        rng = np.random.default_rng(74)
        n, s_size = 100, 10
        p = (math.log(n) + math.log(math.log(n))) / n
        params = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8)
        s = NodeSet(tuple(range(s_size)))
        hits = 0
        for _ in range(20):
            planted = sample_er(s_size, p, rng)
            g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
            a = build_matrix(g, params)
            est = granger_truncated(analytic_correlations(a, 0.2, s))
            hits += classify_kmeans2(est) == planted
        assert hits >= 16


class TestClassifierFrontend:
    def test_threshold_dispatch(self):
        m = np.array([[0.5, 0.25, 0.0], [0.05, 0.5, 0.0], [0.0, 0.0, 0.5]])
        cls = Classifier(ClassifierMethod.THRESHOLD, eta=0.1)
        # dispatch symmetrizes first, so (0,1) carries (0.25 + 0.05) / 2
        assert apply_classifier(m, cls) == classify_threshold(symmetrize(m), 0.1)

    def test_kmeans_dispatch(self):
        rng = np.random.default_rng(75)
        m = rng.uniform(0, 1, size=(5, 5))
        cls = Classifier(ClassifierMethod.KMEANS2)
        assert apply_classifier(m, cls) == classify_kmeans2(m)

    def test_threshold_requires_eta(self):
        with pytest.raises(ValueError, match="eta"):
            Classifier(ClassifierMethod.THRESHOLD)

    def test_report_carries_global_ids(self):
        m = np.array([[0.5, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.5]])
        dec = classify_threshold(m, 0.1)
        recs = classification_report(m, dec, NodeSet((4, 8, 9)))
        assert len(recs) == 3
        assert recs[0] == {"i": 4, "j": 8, "score": 0.3, "decision": True}
        assert recs[2]["i"] == 8 and recs[2]["j"] == 9
        assert recs[2]["decision"] is False


class TestReportOracle:
    def test_matches_pair_loop(self):
        rng = np.random.default_rng(41)
        for k in (2, 3, 7, 12):
            est = rng.normal(size=(k, k))
            decided = sample_er(k, 0.4, rng)
            nodes = NodeSet.of(rng.choice(100, size=k, replace=False))
            sym = symmetrize(est)
            want = [
                {
                    "i": nodes[p],
                    "j": nodes[q],
                    "score": float(sym[p, q]),
                    "decision": bool(decided.adjacency[p, q]),
                }
                for p in range(k)
                for q in range(p + 1, k)
            ]
            got = classification_report(est, decided, nodes)
            assert got == want
            assert json.dumps(got) == json.dumps(want)
            assert all(
                type(r["i"]) is int and type(r["score"]) is float
                and type(r["decision"]) is bool
                for r in got
            )
