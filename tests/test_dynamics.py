"""Stationary correlations: exact solves and streamed empirical estimates."""

import io

import numpy as np
import pytest
import scipy.linalg

from tomolab import (
    CombinationMatrix,
    CombinationRule,
    CorrelationSet,
    NodeSet,
    NoiseKind,
    NumericError,
    PolicyParams,
    SimConfig,
    analytic_correlations,
    build_matrix,
    edgeless_graph,
    granger_truncated,
    ring_graph,
    simulate_and_accumulate,
)
from tomolab.dynamics import series_depth
from conftest import random_observed_network

MET = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)


def full_set(a):
    return NodeSet(tuple(range(a.n)))


def cholesky_correlations(a, beta, s):
    """Dense reference: solve ``(I - A^2) R0 = beta^2 I``, then ``R1 = A R0``."""
    A = a.entries
    c, low = scipy.linalg.cho_factor(np.eye(a.n) - A @ A)
    r0_full = beta * beta * scipy.linalg.cho_solve((c, low), np.eye(a.n))
    r0_full = 0.5 * (r0_full + r0_full.T)
    r1_full = A @ r0_full
    sub = np.ix_(s.indices(), s.indices())
    return r0_full[sub], r1_full[sub]


class TestAnalytic:
    def test_decoupled_network(self):
        # with A = rho I the stationary variance is beta^2 / (1 - rho^2)
        a = build_matrix(edgeless_graph(4), MET)
        corr = analytic_correlations(a, 0.5, full_set(a))
        v = 0.25 / (1 - 0.64)
        assert corr.r0 == pytest.approx(v * np.eye(4), abs=1e-12)
        assert corr.r1 == pytest.approx(0.8 * v * np.eye(4), abs=1e-12)
        assert corr.analytic

    def test_matches_matrix_series(self):
        # R0 = beta^2 sum_k (A^2)^k, truncated far past machine precision
        rng = np.random.default_rng(51)
        for _ in range(10):
            _, s, a, _ = random_observed_network(rng, n_lo=8, n_hi=30)
            acc = np.zeros((a.n, a.n))
            term = np.eye(a.n)
            sq = a.entries @ a.entries
            for _ in range(200):
                acc += term
                term = term @ sq
            beta = 0.7
            idx = s.indices()
            want_r0 = (beta * beta * acc)[np.ix_(idx, idx)]
            want_r1 = (a.entries @ (beta * beta * acc))[np.ix_(idx, idx)]
            corr = analytic_correlations(a, beta, s)
            assert np.abs(corr.r0 - want_r0).max() < 1e-9
            assert np.abs(corr.r1 - want_r1).max() < 1e-9

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize(
        "rule", [CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS]
    )
    def test_matches_dense_cholesky(self, rho, rule):
        rng = np.random.default_rng(int(rho * 100) + (rule is CombinationRule.LAPLACIAN))
        for n_lo, n_hi in ((20, 60), (200, 300)):
            _, s, a, _ = random_observed_network(
                rng, n_lo=n_lo, n_hi=n_hi, rho=rho, rule=rule
            )
            for nodes in (s, full_set(a)):
                want_r0, want_r1 = cholesky_correlations(a, 0.3, nodes)
                corr = analytic_correlations(a, 0.3, nodes)
                assert np.abs(corr.r0 - want_r0).max() < 1e-12
                assert np.abs(corr.r1 - want_r1).max() < 1e-12

    def test_series_depth_from_rho_bound(self):
        assert series_depth(0.8) == 84
        assert series_depth(0.95) == 375
        for rho in (0.3, 0.8, 0.95):
            m = series_depth(rho)
            eps = np.finfo(np.float64).eps
            assert rho ** (2 * m) / (1 - rho * rho) <= eps
            assert rho ** (2 * m - 2) / (1 - rho * rho) > eps

    def test_non_finite_weights_raise_numeric_error(self):
        a = CombinationMatrix(np.array([[np.nan, 0.0], [0.0, 0.1]]), 0.5, validate=False)
        with pytest.raises(NumericError, match="not finite"):
            analytic_correlations(a, 0.3, full_set(a))

    def test_estimator_is_beta_invariant(self):
        rng = np.random.default_rng(52)
        _, s, a, _ = random_observed_network(rng)
        est1 = granger_truncated(analytic_correlations(a, 0.1, s))
        est2 = granger_truncated(analytic_correlations(a, 1.0, s))
        assert np.abs(est1 - est2).max() < 1e-12

    def test_restriction_commutes(self):
        rng = np.random.default_rng(53)
        _, _, a, _ = random_observed_network(rng, n_lo=10, n_hi=20)
        s = NodeSet((1, 4, 7, 9))
        sub = NodeSet((4, 9))
        via_full = analytic_correlations(a, 0.3, s).restrict(sub)
        direct = analytic_correlations(a, 0.3, sub)
        assert via_full.r0 == pytest.approx(direct.r0, abs=1e-14)
        assert via_full.r1 == pytest.approx(direct.r1, abs=1e-14)

    def test_beta_must_be_positive(self):
        a = build_matrix(ring_graph(4), MET)
        with pytest.raises(ValueError, match="beta"):
            analytic_correlations(a, 0.0, full_set(a))


class TestEmpirical:
    def test_manual_replication(self):
        # mirror the noise stream by hand with Rademacher draws and check
        # the burn-in relabeling and the n_max + 1 / n_max divisors
        g = ring_graph(5)
        a = build_matrix(g, MET)
        s = NodeSet((0, 2, 3))
        cfg = SimConfig(
            beta=0.6, n_max=4, burn_in=3, noise=NoiseKind.RADEMACHER, seed=99
        )
        got = simulate_and_accumulate(a, cfg, s)

        rng = np.random.default_rng(99)
        draw = lambda rows: (
            rng.integers(0, 2, size=(rows, 5)).astype(np.float64) * 2.0 - 1.0
        )
        y = np.zeros(5)
        for x in draw(3):
            y = a.entries @ y + 0.6 * x
        samples = [y[s.indices()].copy()]
        for x in draw(4):
            y = a.entries @ y + 0.6 * x
            samples.append(y[s.indices()].copy())
        r0 = sum(np.outer(v, v) for v in samples) / 5.0
        r1 = (
            sum(np.outer(samples[t + 1], samples[t]) for t in range(4)) / 4.0
        )
        assert np.abs(got.r0 - 0.5 * (r0 + r0.T)).max() < 1e-12
        assert np.abs(got.r1 - r1).max() < 1e-12
        assert got.sample_count == 4

    def test_chunk_boundaries_do_not_change_results(self):
        # 1200 main steps span three internal blocks; a single-pass rerun
        # of the same stream must agree to accumulation roundoff
        rng = np.random.default_rng(54)
        _, _, a, _ = random_observed_network(rng, n_lo=6, n_hi=12)
        s = full_set(a)
        cfg = SimConfig(beta=0.4, n_max=1200, burn_in=600, seed=7)
        got = simulate_and_accumulate(a, cfg, s)

        rng2 = np.random.default_rng(7)
        noise = rng2.standard_normal((1800, a.n))
        y = np.zeros(a.n)
        for t in range(600):
            y = a.entries @ y + 0.4 * noise[t]
        samples = [y.copy()]
        for t in range(600, 1800):
            y = a.entries @ y + 0.4 * noise[t]
            samples.append(y.copy())
        arr = np.array(samples)
        r0 = arr.T @ arr / 1201.0
        r1 = arr[1:].T @ arr[:-1] / 1200.0
        assert np.abs(got.r0 - 0.5 * (r0 + r0.T)).max() < 1e-10
        assert np.abs(got.r1 - r1).max() < 1e-10

    def test_reproducible_and_seed_sensitive(self):
        a = build_matrix(ring_graph(6), MET)
        s = NodeSet((0, 3))
        cfg = SimConfig(beta=0.2, n_max=50, burn_in=10, seed=5)
        one = simulate_and_accumulate(a, cfg, s)
        two = simulate_and_accumulate(a, cfg, s)
        assert np.array_equal(one.r0, two.r0)
        assert np.array_equal(one.r1, two.r1)
        other = simulate_and_accumulate(
            a, SimConfig(beta=0.2, n_max=50, burn_in=10, seed=6), s
        )
        assert not np.array_equal(one.r0, other.r0)

    @pytest.mark.parametrize(
        "kind",
        [NoiseKind.GAUSSIAN, NoiseKind.RADEMACHER, NoiseKind.UNIFORM_CENTERED],
    )
    def test_noise_families_have_unit_variance(self, kind):
        # nearly decoupled dynamics expose the driving variance directly
        a = CombinationMatrix(0.01 * np.eye(3), 0.5)
        s = NodeSet((0, 1, 2))
        cfg = SimConfig(beta=1.0, n_max=4000, burn_in=50, noise=kind, seed=8)
        corr = simulate_and_accumulate(a, cfg, s)
        assert np.diag(corr.r0) == pytest.approx(np.ones(3), abs=0.08)

    def test_single_step(self):
        a = build_matrix(ring_graph(3), MET)
        s = full_set(a)
        cfg = SimConfig(beta=0.3, n_max=1, burn_in=0, seed=1)
        corr = simulate_and_accumulate(a, cfg, s)
        # sample 0 is the all-zero start, so the lag-1 average is one
        # outer product with a zero factor
        assert np.array_equal(corr.r1, np.zeros((3, 3)))

    def test_dump_stream(self):
        a = build_matrix(ring_graph(3), MET)
        s = NodeSet((0, 2))
        buf = io.StringIO()
        cfg = SimConfig(beta=0.5, n_max=3, burn_in=2, seed=12)
        corr = simulate_and_accumulate(a, cfg, s, dump=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,node_id,y"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 4 * 2
        assert [row[0] for row in body] == [
            "0", "0", "1", "1", "2", "2", "3", "3"
        ]
        assert {row[1] for row in body} == {"0", "2"}
        # the dumped samples regenerate the lag-0 average
        vals = np.array([float(row[2]) for row in body]).reshape(4, 2)
        r0 = vals.T @ vals / 4.0
        assert corr.r0 == pytest.approx(0.5 * (r0 + r0.T), abs=1e-12)


class TestValidation:
    def test_sim_config_bounds(self):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(beta=0.0, n_max=10)
        with pytest.raises(ValueError, match="n_max"):
            SimConfig(beta=0.1, n_max=0)
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(beta=0.1, n_max=10, burn_in=-1)

    def test_correlation_set_shape_check(self):
        with pytest.raises(ValueError, match="3x3"):
            CorrelationSet(np.eye(2), np.eye(2), 0, NodeSet((0, 1, 2)))

    def test_restrict_unknown_node(self):
        corr = CorrelationSet(np.eye(2), np.eye(2), 0, NodeSet((1, 5)))
        with pytest.raises(ValueError, match="not covered"):
            corr.restrict(NodeSet((2,)))

    def test_empty_observable_rejected(self):
        a = build_matrix(ring_graph(3), MET)
        with pytest.raises(ValueError, match="nonempty"):
            simulate_and_accumulate(a, SimConfig(beta=0.1, n_max=5), NodeSet(()))
