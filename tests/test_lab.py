"""Tests for experiment configuration and the campaign drivers."""

import math

import numpy as np
import pytest

from tomolab import (
    ClassifierMethod,
    ClassifierSpec,
    CombinationRule,
    ConfigError,
    CorrelationMode,
    CRule,
    EmbeddedSource,
    ExperimentConfig,
    Graph,
    PatchCatchConfig,
    PolicyParams,
    RegimeSpec,
    SimConfig,
    TheoryCheckConfig,
    check_small_distance_rarity,
    class_tau,
    complete_graph,
    derive_seed,
    edgeless_graph,
    lab,
    patch_catch_experiment,
    recovery_probability_experiment,
    ring_graph,
    theory_check,
)
from tomolab.lab import (
    THREADS_ENV,
    patch_catch_rows_csv,
    patch_catch_trace_csv,
    recovery_rows_csv,
    resolve_threads,
    theory_rows_csv,
)


class TestSeeds:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_derive_seed_separates_keys(self):
        seen = {derive_seed(0), derive_seed(0, 1), derive_seed(1), derive_seed(1, 2)}
        assert len(seen) == 4

    def test_derive_seed_fits_uint64(self):
        for base in (0, 7, 2**32):
            s = derive_seed(base, 5)
            assert 0 <= s < 2**64


class TestThreadResolution:
    def test_default_is_single_threaded(self):
        assert resolve_threads(None) == 1

    def test_request_is_honored(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_threads(6) == 6

    def test_environment_caps_the_request(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        assert resolve_threads(8) == 2

    def test_nonpositive_values_floor_at_one(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_threads(0) == 1
        assert resolve_threads(-3) == 1

    def test_garbage_environment_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "many")
        with pytest.raises(ConfigError, match="integer"):
            resolve_threads(4)


class TestSparsityRules:
    def test_loglog_value(self):
        assert CRule.loglog().p_for(1000) == pytest.approx(
            0.008840400012898202, abs=1e-18
        )

    def test_multiple_value(self):
        assert CRule.multiple(5.0).p_for(300) == pytest.approx(
            0.09506304124427002, abs=1e-17
        )

    def test_explicit_passes_through(self):
        assert CRule.explicit(0.1).p_for(50) == 0.1

    def test_log_np_matches_materialized_probability(self):
        for rule in (CRule.loglog(), CRule.multiple(4.0), CRule.explicit(0.05)):
            for n in (50, 1000, 10**6):
                expected = math.log(n * rule.p_for(n))
                assert rule.log_np(n) == pytest.approx(expected, rel=1e-13)

    def test_log_np_survives_astronomical_sizes(self):
        val = CRule.loglog().log_np(10**400)
        assert math.isfinite(val)
        assert val > CRule.loglog().log_np(10**50)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            CRule.loglog().p_for(1)
        with pytest.raises(ConfigError, match="at least 2"):
            CRule.loglog().log_np(1)

    def test_probability_overflow_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            CRule.multiple(50.0).p_for(10)

    def test_bad_rule_parameters(self):
        with pytest.raises(ConfigError, match="unknown c rule"):
            CRule("geometric")
        with pytest.raises(ConfigError, match="no parameter"):
            CRule("loglog", 2.0)
        with pytest.raises(ConfigError, match="positive factor"):
            CRule("multiple", 0.0)
        with pytest.raises(ConfigError, match=r"probability in \(0, 1\]"):
            CRule("explicit", 1.5)


class TestRegimeSpec:
    def test_pairs_carry_the_rule(self):
        spec = RegimeSpec((100, 200), CRule.explicit(0.05))
        assert spec.pairs() == [(100, 0.05), (200, 0.05)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            RegimeSpec((), CRule.loglog())

    def test_every_size_validated_eagerly(self):
        with pytest.raises(ConfigError, match="at least 2"):
            RegimeSpec((100, 1), CRule.loglog())


class TestEmbeddedSources:
    def test_ring_is_deterministic(self):
        rng = np.random.default_rng(0)
        g = EmbeddedSource.ring().sample(7, 0.3, rng)
        assert np.array_equal(g.adjacency, ring_graph(7).adjacency)

    def test_explicit_returns_the_given_graph(self):
        planted = ring_graph(5)
        got = EmbeddedSource.explicit(planted).sample(5, 0.3, np.random.default_rng(0))
        assert got is planted

    def test_explicit_size_mismatch_rejected(self):
        src = EmbeddedSource.explicit(ring_graph(5))
        with pytest.raises(ConfigError, match="5 nodes, need 6"):
            src.sample(6, 0.3, np.random.default_rng(0))

    def test_er_extremes(self):
        rng = np.random.default_rng(0)
        dense = EmbeddedSource.er(1.0).sample(6, 0.3, rng)
        sparse = EmbeddedSource.er(0.0).sample(6, 0.3, rng)
        assert np.array_equal(dense.adjacency, complete_graph(6).adjacency)
        assert np.array_equal(sparse.adjacency, edgeless_graph(6).adjacency)

    def test_er_default_density(self):
        # the default edge probability at size s is 2 log(s) / s
        s = 40
        rng = np.random.default_rng(11)
        src = EmbeddedSource.er()
        hits = total = 0
        iu = np.triu_indices(s, k=1)
        for _ in range(200):
            g = src.sample(s, 0.9, rng)
            hits += int(g.adjacency[iu].sum())
            total += len(iu[0])
        assert hits / total == pytest.approx(2.0 * math.log(s) / s, abs=0.01)

    def test_match_p_uses_the_ambient_probability(self):
        rng = np.random.default_rng(0)
        g = EmbeddedSource.match_p().sample(6, 1.0, rng)
        assert np.array_equal(g.adjacency, complete_graph(6).adjacency)

    def test_source_validation(self):
        with pytest.raises(ConfigError, match="unknown embedded source"):
            EmbeddedSource("lattice")
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            EmbeddedSource("er", q=1.5)
        with pytest.raises(ConfigError, match="needs a graph"):
            EmbeddedSource("explicit")

    @pytest.mark.parametrize("kind", ["ring", "match_p", "explicit"])
    def test_q_applies_to_er_only(self, kind):
        graph = ring_graph(5) if kind == "explicit" else None
        with pytest.raises(ConfigError, match="takes no q"):
            EmbeddedSource(kind, 0.3, graph)


class TestClassifierSpec:
    def test_kmeans_resolution_has_no_threshold(self):
        pol = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)
        c = ClassifierSpec(ClassifierMethod.KMEANS2).resolve(pol, 100, 0.1)
        assert c.method is ClassifierMethod.KMEANS2

    def test_explicit_threshold_is_kept(self):
        pol = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)
        c = ClassifierSpec(ClassifierMethod.THRESHOLD, eta=0.03).resolve(pol, 100, 0.1)
        assert c.eta == 0.03

    def test_derived_threshold_value(self):
        pol = PolicyParams(CombinationRule.LAPLACIAN, rho=0.8, lam=1.0)
        p = CRule.loglog().p_for(200)
        c = ClassifierSpec(ClassifierMethod.THRESHOLD).resolve(pol, 200, p)
        assert c.eta == pytest.approx(0.04225035123608308, abs=1e-15)
        assert c.eta == pytest.approx(class_tau(pol) / (200 * p), abs=0.0)

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.nan, math.inf])
    def test_bad_threshold_rejected_at_construction(self, eta):
        with pytest.raises(ConfigError, match="finite positive"):
            ClassifierSpec(ClassifierMethod.THRESHOLD, eta)

    def test_kmeans_takes_no_eta(self):
        with pytest.raises(ConfigError, match="takes no eta"):
            ClassifierSpec(ClassifierMethod.KMEANS2, 0.05)


class TestCorrelationMode:
    def test_kinds(self):
        assert CorrelationMode.analytic().kind == "analytic"
        mode = CorrelationMode.empirical(SimConfig(beta=0.2, n_max=100))
        assert mode.sim.n_max == 100

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown correlation mode"):
            CorrelationMode("oracle")
        with pytest.raises(ConfigError, match="need simulation settings"):
            CorrelationMode("empirical")


def _analytic_config(**overrides):
    base = dict(
        regime=RegimeSpec((10,), CRule.multiple(3.0)),
        s_size=10,
        embedded=EmbeddedSource.match_p(),
        policy=PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
        classifier=ClassifierSpec(ClassifierMethod.KMEANS2),
        correlations=CorrelationMode.analytic(),
        trials=30,
        base_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="nonempty"):
            _analytic_config(s_size=0)
        with pytest.raises(ConfigError, match="at least one trial"):
            _analytic_config(trials=0)
        with pytest.raises(ConfigError, match="exceeds N"):
            _analytic_config(s_size=11)


class TestRecoveryExperiment:
    def test_full_observation_always_recovers(self):
        rows = recovery_probability_experiment(_analytic_config())
        assert len(rows) == 1
        assert rows[0].perfect == rows[0].trials == 30
        assert rows[0].fraction == 1.0
        assert (rows[0].ci_lo, rows[0].ci_hi) == (1.0, 1.0)

    def test_interval_brackets_the_fraction(self):
        cfg = _analytic_config(
            regime=RegimeSpec((40,), CRule.multiple(3.0)),
            s_size=6,
            embedded=EmbeddedSource.er(),
            trials=12,
        )
        row = recovery_probability_experiment(cfg)[0]
        assert 0.0 <= row.ci_lo <= row.fraction <= row.ci_hi <= 1.0
        assert row.fraction == row.perfect / row.trials

    def test_large_trial_never_builds_a_dense_graph(self, monkeypatch):
        # an analytic trial at N=2000 must run on the CSR rows alone;
        # only |S|-sized graphs may build their dense view
        built = []
        dense_view = Graph.adjacency.fget

        def spy(g):
            if g._dense is None:
                built.append(g.n)
            return dense_view(g)

        monkeypatch.setattr(Graph, "adjacency", property(spy))
        cfg = _analytic_config(
            regime=RegimeSpec((2000,), CRule.loglog()),
            embedded=EmbeddedSource.er(),
            trials=2,
        )
        recovery_probability_experiment(cfg)
        assert all(n <= cfg.s_size for n in built)
        ring_graph(4).adjacency
        assert built[-1] == 4

    def test_numeric_failures_count_as_missed(self, caplog):
        # three retained samples cannot produce a rank-6 lag-zero matrix
        cfg = _analytic_config(
            regime=RegimeSpec((20,), CRule.multiple(3.0)),
            s_size=6,
            embedded=EmbeddedSource.er(),
            correlations=CorrelationMode.empirical(
                SimConfig(beta=0.2, n_max=2, burn_in=5)
            ),
            trials=2,
        )
        with caplog.at_level("WARNING", logger="tomolab.lab"):
            rows = recovery_probability_experiment(cfg)
        assert rows[0].perfect == 0
        assert "failed numerically" in caplog.text

    def test_csv_layout(self):
        rows = recovery_probability_experiment(_analytic_config(trials=4))
        text = recovery_rows_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "N,trials,perfect,fraction,ci_lo,ci_hi"
        n, trials, perfect, frac, lo, hi = lines[1].split(",")
        assert (int(n), int(trials)) == (10, 4)
        assert float(frac) == rows[0].fraction

    def test_thread_count_does_not_change_results(self):
        cfg = _analytic_config(
            regime=RegimeSpec((40,), CRule.multiple(3.0)),
            s_size=6,
            embedded=EmbeddedSource.er(),
            classifier=ClassifierSpec(ClassifierMethod.THRESHOLD),
            policy=PolicyParams(CombinationRule.LAPLACIAN, rho=0.8, lam=1.0),
            correlations=CorrelationMode.empirical(
                SimConfig(beta=0.2, n_max=4000, burn_in=200)
            ),
            trials=8,
            base_seed=3,
        )
        lone = recovery_rows_csv(recovery_probability_experiment(cfg, threads=1))
        pool = recovery_rows_csv(recovery_probability_experiment(cfg, threads=4))
        assert lone == pool


def _patch_config(**overrides):
    base = dict(
        n=40,
        c_rule=CRule.multiple(3.0),
        s_size=8,
        probe_limit=8,
        policy=PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
        sim=SimConfig(beta=0.2, n_max=3000, burn_in=200),
        trials=3,
        base_seed=1,
    )
    base.update(overrides)
    return PatchCatchConfig(**base)


class TestPatchCatchCampaign:
    def test_validation(self):
        with pytest.raises(ConfigError, match=r"\[2, N=40\]"):
            _patch_config(s_size=1)
        with pytest.raises(ConfigError, match=r"\[2, N=40\]"):
            _patch_config(s_size=41)
        with pytest.raises(ConfigError, match="at least one trial"):
            _patch_config(trials=0)
        with pytest.raises(ConfigError, match="n_max >= 10"):
            _patch_config(sim=SimConfig(beta=0.2, n_max=5, burn_in=2))

    def test_trial_records(self):
        results = patch_catch_experiment(_patch_config())
        assert [r.trial for r in results] == [0, 1, 2]
        for r in results:
            # eight observable nodes yield two patches and one experiment
            assert len(r.trace) == 1
            assert 0.0 <= r.final_distance <= 1.0
            assert r.final_distance == r.trace[-1]

    def test_csv_layouts(self):
        results = patch_catch_experiment(_patch_config(trials=2))
        rows = patch_catch_rows_csv(results).strip().splitlines()
        assert rows[0] == "trial,final_distance"
        assert len(rows) == 3
        assert float(rows[1].split(",")[1]) == results[0].final_distance
        trace = patch_catch_trace_csv(results).strip().splitlines()
        assert trace[0] == "trial,experiment_index,distance"
        assert trace[1].split(",")[:2] == ["0", "0"]

    def test_thread_count_does_not_change_results(self):
        cfg = _patch_config()
        lone = patch_catch_rows_csv(patch_catch_experiment(cfg, threads=1))
        pool = patch_catch_rows_csv(patch_catch_experiment(cfg, threads=3))
        assert lone == pool


class TestSmallDistanceRarity:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one trial"):
            check_small_distance_rarity(60, 0.1, 6, trials=0)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            check_small_distance_rarity(60, 1.0, 6, trials=10)

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a rejected configuration sampled")

        monkeypatch.setattr(lab, "_er_hops_0_1", draw)
        monkeypatch.setattr(lab, "sample_partial_er", draw)

    # N = 1 has no pair (0, 1), and N p = 1 zeroes the bound's denominator
    @pytest.mark.parametrize("n, p", [(1, 0.5), (2, 0.5)])
    def test_no_probing_radius_rejected_before_sampling(self, n, p, no_sampling):
        with pytest.raises(ConfigError, match="exceed 1"):
            check_small_distance_rarity(n, p, 1, trials=10)

    def test_bad_observable_size_rejected_before_sampling(self, no_sampling):
        with pytest.raises(ValueError, match="out of range"):
            check_small_distance_rarity(60, 0.1, 61, trials=10)

    def test_report_structure(self):
        rep = check_small_distance_rarity(60, 0.1, 6, trials=300, base_seed=2)
        assert (rep.n, rep.p, rep.trials) == (60, 0.1, 300)
        assert [row.r for row in rep.rows] == [1, 2, 3]
        assert rep.r_n == 1
        assert 0.0 <= rep.dsmall_frequency <= 1.0

    def test_bound_formula(self):
        rep = check_small_distance_rarity(60, 0.1, 6, trials=50, base_seed=2)
        np_prod = 6.0
        for row in rep.rows:
            expected = 0.1 * np_prod ** (row.r - 1) / (1.0 - 1.0 / np_prod)
            assert row.bound == pytest.approx(expected, rel=1e-12)
            sig = math.sqrt(row.empirical * (1.0 - row.empirical) / 50)
            assert row.sigma == pytest.approx(sig, abs=1e-15)

    def test_empirical_grows_with_radius(self):
        rep = check_small_distance_rarity(60, 0.1, 6, trials=300, base_seed=2)
        emp = [row.empirical for row in rep.rows]
        assert emp[0] <= emp[1] <= emp[2]
        # radius one measures plain edge presence, so it sits near p
        assert abs(emp[0] - 0.1) < 0.06


class TestProbingRadius:
    @pytest.mark.parametrize("n", [200, 500, 2000, 10_000])
    @pytest.mark.parametrize("rule", [CRule.loglog(), CRule.multiple(1.5)])
    def test_rarity_and_theory_check_agree(self, n, rule):
        rep = check_small_distance_rarity(n, rule.p_for(n), 10, trials=1)
        assert rep.r_n == theory_check(TheoryCheckConfig(0.8, (n,), rule))[0].r_n

    @pytest.mark.parametrize("n, r_n", [(1000, 3), (2000, 2)])
    def test_agree_beyond_radius_one(self, n, r_n):
        rule = CRule.explicit(0.003)
        rep = check_small_distance_rarity(n, 0.003, 10, trials=1)
        assert rep.r_n == theory_check(TheoryCheckConfig(0.8, (n,), rule))[0].r_n == r_n

    def test_sparse_graph_rejected_alike(self):
        # N p = 0.6: no probing radius exists
        with pytest.raises(ConfigError, match="exceed 1"):
            check_small_distance_rarity(200, 0.003, 10, trials=1)
        with pytest.raises(ConfigError, match="exceed 1"):
            theory_check(TheoryCheckConfig(0.8, (200,), CRule.explicit(0.003)))

    def test_small_run_keeps_its_values(self):
        # values of the per-neighbor search that one multi-source search replaced
        rep = check_small_distance_rarity(200, CRule.loglog().p_for(200), 10, trials=300)
        assert rep.r_n == 1
        assert rep.dsmall_frequency == 0.9933333333333333
        assert [(r.r, r.empirical, r.bound, r.sigma) for r in rep.rows] == [
            (1, 0.03666666666666667, 0.04066665697033278, 0.010850840554571832),
            (2, 0.27666666666666667, 0.2832720032448886, 0.02582777718027771),
            (3, 0.82, 1.9731896792232329, 0.02218107301281884),
        ]
        assert all(type(r.empirical) is float for r in rep.rows)

    def test_benchmark_run_keeps_its_values(self):
        # values of the full N^2 draw that part one read before it jumped
        # through the stream
        rep = check_small_distance_rarity(
            500, CRule.loglog().p_for(500), 10, trials=200, base_seed=0
        )
        assert rep.r_n == 1
        assert rep.dsmall_frequency == 0.99
        assert [(r.r, r.empirical, r.bound, r.sigma) for r in rep.rows] == [
            (1, 0.02, 0.018367051485113944, 0.009899494936611665),
            (2, 0.13, 0.14769884222090704, 0.02378024390118823),
            (3, 0.62, 1.1877218295531473, 0.03432200460346103),
        ]


class TestTheoryCheck:
    def test_validation(self):
        with pytest.raises(ConfigError, match="rho"):
            TheoryCheckConfig(1.0, (1e3,), CRule.loglog())
        with pytest.raises(ConfigError, match="nonempty"):
            TheoryCheckConfig(0.8, (), CRule.loglog())
        with pytest.raises(ConfigError, match="observable size"):
            TheoryCheckConfig(0.8, (1e3,), CRule.loglog(), s_size=0)

    def test_degenerate_radius_rejected(self):
        with pytest.raises(ConfigError, match="r_N"):
            theory_check(TheoryCheckConfig(0.8, (9.0,), CRule.explicit(0.9)))
        with pytest.raises(ConfigError, match="exceed 1"):
            theory_check(TheoryCheckConfig(0.8, (5.0,), CRule.explicit(0.15)))

    def test_moderate_grid_values(self):
        grid = tuple(10.0**k for k in range(3, 9))
        rows = theory_check(TheoryCheckConfig(0.8, grid, CRule.loglog()))
        assert [r.r_n for r in rows] == [1, 1, 2, 2, 2, 3]
        assert rows[0].error_tail == pytest.approx(2.8968222762264837, rel=1e-14)
        for r in rows:
            assert r.error_tail == pytest.approx(math.exp(r.log_error_tail), rel=1e-12)

    def test_tails_vanish_at_extreme_sizes(self):
        grid = tuple(10**k for k in (50, 100, 150, 200, 300, 400))
        for rho in (0.5, 0.8, 0.9):
            rows = theory_check(TheoryCheckConfig(rho, grid, CRule.loglog()))
            errs = [r.log_error_tail for r in rows]
            dists = [r.log_distance_tail for r in rows]
            assert all(a > b for a, b in zip(errs, errs[1:]))
            assert all(a > b for a, b in zip(dists, dists[1:]))
            assert errs[-1] < 0 and dists[-1] < 0

    def test_csv_layout(self):
        rows = theory_check(TheoryCheckConfig(0.8, (1e3, 1e4), CRule.loglog()))
        lines = theory_rows_csv(rows).strip().splitlines()
        assert lines[0] == "N,r_N,error_tail,distance_tail"
        first = lines[1].split(",")
        assert float(first[0]) == 1e3
        assert int(first[1]) == 1
        assert float(first[2]) == rows[0].error_tail
