"""Acceptance suite: twelve headline checks, one verdict line each.

Each test prints a ``[PASS]``/``[FAIL]`` line straight to the terminal so
the outcome of every criterion is visible even in a quiet pytest run.
The heavyweight campaign in criterion 10 takes the bulk of the runtime.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_observed_network
from tomolab import (
    Classifier,
    ClassifierMethod,
    CombinationRule,
    CRule,
    EmbeddedSource,
    ExperimentConfig,
    NodeSet,
    PartialErSpec,
    PatchCatchConfig,
    PolicyParams,
    SimConfig,
    analytic_correlations,
    build_matrix,
    check_small_distance_rarity,
    class_tau,
    derive_seed,
    error_matrix,
    granger_truncated,
    h_entry_bound_check,
    inherit,
    local_disconnect,
    max_degree,
    neighborhood,
    patch_catch_experiment,
    recovery_probability_experiment,
    sample_er,
    sample_partial_er,
    simulate_and_accumulate,
    two_means_1d,
)
from tomolab.graphs import hop_counts
from tomolab.lab import patch_catch_rows_csv, patch_catch_trace_csv, recovery_rows_csv


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def instance_bank():
    """One hundred random partially observed networks shared by 2, 3, 4."""
    rng = np.random.default_rng(20240823)
    rules = (CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS)
    bank = []
    for k in range(100):
        g, s, a, params = random_observed_network(
            rng, rho=(0.5, 0.8)[(k // 2) % 2], rule=rules[k % 2]
        )
        bank.append((g, s, a, error_matrix(a, s)))
    return bank


def test_01_full_observation_recovery_is_exact(capsys):
    rng = np.random.default_rng(101)
    rules = (CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(5, 51))
        p = min(1.0, 2.0 * math.log(n) / n)
        g = sample_er(n, p, rng)
        pol = PolicyParams(rules[k % 2], rho=(0.5, 0.8)[(k // 2) % 2], lam=1.0)
        a = build_matrix(g, pol)
        corr = analytic_correlations(a, 0.3, NodeSet(tuple(range(n))))
        err = float(np.abs(granger_truncated(corr) - a.entries).max())
        worst = max(worst, err)
    announce(capsys, 1, worst <= 1e-9, f"full-observation max error {worst:.2e}")


def test_02_truncated_estimate_matches_its_decomposition(capsys, instance_bank):
    worst = 0.0
    for g, s, a, arts in instance_bank:
        est = granger_truncated(analytic_correlations(a, 0.2, s))
        expected = arts.a_s_true + arts.e_s
        worst = max(worst, float(np.abs(est - expected).max()))
    announce(capsys, 2, worst <= 1e-9, f"decomposition max deviation {worst:.2e}")


def test_03_truncation_error_is_nonnegative(capsys, instance_bank):
    low = min(float(arts.e_s.min()) for _, _, _, arts in instance_bank)
    announce(capsys, 3, low >= -1e-12, f"smallest error entry {low:.2e}")


def test_04_latent_chain_entries_obey_distance_decay(capsys, instance_bank):
    violations = 0
    pairs = 0
    block_dev = 0.0
    for g, s, a, _ in instance_bank:
        report = h_entry_bound_check(a, g, s)
        violations += report.violations
        pairs += report.pairs_checked
        block_dev = max(block_dev, report.block_identity_dev)
    ok = violations == 0 and block_dev <= 1e-12
    announce(
        capsys, 4, ok,
        f"{violations} bound violations over {pairs} pairs, "
        f"block identity off by {block_dev:.2e}",
    )


def test_05_neighbor_merging_couples_distances(capsys):
    rng = np.random.default_rng(505)
    checked = 0
    contraction = preservation = True
    while checked < 200:
        g, s, a, params = random_observed_network(rng)
        sl = list(s)
        open_pairs = [
            (i, j)
            for x, i in enumerate(sl)
            for j in sl[x + 1 :]
            if not g.adjacency[i, j]
        ]
        if not open_pairs:
            continue
        i, j = open_pairs[int(rng.integers(len(open_pairs)))]
        cut = local_disconnect(g, s, s)
        rest = NodeSet.of(x for x in sl if x not in (i, j))
        merged = inherit(cut, j, rest)
        sp = s.complement(g.n).indices()
        for l_node in sp:
            before = hop_counts(cut, int(l_node))[sp]
            after = hop_counts(merged, int(l_node))[sp]
            if not np.all(after <= before):
                contraction = False
        kept = set(neighborhood(g, j, 2)) & set(map(int, sp))
        if not kept <= set(neighborhood(merged, j, 2)):
            preservation = False
        checked += 1
    ok = contraction and preservation
    announce(
        capsys, 5, ok,
        f"200 merge instances: distances contract={contraction}, "
        f"two-hop set preserved={preservation}",
    )


def test_06_short_cross_paths_are_rare(capsys):
    p = CRule.loglog().p_for(500)
    report = check_small_distance_rarity(500, p, 10, trials=5000, base_seed=0)
    bad = [r.r for r in report.rows if r.empirical > r.bound + 3.0 * r.sigma]
    summary = ", ".join(
        f"r={r.r} {r.empirical:.4f}<={r.bound:.4f}+3({r.sigma:.4f})"
        for r in report.rows
    )
    announce(capsys, 6, not bad, f"short-path rates within bounds: {summary}")


def test_07_magnified_weights_clear_the_class_floor(capsys):
    n = 1000
    p = CRule.loglog().p_for(n)
    rng = np.random.default_rng(derive_seed(3, 7))
    policies = (
        PolicyParams(CombinationRule.LAPLACIAN, rho=0.8, lam=1.0),
        PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
    )
    above = [0, 0]
    total = 0
    degree_ok = 0
    for _ in range(50):
        g = sample_er(n, p, rng)
        iu = np.triu(g.adjacency, 1)
        total += int(iu.sum())
        for idx, pol in enumerate(policies):
            vals = build_matrix(g, pol).entries[iu]
            above[idx] += int((n * p * vals > class_tau(pol)).sum())
        degree_ok += max_degree(g) < math.e * n * p
    freqs = [cnt / total for cnt in above]
    ok = min(freqs) >= 0.95 and degree_ok / 50 >= 0.99
    announce(
        capsys, 7, ok,
        f"weight floor met at {freqs[0]:.4f}/{freqs[1]:.4f}, "
        f"max degree in range {degree_ok}/50",
    )


def test_08_recovery_probability_endpoints(capsys):
    tiny = ExperimentConfig(
        n_grid=(10,),
        c_rule=CRule.multiple(2.0),
        s_size=10,
        embedded=EmbeddedSource("er"),
        policy=PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
        classifier=Classifier(ClassifierMethod.KMEANS2),
        sim=None,
        trials=100,
        base_seed=8,
    )
    full = recovery_probability_experiment(tiny, threads=4)[0].fraction
    fractions = []
    for rule in (CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS):
        cfg = ExperimentConfig(
            n_grid=(200,),
            c_rule=CRule.loglog(),
            s_size=10,
            embedded=EmbeddedSource("er"),
            policy=PolicyParams(rule, rho=0.8, lam=1.0),
            classifier=Classifier(ClassifierMethod.KMEANS2),
            sim=None,
            trials=100,
            base_seed=8,
        )
        fractions.append(recovery_probability_experiment(cfg, threads=4)[0].fraction)
    ok = full == 1.0 and min(fractions) >= 0.9
    announce(
        capsys, 8, ok,
        f"fully observed fraction {full:.2f}, partially observed "
        f"{fractions[0]:.2f}/{fractions[1]:.2f}",
    )


def test_09_empirical_estimates_converge_with_sample_size(capsys):
    n, s_size = 100, 10
    p = 2.0 * math.log(n) / n
    rng = np.random.default_rng(derive_seed(9))
    s = NodeSet(tuple(range(s_size)))
    planted = sample_er(s_size, 2.0 * math.log(s_size) / s_size, rng)
    g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
    a = build_matrix(g, PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
    target = granger_truncated(analytic_correlations(a, 0.2, s))
    grid = (1000, 10000, 100000)
    medians = []
    for mi, n_max in enumerate(grid):
        errs = []
        for k in range(20):
            sim = SimConfig(beta=0.2, n_max=n_max, burn_in=1000)
            emp = granger_truncated(simulate_and_accumulate(a, sim, s, derive_seed(9, k, mi)))
            errs.append(float(np.abs(emp - target).max()))
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log10(grid), np.log10(medians), 1)[0])
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and -0.7 <= slope <= -0.3
    announce(
        capsys, 9, ok,
        f"error medians {medians[0]:.4f}/{medians[1]:.4f}/{medians[2]:.4f}, "
        f"slope {slope:.2f}",
    )


@pytest.mark.slow
def test_10_patch_campaigns_reconstruct_the_observable_graph(capsys):
    policy = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)
    sim = SimConfig(beta=0.2, n_max=100000, burn_in=1000)

    small = PatchCatchConfig(
        n=300, c_rule=CRule.multiple(5.0), s_size=20, probe_limit=10,
        policy=policy, sim=sim, trials=20, base_seed=0,
    )
    small_res = patch_catch_experiment(small, threads=8)
    finals = [r.final_distance for r in small_res]
    perfect = sum(1 for f in finals if f == 0.0)
    mean_final = sum(finals) / len(finals)

    large = PatchCatchConfig(
        n=300, c_rule=CRule.multiple(5.0), s_size=60, probe_limit=10,
        policy=policy, sim=sim, trials=20, base_seed=0,
    )
    large_res = patch_catch_experiment(large, threads=8)
    pair_count = 60 * 59 // 2
    near = sum(
        1 for r in large_res if round(r.final_distance * pair_count) <= 4
    )
    steps = sum(len(r.trace) - 1 for r in large_res)
    noninc = sum(
        sum(1 for a, b in zip(r.trace, r.trace[1:]) if b <= a) for r in large_res
    )
    noninc_frac = noninc / steps

    ok = (
        perfect >= 14
        and mean_final <= 0.02
        and near >= 14
        and noninc_frac >= 0.9
    )
    announce(
        capsys, 10, ok,
        f"20 nodes: {perfect}/20 exact, mean distance {mean_final:.5f}; "
        f"60 nodes: {near}/20 within four pairs, "
        f"trace non-increasing {noninc_frac:.3f}",
    )


def _exhaustive_sse(values: np.ndarray) -> float:
    best = math.inf
    n = values.size
    for mask in range(1, 2**n - 1):
        picks = np.array([(mask >> b) & 1 for b in range(n)], dtype=bool)
        lo, hi = values[~picks], values[picks]
        sse = float(((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum())
        if sse < best:
            best = sse
    return best


def test_11_interval_scan_matches_exhaustive_clustering(capsys):
    rng = np.random.default_rng(1111)
    worst = 0.0
    for case in range(1000):
        size = int(rng.integers(2, 13))
        kind = case % 3
        if kind == 0:
            values = rng.normal(0.0, 1.0, size)
        elif kind == 1:
            values = rng.integers(0, 4, size).astype(float)
        else:
            values = rng.normal(5.0e5, 1.0e-3, size)
        _, sse = two_means_1d(values)
        best = _exhaustive_sse(values)
        worst = max(worst, abs(sse - best) / max(1.0, abs(best)))
    announce(
        capsys, 11, worst <= 1e-9,
        f"1000 multisets, worst relative gap {worst:.2e}",
    )


def test_12_runs_are_deterministic_across_thread_counts(capsys):
    recovery = ExperimentConfig(
        n_grid=(40,),
        c_rule=CRule.multiple(3.0),
        s_size=6,
        embedded=EmbeddedSource("er"),
        policy=PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
        classifier=Classifier(ClassifierMethod.KMEANS2),
        sim=SimConfig(beta=0.2, n_max=4000, burn_in=200),
        trials=8,
        base_seed=12,
    )
    rec = [
        recovery_rows_csv(recovery_probability_experiment(recovery, threads=t))
        for t in (1, 1, 8)
    ]
    campaign = PatchCatchConfig(
        n=40, c_rule=CRule.multiple(3.0), s_size=8, probe_limit=8,
        policy=PolicyParams(CombinationRule.METROPOLIS, rho=0.8),
        sim=SimConfig(beta=0.2, n_max=3000, burn_in=200),
        trials=3, base_seed=12,
    )
    pc = [
        patch_catch_rows_csv(res) + patch_catch_trace_csv(res)
        for res in (
            patch_catch_experiment(campaign, threads=t) for t in (1, 1, 8)
        )
    ]
    ok = (
        rec[0].encode() == rec[1].encode() == rec[2].encode()
        and pc[0].encode() == pc[1].encode() == pc[2].encode()
    )
    announce(capsys, 12, ok, "repeat and 1-vs-8-thread outputs byte-identical")
