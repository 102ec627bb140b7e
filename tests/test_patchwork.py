"""Patch planning, pairwise probing experiments and decision merging."""

import math

import numpy as np
import pytest

from tomolab import (
    CombinationRule,
    ConfigError,
    NodeSet,
    PairStatus,
    PartialErSpec,
    PatchPlan,
    PolicyParams,
    ReconstructionState,
    SimConfig,
    TieBreak,
    build_matrix,
    classify_kmeans2,
    complete_graph,
    edgeless_graph,
    experiment_log_csv,
    from_edges,
    granger_truncated,
    graph_distance,
    make_patches,
    ring_graph,
    run_patch_catch,
    sample_partial_er,
    simulate_and_accumulate,
    subgraph,
    symmetrize,
)


class TestPatchPlanning:
    def test_even_split(self):
        plan = make_patches(NodeSet(tuple(range(20))), 10)
        assert plan.patch_count == 4
        assert all(len(p) == 5 for p in plan.patches)
        assert plan.observable().members == tuple(range(20))

    def test_sixty_nodes_make_sixty_six_experiments(self):
        plan = make_patches(NodeSet(tuple(range(60))), 10)
        assert plan.patch_count == 12
        assert plan.patch_count * (plan.patch_count - 1) // 2 == 66

    def test_remainder_block(self):
        plan = make_patches(NodeSet(tuple(range(7))), 10)
        assert [len(p) for p in plan.patches] == [5, 2]

    def test_probe_limit_floor(self):
        with pytest.raises(ValueError, match="probe"):
            make_patches(NodeSet(tuple(range(8))), 3)

    def test_plan_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PatchPlan((NodeSet((0, 1)), NodeSet((1, 2))), 10)

    def test_plan_rejects_oversized_patch(self):
        with pytest.raises(ValueError, match="cap"):
            PatchPlan((NodeSet((0, 1, 2, 3, 4, 5)),), 10)

    def test_plan_rejects_empty(self):
        with pytest.raises(ValueError):
            PatchPlan((), 10)


class TestGraphDistance:
    def test_identical(self):
        assert graph_distance(ring_graph(6), ring_graph(6)) == 0.0

    def test_complementary(self):
        assert graph_distance(complete_graph(5), edgeless_graph(5)) == 1.0

    def test_two_wrong_pairs_on_sixty(self):
        g = edgeless_graph(60)
        est = from_edges(60, [(0, 1), (10, 20)])
        assert graph_distance(g, est) == pytest.approx(2 / 1770)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="orders differ"):
            graph_distance(ring_graph(4), ring_graph(5))

    def test_single_node(self):
        assert graph_distance(edgeless_graph(1), edgeless_graph(1)) == 0.0


class TestDecisionMerging:
    def setup_method(self):
        self.s = NodeSet((0, 1, 2, 3))
        self.u = NodeSet((0, 1, 2))

    def test_first_vote_sticks(self):
        state = ReconstructionState(self.s)
        state.absorb(self.u, from_edges(3, [(0, 1)]), TieBreak.FIRST)
        state.absorb(self.u, edgeless_graph(3), TieBreak.FIRST)
        assert state.status[(0, 1)] is PairStatus.CONNECTED

    def test_and_demotes_on_disagreement(self):
        state = ReconstructionState(self.s)
        state.absorb(self.u, from_edges(3, [(0, 1)]), TieBreak.AND)
        state.absorb(self.u, edgeless_graph(3), TieBreak.AND)
        assert state.status[(0, 1)] is PairStatus.DISCONNECTED

    def test_and_never_promotes(self):
        state = ReconstructionState(self.s)
        state.absorb(self.u, edgeless_graph(3), TieBreak.AND)
        state.absorb(self.u, from_edges(3, [(0, 1)]), TieBreak.AND)
        assert state.status[(0, 1)] is PairStatus.DISCONNECTED

    def test_undecided_pairs_score_as_disconnected(self):
        state = ReconstructionState(self.s)
        state.absorb(self.u, from_edges(3, [(0, 2)]), TieBreak.FIRST)
        est = state.estimated_graph()
        assert est.adjacency[0, 2]
        assert not est.adjacency[0, 3]
        assert state.undecided_pairs() == [(0, 3), (1, 3), (2, 3)]
        assert state.decided_count() == 3

    def test_absorb_checks_membership(self):
        state = ReconstructionState(NodeSet((0, 1)))
        with pytest.raises(ValueError, match="outside"):
            state.absorb(NodeSet((0, 5)), edgeless_graph(2), TieBreak.FIRST)

    def test_absorb_checks_size(self):
        state = ReconstructionState(self.s)
        with pytest.raises(ValueError, match="size"):
            state.absorb(self.u, edgeless_graph(4), TieBreak.FIRST)


class DictReconstructionState:
    """The dict-of-``PairStatus`` merge state, kept as the oracle."""

    def __init__(self, s):
        self.s = s
        self.status = {
            (s[i], s[j]): PairStatus.UNDECIDED
            for i in range(len(s))
            for j in range(i + 1, len(s))
        }

    def decided_count(self):
        return sum(1 for v in self.status.values() if v is not PairStatus.UNDECIDED)

    def absorb(self, union, decided, tiebreak):
        if decided.n != len(union):
            raise ValueError("decision graph size does not match the union")
        for p in range(len(union)):
            for q in range(p + 1, len(union)):
                key = (union[p], union[q])
                if key not in self.status:
                    raise ValueError(f"pair {key} lies outside the observable set")
                vote = (
                    PairStatus.CONNECTED
                    if decided.adjacency[p, q]
                    else PairStatus.DISCONNECTED
                )
                cur = self.status[key]
                if cur is PairStatus.UNDECIDED:
                    self.status[key] = vote
                elif tiebreak is TieBreak.AND and vote is PairStatus.DISCONNECTED:
                    self.status[key] = PairStatus.DISCONNECTED

    def estimated_graph(self):
        k = len(self.s)
        adj = np.eye(k, dtype=bool)
        pos = {node: i for i, node in enumerate(self.s)}
        for (u, v), st in self.status.items():
            if st is PairStatus.CONNECTED:
                adj[pos[u], pos[v]] = True
                adj[pos[v], pos[u]] = True
        return adj

    def undecided_pairs(self):
        return [k for k, v in self.status.items() if v is PairStatus.UNDECIDED]


def random_vote(rng, m):
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m) if rng.random() < 0.5]
    return from_edges(m, pairs)


class TestMergeStateOracle:
    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_state_after_every_absorb(self, tiebreak, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 30))
        s = NodeSet.of(rng.choice(200, size=k, replace=False))
        state, oracle = ReconstructionState(s), DictReconstructionState(s)
        truth = random_vote(rng, k)
        truth_upper = np.triu(truth.adjacency, 1)
        for _ in range(25):
            m = int(rng.integers(0, min(k, 10) + 1))
            union = NodeSet.of(rng.choice(s.members, size=m, replace=False))
            vote = random_vote(rng, m)
            state.absorb(union, vote, tiebreak)
            oracle.absorb(union, vote, tiebreak)
            assert list(state.status.items()) == list(oracle.status.items())
            assert state.decided_count() == oracle.decided_count()
            assert state.undecided_pairs() == oracle.undecided_pairs()
            assert np.array_equal(state.estimated_graph().adjacency, oracle.estimated_graph())
            assert state.distance(truth_upper) == graph_distance(truth, state.estimated_graph())

    @pytest.mark.parametrize(
        "union",
        [(0, 5), (5, 7), (2, 5), (1, 2, 3, 9), (0, 1, 2, 3, 5), (3, 4, 8), (0, 4, 6, 7)],
    )
    def test_outside_pair_error_matches(self, union):
        s = NodeSet((0, 1, 2, 3, 4, 6))
        union = NodeSet(union)
        vote = random_vote(np.random.default_rng(len(union)), len(union))
        with pytest.raises(ValueError) as want:
            DictReconstructionState(s).absorb(union, vote, TieBreak.FIRST)
        state = ReconstructionState(s)
        with pytest.raises(ValueError) as got:
            state.absorb(union, vote, TieBreak.FIRST)
        assert str(got.value) == str(want.value)
        # the rejected union leaves no partial decisions behind
        assert state.decided_count() == 0

    def test_single_outside_node_has_no_pair(self):
        state = ReconstructionState(NodeSet((0, 1)))
        state.absorb(NodeSet((7,)), edgeless_graph(1), TieBreak.FIRST)
        assert state.decided_count() == 0


def small_campaign(seed=0, tiebreak=TieBreak.FIRST, shared=True):
    """12 observable nodes in a 60-node network, three patches of four."""
    n, s_size = 60, 12
    p = 2.5 * math.log(n) / n
    s = NodeSet(tuple(range(s_size)))
    rng = np.random.default_rng(seed)
    planted = ring_graph(s_size)
    g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
    a = build_matrix(g, PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
    plan = make_patches(s, 8)
    cfg = SimConfig(beta=0.2, n_max=40_000, burn_in=500, seed=seed)
    truth = subgraph(g, s)
    state = run_patch_catch(
        a, plan, cfg, tiebreak=tiebreak, truth=truth, shared_trajectory=shared
    )
    return state, truth, a, plan, cfg


class TestProbingRuns:
    def test_covers_every_pair(self):
        state, _, _, plan, _ = small_campaign()
        assert plan.patch_count == 3
        assert len(state.experiment_log) == 3
        assert not state.undecided_pairs()

    def test_distance_trace_is_recorded(self):
        state, truth, _, _, _ = small_campaign()
        trace = [rec.distance for rec in state.experiment_log]
        assert len(trace) == 3
        assert all(d is not None and 0.0 <= d <= 1.0 for d in trace)
        assert trace[-1] == graph_distance(truth, state.estimated_graph())

    @pytest.mark.parametrize("tiebreak", list(TieBreak))
    def test_every_round_distance_is_graph_distance(self, tiebreak, monkeypatch):
        # fifteen rounds of two-node patches on a short trajectory, so the
        # estimate changes and errs; after each merge, graph_distance of the
        # rebuilt estimate is the oracle for the logged distance
        n, s = 60, NodeSet(tuple(range(12)))
        g = sample_partial_er(
            PartialErSpec(n, 2.5 * math.log(n) / n, s, ring_graph(12)),
            np.random.default_rng(8),
        )
        a = build_matrix(g, PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
        truth = subgraph(g, s)
        oracle = []
        absorb = ReconstructionState.absorb

        def absorb_and_measure(state, union, decided, tb):
            absorb(state, union, decided, tb)
            oracle.append(graph_distance(truth, state.estimated_graph()))

        monkeypatch.setattr(ReconstructionState, "absorb", absorb_and_measure)
        cfg = SimConfig(beta=0.2, n_max=3000, burn_in=100, seed=8)
        state = run_patch_catch(a, make_patches(s, 4), cfg, tiebreak=tiebreak, truth=truth)
        trace = [rec.distance for rec in state.experiment_log]
        assert len(trace) == 15 and len(set(trace)) > 2
        assert trace == oracle

    def test_ring_is_reconstructed(self):
        state, truth, _, _, _ = small_campaign()
        # a planted ring at this sample size comes out nearly perfect
        assert state.experiment_log[-1].distance <= 2 / 66

    def test_single_patch_pair_equals_direct_run(self):
        # two patches covering s: the one experiment is a plain local
        # tomography run on the union
        state, truth, a, _, cfg = small_campaign()
        s = NodeSet(tuple(range(12)))
        plan2 = PatchPlan((NodeSet(tuple(range(6))), NodeSet(tuple(range(6, 12)))), 12)
        state2 = run_patch_catch(a, plan2, cfg, truth=truth)
        corr = simulate_and_accumulate(a, cfg, s)
        direct = classify_kmeans2(symmetrize(granger_truncated(corr)))
        assert state2.estimated_graph() == direct

    def test_shared_and_fresh_trajectories_both_work(self):
        state_a, truth, _, _, _ = small_campaign(shared=True)
        state_b, _, _, _, _ = small_campaign(shared=False)
        assert state_a.experiment_log[-1].distance <= 3 / 66
        assert state_b.experiment_log[-1].distance <= 3 / 66

    def test_experiment_order(self):
        state, _, _, _, _ = small_campaign()
        order = [(rec.patch_a, rec.patch_b) for rec in state.experiment_log]
        assert order == [(0, 1), (0, 2), (1, 2)]

    def test_truth_size_checked(self):
        _, _, a, plan, cfg = small_campaign()
        with pytest.raises(ValueError, match="observable"):
            run_patch_catch(a, plan, cfg, truth=ring_graph(5))

    def test_tiny_union_rejected(self):
        a = build_matrix(ring_graph(6), PolicyParams(CombinationRule.METROPOLIS, rho=0.8))
        plan = PatchPlan((NodeSet((0,)), NodeSet((1,))), 4)
        with pytest.raises(ConfigError, match="fewer than 3"):
            run_patch_catch(a, plan, SimConfig(beta=0.2, n_max=10))


class TestExperimentLog:
    def test_csv_layout(self):
        state, _, _, _, _ = small_campaign()
        text = experiment_log_csv(state)
        lines = text.strip().splitlines()
        assert lines[0] == "experiment_index,patch_a,patch_b,pairs_decided,distance"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "1"
        float(first[4])

    def test_distance_blank_without_truth(self):
        _, _, a, plan, cfg = small_campaign()
        state = run_patch_catch(a, plan, cfg)
        lines = experiment_log_csv(state).strip().splitlines()
        assert lines[1].endswith(",")
