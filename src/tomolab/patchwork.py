"""Patch-based reconstruction of a large observable region.

When the tomography machinery can only ingest ``M`` nodes at a time, the
observable set ``S`` is sliced into consecutive patches of ``M // 2``
nodes (:func:`make_patches`), so ``(S, M)`` alone fixes a campaign, and
every patch pair is probed in turn: estimate the combination submatrix on
the union of the two patches, classify its pairs, and merge the decisions
into a growing picture of the region.  Pairs internal to a patch are
probed once per partner patch, so a tie-break policy settles repeat
appearances.

The decisions are one ``|S| x |S|`` int8 matrix (``-1`` undecided, ``0``
disconnected, ``1`` connected).  A merge finds the union's positions in
``S`` with one sorted lookup and updates its block of the matrix with
array operations, so no Python loop runs over pairs.  One trajectory of
the whole observable set serves every experiment, each reading its
union's correlations off it.  Given the true graph, a campaign records
after every merge the :func:`graph_distance` of the estimate so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import SimConfig, simulate_and_accumulate
from .errors import ConfigError
from .graphs import Graph, NodeSet, _from_upper, _locate
from .inference import Classifier, ClassifierMethod, apply_classifier, granger_truncated
from .weights import CombinationMatrix

_KMEANS2 = Classifier(ClassifierMethod.KMEANS2)


class TieBreak(Enum):
    FIRST = "first"
    AND = "and"


def check_probe_limit(m: int) -> None:
    """Refuse, before any draw, a probe limit ``m`` below 4."""
    if m < 4:
        raise ConfigError(f"the probe limit must be at least 4, got {m}")


def make_patches(s: NodeSet, m: int) -> tuple[NodeSet, ...]:
    """Slice ``s`` into consecutive blocks of ``m // 2`` nodes.

    The blocks are disjoint, nonempty and cover ``s`` in order; the last
    may be smaller.  ``m`` must be at least 4, so any two blocks together
    hold ``m // 2 + 1 >= 3`` nodes, enough for the 2-means split.
    """
    check_probe_limit(m)
    if len(s) == 0:
        raise ValueError("cannot partition an empty observable set")
    cap = m // 2
    members = s.members
    return tuple(NodeSet(members[i : i + cap]) for i in range(0, len(members), cap))


@dataclass
class ExperimentRecord:
    """One probed patch pair and the reconstruction state it left behind."""

    index: int
    patch_a: int
    patch_b: int
    pairs_decided: int
    distance: float | None


class ReconstructionState:
    """Pair decisions over an observable set, filled in experiment by experiment.

    Only the upper triangle of the int8 code matrix is written; the rest
    stays ``-1``.
    """

    def __init__(self, s: NodeSet):
        self.s = s
        k = len(s)
        self._code = np.full((k, k), -1, dtype=np.int8)
        self._upper = np.triu(np.ones((k, k), dtype=bool), 1)
        self.experiment_log: list[ExperimentRecord] = []

    def decided_count(self) -> int:
        # codes are -1 off the upper triangle, so every code >= 0 is a decided pair
        return int(np.count_nonzero(self._code >= 0))

    def absorb(self, union: NodeSet, decided: Graph, tiebreak: TieBreak) -> None:
        """Merge the classified subgraph on ``union`` into the pair map.

        Under ``FIRST`` the earliest classification of a pair wins; under
        ``AND`` a pair stays connected only while every experiment that
        sees it votes connected.  A union that reaches outside ``s`` leaves
        the state untouched.
        """
        m = len(union)
        if decided.n != m:
            raise ValueError("decision graph size does not match the union")
        if m < 2:
            return
        pos, inside = _locate(self.s.indices(), union.indices())
        if not inside.all():
            # the first pair in (p, q) order with an endpoint outside s
            q = max(1, int(np.argmin(inside)))
            key = (union[0], union[q])
            raise ValueError(f"pair {key} lies outside the observable set")
        # pos ascends, so the union's upper triangle lands on s's upper one
        block = np.ix_(pos, pos)
        cur = self._code[block]
        vote = decided.adjacency.astype(np.int8)
        open_ = cur < 0
        if tiebreak is TieBreak.AND:
            merged = np.where(open_, vote, np.minimum(cur, vote))
        else:
            merged = np.where(open_, vote, cur)
        upper = self._upper[:m, :m]
        self._code[block] = np.where(upper, merged, cur)

    def estimated_graph(self) -> Graph:
        """Current decisions as a graph on ``s``; undecided pairs stay open."""
        # codes are -1 off the upper triangle: connected flat positions are edge keys
        return _from_upper(len(self.s), np.flatnonzero(self._code == 1))

    def undecided_pairs(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(self._upper & (self._code < 0))
        m = self.s.members
        return [(m[p], m[q]) for p, q in zip(i.tolist(), j.tolist())]


def graph_distance(g_true: Graph, g_est: Graph) -> float:
    """Fraction of node pairs on which two graphs disagree.

    ``(2 / (S (S - 1))) * sum_{i<j} |g_ij - g_hat_ij|``; zero when the
    graphs match.  Both graphs must have the same order.
    """
    if g_true.n != g_est.n:
        raise ValueError(
            f"graph orders differ ({g_true.n} != {g_est.n}); cannot compare"
        )
    k = g_true.n
    if k < 2:
        return 0.0
    diff = np.triu(g_true.adjacency ^ g_est.adjacency, 1).sum()
    return 2.0 * float(diff) / (k * (k - 1))


def run_patch_catch(
    a: CombinationMatrix,
    s: NodeSet,
    probe_limit: int,
    cfg: SimConfig,
    seed: int,
    tiebreak: TieBreak = TieBreak.FIRST,
    truth: Graph | None = None,
) -> ReconstructionState:
    """Probe every pair of ``make_patches(s, probe_limit)`` and assemble ``s``'s graph.

    Pairs ``(i, j)`` of patch indices are visited with ``i`` ascending and
    ``j < i``.  One simulation from ``seed`` covers all of ``s``; each
    experiment reads the patch union's correlations off it, applies the
    truncated estimator and the 2-means classifier, and merges the outcome.

    ``truth`` (a graph on ``s``, in set order) enables the per-experiment
    distance trace: after each merge,
    ``graph_distance(truth, state.estimated_graph())``.
    """
    patches = make_patches(s, probe_limit)
    s.check_within(a.n)
    if truth is not None and truth.n != len(s):
        raise ValueError("truth graph must cover exactly the observable set")
    pairs = [(j, i) for i in range(len(patches)) for j in range(i)]
    state = ReconstructionState(s)
    if not pairs:
        return state

    corr = simulate_and_accumulate(a, cfg, s, seed)
    for exp_index, (j, i) in enumerate(pairs):
        union = patches[j].union(patches[i])
        decided = apply_classifier(granger_truncated(corr.restrict(union)), _KMEANS2)
        state.absorb(union, decided, tiebreak)
        dist = None if truth is None else graph_distance(truth, state.estimated_graph())
        state.experiment_log.append(
            ExperimentRecord(exp_index, j, i, state.decided_count(), dist)
        )
    return state
