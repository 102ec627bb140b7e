"""Patch-based reconstruction of a large observable region.

When the tomography machinery can only ingest ``M`` nodes at a time, the
observable set is split into patches of at most ``M // 2`` nodes and every
patch pair is probed in turn: estimate the combination submatrix on the
union of the two patches, classify its pairs, and merge the decisions into
a growing picture of the region.  Pairs internal to a patch are probed once
per partner patch, so a tie-break policy settles repeat appearances.

The decisions are one ``|S| x |S|`` int8 matrix (``-1`` undecided, ``0``
disconnected, ``1`` connected) with a running count of decided pairs.  A
merge finds the union's positions in ``S`` with one sorted lookup and
updates its block of the matrix with array operations, so no Python loop
runs over pairs; the dict of :class:`PairStatus` values is built only when
``status`` is read.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import CorrelationSet, SimConfig, derive_seed, simulate_and_accumulate
from .errors import ConfigError
from .graphs import Graph, NodeSet, _locate
from .inference import classify_kmeans2, granger_truncated, symmetrize
from .weights import CombinationMatrix


class TieBreak(Enum):
    FIRST = "first"
    AND = "and"


class PairStatus(Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class PatchPlan:
    """Disjoint patches covering the observable region."""

    patches: tuple[NodeSet, ...]
    probe_limit: int

    def __post_init__(self):
        if self.probe_limit < 4:
            raise ValueError(
                f"the probe limit must be at least 4, got {self.probe_limit}"
            )
        if not self.patches:
            raise ValueError("a plan needs at least one patch")
        seen: set[int] = set()
        cap = self.probe_limit // 2
        for patch in self.patches:
            if len(patch) == 0:
                raise ValueError("patches must be nonempty")
            if len(patch) > cap:
                raise ValueError(
                    f"patch of size {len(patch)} exceeds the per-patch cap {cap}"
                )
            overlap = seen & set(patch.members)
            if overlap:
                raise ValueError(f"patches overlap on nodes {sorted(overlap)}")
            seen.update(patch.members)

    def observable(self) -> NodeSet:
        return NodeSet.of(m for patch in self.patches for m in patch)

    @property
    def patch_count(self) -> int:
        return len(self.patches)


def make_patches(s: NodeSet, m: int) -> PatchPlan:
    """Slice ``s`` into consecutive blocks of ``m // 2`` nodes.

    The last block may be smaller.  ``m`` must be at least 4 so a patch
    union always contains two nodes or more per patch.
    """
    if m < 4:
        raise ValueError(f"the probe limit must be at least 4, got {m}")
    if len(s) == 0:
        raise ValueError("cannot partition an empty observable set")
    cap = m // 2
    members = s.members
    blocks = [
        NodeSet(members[i : i + cap]) for i in range(0, len(members), cap)
    ]
    return PatchPlan(tuple(blocks), m)


@dataclass
class ExperimentRecord:
    """One probed patch pair and the reconstruction state it left behind."""

    index: int
    patch_a: int
    patch_b: int
    union: NodeSet
    subgraph: Graph
    pairs_decided: int
    distance: float | None


class ReconstructionState:
    """Pair decisions over an observable set, filled in experiment by experiment.

    Only the upper triangle of the int8 code matrix is written; the rest
    stays ``-1``.
    """

    # indexed by the code, so -1 picks UNDECIDED
    _STATUS = (PairStatus.DISCONNECTED, PairStatus.CONNECTED, PairStatus.UNDECIDED)

    def __init__(self, s: NodeSet):
        self.s = s
        k = len(s)
        self._code = np.full((k, k), -1, dtype=np.int8)
        self._upper = np.triu(np.ones((k, k), dtype=bool), 1)
        self._decided = 0
        self.experiment_log: list[ExperimentRecord] = []

    @property
    def status(self) -> dict[tuple[int, int], PairStatus]:
        """Every pair ``(s[i], s[j])`` with ``i < j`` and its current status."""
        i, j = np.nonzero(self._upper)
        m = self.s.members
        codes = self._code[i, j].tolist()
        return {
            (m[p], m[q]): self._STATUS[c] for p, q, c in zip(i.tolist(), j.tolist(), codes)
        }

    def decided_count(self) -> int:
        return self._decided

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
        self._decided += int(np.count_nonzero(open_ & upper))

    def estimated_graph(self) -> Graph:
        """Current decisions as a graph on ``s``; undecided pairs stay open."""
        connected = (self._code == 1) & self._upper
        adj = connected | connected.T
        np.fill_diagonal(adj, True)
        return Graph(adj, validate=False)

    def distance(self, truth_upper: np.ndarray) -> float:
        """``graph_distance(truth, self.estimated_graph())``, without the graph.

        ``truth_upper`` is ``np.triu(truth.adjacency, 1)`` on ``s``.  The
        code matrix is ``-1`` off the upper triangle, so its connected
        pairs are the estimate's upper triangle.
        """
        diff = np.count_nonzero((self._code == 1) != truth_upper)
        return _pair_fraction(diff, len(self.s))

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
    diff = np.triu(g_true.adjacency ^ g_est.adjacency, 1).sum()
    return _pair_fraction(diff, g_true.n)


def _pair_fraction(count, k: int) -> float:
    """``count`` as a fraction of the ``k (k - 1) / 2`` node pairs; 0 below two nodes."""
    if k < 2:
        return 0.0
    return 2.0 * float(count) / (k * (k - 1))


def run_patch_catch(
    a: CombinationMatrix,
    plan: PatchPlan,
    cfg: SimConfig,
    tiebreak: TieBreak = TieBreak.FIRST,
    truth: Graph | None = None,
    shared_trajectory: bool = True,
) -> ReconstructionState:
    """Probe every patch pair and assemble the observable region's graph.

    Pairs ``(i, j)`` of patch indices are visited with ``i`` ascending and
    ``j < i``.  Each experiment estimates empirical correlations on the
    patch union, applies the truncated estimator and the 2-means
    classifier, and merges the outcome.  With ``shared_trajectory`` one
    long simulation covers the whole observable set and every experiment
    reads its correlations off that single run; otherwise each experiment
    simulates afresh with a seed derived from ``(cfg.seed, experiment)``.

    ``truth`` (a graph on the plan's observable set, in set order) enables
    the per-experiment distance trace.
    """
    s_all = plan.observable()
    s_all.check_within(a.n)
    if truth is not None and truth.n != len(s_all):
        raise ValueError("truth graph must cover exactly the observable set")
    for i in range(plan.patch_count):
        for j in range(i):
            if len(plan.patches[i]) + len(plan.patches[j]) < 3:
                raise ConfigError(
                    f"patch union ({j}, {i}) has fewer than 3 nodes; "
                    "the classifier cannot operate"
                )

    state = ReconstructionState(s_all)
    truth_upper = None if truth is None else np.triu(truth.adjacency, 1)
    shared: CorrelationSet | None = None
    if shared_trajectory and plan.patch_count > 1:
        shared = simulate_and_accumulate(a, cfg, s_all)

    exp_index = 0
    for i in range(plan.patch_count):
        for j in range(i):
            union = plan.patches[j].union(plan.patches[i])
            if shared is not None:
                corr = shared.restrict(union)
            else:
                per_seed = derive_seed(cfg.seed, exp_index)
                corr = simulate_and_accumulate(a, replace(cfg, seed=per_seed), union)
            est = symmetrize(granger_truncated(corr))
            decided = classify_kmeans2(est)
            state.absorb(union, decided, tiebreak)
            dist = None if truth_upper is None else state.distance(truth_upper)
            state.experiment_log.append(
                ExperimentRecord(
                    exp_index, j, i, union, decided, state.decided_count(), dist
                )
            )
            exp_index += 1
    return state


def _csv_text(header: list[str], rows) -> str:
    """``header`` and ``rows`` as CSV text, with the csv module's CRLF line ends."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def experiment_log_csv(state: ReconstructionState) -> str:
    """Log as ``experiment_index,patch_a,patch_b,pairs_decided,distance`` CSV."""
    return _csv_text(
        ["experiment_index", "patch_a", "patch_b", "pairs_decided", "distance"],
        (
            [
                rec.index,
                rec.patch_a,
                rec.patch_b,
                rec.pairs_decided,
                "" if rec.distance is None else repr(rec.distance),
            ]
            for rec in state.experiment_log
        ),
    )
