"""Experiment drivers: recovery probability sweeps, patch reconstruction
campaigns, and numeric checks of the sparse-regime theory.

Every trial derives its own random generator from ``(base_seed, N index,
trial index)``, so results do not depend on how trials are scheduled
across worker threads.  The environment variable ``TOMOLAB_THREADS`` caps
the thread pool size.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SimConfig, analytic_correlations, derive_seed, simulate_and_accumulate
from .errors import ConfigError, NumericError
from .graphs import (
    Graph,
    NodeSet,
    PartialErSpec,
    _er_hops_0_1,
    _member_mask,
    edgeless_graph,
    hop_counts,
    ring_graph,
    sample_er,
    sample_partial_er,
    subgraph,
)
from .inference import (
    Classifier,
    ClassifierMethod,
    apply_classifier,
    granger_truncated,
)
from .patchwork import TieBreak, _csv_text, graph_distance, make_patches, run_patch_catch
from .weights import CombinationMatrix, PolicyParams, build_matrix, class_tau

logger = logging.getLogger(__name__)

THREADS_ENV = "TOMOLAB_THREADS"


def resolve_threads(requested: int | None) -> int:
    """Thread count after applying the environment cap; at least 1."""
    wanted = 1 if requested is None else max(1, int(requested))
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            wanted = min(wanted, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {cap!r}")
    return wanted


def _map_trials(fn, count: int, threads: int) -> list:
    if threads <= 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class CRule:
    """How the sparsity offset ``c_N`` in ``p = (log N + c_N) / N`` is chosen.

    ``loglog`` sets ``c_N = log log N``; ``multiple`` uses ``p = k log N / N``
    (so ``c_N = (k - 1) log N``); ``explicit`` fixes ``p`` outright.
    """

    kind: str
    value: float | None = None

    _KINDS = ("loglog", "multiple", "explicit")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown c rule {self.kind!r}; pick from {self._KINDS}")
        if self.kind == "loglog" and self.value is not None:
            raise ConfigError("the loglog rule takes no parameter")
        if self.kind == "multiple":
            if self.value is None or self.value <= 0:
                raise ConfigError("the multiple rule needs a positive factor")
        if self.kind == "explicit":
            if self.value is None or not 0.0 < self.value <= 1.0:
                raise ConfigError("the explicit rule needs a probability in (0, 1]")

    @classmethod
    def loglog(cls) -> "CRule":
        return cls("loglog")

    @classmethod
    def multiple(cls, k: float) -> "CRule":
        return cls("multiple", float(k))

    @classmethod
    def explicit(cls, p: float) -> "CRule":
        return cls("explicit", float(p))

    def p_for(self, n: int | float) -> float:
        if n < 2:
            raise ConfigError(f"network size must be at least 2, got {n}")
        log_n = math.log(n)
        if self.kind == "loglog":
            p = (log_n + math.log(log_n)) / n
        elif self.kind == "multiple":
            p = self.value * log_n / n
        else:
            p = self.value
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"derived edge probability {p:.4g} outside (0, 1] at N={n}")
        return p

    def log_np(self, n: int | float) -> float:
        """``log(N p)`` without materializing ``p``.

        Needed when ``N`` is so large that ``p`` itself underflows to zero
        in double precision (``N >= 1e309`` or so); ``math.log`` accepts
        arbitrary-precision integers, so diagnostics stay exact in log
        space.
        """
        if n < 2:
            raise ConfigError(f"network size must be at least 2, got {n}")
        log_n = math.log(n)
        if self.kind == "loglog":
            return math.log(log_n + math.log(log_n))
        if self.kind == "multiple":
            return math.log(self.value * log_n)
        return log_n + math.log(self.value)


@dataclass(frozen=True)
class RegimeSpec:
    """Grid of network sizes with a shared sparsity rule."""

    n_grid: tuple[int, ...]
    c_rule: CRule

    def __post_init__(self):
        if not self.n_grid:
            raise ConfigError("the N grid must be nonempty")
        for n in self.n_grid:
            self.c_rule.p_for(n)

    def pairs(self) -> list[tuple[int, float]]:
        return [(n, self.c_rule.p_for(n)) for n in self.n_grid]


@dataclass(frozen=True)
class EmbeddedSource:
    """Distribution of the observable subgraph planted in each instance.

    ``er`` draws Erdos-Renyi with probability ``q`` (default ``2 log s / s``);
    ``match_p`` reuses the regime's own ``p`` so the whole network is one
    homogeneous Erdos-Renyi draw; ``ring`` and ``explicit`` are
    deterministic.
    """

    kind: str
    q: float | None = None
    graph: Graph | None = None

    _KINDS = ("er", "ring", "explicit", "match_p")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(
                f"unknown embedded source {self.kind!r}; pick from {self._KINDS}"
            )
        if self.q is not None and self.kind != "er":
            raise ConfigError(f"the {self.kind!r} embedded source takes no q (er only)")
        if self.q is not None and not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"embedded edge probability must be in [0, 1], got {self.q}")
        if self.kind == "explicit" and self.graph is None:
            raise ConfigError("an explicit embedded source needs a graph")

    @classmethod
    def er(cls, q: float | None = None) -> "EmbeddedSource":
        return cls("er", q)

    @classmethod
    def match_p(cls) -> "EmbeddedSource":
        return cls("match_p")

    @classmethod
    def ring(cls) -> "EmbeddedSource":
        return cls("ring")

    @classmethod
    def explicit(cls, graph: Graph) -> "EmbeddedSource":
        return cls("explicit", graph=graph)

    def sample(self, s_size: int, p: float, rng: np.random.Generator) -> Graph:
        if self.kind == "ring":
            return ring_graph(s_size)
        if self.kind == "explicit":
            if self.graph.n != s_size:
                raise ConfigError(
                    f"explicit embedded graph has {self.graph.n} nodes, need {s_size}"
                )
            return self.graph
        if self.kind == "match_p":
            return sample_er(s_size, p, rng)
        q = self.q if self.q is not None else 2.0 * math.log(s_size) / s_size
        return sample_er(s_size, min(q, 1.0), rng)


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier choice; a missing eta means the threshold is derived per N."""

    method: ClassifierMethod
    eta: float | None = None

    def __post_init__(self):
        if self.eta is not None and self.method is ClassifierMethod.KMEANS2:
            raise ConfigError("the kmeans2 classifier takes no eta")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ConfigError(f"eta must be a finite positive number, got {self.eta}")

    def resolve(self, policy: PolicyParams, n: int, p: float) -> Classifier:
        if self.method is ClassifierMethod.KMEANS2:
            return Classifier(ClassifierMethod.KMEANS2)
        eta = self.eta if self.eta is not None else class_tau(policy) / (n * p)
        return Classifier(ClassifierMethod.THRESHOLD, eta)


@dataclass(frozen=True)
class CorrelationMode:
    """Exact correlations, or empirical ones from a simulated trajectory."""

    kind: str
    sim: SimConfig | None = None

    def __post_init__(self):
        if self.kind not in ("analytic", "empirical"):
            raise ConfigError(f"unknown correlation mode {self.kind!r}")
        if self.kind == "empirical" and self.sim is None:
            raise ConfigError("empirical correlations need simulation settings")

    @classmethod
    def analytic(cls) -> "CorrelationMode":
        return cls("analytic")

    @classmethod
    def empirical(cls, sim: SimConfig) -> "CorrelationMode":
        return cls("empirical", sim)


@dataclass(frozen=True)
class ExperimentConfig:
    """Recovery-probability sweep over a size grid."""

    regime: RegimeSpec
    s_size: int
    embedded: EmbeddedSource
    policy: PolicyParams
    classifier: ClassifierSpec
    correlations: CorrelationMode
    trials: int
    base_seed: int = 0

    def __post_init__(self):
        if self.s_size < 1:
            raise ConfigError("the observable set must be nonempty")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        for n in self.regime.n_grid:
            if self.s_size > n:
                raise ConfigError(f"observable size {self.s_size} exceeds N={n}")


@dataclass
class RecoveryRow:
    """Recovery outcome at one network size."""

    n: int
    trials: int
    perfect: int
    fraction: float
    ci_lo: float
    ci_hi: float


def _instance(
    cfg: ExperimentConfig | PatchCatchConfig, n: int, p: float, seed: int
) -> tuple[NodeSet, Graph, Graph, CombinationMatrix]:
    """Observable set, planted subgraph, network and weights of one trial."""
    rng = np.random.default_rng(seed)
    s = NodeSet(tuple(range(cfg.s_size)))
    planted = cfg.embedded.sample(cfg.s_size, p, rng)
    g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
    return s, planted, g, build_matrix(g, cfg.policy)


def _recovery_trial(
    cfg: ExperimentConfig, n: int, p: float, n_index: int, trial: int
) -> bool:
    s, planted, _, a = _instance(cfg, n, p, derive_seed(cfg.base_seed, n_index, trial))
    try:
        if cfg.correlations.kind == "analytic":
            corr = analytic_correlations(a, 1.0 - cfg.policy.rho, s)
        else:
            sim = replace(
                cfg.correlations.sim,
                seed=derive_seed(cfg.base_seed, n_index, trial, 1),
            )
            corr = simulate_and_accumulate(a, sim, s)
        est = granger_truncated(corr)
        decided = apply_classifier(est, cfg.classifier.resolve(cfg.policy, n, p))
    except NumericError as exc:
        logger.warning("trial %d at N=%d failed numerically: %s", trial, n, exc)
        return False
    return decided == planted


def recovery_probability_experiment(
    cfg: ExperimentConfig, threads: int | None = None
) -> list[RecoveryRow]:
    """Fraction of trials whose recovered graph matches the planted one.

    The 95% interval uses the normal approximation to the binomial,
    clipped to ``[0, 1]``.  Trials that fail numerically count as
    unrecovered.
    """
    workers = resolve_threads(threads)
    rows = []
    for n_index, (n, p) in enumerate(cfg.regime.pairs()):
        outcomes = _map_trials(
            lambda t: _recovery_trial(cfg, n, p, n_index, t), cfg.trials, workers
        )
        perfect = int(sum(outcomes))
        frac = perfect / cfg.trials
        half = 1.96 * math.sqrt(frac * (1.0 - frac) / cfg.trials)
        lo, hi = max(0.0, frac - half), min(1.0, frac + half)
        rows.append(RecoveryRow(n, cfg.trials, perfect, frac, lo, hi))
    return rows


def recovery_rows_csv(rows: list[RecoveryRow]) -> str:
    return _csv_text(
        ["N", "trials", "perfect", "fraction", "ci_lo", "ci_hi"],
        ([r.n, r.trials, r.perfect, repr(r.fraction), repr(r.ci_lo), repr(r.ci_hi)] for r in rows),
    )


@dataclass(frozen=True)
class PatchCatchConfig:
    """One patch-reconstruction campaign at a fixed network size."""

    n: int
    c_rule: CRule
    s_size: int
    probe_limit: int
    policy: PolicyParams
    sim: SimConfig
    trials: int
    base_seed: int = 0
    tiebreak: TieBreak = TieBreak.FIRST
    shared_trajectory: bool = True
    embedded: EmbeddedSource = EmbeddedSource("match_p")

    def __post_init__(self):
        if self.s_size < 2 or self.s_size > self.n:
            raise ConfigError(
                f"observable size {self.s_size} must lie in [2, N={self.n}]"
            )
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.sim.n_max < 10:
            raise ConfigError(
                f"patch reconstruction needs n_max >= 10, got {self.sim.n_max}"
            )
        self.c_rule.p_for(self.n)


@dataclass
class PatchCatchTrial:
    trial: int
    final_distance: float
    trace: list[float]


def _patch_catch_trial(cfg: PatchCatchConfig, trial: int) -> PatchCatchTrial:
    p = cfg.c_rule.p_for(cfg.n)
    s, _, g, a = _instance(cfg, cfg.n, p, derive_seed(cfg.base_seed, trial))
    plan = make_patches(s, cfg.probe_limit)
    sim = replace(cfg.sim, seed=derive_seed(cfg.base_seed, trial, 1))
    state = run_patch_catch(
        a,
        plan,
        sim,
        tiebreak=cfg.tiebreak,
        truth=subgraph(g, s),
        shared_trajectory=cfg.shared_trajectory,
    )
    trace = [rec.distance for rec in state.experiment_log]
    final = trace[-1] if trace else graph_distance(subgraph(g, s), state.estimated_graph())
    return PatchCatchTrial(trial, final, trace)


def patch_catch_experiment(
    cfg: PatchCatchConfig, threads: int | None = None
) -> list[PatchCatchTrial]:
    workers = resolve_threads(threads)
    return _map_trials(lambda t: _patch_catch_trial(cfg, t), cfg.trials, workers)


def patch_catch_rows_csv(results: list[PatchCatchTrial]) -> str:
    return _csv_text(
        ["trial", "final_distance"], ([r.trial, repr(r.final_distance)] for r in results)
    )


def patch_catch_trace_csv(results: list[PatchCatchTrial]) -> str:
    return _csv_text(
        ["trial", "experiment_index", "distance"],
        ([r.trial, idx, repr(d)] for r in results for idx, d in enumerate(r.trace)),
    )


@dataclass
class RarityRow:
    """Empirical small-distance probability against its analytic ceiling."""

    r: int
    empirical: float
    bound: float
    sigma: float


@dataclass
class SmallDistanceReport:
    n: int
    p: float
    trials: int
    rows: list[RarityRow]
    r_n: int
    dsmall_frequency: float


def _probing_radius(n: int | float, log_np: float) -> int:
    """The probing radius ``r_N = floor(log N / (2 log N p))``, at least 1."""
    if log_np <= 0.0:
        raise ConfigError(f"N p must exceed 1 at N={n} (log N p = {log_np:.4g})")
    r_n = int(math.floor(0.5 * math.log(n) / log_np))
    if r_n < 1:
        raise ConfigError(f"probing radius r_N = {r_n} < 1 at N={n}")
    return r_n


def check_small_distance_rarity(
    n: int,
    p: float,
    s_size: int,
    trials: int,
    base_seed: int = 0,
) -> SmallDistanceReport:
    """Monte Carlo rarity of short paths between fixed nodes.

    Part one estimates ``P[distance(0, 1) <= r]`` in pure Erdos-Renyi
    graphs for ``r`` in 1..3 against the union-bound ceiling
    ``p (N p)^{r-1} / (1 - 1/(N p))``.  It builds no graph: each trial
    reads rows 0 and 1 of a ``sample_er`` draw's stream and then only the
    about ``(N p)^2`` pairs between the neighbors of nodes 0 and 1, so it
    costs ``O(N + (N p)^2)`` instead of ``N^2`` uniforms, with the distances
    and generator states of the full draw.  Part two plants an
    edgeless observable subgraph of ``s_size`` nodes, and counts how often
    some unobserved neighbor of node 0 sits within ``r_N`` hops of an
    unobserved second-order neighbor of node 1; this is the event that
    lets truncation errors survive thresholding.  The hops are counted in
    the graph with the edges inside the observable set cut, which is the
    sampled graph itself, because the plant has no edges.  One breadth-first
    search from all of node 0's unobserved neighbors at once finds the
    nearest of them for every node; it needs the whole graph.

    The configuration is checked before any draw: ``ConfigError`` when
    ``N p <= 1`` or ``r_N < 1``, ``ValueError`` for a bad trial count,
    edge probability or observable size.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < p < 1.0:
        raise ValueError(f"edge probability must be in (0, 1), got {p}")
    np_prod = n * p
    r_n = _probing_radius(n, math.log(np_prod))
    obs = NodeSet(tuple(range(s_size)))
    spec = PartialErSpec(n, p, obs, edgeless_graph(s_size))
    rng = np.random.default_rng(derive_seed(base_seed, 11))
    d = np.array([_er_hops_0_1(n, p, rng) for _ in range(trials)])
    rows = []
    for r in (1, 2, 3):
        emp = int(np.count_nonzero(d <= r)) / trials
        bound = p * np_prod ** (r - 1) / (1.0 - 1.0 / np_prod)
        sigma = math.sqrt(emp * (1.0 - emp) / trials)
        rows.append(RarityRow(r, emp, bound, sigma))

    rng2 = np.random.default_rng(derive_seed(base_seed, 22))
    unobserved = ~_member_mask(obs, n)
    occurs = 0
    for _ in range(trials):
        g = sample_partial_er(spec, rng2)
        near_i = g.indices[g.indptr[0] : g.indptr[1]]
        near_j2 = (hop_counts(g, 1, cap=2) <= 2) & unobserved
        # node 0's unobserved neighbors sit at hop 0, so one in near_j2 counts too
        reach = hop_counts(g, near_i[unobserved[near_i]], cap=r_n) <= r_n
        occurs += bool((reach & near_j2).any())
    return SmallDistanceReport(n, p, trials, rows, r_n, occurs / trials)


@dataclass(frozen=True)
class TheoryCheckConfig:
    """Decay diagnostics of the two sparse-regime tail quantities."""

    rho: float
    n_grid: tuple[float, ...]
    c_rule: CRule
    s_size: int = 10

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.n_grid:
            raise ConfigError("the N grid must be nonempty")
        if self.s_size < 1:
            raise ConfigError("the observable size must be at least 1")


@dataclass
class TheoryRow:
    n: float
    r_n: int
    error_tail: float
    distance_tail: float
    log_error_tail: float
    log_distance_tail: float


def theory_check(cfg: TheoryCheckConfig) -> list[TheoryRow]:
    """Evaluate both tail quantities over the size grid, in log space.

    ``error_tail = N p rho^{r_N + 4}`` controls how much truncation error
    survives thresholding; ``distance_tail = p~ (N p~)^{r_N + 2}`` with
    ``p~ = S p`` controls the probability that short cross-paths exist at
    all.  Both tend to zero as ``N`` grows, though the decay becomes
    monotone only at extremely large ``N``.
    """
    alpha = abs(math.log(cfg.rho))
    rows = []
    for n in cfg.n_grid:
        omega = cfg.c_rule.log_np(n)
        r_n = _probing_radius(n, omega)
        log_err = omega - alpha * (r_n + 4)
        log_dist = (r_n + 3) * (math.log(cfg.s_size) + omega) - math.log(n)
        dist = math.exp(log_dist) if log_dist < 700.0 else math.inf
        rows.append(TheoryRow(n, r_n, math.exp(log_err), dist, log_err, log_dist))
    return rows


def theory_rows_csv(rows: list[TheoryRow]) -> str:
    return _csv_text(
        ["N", "r_N", "error_tail", "distance_tail"],
        ([repr(r.n), r.r_n, repr(r.error_tail), repr(r.distance_tail)] for r in rows),
    )
