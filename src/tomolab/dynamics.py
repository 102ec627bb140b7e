"""First-order vector autoregression over a combination matrix.

The state evolves as ``y_n = A y_{n-1} + beta x_n`` with i.i.d. zero-mean,
unit-variance noise.  Its stationary lag-0 and lag-1 correlation matrices
are ``R0 = beta^2 (I - A^2)^{-1}`` and ``R1 = A R0``; the module computes
them exactly or estimates them from a simulated trajectory restricted to
an observable node set.

The exact path sums the Neumann series ``R0 = beta^2 sum_m A^{2m}`` on the
``|S|`` columns of the observable set only, with the sparse ``A``.  Because
``A`` is symmetric and non-negative with row sums at most ``rho``, the
terms from ``m = M`` on add at most ``rho^{2M} / (1 - rho^2)`` to any entry
of ``R0 / beta^2``; :func:`series_depth` picks the smallest ``M`` that
makes this machine epsilon.  The cost is ``O(M nnz(A) |S|)`` time and
``O(N |S|)`` memory, against ``O(N^3)`` and ``O(N^2)`` for a dense solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np

from .errors import NumericError
from .graphs import NodeSet
from .weights import CombinationMatrix

_CHUNK = 512
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


class NoiseKind(Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_CENTERED = "uniform_centered"


@dataclass(frozen=True)
class SimConfig:
    """Trajectory length, warm-up, noise family and seed for one simulation."""

    beta: float
    n_max: int
    burn_in: int = 1000
    noise: NoiseKind = NoiseKind.GAUSSIAN
    seed: int = 0

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {self.burn_in}")


class CorrelationSet:
    """Lag-0/lag-1 correlations restricted to an observable node set.

    ``sample_count == 0`` marks analytic (exact) correlations; a positive
    value records the ``n_max`` of the generating trajectory.
    """

    __slots__ = ("r0", "r1", "sample_count", "node_index")

    def __init__(self, r0, r1, sample_count: int, node_index: NodeSet):
        r0 = np.array(r0, dtype=np.float64)
        r1 = np.array(r1, dtype=np.float64)
        k = len(node_index)
        if r0.shape != (k, k) or r1.shape != (k, k):
            raise ValueError(
                f"correlation matrices must be {k}x{k} to match the node set"
            )
        if sample_count < 0:
            raise ValueError("sample_count must be non-negative")
        r0.setflags(write=False)
        r1.setflags(write=False)
        self.r0 = r0
        self.r1 = r1
        self.sample_count = int(sample_count)
        self.node_index = node_index

    @property
    def analytic(self) -> bool:
        return self.sample_count == 0

    def restrict(self, nodes: NodeSet) -> "CorrelationSet":
        """Correlations of a subset of the observed nodes, in subset order."""
        pos = []
        for u in nodes:
            if u not in self.node_index:
                raise ValueError(f"node {u} is not covered by these correlations")
            pos.append(self.node_index.members.index(u))
        pos = np.asarray(pos, dtype=np.intp)
        sub = np.ix_(pos, pos)
        return CorrelationSet(self.r0[sub], self.r1[sub], self.sample_count, nodes)


def series_depth(rho: float) -> int:
    """Number of Neumann terms ``M`` with ``rho^{2M} / (1 - rho^2) <= eps``.

    ``M = ceil(log(eps (1 - rho^2)) / (2 log rho))``: 84 at ``rho = 0.8``,
    375 at ``rho = 0.95``.  ``M`` grows like ``1 / (1 - rho)`` as ``rho``
    approaches 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    eps = np.finfo(np.float64).eps
    return math.ceil(math.log(eps * (1.0 - rho * rho)) / (2.0 * math.log(rho)))


def analytic_correlations(a: CombinationMatrix, beta: float, s: NodeSet) -> CorrelationSet:
    """Exact stationary correlations on ``s``, to double precision.

    Sums ``X = sum_{m < M} A^{2m} I[:, S]`` by iterating ``x <- A (A x)`` on
    the ``N x |S|`` block, with ``M = series_depth(a.rho_bound)``.  Then
    ``R0_S = beta^2 X[S]`` (symmetrized) and ``R1_S = A[S, :] beta^2 X``.
    The neglected tail is at most machine epsilon times ``beta^2`` per
    entry.  Cost: ``O(M nnz(A) |S|)`` time, ``O(N |S|)`` memory.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    s.check_within(a.n)
    A = a.sparse
    idx = s.indices()
    x = np.zeros((a.n, len(idx)))
    x[idx, np.arange(len(idx))] = 1.0
    acc = x.copy()
    for _ in range(series_depth(a.rho_bound) - 1):
        x = A @ (A @ x)
        acc += x
    cols = beta * beta * acc
    if not np.isfinite(cols).all():
        raise NumericError("the Neumann series for R0 is not finite")
    r0 = cols[idx]
    r0 = 0.5 * (r0 + r0.T)
    r1 = A[idx] @ cols
    return CorrelationSet(r0, r1, 0, s)


def _noise_block(rng: np.random.Generator, kind: NoiseKind, rows: int, n: int) -> np.ndarray:
    if kind is NoiseKind.GAUSSIAN:
        return rng.standard_normal((rows, n))
    if kind is NoiseKind.RADEMACHER:
        return rng.integers(0, 2, size=(rows, n)).astype(np.float64) * 2.0 - 1.0
    return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=(rows, n))


def simulate_and_accumulate(
    a: CombinationMatrix,
    cfg: SimConfig,
    s: NodeSet,
    dump: TextIO | None = None,
) -> CorrelationSet:
    """Run the recursion from ``y_0 = 0`` and average streamed outer products.

    After discarding ``burn_in`` steps, the next state is relabelled sample 0
    and the estimates are

    * lag 0: mean of ``y_n y_n^T`` over samples ``0 .. n_max`` (``n_max + 1``
      terms),
    * lag 1: mean of ``y_{n+1} y_n^T`` over samples ``0 .. n_max - 1``
      (``n_max`` terms),

    both restricted to ``s``.  The result is a deterministic function of
    ``(a, cfg, s)``.  When ``dump`` is given, every retained observable
    sample is appended to it as ``n,node_id,y`` CSV rows.
    """
    s.check_within(a.n)
    if len(s) == 0:
        raise ValueError("the observable set must be nonempty")
    A = a.entries
    n = a.n
    rng = np.random.default_rng(cfg.seed)
    beta = cfg.beta

    y = np.zeros(n)
    done = 0
    while done < cfg.burn_in:
        block = _noise_block(rng, cfg.noise, min(_CHUNK, cfg.burn_in - done), n)
        for x in block:
            y = A @ y + beta * x
        done += block.shape[0]

    idx = s.indices()
    k = len(s)
    if dump is not None:
        dump.write("n,node_id,y\n")

    def dump_row(step: int, values: np.ndarray) -> None:
        for node, v in zip(s, values):
            dump.write(f"{step},{node},{float(v)!r}\n")

    ys_prev = y[idx].copy()
    r0_acc = np.outer(ys_prev, ys_prev)
    r1_acc = np.zeros((k, k))
    if dump is not None:
        dump_row(0, ys_prev)

    done = 0
    buf = np.empty((_CHUNK, k))
    while done < cfg.n_max:
        rows = min(_CHUNK, cfg.n_max - done)
        block = _noise_block(rng, cfg.noise, rows, n)
        for t in range(rows):
            y = A @ y + beta * block[t]
            buf[t] = y[idx]
        cur = buf[:rows]
        r0_acc += cur.T @ cur
        prev = np.vstack([ys_prev[None, :], cur[:-1]])
        r1_acc += cur.T @ prev
        if dump is not None:
            for t in range(rows):
                dump_row(done + t + 1, cur[t])
        ys_prev = cur[-1].copy()
        done += rows

    r0 = r0_acc / (cfg.n_max + 1)
    r1 = r1_acc / cfg.n_max
    r0 = 0.5 * (r0 + r0.T)
    return CorrelationSet(r0, r1, cfg.n_max, s)
