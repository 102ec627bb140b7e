"""Granger-style network estimators and the structural classifiers.

The full-observation estimator is ``A_hat = R1 R0^{-1}``; truncating the
correlations to an observable set ``S`` gives ``A_hat_S = [R1]_S [R0]_S^{-1}``.
With exact correlations the truncated estimate decomposes as
``A_hat_S = A_S + E_S`` where the entrywise non-negative error is

    ``E_S = A_{SS'} H B_{S'S}``,   ``B = A^2``,   ``H = (I - B_{S'})^{-1}``,

with ``S'`` the unobserved complement.  Each entry ``h_lm`` of ``H`` is
bounded by ``rho^r / (1 - rho^2)`` where ``r`` is the distance between
``l`` and ``m`` after all edges internal to ``S`` are cut.

:func:`error_matrix` forms neither ``B`` nor ``H``: it sums
``X = H B_{S'S}`` on ``|S|`` columns with the sparse ``A`` and returns
``E_S = A_{SS'} X``.  ``B_{S'}`` is a principal submatrix of ``A^2``, so
by Cauchy interlacing its spectrum lies in ``[0, rho^2]`` with that of
``A^2``, and that of ``M = (2 / rho^2) B_{S'} - I`` in ``[-1, 1]``.  On
it ``H = (2 / rho^2) / (x0 - M)`` with ``x0 = 2 / rho^2 - 1``: the simple
pole whose closed-form Chebyshev series also gives the exact correlations
(:func:`tomolab.dynamics._pole_series`).  Only :func:`h_entry_bound_check`
builds the dense ``H``.

The estimator's ``|S| x |S|`` solve runs on ``numpy.linalg`` alone, so
the package never imports ``scipy.linalg`` and a process maps numpy's BLAS
only, not scipy's second copy.

Both classifiers score each observed pair by its mean ``(m_ij + m_ji) / 2``:
:func:`classify_threshold` connects the pairs above ``eta``, and
:func:`classify_kmeans2` splits the scores by exact 1-D 2-means.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import _pole_series, _product
from .errors import ConfigError, NumericError
from .graphs import Graph, NodeSet, _from_upper, hop_counts, local_disconnect
from .weights import CombinationMatrix, PolicyParams, class_tau

logger = logging.getLogger(__name__)

H_BOUND_TOL = 1e-12
_COND_WARN = 1e8


@dataclass
class InferenceArtifacts:
    """Truncated estimate with its exact error decomposition."""

    a_hat_s: np.ndarray
    a_s_true: np.ndarray
    e_s: np.ndarray


class ClassifierMethod(Enum):
    THRESHOLD = "threshold"
    KMEANS2 = "kmeans2"


@dataclass(frozen=True)
class Classifier:
    """Connectivity decision rule: a threshold ``eta``, or the 2-means split.

    A threshold with no ``eta`` is derived per network by :meth:`resolve`;
    the CLI calls it ``"auto"``.
    """

    method: ClassifierMethod
    eta: float | None = None

    def __post_init__(self):
        if self.eta is not None and self.method is ClassifierMethod.KMEANS2:
            raise ConfigError("the kmeans2 classifier takes no eta")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ConfigError(f"eta must be a finite positive number, got {self.eta}")

    def check_observed(self, k: int) -> None:
        """Refuse, before any draw, a 2-means split of fewer than 3 observed nodes."""
        if self.method is ClassifierMethod.KMEANS2 and k < 3:
            raise ConfigError(f"kmeans2 needs at least 3 observed nodes, got {k}")

    def resolve(self, policy: PolicyParams, n: int, p: float | None) -> Classifier:
        """The concrete rule at size ``n``: an unset threshold is ``class_tau / (N p)``."""
        if self.method is ClassifierMethod.KMEANS2 or self.eta is not None:
            return self
        if p is None or not 0.0 < p <= 1.0:
            raise ConfigError(f"an unset threshold (--eta auto) needs --p in (0, 1], got {p}")
        return Classifier(self.method, class_tau(policy) / (n * p))


def _solve_estimator(r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """Solve ``A_hat r0 = r1`` through the Cholesky factor ``r0 = L L^T``.

    The factorization is the positive-definiteness check.  ``inv(L)``
    gives ``r0^{-1} = L^{-T} L^{-1}``, which serves both the solve
    ``A_hat = r1 r0^{-1}`` and the exact 1-norm condition number
    ``||r0||_1 ||r0^{-1}||_1`` checked against the warning threshold.  A
    matrix that does not factor reports ``np.linalg.cond(r0, 1)``; a
    non-finite ``r0`` has no condition number and reports ``nan``.
    """
    if not np.isfinite(r0).all():
        raise NumericError("lag-0 correlation matrix is not finite", condition=np.nan)
    failure = None
    try:
        low = np.linalg.cholesky(r0)
    except np.linalg.LinAlgError as exc:
        failure = exc
        cond = float(np.linalg.cond(r0, 1))
    else:
        linv = np.linalg.inv(low)
        r0_inv = linv.T @ linv
        cond = float(np.abs(r0).sum(axis=0).max() * np.abs(r0_inv).sum(axis=0).max())
    if not np.isfinite(cond):
        raise NumericError(
            f"lag-0 correlation matrix is singular (condition estimate {cond})",
            condition=cond,
        ) from failure
    if failure is not None:
        raise NumericError(
            f"lag-0 correlation solve failed (cond={cond:.3e}): {failure}",
            condition=cond,
        ) from failure
    if cond > _COND_WARN:
        logger.warning("lag-0 correlation matrix poorly conditioned: cond=%.3e", cond)
    return r1 @ r0_inv


def granger_truncated(corr) -> np.ndarray:
    """``[R1]_S [R0]_S^{-1}`` on the correlations' node set.

    On the full node set this recovers the combination matrix itself.
    """
    return _solve_estimator(corr.r0, corr.r1)


def error_matrix(a: CombinationMatrix, s: NodeSet) -> InferenceArtifacts:
    """Exact truncation error of the estimator on ``s``.

    Returns the artifacts with ``a_hat_s = a_s_true + e_s``; when ``s``
    covers every node the error is identically zero.  ``X = H B_{S'S}`` is
    ``sum_k c_k V_k`` with ``V_k = T_k(M) B_{S'S}``, ``V_{k+1} = 2 M V_k -
    V_{k-1}``, and the coefficients ``c_k`` and degree ``D`` of
    :func:`tomolab.dynamics._pole_series`: ``||T_k(M)|| <= 1``, so each
    column of ``X`` is within eps of the exact one, relative to its
    right-hand side, in 2-norm.  The sums work on the CSR ``A`` in
    ``N x |S|`` arrays whose rows of ``S`` stay zero, and never build the
    dense view (see the module docstring).  Cost: ``2 D + 3`` sparse
    products, ``O(D nnz(A) |S|)`` time, six ``N x |S|`` arrays.  Weights
    that make ``X`` or the estimate non-finite, on hidden rows too, raise
    :class:`NumericError`.
    """
    s.check_within(a.n)
    if len(s) == 0:
        raise ValueError("the observed set must be nonempty")
    si = s.indices()
    n, k = a.n, len(si)
    rho = a.rho_bound
    d, c0, r = _pole_series(2.0 / (rho * rho) - 1.0, 2.0 / (rho * rho))
    twice = a.data * (2.0 / rho)
    ad = np.empty((n, k))

    def step(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``(4 / rho^2) B_{S'} v`` into ``out``, the rows of ``S`` zeroed."""
        _product(a, _product(a, v, ad, twice), out, twice)
        out[si] = 0.0
        return out

    cols = np.zeros((n, k))
    cols[si, np.arange(k)] = 1.0
    a_cols = _product(a, cols, np.empty((n, k)))
    a_s = a_cols[si]
    # V_0 = B_{S'S}, V_1 = M V_0 and V_{j+1} = 2 M V_j - V_{j-1}
    prev = _product(a, a_cols, cols)
    prev[si] = 0.0
    x = c0 * prev
    cur = step(prev, np.empty((n, k)))
    cur *= 0.5
    cur -= prev
    nxt = np.empty((n, k))
    for j in range(1, d + 1):
        x += np.multiply(cur, 2.0 * c0 * r**j, out=ad)
        if j == d:
            break
        step(cur, nxt)
        nxt -= np.multiply(cur, 2.0, out=ad)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    e_s = _product(a, x, a_cols)[si]
    a_hat_s = a_s + e_s
    # a NaN on a hidden row of X need not reach A_{SS'} X
    if not (np.isfinite(x).all() and np.isfinite(a_hat_s).all()):
        raise NumericError("the truncated estimate is not finite")
    return InferenceArtifacts(a_hat_s, a_s, e_s)


@dataclass
class HBoundReport:
    """Outcome of checking every ``h_lm`` against its distance-decay bound."""

    pairs_checked: int
    violations: int
    vacuous_pairs: int
    worst_slack: float
    block_identity_dev: float

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.block_identity_dev <= H_BOUND_TOL


def h_entry_bound_check(a: CombinationMatrix, g: Graph, s: NodeSet) -> HBoundReport:
    """Verify ``h_lm <= rho^r / (1 - rho^2)`` for all distinct ``l, m`` in ``S'``.

    ``r`` is the BFS distance between ``l`` and ``m`` in the graph with all
    edges internal to ``s`` removed.  Unreachable pairs have a vanishing
    bound, so their entries must be zero up to tolerance; they are counted
    separately as vacuous.  The report also carries the largest deviation
    of ``B_{S'}`` from ``A_{S'S} A_{SS'} + (A_{S'})^2``, an identity that
    makes the error term independent of the observed block ``A_S``.
    """
    if g.n != a.n:
        raise ValueError("graph and matrix orders differ")
    s.check_within(a.n)
    if len(s) == 0:
        raise ValueError("the observed set must be nonempty")
    rho = a.rho_bound
    sp = s.complement(a.n)
    m_pairs = len(sp) * (len(sp) - 1)
    if len(sp) == 0:
        return HBoundReport(0, 0, 0, float("inf"), 0.0)

    A = a.entries
    si = s.indices()
    pi = sp.indices()
    b_sp = (A @ A)[np.ix_(pi, pi)]
    try:
        h = np.linalg.solve(np.eye(len(sp)) - b_sp, np.eye(len(sp)))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"I - B_{{S'}} solve failed: {exc}") from exc
    cross = A[np.ix_(pi, si)] @ A[np.ix_(si, pi)]
    inner = A[np.ix_(pi, pi)]
    block_dev = float(np.abs(b_sp - (cross + inner @ inner)).max())

    cut = local_disconnect(g, s, s)
    pref = 1.0 / (1.0 - rho * rho)
    hops = np.array([hop_counts(cut, l_node)[pi] for l_node in sp])
    off = ~np.eye(len(sp), dtype=bool)
    dist = hops[off]
    far = np.isinf(dist)
    bound = np.where(far, 0.0, pref * rho ** dist)
    h_off = h[off]
    violations = int(np.count_nonzero(bound + H_BOUND_TOL - h_off < 0.0))
    vacuous = int(np.count_nonzero(far))
    worst = float((bound - h_off).min(initial=np.inf))
    return HBoundReport(m_pairs, violations, vacuous, worst, block_dev)


def _pair_scores(a_hat_s: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The mean ``0.5 (m[i, j] + m[j, i])`` of each pair ``i < j``, with its edge key ``i * k + j``.

    Returns ``(k, keys, scores)``, the pairs in ``triu_indices`` order.
    """
    m = np.asarray(a_hat_s, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("estimate must be a square matrix")
    k = m.shape[0]
    rows, cols = np.triu_indices(k, 1)
    return k, rows * k + cols, 0.5 * (m[rows, cols] + m[cols, rows])


def classify_threshold(a_hat_s: np.ndarray, eta: float) -> Graph:
    """Connect ``(i, j)`` when the pair's mean score strictly exceeds ``eta``.

    Ties stay disconnected and the diagonal connected.
    """
    if not np.isfinite(eta) or eta <= 0.0:
        raise ValueError(f"eta must be a finite positive number, got {eta}")
    k, keys, scores = _pair_scores(a_hat_s)
    return _from_upper(k, keys[scores > eta])


def two_means_1d(values) -> tuple[np.ndarray, float]:
    """Optimal 2-means clustering of scalars by exhaustive split scan.

    An optimal 1-D 2-clustering always splits the sorted values into a
    prefix and a suffix, so scanning the ``n - 1`` contiguous splits and
    keeping the one with the smallest within-cluster sum of squared
    deviations is exact.  Returns a boolean mask marking membership of the
    higher-mean cluster (aligned with the input order) and the achieved SSE.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least two values to form two clusters")
    order = np.argsort(v, kind="stable")
    sv = v[order]

    def running_m2(x):
        # cumulative within-prefix sum of squared deviations via the
        # Welford recurrence; the naive sum-of-squares-minus-squared-mean
        # form loses all precision when the values share a large offset
        k = np.arange(1, x.size + 1)
        mean = np.cumsum(x) / k
        mean_prev = np.concatenate([[0.0], mean[:-1]])
        return np.cumsum((x - mean_prev) * (x - mean))

    left = running_m2(sv)
    right = running_m2(sv[::-1])[::-1]
    # split after position k - 1: prefix of k values against the rest
    sse = left[:-1] + right[1:]
    best = int(np.argmin(sse))
    upper = np.zeros(n, dtype=bool)
    upper[order[best + 1 :]] = True
    return upper, float(sse[best])


def classify_kmeans2(a_hat_s: np.ndarray) -> Graph:
    """Split the pair scores into edges and non-edges by exact 1-D 2-means.

    Pairs in the higher-mean cluster of the ``S(S-1)/2`` mean scores become
    edges.  Fewer than three observed nodes raise the ``ConfigError`` of
    :meth:`Classifier.check_observed`; if every score is identical there
    is nothing to separate and the edgeless graph is returned.
    """
    k, keys, scores = _pair_scores(a_hat_s)
    Classifier(ClassifierMethod.KMEANS2).check_observed(k)
    upper = np.zeros(scores.size, bool) if np.all(scores == scores[0]) else two_means_1d(scores)[0]
    return _from_upper(k, keys[upper])


def apply_classifier(a_hat_s: np.ndarray, classifier: Classifier) -> Graph:
    """The one route from an estimate to its decided graph.

    A threshold must be resolved first; it connects a pair whose mean score exceeds ``eta``.
    """
    if classifier.method is ClassifierMethod.THRESHOLD:
        if classifier.eta is None:
            raise ValueError("the threshold's eta is unset; resolve the classifier first")
        return classify_threshold(a_hat_s, classifier.eta)
    return classify_kmeans2(a_hat_s)


def classification_report(
    a_hat_s: np.ndarray, decided: Graph, node_index: NodeSet
) -> list[dict]:
    """Per-pair records ``{i, j, score, decision}`` using global node ids."""
    k, keys, scores = _pair_scores(a_hat_s)
    if decided.n != k or len(node_index) != k:
        raise ValueError("estimate, decision graph and node set sizes differ")
    rows, cols = np.divmod(keys, k)
    return [
        {"i": node_index[p], "j": node_index[q], "score": score, "decision": decision}
        for p, q, score, decision in zip(
            rows.tolist(),
            cols.tolist(),
            scores.tolist(),
            decided.adjacency[rows, cols].tolist(),
        )
    ]
