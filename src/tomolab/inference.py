"""Granger-style network estimators and the structural classifiers.

The full-observation estimator is ``A_hat = R1 R0^{-1}``; truncating the
correlations to an observable set ``S`` gives ``A_hat_S = [R1]_S [R0]_S^{-1}``.
With exact correlations the truncated estimate decomposes as
``A_hat_S = A_S + E_S`` where the entrywise non-negative error is

    ``E_S = A_{SS'} H B_{S'S}``,   ``B = A^2``,   ``H = (I - B_{S'})^{-1}``,

with ``S'`` the unobserved complement.  Each entry ``h_lm`` of ``H`` is
bounded by ``rho^r / (1 - rho^2)`` where ``r`` is the distance between
``l`` and ``m`` after all edges internal to ``S`` are cut.

:func:`error_matrix` forms neither ``B`` nor ``H``: it solves
``(I - B_{S'}) X = B_{S'S}`` on ``|S|`` columns with the sparse ``A`` and
the Chebyshev solver of :mod:`tomolab.dynamics`, and returns
``E_S = A_{SS'} X``.  ``B_{S'}`` is a principal submatrix of ``A^2``, so
by Cauchy interlacing its spectrum lies in ``[0, rho^2]`` with that of
``A^2``, and the interval ``[1 - rho^2, 1]`` of ``I - A^2`` holds that of
``I - B_{S'}``.  Only :func:`h_entry_bound_check` builds the dense ``H``.

The estimator's ``|S| x |S|`` solve runs on ``numpy.linalg`` alone, so
the package never imports ``scipy.linalg`` and a process maps numpy's BLAS
only, not scipy's second copy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import _chebyshev_solve, _product
from .errors import NumericError, UnsupportedMethodError
from .graphs import Graph, NodeSet, edgeless_graph, hop_counts, local_disconnect
from .weights import CombinationMatrix

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
    """Connectivity decision rule applied to an estimated matrix."""

    method: ClassifierMethod
    eta: float | None = None

    def __post_init__(self):
        if self.method is ClassifierMethod.THRESHOLD:
            if self.eta is None or not np.isfinite(self.eta) or self.eta <= 0.0:
                raise ValueError("threshold classification needs a finite eta > 0")


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
    covers every node the error is identically zero.  The solve works on
    the CSR ``A`` in ``N x |S|`` arrays and never builds the dense view
    (see the module docstring).  Cost: ``O(K nnz(A) |S|)`` time with
    ``K = chebyshev_depth(a.rho_bound)``, ``O(N |S|)`` memory.  Weights
    that make the result non-finite raise :class:`NumericError`.
    """
    s.check_within(a.n)
    if len(s) == 0:
        raise ValueError("the observed set must be nonempty")
    si = s.indices()
    n, k = a.n, len(si)
    ad, aad = np.empty((n, k)), np.empty((n, k))

    def hidden_b(d: np.ndarray) -> np.ndarray:
        """``A (A d)`` with the rows of ``S`` zeroed."""
        out = _product(a, _product(a, d, ad), aad)
        out[si] = 0.0
        return out

    cols = np.zeros((n, k))
    cols[si, np.arange(k)] = 1.0
    a_cols = _product(a, cols, np.empty((n, k)))
    a_s = a_cols[si]
    rhs = _product(a, a_cols, cols)
    rhs[si] = 0.0
    x = _chebyshev_solve(hidden_b, rhs, a.rho_bound)
    e_s = _product(a, x, a_cols)[si]
    a_hat_s = a_s + e_s
    if not np.isfinite(a_hat_s).all():
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


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average of a matrix with its transpose."""
    m = np.asarray(m, dtype=np.float64)
    return 0.5 * (m + m.T)


def classify_threshold(a_hat_s: np.ndarray, eta: float) -> Graph:
    """Connect ``(i, j)`` when either directed entry strictly exceeds ``eta``.

    Ties (entries exactly equal to ``eta``) are left disconnected; the
    diagonal is always connected.
    """
    if not np.isfinite(eta) or eta <= 0.0:
        raise ValueError(f"eta must be a finite positive number, got {eta}")
    m = np.asarray(a_hat_s, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("estimate must be a square matrix")
    adj = (m > eta) | (m.T > eta)
    np.fill_diagonal(adj, True)
    return Graph(adj, validate=False)


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
    """Cluster the symmetrized off-diagonal entries into edges and non-edges.

    The ``S(S-1)/2`` values (mean of the two directed entries per pair) are
    split by exact 1-D 2-means; pairs in the higher-mean cluster become
    edges.  Needs at least three observed nodes; if every value is
    identical there is nothing to separate and the edgeless graph is
    returned.
    """
    m = np.asarray(a_hat_s, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("estimate must be a square matrix")
    k = m.shape[0]
    if k <= 2:
        raise UnsupportedMethodError(
            "2-means needs at least 3 observed nodes; use classify_threshold instead"
        )
    sym = symmetrize(m)
    iu = np.triu_indices(k, 1)
    vals = sym[iu]
    if np.all(vals == vals[0]):
        return edgeless_graph(k)
    upper, _ = two_means_1d(vals)
    adj = np.zeros((k, k), dtype=bool)
    adj[iu] = upper
    adj |= adj.T
    np.fill_diagonal(adj, True)
    return Graph(adj, validate=False)


def apply_classifier(a_hat_s: np.ndarray, classifier: Classifier) -> Graph:
    sym = symmetrize(a_hat_s)
    if classifier.method is ClassifierMethod.THRESHOLD:
        return classify_threshold(sym, classifier.eta)
    return classify_kmeans2(sym)


def classification_report(
    a_hat_s: np.ndarray, decided: Graph, node_index: NodeSet
) -> list[dict]:
    """Per-pair records ``{i, j, score, decision}`` using global node ids."""
    sym = symmetrize(a_hat_s)
    k = sym.shape[0]
    if decided.n != k or len(node_index) != k:
        raise ValueError("estimate, decision graph and node set sizes differ")
    rows, cols = np.triu_indices(k, 1)
    return [
        {"i": node_index[p], "j": node_index[q], "score": score, "decision": decision}
        for p, q, score, decision in zip(
            rows.tolist(),
            cols.tolist(),
            sym[rows, cols].tolist(),
            decided.adjacency[rows, cols].tolist(),
        )
    ]
