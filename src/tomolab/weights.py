"""Combination matrices over interaction graphs.

Two left-stochastic-style averaging rules are provided, both scaled so
every row sums to exactly ``rho`` (the stability margin of the diffusion):

* Laplacian: off-diagonal weight ``rho * lam / d_max`` on every edge, with
  the diagonal absorbing the remainder.
* Metropolis: off-diagonal weight ``rho / max(d_i, d_j)`` on every edge.

Degrees count the self-loop, so ``d_i = |N_i|`` with ``i`` included.
Matrices are symmetric, entrywise non-negative, and have spectral radius
at most ``rho``.

A :class:`CombinationMatrix` stores its weights as read-only CSR arrays
(``indptr``/``indices``/``data``), the only stored form: the builders fill
the graph's own CSR pattern (self-loops included), so neither an ``N x N``
float array nor the graph's dense view is made, and
:func:`check_weight_floor` compares the two patterns entry by entry.
``.entries`` is a read-only dense view, built on first access and cached.
The ``scipy.sparse`` package is imported only to read a scipy sparse input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, _compressed, _entry_rows, _from_upper, max_degree

TOL = 1e-12


class CombinationRule(Enum):
    LAPLACIAN = "laplacian"
    METROPOLIS = "metropolis"


@dataclass(frozen=True)
class PolicyParams:
    """Averaging rule with its stability margin and Laplacian step size."""

    rule: CombinationRule
    rho: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")


class CombinationMatrix:
    """Non-negative symmetric weights whose rows sum to at most ``rho_bound``.

    ``entries`` may be a dense array-like or a scipy sparse matrix.  A
    dense input is validated with numpy and keeps its nonzero entries; a
    sparse one (any object with ``tocsr``, whose creator has loaded scipy)
    is validated with scipy and keeps its stored entries, explicit zeros
    included, with duplicates summed.  Either way the weights are kept as
    CSR arrays ``indptr``/``indices``/``data`` of one index dtype, all
    read-only.
    """

    __slots__ = ("indptr", "indices", "data", "rho_bound", "_dense")

    def __init__(self, entries, rho_bound: float, validate: bool = True):
        if hasattr(entries, "tocsr"):
            from scipy.sparse import csr_array

            m = csr_array(entries, dtype=np.float64, copy=True)
            m.sum_duplicates()
            self._store(m.indptr, m.indices, m.data, rho_bound, None)
        else:
            m = np.array(entries, dtype=np.float64)
            if m.ndim != 2:
                raise ValueError("entries must form a square matrix")
            m.setflags(write=False)
            rows, cols = np.nonzero(m)
            indptr, indices = _compressed(np.bincount(rows, minlength=len(m)), cols)
            self._store(indptr, indices, m[rows, cols], rho_bound, m)
        if validate:
            # m is the dense array or the scipy matrix; both take these checks
            if m.shape[0] != m.shape[1]:
                raise ValueError("entries must form a square matrix")
            if not 0.0 < rho_bound < 1.0:
                raise ValueError(f"rho_bound must lie in (0, 1), got {rho_bound}")
            if abs(m - m.T).max() > TOL:
                raise ValueError("combination matrix must be symmetric")
            if m.min() < -TOL:
                raise ValueError("combination matrix entries must be non-negative")
            if self.row_sums().max() > rho_bound + TOL:
                raise ValueError(f"row sums must not exceed rho = {rho_bound}")

    def _store(self, indptr, indices, data, rho_bound: float, dense) -> None:
        """Keep the CSR arrays read-only, both index arrays in one dtype."""
        itype = np.promote_types(indptr.dtype, indices.dtype)
        self.indptr = indptr.astype(itype, copy=False)
        self.indices = indices.astype(itype, copy=False)
        self.data = data
        for buf in (self.indptr, self.indices, self.data):
            buf.setflags(write=False)
        self.rho_bound = float(rho_bound)
        self._dense = dense

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense view of the weights, built on first access."""
        if self._dense is None:
            dense = np.zeros((self.n, self.n))
            dense[_entry_rows(self), self.indices] = self.data
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        """Number of stored entries, explicit zeros of a sparse input included."""
        return self.data.size

    def row_sums(self) -> np.ndarray:
        """Each row's stored entries summed in order, as scipy's ``sum(axis=1)``."""
        sums = np.zeros(self.n)
        full = np.flatnonzero(np.diff(self.indptr))
        sums[full] = np.add.reduceat(self.data, self.indptr[full])
        return sums

    def support_graph(self) -> Graph:
        """Graph of strictly positive off-diagonal entries, self-loops forced.

        The weights are symmetric, so the upper triangle is read.  Zeros
        stored explicitly, which a sparse input may carry, are not part of
        the support.
        """
        rows = _entry_rows(self)
        upper = (rows < self.indices) & (self.data > 0.0)
        return _from_upper(self.n, rows[upper].astype(np.int64) * self.n + self.indices[upper])

    def __repr__(self) -> str:
        return f"CombinationMatrix(n={self.n}, rho_bound={self.rho_bound})"


def _on_graph(g: Graph, data: np.ndarray, rho: float) -> CombinationMatrix:
    """Weights ``data`` on the CSR pattern of ``g``, trusted as valid."""
    a = CombinationMatrix.__new__(CombinationMatrix)
    a._store(g.indptr, g.indices, data, rho, None)
    return a


def laplacian_matrix(g: Graph, params: PolicyParams) -> CombinationMatrix:
    """Laplacian rule: every edge gets ``rho*lam/d_max``; rows sum to ``rho``."""
    if params.rule is not CombinationRule.LAPLACIAN:
        raise ValueError(f"params carry rule {params.rule.value}, expected laplacian")
    deg = np.diff(g.indptr)
    dmax = int(deg.max())
    data = np.full(g.indices.size, params.rho * params.lam / dmax)
    data[_entry_rows(g) == g.indices] = params.rho * (1.0 - params.lam * (deg - 1) / dmax)
    return _on_graph(g, data, params.rho)


def metropolis_matrix(g: Graph, params: PolicyParams) -> CombinationMatrix:
    """Metropolis rule: edge ``(i, j)`` gets ``rho / max(d_i, d_j)``."""
    if params.rule is not CombinationRule.METROPOLIS:
        raise ValueError(f"params carry rule {params.rule.value}, expected metropolis")
    deg = np.diff(g.indptr)
    # intp rows: bincount would copy int32 ones to intp
    rows = _entry_rows(g).astype(np.intp, copy=False)
    loops = rows == g.indices
    ratio = 1.0 / np.maximum(deg[rows], deg[g.indices])
    ratio[loops] = 0.0
    data = params.rho * ratio
    data[loops] = params.rho * (1.0 - np.bincount(rows, weights=ratio, minlength=g.n))
    return _on_graph(g, data, params.rho)


def build_matrix(g: Graph, params: PolicyParams) -> CombinationMatrix:
    if params.rule is CombinationRule.LAPLACIAN:
        return laplacian_matrix(g, params)
    return metropolis_matrix(g, params)


def class_tau(params: PolicyParams) -> float:
    """Universal threshold constant of the rule class.

    ``rho*lam/e`` for Laplacian, ``rho/e`` for Metropolis: on any graph,
    a connected pair scaled by ``N*p`` clears this threshold with high
    probability in the sparse regime.
    """
    if params.rule is CombinationRule.LAPLACIAN:
        return params.rho * params.lam / math.e
    return params.rho / math.e


def check_weight_floor(a: CombinationMatrix, g: Graph, gamma: float) -> bool:
    """Does ``a_ij >= gamma * g_ij / d_max`` hold for every pair ``i != j``?

    Slack down to ``-1e-12`` is tolerated so exact-equality constructions
    (the Laplacian rule with ``gamma = rho*lam``) pass under rounding.
    The slack ``a_ij - floor_ij`` is taken on every pair stored in either
    CSR pattern, in the order a sparse difference rounds it; a pair stored
    in neither has zero slack and cannot fail.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if a.n != g.n:
        raise ValueError(f"matrix order {a.n} differs from graph order {g.n}")
    keys = np.concatenate([_entry_keys(a), _entry_keys(g)])
    terms = np.concatenate([a.data, np.full(g.indices.size, -gamma / max_degree(g))])
    pairs, at = np.unique(keys, return_inverse=True)
    slack = np.bincount(at, weights=terms)
    off = pairs // g.n != pairs % g.n
    return bool(slack[off].min(initial=np.inf) >= -TOL)


def _entry_keys(m: Graph | CombinationMatrix) -> np.ndarray:
    """Key ``i * n + j`` of every stored entry ``(i, j)``, in stored order."""
    return _entry_rows(m).astype(np.int64) * m.n + m.indices
