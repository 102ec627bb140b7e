"""Combination matrices over interaction graphs.

Two left-stochastic-style averaging rules are provided, both scaled so
every row sums to exactly ``rho`` (the stability margin of the diffusion):

* Laplacian: off-diagonal weight ``rho * lam / d_max`` on every edge, with
  the diagonal absorbing the remainder.
* Metropolis: off-diagonal weight ``rho / max(d_i, d_j)`` on every edge.

Degrees count the self-loop, so ``d_i = |N_i|`` with ``i`` included.
Matrices are symmetric, entrywise non-negative, and have spectral radius
at most ``rho``.

A :class:`CombinationMatrix` stores its weights as a CSR array
(``.sparse``), the only stored form: the builders fill the graph's own CSR
pattern (``indptr``/``indices``, self-loops included), so neither an
``N x N`` float array nor the graph's dense view is made, and
:func:`check_weight_floor` compares the two CSR forms.  ``.entries`` is a
read-only dense view, built from the CSR on first access and cached.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np
import scipy.sparse

from .graphs import Graph, from_edges, max_degree

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

    ``entries`` may be a dense array-like or a scipy sparse matrix; either
    way the weights are kept as a CSR array whose buffers are read-only.
    """

    __slots__ = ("sparse", "rho_bound", "_dense")

    def __init__(self, entries, rho_bound: float, validate: bool = True):
        if scipy.sparse.issparse(entries):
            dense = None
            sparse = scipy.sparse.csr_array(entries, dtype=np.float64, copy=True)
        else:
            dense = np.array(entries, dtype=np.float64)
            if dense.ndim != 2:
                raise ValueError("entries must form a square matrix")
            dense.setflags(write=False)
            sparse = scipy.sparse.csr_array(dense)
        if validate:
            if sparse.shape[0] != sparse.shape[1]:
                raise ValueError("entries must form a square matrix")
            if not 0.0 < rho_bound < 1.0:
                raise ValueError(f"rho_bound must lie in (0, 1), got {rho_bound}")
            if abs(sparse - sparse.T).max() > TOL:
                raise ValueError("combination matrix must be symmetric")
            if sparse.min() < -TOL:
                raise ValueError("combination matrix entries must be non-negative")
            if sparse.sum(axis=1).max() > rho_bound + TOL:
                raise ValueError(f"row sums must not exceed rho = {rho_bound}")
        sparse.sum_duplicates()
        for buf in (sparse.data, sparse.indices, sparse.indptr):
            buf.setflags(write=False)
        self.sparse = sparse
        self.rho_bound = float(rho_bound)
        self._dense = dense

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense view of the weights, built on first access."""
        if self._dense is None:
            dense = self.sparse.toarray()
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def n(self) -> int:
        return self.sparse.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.sparse.sum(axis=1)

    def support_graph(self) -> Graph:
        """Graph of strictly positive off-diagonal entries, self-loops forced.

        The weights are symmetric, so the upper triangle is read.  Zeros
        stored explicitly in the CSR, which a sparse input may carry,
        are not part of the support.
        """
        coo = self.sparse.tocoo()
        upper = (coo.row < coo.col) & (coo.data > 0.0)
        return from_edges(self.n, np.column_stack([coo.row[upper], coo.col[upper]]))

    def save_csv(self, dest: str | TextIO) -> None:
        """One matrix row per line, for debugging and external inspection."""
        if isinstance(dest, str):
            with open(dest, "w", encoding="ascii", newline="") as fh:
                self.save_csv(fh)
            return
        writer = csv.writer(dest)
        for row in self.entries:
            writer.writerow([repr(float(x)) for x in row])

    def __repr__(self) -> str:
        return f"CombinationMatrix(n={self.n}, rho_bound={self.rho_bound})"


def _support(g: Graph):
    """Row-major coordinates of the graph's CSR entries, loops included.

    Returns ``(rows, cols, loops, deg)``: ``loops`` marks the diagonal
    positions and ``deg`` counts each row's entries (the self-loop too).
    """
    deg = np.diff(g.indptr)
    rows = np.repeat(np.arange(g.n), deg)
    return rows, g.indices, rows == g.indices, deg


def _csr(data: np.ndarray, g: Graph) -> scipy.sparse.csr_array:
    """CSR array with the sparsity pattern of ``g`` and values ``data``."""
    return scipy.sparse.csr_array((data, g.indices, g.indptr), shape=(g.n, g.n))


def laplacian_matrix(g: Graph, params: PolicyParams) -> CombinationMatrix:
    """Laplacian rule: every edge gets ``rho*lam/d_max``; rows sum to ``rho``."""
    if params.rule is not CombinationRule.LAPLACIAN:
        raise ValueError(f"params carry rule {params.rule.value}, expected laplacian")
    rows, cols, loops, deg = _support(g)
    dmax = int(deg.max())
    data = np.full(rows.size, params.rho * params.lam / dmax)
    data[loops] = params.rho * (1.0 - params.lam * (deg - 1) / dmax)
    return CombinationMatrix(_csr(data, g), params.rho, validate=False)


def metropolis_matrix(g: Graph, params: PolicyParams) -> CombinationMatrix:
    """Metropolis rule: edge ``(i, j)`` gets ``rho / max(d_i, d_j)``."""
    if params.rule is not CombinationRule.METROPOLIS:
        raise ValueError(f"params carry rule {params.rule.value}, expected metropolis")
    rows, cols, loops, deg = _support(g)
    ratio = 1.0 / np.maximum(deg[rows], deg[cols])
    ratio[loops] = 0.0
    data = params.rho * ratio
    data[loops] = params.rho * (1.0 - np.bincount(rows, weights=ratio, minlength=g.n))
    return CombinationMatrix(_csr(data, g), params.rho, validate=False)


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
    The slack is taken on the sparse difference; a pair stored in neither
    CSR has zero slack and cannot fail.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    floor = _csr(np.full(g.indices.size, gamma / max_degree(g)), g)
    slack = (a.sparse - floor).tocoo()
    off = slack.row != slack.col
    return bool(slack.data[off].min(initial=np.inf) >= -TOL)
