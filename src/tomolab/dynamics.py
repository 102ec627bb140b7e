"""First-order vector autoregression over a combination matrix.

The state evolves as ``y_n = A y_{n-1} + beta x_n`` with i.i.d. zero-mean,
unit-variance noise.  Its stationary lag-0 and lag-1 correlation matrices
are ``R0 = beta^2 (I - A^2)^{-1}`` and ``R1 = A R0``; the module computes
them exactly or estimates them from a simulated trajectory restricted to
an observable node set.

The exact path sums Chebyshev moments (the kernel polynomial method).
Because ``A`` is symmetric and non-negative with row sums at most ``rho``,
the spectrum of ``A_hat = A / rho`` lies in ``[-1, 1]``, and ``R0_S`` and
``R1_S`` are ``beta^2 E_S^T f(A_hat) E_S`` for two functions ``f`` whose
Chebyshev coefficients have a closed form that decays like
``r^k``, ``r = (1 - sqrt(1 - rho^2)) / rho``.  :func:`moment_degree` picks
the degree ``D`` whose tail of that series is below machine epsilon; the
moments ``E_S^T T_k(A_hat) E_S`` up to ``D`` come from about ``D / 2``
sparse products on the ``|S|`` columns of the observable set only, since
``T_2j = 2 T_j^2 - I`` and ``T_2j+1 = 2 T_j+1 T_j - T_1`` (Weisse, Wellein,
Alvermann and Fehske, Rev. Mod. Phys. 78, 275, 2006).  The cost is
``O((nnz(A) + N |S|) |S| / sqrt(1 - rho))`` time and ``O(N |S|)`` memory,
against ``O(N^3)`` and ``O(N^2)`` for a dense solve.  Both functions are
parts of one simple pole, ``(1 / rho) / (1 / rho - t)``, and
:func:`_pole_series` gives the coefficients and the degree of any
``scale / (x0 - t)``.  :func:`tomolab.inference.error_matrix` sums the same
series for ``(I - B_{S'})^{-1}``, whose operator is no function of ``A``
alone: there the series is applied to the columns themselves, not summed
as bilinear moments.

The simulated path steps ``y <- A y + beta x`` with the CSR ``A``, in
``O(nnz(A))`` per step, and never builds the dense matrix.  It steps over
blocks of ``B`` states in one flat buffer ``[x_1 ... x_B | y_0 y_1 ... y_B]``
of at most ``_BUFFER_BYTES`` (:func:`_block_depth`); each block gets one
zero fill, one noise draw straight into its ``x`` slots and one gather of
the observable states.  Within a block, ``T`` steps are unrolled into one
sparse matrix: ``T`` copies of the rows of ``[A | beta I]``, copy ``t``
shifted to address the ``y_t`` and ``x_{t+1}`` slots.  Handed the buffer
from ``x_{c+1}`` on, one call of the CSR matrix-vector kernel writes
``y_{c+1} ... y_{c+T}`` into the same buffer.  The kernel walks the rows in
order and stores each row's sum before it reads the next row, so the rows
of each step read the state that the call has just written.  Each row adds
``A``'s terms in stored order and then ``beta x_i``, which rounds exactly
as ``A @ y + beta * x``.  ``T`` follows from a byte budget on the unrolled
arrays (:func:`unroll_depth`) and falls to one step per call for large
matrices.  The kernel releases the GIL, so trials on separate threads step
in parallel.  A simulation holds the unrolled arrays (at most
``_UNROLL_BYTES`` unless one step alone is larger), the ``(2 B + 1) N``
buffer doubles (at most ``_BUFFER_BYTES`` unless ``B = T`` needs more) and
``(_CHUNK + 1) |S|`` retained samples: ``O(nnz(A) + T N)`` memory.

Both paths call scipy's compiled CSR kernels: ``csr_matvecs`` on the
matrix's own arrays, ``csr_matvec`` on the unrolled step.  They are loaded
straight from scipy's extension file (:mod:`tomolab._kernels`), so the
``scipy.sparse`` package is never imported.  The sparse products of both
Chebyshev paths make the call that scipy's ``A @ X`` makes, into a zeroed
output, so they round as it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np

from ._kernels import load_sparsetools
from .errors import NumericError
from .graphs import NodeSet, _locate
from .weights import CombinationMatrix

_sparsetools = load_sparsetools()

_CHUNK = 512
# the unrolled step's arrays hold at most this many bytes, and at most
# _MAX_UNROLL steps
_UNROLL_BYTES = 1 << 19
_MAX_UNROLL = 8
# the simulation's block buffer holds at most this many bytes, unless one
# unrolled call alone needs more
_BUFFER_BYTES = 1 << 18
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


def derive_seed(base: int, *keys: int) -> int:
    """Deterministic child seed for a trial, independent of scheduling."""
    ss = np.random.SeedSequence([int(base), *(int(k) for k in keys)])
    return int(ss.generate_state(1, np.uint64)[0])


class NoiseKind(Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_CENTERED = "uniform_centered"


@dataclass(frozen=True)
class SimConfig:
    """Noise scale, trajectory length, warm-up and noise family of a simulation."""

    beta: float
    n_max: int
    burn_in: int = 1000
    noise: NoiseKind = NoiseKind.GAUSSIAN

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be a finite positive number, got {self.beta}")
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
        pos, covered = _locate(self.node_index.indices(), nodes.indices())
        if not covered.all():
            u = nodes[int(np.argmin(covered))]
            raise ValueError(f"node {u} is not covered by these correlations")
        sub = np.ix_(pos, pos)
        return CorrelationSet(self.r0[sub], self.r1[sub], self.sample_count, nodes)


def _pole_series(x0: float, scale: float) -> tuple[int, float, float]:
    """Chebyshev series of ``scale / (x0 - t)`` on ``[-1, 1]``, ``x0 > 1``.

    With ``s = sqrt(x0^2 - 1)`` and ``r = x0 - s = 1 / (x0 + s)``, the
    coefficients are ``c0 = scale / s`` at ``k = 0`` and ``2 c0 r^k``
    after.  ``|T_k(t)| <= 1`` on ``[-1, 1]``, so the terms past ``D`` add at
    most ``2 c0 r^(D + 1) / (1 - r)``.  Returns ``(D, c0, r)`` with ``D``
    the smallest degree that puts this tail at eps.
    """
    eps = np.finfo(np.float64).eps
    s = math.sqrt((x0 - 1.0) * (x0 + 1.0))
    c0 = scale / s
    r = 1.0 / (x0 + s)
    return math.ceil(math.log(eps * (1.0 - r) / (2.0 * c0)) / math.log(r)) - 1, c0, r


def moment_degree(rho: float) -> int:
    """Chebyshev degree ``D`` that truncates the exact correlations below eps.

    ``1 / (1 - rho^2 t^2)`` and ``rho t / (1 - rho^2 t^2)`` are the even
    and odd parts of ``(1 / rho) / (1 / rho - t)``, so their coefficients
    and ``D`` are those of :func:`_pole_series` at ``x0 = scale = 1 / rho``:
    ``1 / q`` at ``k = 0`` and ``2 r^k / q`` after, with
    ``q = sqrt(1 - rho^2)`` and ``r = (1 - q) / rho``.  ``D`` is 28, 54,
    121, 286 and 960 at ``rho`` = 0.5, 0.8, 0.95, 0.99 and 0.999.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return _pole_series(1.0 / rho, 1.0 / rho)[0]


def _product(a: CombinationMatrix, x: np.ndarray, out: np.ndarray, data=None) -> np.ndarray:
    """``A @ x`` into ``out``, by the zeroing and kernel call of scipy's ``@``.

    ``data`` replaces ``a.data``: the product is then by those values on
    ``A``'s pattern.
    """
    out[:] = 0.0
    _sparsetools.csr_matvecs(
        a.n, a.n, x.shape[1], a.indptr, a.indices, a.data if data is None else data,
        x.ravel(), out.ravel(),
    )
    return out


def analytic_correlations(a: CombinationMatrix, beta: float, s: NodeSet) -> CorrelationSet:
    """Exact stationary correlations on ``s``, to double precision.

    ``R0_S`` and ``R1_S`` are ``beta^2`` times ``E_S^T f(A_hat) E_S`` with
    ``A_hat = A / rho`` and ``f(t)`` equal to ``1 / (1 - rho^2 t^2)`` and
    ``rho t / (1 - rho^2 t^2)``: sums of the Chebyshev moments
    ``mu_k = E_S^T T_k(A_hat) E_S`` with the coefficients of
    :func:`moment_degree`, the even ones for ``R0`` and the odd ones for
    ``R1``.  The columns ``V_j = T_j(A_hat) E_S`` follow
    ``V_{j+1} = 2 A_hat V_j - V_{j-1}``, one sparse product each, and give
    two moments each: ``mu_2j = 2 V_j^T V_j - I`` and
    ``mu_2j+1 = 2 V_{j+1}^T V_j - mu_1``.  Moments up to
    ``D = moment_degree(a.rho_bound)`` take ``ceil(D / 2)`` products: at
    even ``D`` the last one, ``mu_D``, needs no ``V_{D/2+1}``.  ``2 A_hat``
    is one copy of ``A``'s values times ``2 / rho``.  Cost:
    ``O(D (nnz(A) + N |S|) |S|)`` time, three ``N x |S|`` arrays.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite positive number, got {beta}")
    s.check_within(a.n)
    idx = s.indices()
    n, k = a.n, len(idx)
    rho = a.rho_bound
    d, c0, r = _pole_series(1.0 / rho, 1.0 / rho)
    twice = a.data * (2.0 / rho)
    prev, cur, nxt = np.zeros((n, k)), np.empty((n, k)), np.empty((n, k))
    prev[idx, np.arange(k)] = 1.0
    _product(a, prev, cur, twice)
    cur *= 0.5
    mu1 = cur[idx]
    eye = np.eye(k)
    r0 = c0 * eye
    r1 = (2.0 * c0 * r) * mu1
    for j in range(1, d // 2 + 1):
        # cur is V_j and prev V_{j-1}
        coef = 2.0 * c0 * r ** (2 * j)
        r0 += coef * (2.0 * (cur.T @ cur) - eye)
        if 2 * j == d:
            break
        _product(a, cur, nxt, twice)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        r1 += (coef * r) * (2.0 * (cur.T @ prev) - mu1)
    r0 *= beta * beta
    r1 *= beta * beta
    if not (np.isfinite(r0).all() and np.isfinite(r1).all()):
        raise NumericError("the exact correlations are not finite")
    return CorrelationSet(0.5 * (r0 + r0.T), r1, 0, s)


def unroll_depth(nnz: int, n: int) -> int:
    """Steps per kernel call for an ``n``-node matrix with ``nnz`` entries.

    Each unrolled step stores ``nnz + n`` entries at 12 bytes (a float64
    value and an int32 column), so ``T`` is the number of copies that fit
    in ``_UNROLL_BYTES``, between 1 and ``_MAX_UNROLL``.
    """
    return max(1, min(_MAX_UNROLL, _UNROLL_BYTES // (12 * (nnz + n))))


def _block_depth(n: int, steps: int) -> int:
    """Steps ``B`` per simulation block for ``n`` nodes and ``steps`` per call.

    ``B`` is the largest multiple of ``steps`` up to ``_CHUNK`` whose
    buffer of ``(2 B + 1) n`` doubles fits in ``_BUFFER_BYTES``, and at
    least ``steps``.
    """
    fit = (_BUFFER_BYTES // (8 * n) - 1) // 2
    return steps * max(1, min(fit, _CHUNK) // steps)


def _unrolled_step(a: CombinationMatrix, beta: float, steps: int, block: int):
    """CSR arrays ``(indptr, indices, data)`` of ``steps`` chained steps.

    Row ``(t, i)`` holds ``A``'s row ``i`` in stored order on the columns of
    ``y_t`` and then ``beta`` on the column of ``x_{t+1}[i]``, in a buffer
    laid out as ``[x_1 ... x_B | y_0 ... y_B]`` with ``B = block``.
    Writing the product into the buffer from ``y_1`` on therefore advances
    the state ``steps`` times; handed the buffer from ``x_{c+1}`` on, and
    writing from ``y_{c+1}`` on, it advances the state from ``y_c``.
    """
    n = a.n
    per = a.nnz + n
    big = max((2 * block + 1) * n, steps * per) > np.iinfo(np.int32).max
    itype = np.int64 if big else np.int32
    # one step, [A | beta I]: row i spans bounds[i] : bounds[i + 1], A's
    # entries on the columns of y_0 and then beta at bounds[i + 1] - 1
    bounds = a.indptr.astype(itype) + np.arange(n + 1, dtype=itype)
    at_beta = bounds[1:] - 1
    of_a = np.ones(per, dtype=bool)
    of_a[at_beta] = False
    indices = np.empty((steps, per), dtype=itype)
    data = np.empty((steps, per))
    cols, values = indices[0], data[0]
    cols[of_a] = a.indices
    cols += block * n
    cols[at_beta] = np.arange(n)
    values[of_a] = a.data
    values[at_beta] = beta
    # copy t reads y_t and x_{t+1}, both n columns further on per copy
    for t in range(1, steps):
        np.add(cols, t * n, out=indices[t])
    data[1:] = values
    indptr = np.empty(steps * n + 1, dtype=itype)
    copy = np.arange(steps, dtype=itype)[:, None]
    np.add(bounds[:-1], per * copy, out=indptr[:-1].reshape(steps, n))
    indptr[-1] = steps * per
    return indptr, indices.ravel(), data.ravel()


def simulate_and_accumulate(
    a: CombinationMatrix,
    cfg: SimConfig,
    s: NodeSet,
    seed: int,
    dump: TextIO | None = None,
) -> CorrelationSet:
    """Run the recursion from ``y_0 = 0`` and average streamed outer products.

    After discarding ``burn_in`` steps, the next state is relabelled sample 0
    and the estimates are

    * lag 0: mean of ``y_n y_n^T`` over samples ``0 .. n_max`` (``n_max + 1``
      terms),
    * lag 1: mean of ``y_{n+1} y_n^T`` over samples ``0 .. n_max - 1``
      (``n_max`` terms),

    both restricted to ``s``.  The noise comes from ``default_rng(seed)``,
    so the result is a deterministic function of ``(a, cfg, s, seed)``.
    A ``beta`` whose squares overflow or underflow raises ``NumericError``.
    When ``dump`` is given, every retained observable sample is appended
    to it as ``n,node_id,y`` CSV rows.

    The state advances in blocks of ``B = _block_depth(N, T)`` steps over
    one preallocated buffer ``[x_1 ... x_B | y_0 ... y_B]`` of at most
    ``_BUFFER_BYTES`` (see the module docstring).  Each block's ``B x N``
    noise is drawn in one call straight into the buffer's ``x`` slots; the
    generator's draws are prefix-consistent, so this is the stream that one
    large draw would give.  Every ``T = unroll_depth(nnz(A), N)`` steps of
    a block are one ``csr_matvec`` call on the unrolled step; no float
    array is allocated per call.  The sums round exactly as
    ``A @ y + beta * x`` with a scipy CSR ``A``, so the result is bit for
    bit that of the plain loop, and the dense view is never built.  The
    burn-in gathers nothing; the observable samples are gathered in chunks
    of ``_CHUNK`` steps below the previous sample in one buffer, so each
    chunk's lag-1 pairs are two overlapping views of it.  A block of
    ``rows`` steps takes ``ceil(rows / T)`` calls, since ``T`` divides
    ``B``.  Memory: the unrolled arrays (at most ``_UNROLL_BYTES`` when
    ``T > 1``, about ``12 (nnz(A) + N)`` bytes at ``T = 1``), the
    ``(2 B + 1) N`` buffer doubles, ``(_CHUNK + 1) |S|`` samples and, for
    Rademacher noise, a ``B x N`` integer draw.
    """
    s.check_within(a.n)
    if len(s) == 0:
        raise ValueError("the observable set must be nonempty")
    n = a.n
    rng = np.random.default_rng(seed)
    steps = unroll_depth(a.nnz, n)
    block = _block_depth(n, steps)
    indptr, indices, data = _unrolled_step(a, cfg.beta, steps, block)
    # w = [x_1 ... x_B | y_0 y_1 ... y_B]; the kernel writes from y_1 on
    w = np.zeros((2 * block + 1) * n)
    xs = w[: block * n].reshape(block, n)
    y0 = w[block * n : (block + 1) * n]
    ys = w[(block + 1) * n :].reshape(block, n)
    idx = s.indices()

    def draw(x: np.ndarray) -> None:
        """Fill ``x`` with the stream's next ``x.size`` noise values, row by row."""
        if cfg.noise is NoiseKind.GAUSSIAN:
            rng.standard_normal(out=x)
        elif cfg.noise is NoiseKind.RADEMACHER:
            np.multiply(rng.integers(0, 2, size=x.shape), 2.0, out=x)
            x -= 1.0
        else:
            rng.random(out=x)
            x *= 2.0 * _UNIFORM_HALF_WIDTH
            x -= _UNIFORM_HALF_WIDTH

    def advance(total: int, out: np.ndarray | None = None) -> None:
        """Step ``total`` times; gather each new state on ``s`` into ``out``."""
        for lo in range(0, total, block):
            rows = min(block, total - lo)
            ys[:rows] = 0.0
            draw(xs[:rows])
            for c in range(0, rows, steps):
                # from y_c, with x_{c+1} on: the call writes y_{c+1} on
                _sparsetools.csr_matvec(
                    min(steps, rows - c) * n,
                    w.size - c * n,
                    indptr,
                    indices,
                    data,
                    w[c * n :],
                    w[(block + 1 + c) * n :],
                )
            if out is not None:
                np.take(ys[:rows], idx, axis=1, out=out[lo : lo + rows])
            y0[:] = ys[rows - 1]

    advance(cfg.burn_in)

    def dump_rows(first: int, values: np.ndarray) -> None:
        for step, row in enumerate(values, first):
            for node, v in zip(s, row):
                dump.write(f"{step},{node},{float(v)!r}\n")

    # the chunk fills rows 1 ..; row 0 holds the sample before it, its lag-1 partner
    buf = np.empty((_CHUNK + 1, len(s)))
    buf[0] = y0[idx]
    if dump is not None:
        dump.write("n,node_id,y\n")
        dump_rows(0, buf[:1])

    # the finiteness check below is the one report of an overflowing sum
    with np.errstate(over="ignore", invalid="ignore"):
        r0_acc = np.outer(buf[0], buf[0])
        r1_acc = np.zeros_like(r0_acc)
        for done in range(0, cfg.n_max, _CHUNK):
            rows = min(_CHUNK, cfg.n_max - done)
            advance(rows, buf[1:])
            cur = buf[1 : rows + 1]
            r0_acc += cur.T @ cur
            r1_acc += cur.T @ buf[:rows]
            if dump is not None:
                dump_rows(done + 1, cur)
            buf[0] = buf[rows]
        r0 = r0_acc / (cfg.n_max + 1)
        r1 = r1_acc / cfg.n_max
    if not (np.isfinite(r0).all() and np.isfinite(r1).all() and np.diagonal(r0).all()):
        raise NumericError(f"the sampled correlations overflow or underflow at beta={cfg.beta}")
    return CorrelationSet(0.5 * (r0 + r0.T), r1, cfg.n_max, s)
