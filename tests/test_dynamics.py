"""Stationary correlations: exact solves and streamed empirical estimates."""

import importlib.machinery
import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse import _sparsetools

from tomolab import (
    CombinationMatrix,
    CombinationRule,
    CorrelationSet,
    NodeSet,
    NoiseKind,
    NumericError,
    PolicyParams,
    SimConfig,
    analytic_correlations,
    build_matrix,
    edgeless_graph,
    granger_truncated,
    ring_graph,
    simulate_and_accumulate,
)
from tomolab import dynamics
from tomolab._kernels import load_sparsetools
from tomolab.dynamics import (
    _CHUNK,
    _MAX_UNROLL,
    _UNIFORM_HALF_WIDTH,
    _UNROLL_BYTES,
    chebyshev_depth,
    unroll_depth,
)
from conftest import csr_view, random_observed_network, same_bits, traced_peak

MET = PolicyParams(CombinationRule.METROPOLIS, rho=0.8)


def full_set(a):
    return NodeSet(tuple(range(a.n)))


def cholesky_correlations(a, beta, s):
    """Dense reference: solve ``(I - A^2) R0 = beta^2 I``, then ``R1 = A R0``."""
    A = a.entries
    c, low = scipy.linalg.cho_factor(np.eye(a.n) - A @ A)
    r0_full = beta * beta * scipy.linalg.cho_solve((c, low), np.eye(a.n))
    r0_full = 0.5 * (r0_full + r0_full.T)
    r1_full = A @ r0_full
    sub = np.ix_(s.indices(), s.indices())
    return r0_full[sub], r1_full[sub]


def scipy_chebyshev_correlations(a, beta, s):
    """The Chebyshev solve with scipy's ``@`` on a view of the weights."""
    A = csr_view(a)
    idx = s.indices()
    rho2 = a.rho_bound * a.rho_bound
    theta = 1.0 - 0.5 * rho2
    delta = 0.5 * rho2
    sigma = theta / delta
    r = np.zeros((a.n, len(idx)))
    r[idx, np.arange(len(idx))] = 1.0
    x = np.zeros_like(r)
    d = r / theta
    ratio = 1.0 / sigma
    for _ in range(chebyshev_depth(a.rho_bound)):
        x += d
        r -= d - A @ (A @ d)
        nxt = 1.0 / (2.0 * sigma - ratio)
        d = (nxt * ratio) * d + (2.0 * nxt / delta) * r
        ratio = nxt
    cols = beta * beta * x
    r0 = cols[idx]
    return 0.5 * (r0 + r0.T), A[idx] @ cols


def _noise_block(rng, kind, rows, n):
    """``rows`` noise vectors drawn in one call, as the simulator once did."""
    if kind is NoiseKind.GAUSSIAN:
        return rng.standard_normal((rows, n))
    if kind is NoiseKind.RADEMACHER:
        return rng.integers(0, 2, size=(rows, n)).astype(np.float64) * 2.0 - 1.0
    return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=(rows, n))


def plain_loop_simulation(a, cfg, s, dump):
    """Oracle for the kernel step: ``y = A @ y + beta * x`` on the same stream.

    Apart from the step itself this is the simulator's own accumulation, so
    its lag-0/lag-1 averages and dump text must agree bit for bit.
    """
    A = csr_view(a)
    rng = np.random.default_rng(cfg.seed)
    y = np.zeros(a.n)
    done = 0
    while done < cfg.burn_in:
        block = _noise_block(rng, cfg.noise, min(_CHUNK, cfg.burn_in - done), a.n)
        for x in block:
            y = A @ y + cfg.beta * x
        done += block.shape[0]
    idx = s.indices()
    dump.write("n,node_id,y\n")

    def dump_row(step, values):
        for node, v in zip(s, values):
            dump.write(f"{step},{node},{float(v)!r}\n")

    ys_prev = y[idx].copy()
    r0_acc = np.outer(ys_prev, ys_prev)
    r1_acc = np.zeros((len(s), len(s)))
    dump_row(0, ys_prev)
    done = 0
    buf = np.empty((_CHUNK, len(s)))
    while done < cfg.n_max:
        rows = min(_CHUNK, cfg.n_max - done)
        block = _noise_block(rng, cfg.noise, rows, a.n)
        for t in range(rows):
            y = A @ y + cfg.beta * block[t]
            buf[t] = y[idx]
        cur = buf[:rows]
        r0_acc += cur.T @ cur
        r1_acc += cur.T @ np.vstack([ys_prev[None, :], cur[:-1]])
        for t in range(rows):
            dump_row(done + t + 1, cur[t])
        ys_prev = cur[-1].copy()
        done += rows
    r0 = r0_acc / (cfg.n_max + 1)
    return 0.5 * (r0 + r0.T), r1_acc / cfg.n_max


def matches_plain_loop(a, cfg, s):
    """Whether the simulator agrees with the plain loop bit for bit, dump too."""
    got_dump, want_dump = io.StringIO(), io.StringIO()
    got = simulate_and_accumulate(a, cfg, s, dump=got_dump)
    want_r0, want_r1 = plain_loop_simulation(a, cfg, s, want_dump)
    return (
        np.array_equal(got.r0, want_r0)
        and np.array_equal(got.r1, want_r1)
        and got_dump.getvalue() == want_dump.getvalue()
    )


class KernelSpy:
    """Stands in for ``_sparsetools``: counts ``csr_matvec`` calls.

    ``broken="copied"`` hands the kernel a copy of its input vector;
    ``broken="reordered"`` runs the rows of each step (``n`` rows) in
    reverse step order.
    """

    def __init__(self, broken=None, n=None):
        self.broken = broken
        self.n = n
        self.calls = 0

    def csr_matvec(self, n_row, n_col, indptr, indices, data, x, y):
        self.calls += 1
        if self.broken == "copied":
            x = x.copy()
        if self.broken == "reordered":
            for lo in reversed(range(0, n_row, self.n)):
                hi = lo + self.n
                _sparsetools.csr_matvec(
                    self.n, n_col, indptr[lo : hi + 1], indices, data, x, y[lo:hi]
                )
            return
        _sparsetools.csr_matvec(n_row, n_col, indptr, indices, data, x, y)


class TestAnalytic:
    def test_decoupled_network(self):
        # with A = rho I the stationary variance is beta^2 / (1 - rho^2)
        a = build_matrix(edgeless_graph(4), MET)
        corr = analytic_correlations(a, 0.5, full_set(a))
        v = 0.25 / (1 - 0.64)
        assert corr.r0 == pytest.approx(v * np.eye(4), abs=1e-12)
        assert corr.r1 == pytest.approx(0.8 * v * np.eye(4), abs=1e-12)
        assert corr.analytic

    def test_matches_matrix_series(self):
        # R0 = beta^2 sum_k (A^2)^k, truncated far past machine precision
        rng = np.random.default_rng(51)
        for _ in range(10):
            _, s, a, _ = random_observed_network(rng, n_lo=8, n_hi=30)
            acc = np.zeros((a.n, a.n))
            term = np.eye(a.n)
            sq = a.entries @ a.entries
            for _ in range(200):
                acc += term
                term = term @ sq
            beta = 0.7
            idx = s.indices()
            want_r0 = (beta * beta * acc)[np.ix_(idx, idx)]
            want_r1 = (a.entries @ (beta * beta * acc))[np.ix_(idx, idx)]
            corr = analytic_correlations(a, beta, s)
            assert np.abs(corr.r0 - want_r0).max() < 1e-9
            assert np.abs(corr.r1 - want_r1).max() < 1e-9

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize(
        "rule", [CombinationRule.LAPLACIAN, CombinationRule.METROPOLIS]
    )
    def test_matches_dense_cholesky(self, rho, rule):
        rng = np.random.default_rng(int(rho * 100) + (rule is CombinationRule.LAPLACIAN))
        for n_lo, n_hi in ((20, 60), (200, 300)):
            _, s, a, _ = random_observed_network(
                rng, n_lo=n_lo, n_hi=n_hi, rho=rho, rule=rule
            )
            for nodes in (s, full_set(a)):
                want_r0, want_r1 = cholesky_correlations(a, 0.3, nodes)
                corr = analytic_correlations(a, 0.3, nodes)
                assert np.abs(corr.r0 - want_r0).max() < 1e-12
                assert np.abs(corr.r1 - want_r1).max() < 1e-12

    @pytest.mark.parametrize("rule", list(CombinationRule))
    def test_matches_scipy_matmul_bit_for_bit(self, rule):
        # |S| = 1 is where scipy's @ switches from csr_matvecs to csr_matvec
        rng = np.random.default_rng(57 + (rule is CombinationRule.LAPLACIAN))
        for trial in range(12):
            n_hi = 300 if trial % 4 == 0 else 60
            _, s, a, _ = random_observed_network(rng, n_lo=5, n_hi=n_hi, s_lo=1, rule=rule)
            sets = (s, NodeSet((s[0],)))
            got = [analytic_correlations(a, 0.6, nodes) for nodes in sets]
            for nodes, corr in zip(sets, got):
                want_r0, want_r1 = scipy_chebyshev_correlations(a, 0.6, nodes)
                assert same_bits(corr.r0, want_r0)
                assert same_bits(corr.r1, want_r1)

    def test_scipy_input_matches_scipy_matmul_bit_for_bit(self):
        # an explicit zero at (0, 2) and an empty row 1
        w = scipy.sparse.csr_array(
            (
                np.array([0.3, 0.0, 0.0, 0.5, 0.1, 0.1]),
                np.array([0, 2, 0, 2, 3, 2]),
                np.array([0, 2, 2, 5, 6]),
            ),
            shape=(4, 4),
        )
        a = CombinationMatrix(w, 0.7)
        for nodes in (NodeSet((0, 2, 3)), NodeSet((1,)), full_set(a)):
            corr = analytic_correlations(a, 0.6, nodes)
            want_r0, want_r1 = scipy_chebyshev_correlations(a, 0.6, nodes)
            assert same_bits(corr.r0, want_r0)
            assert same_bits(corr.r1, want_r1)

    def test_chebyshev_depth_from_rho_bound(self):
        rhos = (0.5, 0.8, 0.95, 0.99, 0.999)
        assert [chebyshev_depth(rho) for rho in rhos] == [15, 28, 61, 144, 481]
        eps = np.finfo(np.float64).eps
        for rho in (0.3,) + rhos:
            k = chebyshev_depth(rho)
            kappa = 1 / (1 - rho * rho)
            q = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
            assert 2 * q**k * kappa <= eps
            assert 2 * q ** (k - 1) * kappa > eps
        with pytest.raises(ValueError, match="rho"):
            chebyshev_depth(1.0)

    def test_non_finite_weights_raise_numeric_error(self):
        a = CombinationMatrix(np.array([[np.nan, 0.0], [0.0, 0.1]]), 0.5, validate=False)
        with pytest.raises(NumericError, match="not finite"):
            analytic_correlations(a, 0.3, full_set(a))

    def test_overflowing_beta_raises_numeric_error(self):
        a = build_matrix(ring_graph(5), MET)
        with pytest.raises(NumericError, match="not finite"):
            analytic_correlations(a, 1e200, NodeSet((0,)))

    def test_peak_memory(self):
        # the solve holds five N x |S| arrays (the residual, x, the direction
        # and the two product buffers), and its steps allocate none
        n = 3000
        a = build_matrix(ring_graph(n), MET)
        s = NodeSet(tuple(range(0, n, 300)))
        peak = traced_peak(lambda: analytic_correlations(a, 0.5, s))
        assert peak <= 6 * 8 * n * len(s)

    def test_estimator_is_beta_invariant(self):
        rng = np.random.default_rng(52)
        _, s, a, _ = random_observed_network(rng)
        est1 = granger_truncated(analytic_correlations(a, 0.1, s))
        est2 = granger_truncated(analytic_correlations(a, 1.0, s))
        assert np.abs(est1 - est2).max() < 1e-12

    def test_restriction_commutes(self):
        rng = np.random.default_rng(53)
        _, _, a, _ = random_observed_network(rng, n_lo=10, n_hi=20)
        s = NodeSet((1, 4, 7, 9))
        sub = NodeSet((4, 9))
        via_full = analytic_correlations(a, 0.3, s).restrict(sub)
        direct = analytic_correlations(a, 0.3, sub)
        assert via_full.r0 == pytest.approx(direct.r0, abs=1e-14)
        assert via_full.r1 == pytest.approx(direct.r1, abs=1e-14)

    def test_beta_must_be_positive(self):
        a = build_matrix(ring_graph(4), MET)
        with pytest.raises(ValueError, match="beta"):
            analytic_correlations(a, 0.0, full_set(a))


class TestEmpirical:
    def test_manual_replication(self):
        # mirror the noise stream by hand with Rademacher draws and check
        # the burn-in relabeling and the n_max + 1 / n_max divisors
        g = ring_graph(5)
        a = build_matrix(g, MET)
        s = NodeSet((0, 2, 3))
        cfg = SimConfig(
            beta=0.6, n_max=4, burn_in=3, noise=NoiseKind.RADEMACHER, seed=99
        )
        got = simulate_and_accumulate(a, cfg, s)

        rng = np.random.default_rng(99)
        draw = lambda rows: (
            rng.integers(0, 2, size=(rows, 5)).astype(np.float64) * 2.0 - 1.0
        )
        y = np.zeros(5)
        for x in draw(3):
            y = a.entries @ y + 0.6 * x
        samples = [y[s.indices()].copy()]
        for x in draw(4):
            y = a.entries @ y + 0.6 * x
            samples.append(y[s.indices()].copy())
        r0 = sum(np.outer(v, v) for v in samples) / 5.0
        r1 = (
            sum(np.outer(samples[t + 1], samples[t]) for t in range(4)) / 4.0
        )
        assert np.abs(got.r0 - 0.5 * (r0 + r0.T)).max() < 1e-12
        assert np.abs(got.r1 - r1).max() < 1e-12
        assert got.sample_count == 4

    def test_chunk_boundaries_do_not_change_results(self):
        # 1200 main steps span three internal blocks; a single-pass dense
        # rerun of the same stream must agree to accumulation roundoff, and
        # the CSR step must not have built the dense view
        rng = np.random.default_rng(54)
        _, _, a, _ = random_observed_network(rng, n_lo=6, n_hi=12)
        s = full_set(a)
        cfg = SimConfig(beta=0.4, n_max=1200, burn_in=600, seed=7)
        got = simulate_and_accumulate(a, cfg, s)
        assert a._dense is None

        rng2 = np.random.default_rng(7)
        noise = rng2.standard_normal((1800, a.n))
        y = np.zeros(a.n)
        for t in range(600):
            y = a.entries @ y + 0.4 * noise[t]
        samples = [y.copy()]
        for t in range(600, 1800):
            y = a.entries @ y + 0.4 * noise[t]
            samples.append(y.copy())
        arr = np.array(samples)
        r0 = arr.T @ arr / 1201.0
        r1 = arr[1:].T @ arr[:-1] / 1200.0
        assert np.abs(got.r0 - 0.5 * (r0 + r0.T)).max() < 1e-10
        assert np.abs(got.r1 - r1).max() < 1e-10

    @pytest.mark.parametrize(
        "burn_in", sorted({0, 1, _MAX_UNROLL - 1, _MAX_UNROLL, _MAX_UNROLL + 1, 600})
    )
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_kernel_step_matches_plain_loop_bit_for_bit(self, kind, burn_in):
        # n_max straddles one unrolled call and the 512-row noise blocks;
        # S is partial with gaps
        rng = np.random.default_rng(55)
        _, _, a, _ = random_observed_network(rng, n_lo=40, n_hi=80)
        assert unroll_depth(a.nnz, a.n) == _MAX_UNROLL
        s = NodeSet((1, 4, 5, 11, 23, 37))
        n_maxes = {1, _MAX_UNROLL - 1, _MAX_UNROLL, _MAX_UNROLL + 1, 511, 512, 513, 1200}
        for n_max in sorted(n_maxes - {0}):
            cfg = SimConfig(beta=0.45, n_max=n_max, burn_in=burn_in, noise=kind, seed=n_max)
            assert matches_plain_loop(a, cfg, s)
        assert a._dense is None

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_block_boundaries_match_plain_loop(self, kind):
        # n_max and burn_in on each side of one buffer block of B steps,
        # which holds several unrolled calls and ends inside a sample block
        rng = np.random.default_rng(58)
        _, _, a, _ = random_observed_network(rng, n_lo=300, n_hi=300)
        depth = unroll_depth(a.nnz, a.n)
        block = dynamics._block_depth(a.n, depth)
        assert depth < block < _CHUNK and block % depth == 0
        s = NodeSet((0, 17, 150, 299))
        lengths = (block - 1, block, block + 1, 2 * block + depth)
        for burn_in in lengths:
            for n_max in lengths:
                cfg = SimConfig(beta=0.45, n_max=n_max, burn_in=burn_in, noise=kind, seed=n_max)
                assert matches_plain_loop(a, cfg, s)

    @pytest.mark.parametrize("n", [25_000, 3_640])
    def test_kernel_step_matches_plain_loop_on_large_rings(self, n):
        # a ring's 3n entries put these sizes at one and three steps per call
        a = build_matrix(ring_graph(n), MET)
        depth = unroll_depth(a.nnz, n)
        assert depth == (1 if n == 25_000 else 3)
        s = NodeSet((0, 5, n // 2, n - 1))
        for steps in (1, depth + 1, 2 * depth + 2):
            cfg = SimConfig(beta=0.45, n_max=steps, burn_in=steps, seed=steps)
            assert matches_plain_loop(a, cfg, s)
        assert a._dense is None

    def test_kernel_calls_per_block(self, monkeypatch):
        # every noise block of `rows` steps costs ceil(rows / T) kernel calls
        rng = np.random.default_rng(56)
        _, s, a, _ = random_observed_network(rng, n_lo=40, n_hi=80)
        depth = unroll_depth(a.nnz, a.n)
        spy = KernelSpy()
        monkeypatch.setattr(dynamics, "_sparsetools", spy)
        for burn_in, n_max in ((0, 1), (3, 5), (600, 1200), (1000, 1029)):
            spy.calls = 0
            simulate_and_accumulate(
                a, SimConfig(beta=0.3, n_max=n_max, burn_in=burn_in), s
            )
            blocks = [
                min(_CHUNK, total - lo)
                for total in (burn_in, n_max)
                for lo in range(0, total, _CHUNK)
            ]
            assert spy.calls == sum(-(-rows // depth) for rows in blocks)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_peak_memory(self, kind):
        # the unrolled arrays, the (2B + 1) N block buffer, whose x slots take
        # the noise, and one B x N draw: far below a _CHUNK x N noise block
        n = 20_000
        a = build_matrix(ring_graph(n), MET)
        s = NodeSet((0, 5, n // 2, n - 1))
        cfg = SimConfig(beta=0.45, n_max=600, burn_in=3, noise=kind, seed=1)
        peak = traced_peak(lambda: simulate_and_accumulate(a, cfg, s))
        assert peak <= 4 * _UNROLL_BYTES < _CHUNK * 8 * n

    @pytest.mark.parametrize("broken", ["copied", "reordered"])
    def test_oracle_catches_a_kernel_that_does_not_chain(self, broken, monkeypatch):
        # the unrolled step relies on the kernel reading the buffer it
        # writes, row by row in order; a kernel that read a snapshot of the
        # input, or ran the step blocks out of order, must fail the oracle
        rng = np.random.default_rng(57)
        _, s, a, _ = random_observed_network(rng, n_lo=40, n_hi=80)
        cfg = SimConfig(beta=0.45, n_max=40, burn_in=20, seed=3)
        assert matches_plain_loop(a, cfg, s)
        monkeypatch.setattr(dynamics, "_sparsetools", KernelSpy(broken, a.n))
        assert not matches_plain_loop(a, cfg, s)

    def test_reproducible_and_seed_sensitive(self):
        a = build_matrix(ring_graph(6), MET)
        s = NodeSet((0, 3))
        cfg = SimConfig(beta=0.2, n_max=50, burn_in=10, seed=5)
        one = simulate_and_accumulate(a, cfg, s)
        two = simulate_and_accumulate(a, cfg, s)
        assert np.array_equal(one.r0, two.r0)
        assert np.array_equal(one.r1, two.r1)
        other = simulate_and_accumulate(
            a, SimConfig(beta=0.2, n_max=50, burn_in=10, seed=6), s
        )
        assert not np.array_equal(one.r0, other.r0)

    @pytest.mark.parametrize(
        "kind",
        [NoiseKind.GAUSSIAN, NoiseKind.RADEMACHER, NoiseKind.UNIFORM_CENTERED],
    )
    def test_noise_families_have_unit_variance(self, kind):
        # nearly decoupled dynamics expose the driving variance directly
        a = CombinationMatrix(0.01 * np.eye(3), 0.5)
        s = NodeSet((0, 1, 2))
        cfg = SimConfig(beta=1.0, n_max=4000, burn_in=50, noise=kind, seed=8)
        corr = simulate_and_accumulate(a, cfg, s)
        assert np.diag(corr.r0) == pytest.approx(np.ones(3), abs=0.08)

    def test_single_step(self):
        a = build_matrix(ring_graph(3), MET)
        s = full_set(a)
        cfg = SimConfig(beta=0.3, n_max=1, burn_in=0, seed=1)
        corr = simulate_and_accumulate(a, cfg, s)
        # sample 0 is the all-zero start, so the lag-1 average is one
        # outer product with a zero factor
        assert np.array_equal(corr.r1, np.zeros((3, 3)))

    def test_dump_stream(self):
        a = build_matrix(ring_graph(3), MET)
        s = NodeSet((0, 2))
        buf = io.StringIO()
        cfg = SimConfig(beta=0.5, n_max=3, burn_in=2, seed=12)
        corr = simulate_and_accumulate(a, cfg, s, dump=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,node_id,y"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 4 * 2
        assert [row[0] for row in body] == [
            "0", "0", "1", "1", "2", "2", "3", "3"
        ]
        assert {row[1] for row in body} == {"0", "2"}
        # the dumped samples regenerate the lag-0 average
        vals = np.array([float(row[2]) for row in body]).reshape(4, 2)
        r0 = vals.T @ vals / 4.0
        assert corr.r0 == pytest.approx(0.5 * (r0 + r0.T), abs=1e-12)


class TestKernelLoader:
    def test_private_copy_matches_scipy(self):
        # scipy.sparse is imported here too; the loader's module is its own,
        # and scipy's attribute still resolves to scipy's
        kernels = load_sparsetools()
        assert kernels.__name__ == dynamics._sparsetools.__name__ == "tomolab._sparsetools"
        assert scipy.sparse._sparsetools is _sparsetools is not kernels
        rng = np.random.default_rng(58)
        _, _, a, _ = random_observed_network(rng)
        x = rng.standard_normal(a.n)
        y = np.zeros(a.n)
        kernels.csr_matvec(a.n, a.n, a.indptr, a.indices, a.data, x, y)
        assert same_bits(y, csr_view(a) @ x)

    def test_missing_file_raises_naming_the_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".gone.so"])
        with pytest.raises(ImportError, match=r"sparse[/\\]_sparsetools\{suffix\}"):
            load_sparsetools()


class TestValidation:
    def test_sim_config_bounds(self):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(beta=0.0, n_max=10)
        with pytest.raises(ValueError, match="n_max"):
            SimConfig(beta=0.1, n_max=0)
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(beta=0.1, n_max=10, burn_in=-1)

    def test_correlation_set_shape_check(self):
        with pytest.raises(ValueError, match="3x3"):
            CorrelationSet(np.eye(2), np.eye(2), 0, NodeSet((0, 1, 2)))

    def test_restrict_unknown_node(self):
        corr = CorrelationSet(np.eye(2), np.eye(2), 0, NodeSet((1, 5)))
        with pytest.raises(ValueError, match="not covered"):
            corr.restrict(NodeSet((2,)))

    def test_restrict_matches_member_loop(self):
        # the old per-member lookup, kept as the oracle for restrict
        def loop_restrict(corr, nodes):
            pos = []
            for u in nodes:
                if u not in corr.node_index:
                    raise ValueError(f"node {u} is not covered by these correlations")
                pos.append(corr.node_index.members.index(u))
            sub = np.ix_(pos, pos)
            return corr.r0[sub], corr.r1[sub]

        rng = np.random.default_rng(58)
        for _ in range(40):
            have = NodeSet.of(rng.choice(60, size=int(rng.integers(1, 20)), replace=False))
            k = len(have)
            corr = CorrelationSet(rng.random((k, k)), rng.random((k, k)), 3, have)
            pool = list(have) if rng.random() < 0.5 else list(range(62))
            size = int(rng.integers(0, len(pool) + 1))
            nodes = NodeSet.of(rng.choice(pool, size=size, replace=False))
            try:
                want_r0, want_r1 = loop_restrict(corr, nodes)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    corr.restrict(nodes)
                assert str(err.value) == str(exc)
                continue
            got = corr.restrict(nodes)
            assert np.array_equal(got.r0, want_r0) and np.array_equal(got.r1, want_r1)
            assert got.node_index == nodes and got.sample_count == 3

    def test_restrict_names_first_uncovered_node(self):
        corr = CorrelationSet(np.eye(3), np.eye(3), 0, NodeSet((1, 5, 9)))
        for nodes, first in (((0, 5), 0), ((1, 6, 10), 6), ((5, 9, 12, 13), 12)):
            with pytest.raises(ValueError, match=f"^node {first} is not covered"):
                corr.restrict(NodeSet(nodes))

    def test_empty_observable_rejected(self):
        a = build_matrix(ring_graph(3), MET)
        with pytest.raises(ValueError, match="nonempty"):
            simulate_and_accumulate(a, SimConfig(beta=0.1, n_max=5), NodeSet(()))
