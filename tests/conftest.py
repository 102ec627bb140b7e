"""Shared builders for randomized test instances, a scipy view of the
weights, a bitwise comparison and a traced memory peak."""

import tracemalloc

import numpy as np
import scipy.sparse

from tomolab import (
    CombinationRule,
    NodeSet,
    PartialErSpec,
    PolicyParams,
    build_matrix,
    sample_er,
    sample_partial_er,
)


def random_observed_network(
    rng,
    n_lo=20,
    n_hi=60,
    s_lo=3,
    s_hi=10,
    rho=0.8,
    rule=None,
):
    """One partial-ER network with a combination matrix on it.

    The observable set is a uniformly chosen subset, the embedded subgraph
    is its own ER draw at the same density, and the rule alternates between
    the two families unless pinned.  Returns ``(g, s, a, params)``.
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    s_size = int(rng.integers(s_lo, min(s_hi, n - 1) + 1))
    p = min(1.0, 2.0 * np.log(n) / n)
    members = np.sort(rng.choice(n, size=s_size, replace=False))
    s = NodeSet(tuple(int(m) for m in members))
    planted = sample_er(s_size, p, rng)
    g = sample_partial_er(PartialErSpec(n, p, s, planted), rng)
    if rule is None:
        rule = (
            CombinationRule.LAPLACIAN
            if rng.random() < 0.5
            else CombinationRule.METROPOLIS
        )
    lam = 1.0 if rule is CombinationRule.METROPOLIS else float(rng.uniform(0.5, 1.0))
    params = PolicyParams(rule, rho=rho, lam=lam)
    return g, s, a_for(g, params), params


def a_for(g, params):
    return build_matrix(g, params)


def csr_view(a):
    """scipy ``csr_array`` over the CSR arrays of ``a``, sharing their buffers."""
    return scipy.sparse.csr_array((a.data, a.indices, a.indptr), shape=(a.n, a.n), copy=False)


def same_bits(got, want):
    """Equal dtype, shape and bytes: bit for bit, ``-0.0`` and NaN payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def traced_peak(f):
    """Peak bytes that ``tracemalloc`` sees while ``f()`` runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
