"""One child process of the tomolab benchmark.

``run.py`` starts this script once per driver run, with ``PYTHONPATH``
pointing at the checkout's ``src``.  It imports tomolab, prints ``ready`` so
the parent can time set-up, then does one job and writes a JSON report:

    child.py probe
    child.py cli --report R.json [--trace] -- <tomolab CLI arguments>
    child.py rarity --report R.json [--trace] --config C.json --calls K --out DIR
    child.py dense-check --report R.json --n 3000 --seed S

``cli`` calls ``tomolab.cli.main``, the function behind ``python -m
tomolab.cli`` and the ``tomolab`` script.  ``rarity`` calls
``check_small_distance_rarity``, which has no CLI command, ``K`` times at
one seed and times each call.  ``dense-check`` compares the library's
analytic estimate with a dense numpy ``R1 R0^{-1}`` computed here.  With
``--trace`` the public functions listed in ``tracer.TARGETS`` are wrapped
and the report carries per-group spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(call, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rc = call()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "call_walls": [wall],
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.summary() if tracer else None,
    }


def _cli(args) -> dict:
    from tomolab import cli

    return _timed(lambda: cli.main(args.cli_args), args.trace)


def _rarity(args) -> dict:
    """``check_small_distance_rarity`` at the loglog ``p`` for the config's N.

    The call repeats ``--calls`` times at the config's seed, so each call is
    one short timing sample; every repeat must return the same report.
    """
    from tomolab import CRule, lab

    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    p = CRule.loglog().p_for(cfg["n"])
    reports, walls = [], []

    def run() -> int:
        for _ in range(args.calls):
            t0 = time.perf_counter()
            reports.append(lab.check_small_distance_rarity(
                cfg["n"], p, cfg["s_size"], trials=cfg["trials"], base_seed=cfg["seed"]
            ))
            walls.append(time.perf_counter() - t0)
        if any(r != reports[0] for r in reports):
            print("repeated calls at one seed returned different reports", file=sys.stderr)
            return 3
        return 0

    result = _timed(run, args.trace)
    result["call_walls"] = walls
    rep = reports[0]
    rows = [[r.r, repr(r.empirical), repr(r.bound), repr(r.sigma)] for r in rep.rows]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "rarity.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "n": rep.n,
                "p": repr(rep.p),
                "trials": rep.trials,
                "r_n": rep.r_n,
                "dsmall_frequency": repr(rep.dsmall_frequency),
                "rows": rows,
            },
            fh,
        )
        fh.write("\n")
    return result


def _dense_check(args) -> dict:
    """Largest entry gap between the library estimate and a dense reference.

    The graph and its Metropolis weights are built here with numpy, so the
    reference shares no code with the library beyond numpy itself.
    """
    import numpy as np

    from tomolab import (
        CombinationRule,
        Graph,
        NodeSet,
        PolicyParams,
        analytic_correlations,
        build_matrix,
        granger_truncated,
    )

    n, s_size, rho = args.n, 10, 0.8
    beta = 1.0 - rho
    p = (math.log(n) + math.log(math.log(n))) / n
    rng = np.random.default_rng(args.seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    adj = upper | upper.T
    np.fill_diagonal(adj, True)
    s = np.arange(s_size)

    a = build_matrix(Graph(adj), PolicyParams(CombinationRule.METROPOLIS, rho))
    estimate = granger_truncated(analytic_correlations(a, beta, NodeSet(tuple(s.tolist()))))

    deg = adj.sum(axis=1)
    w = rho * adj / np.maximum.outer(deg, deg)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, rho - w.sum(axis=1))
    rhs = np.zeros((n, s_size))
    rhs[s, np.arange(s_size)] = beta * beta
    r0_cols = np.linalg.solve(np.eye(n) - w @ w, rhs)
    r0_s = r0_cols[s]
    r1_s = w[s] @ r0_cols
    reference = np.linalg.solve(r0_s.T, r1_s.T).T
    return {
        "rc": 0,
        "max_abs_diff": float(np.max(np.abs(estimate - reference))),
        "max_abs_entry": float(np.max(np.abs(reference))),
    }


def main() -> int:
    import tomolab  # noqa: F401  (set-up ends once the package is imported)

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="job", required=True)
    sub.add_parser("probe")
    p = sub.add_parser("cli")
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("rarity")
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--config", required=True)
    p.add_argument("--calls", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("dense-check")
    p.add_argument("--report", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    if args.job == "probe":
        return 0
    if args.job == "cli" and args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    job = {"cli": _cli, "rarity": _rarity, "dense-check": _dense_check}[args.job]
    report = job(args)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main())
