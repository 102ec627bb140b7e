"""Command-line front end.

Subcommands: ``generate``, ``simulate``, ``estimate``, ``recovery-prob``,
``patch-catch``, ``theory-check``.  Experiment commands read a JSON config
and write CSV/JSON into an output directory; exit code 0 on success, 2 on
a configuration problem, 3 on a numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from enum import Enum

import numpy as np

from .dynamics import NoiseKind, SimConfig, analytic_correlations, simulate_and_accumulate
from .errors import ConfigError, NumericError
from .graphs import NodeSet, PartialErSpec, load_edge_list, sample_partial_er, save_edge_list, subgraph
from .inference import (
    ClassifierMethod,
    apply_classifier,
    classification_report,
    granger_truncated,
)
from .lab import (
    ClassifierSpec,
    CorrelationMode,
    CRule,
    EmbeddedSource,
    ExperimentConfig,
    PatchCatchConfig,
    RegimeSpec,
    TheoryCheckConfig,
    patch_catch_experiment,
    patch_catch_rows_csv,
    patch_catch_trace_csv,
    recovery_probability_experiment,
    recovery_rows_csv,
    theory_check,
    theory_rows_csv,
)
from .patchwork import TieBreak
from .weights import CombinationRule, PolicyParams, build_matrix

SCHEMA = 1


def parse_node_range(text: str) -> NodeSet:
    """Parse ``0-9`` / ``0,3,7`` / mixed ``0-4,8`` node specifications."""
    ids: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError(f"bad node range {part!r}") from exc
            if hi_i < lo_i:
                raise ConfigError(f"empty node range {part!r}")
            ids.update(range(lo_i, hi_i + 1))
        else:
            try:
                ids.add(int(part))
            except ValueError as exc:
                raise ConfigError(f"bad node id {part!r}") from exc
    if not ids:
        raise ConfigError(f"no node ids in {text!r}")
    return NodeSet.of(ids)


_REQUIRED = object()


def _field(cfg, key: str, kind, where: str, default=_REQUIRED):
    """``cfg[key]`` checked against ``kind``, or ``default`` when it is absent.

    ``cfg`` must be a JSON object.  An int is taken where a float is
    wanted, a bool never counts as a number, and an Enum ``kind`` takes one
    of its values.  A null counts as absent when the default is ``None``.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    value = cfg.get(key)
    if key not in cfg or (value is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r} in {where}")
        return default
    if isinstance(kind, type) and issubclass(kind, Enum):
        if value not in [k.value for k in kind]:
            allowed = ", ".join(repr(k.value) for k in kind)
            raise ConfigError(f"field {key!r} in {where} must be one of {allowed}")
        return kind(value)
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"field {key!r} in {where} must be {kind.__name__}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} (line {exc.lineno}): {exc.msg}") from exc


def _c_rule(cfg) -> CRule:
    return CRule(_field(cfg, "kind", str, "c_rule"), _field(cfg, "value", float, "c_rule", None))


def _policy(cfg) -> PolicyParams:
    return PolicyParams(
        _field(cfg, "rule", CombinationRule, "policy"),
        _field(cfg, "rho", float, "policy"),
        _field(cfg, "lambda", float, "policy", 1.0),
    )


def _embedded(cfg) -> EmbeddedSource:
    kind = _field(cfg, "kind", str, "embedded")
    graph = load_edge_list(_field(cfg, "file", str, "embedded")) if kind == "explicit" else None
    return EmbeddedSource(kind, _field(cfg, "q", float, "embedded", None), graph)


def _sim(cfg, where: str, default_beta: float) -> SimConfig:
    return SimConfig(
        beta=_field(cfg, "beta", float, where, default_beta),
        n_max=_field(cfg, "n_max", int, where),
        burn_in=_field(cfg, "burn_in", int, where, 1000),
        noise=_field(cfg, "noise", NoiseKind, where, NoiseKind.GAUSSIAN),
        seed=_field(cfg, "seed", int, where, 0),
    )


def _classifier(cfg) -> ClassifierSpec:
    """kmeans2, or a threshold whose eta is a number or ``"auto"`` (derived per N)."""
    method = _field(cfg, "method", ClassifierMethod, "classifier")
    eta = None if cfg.get("eta") == "auto" else _field(cfg, "eta", float, "classifier", None)
    return ClassifierSpec(method, eta)


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _save_matrix_csv(m: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    s = parse_node_range(args.s) if args.s else NodeSet(tuple(range(args.s_size)))
    kind, _, arg = args.embedded.partition(":")
    if kind == "file":
        src = _embedded({"kind": "explicit", "file": arg})
    else:
        src = _embedded({"kind": kind.replace("-", "_"), "q": float(arg) if arg else None})
    planted = src.sample(len(s), args.p, rng)
    g = sample_partial_er(PartialErSpec(args.n, args.p, s, planted), rng)
    save_edge_list(g, _out_path(args.out, "graph.edges"))
    save_edge_list(subgraph(g, s), _out_path(args.out, "observable.edges"))
    print(
        f"generate: N={args.n} p={args.p:.5f} |S|={len(s)} "
        f"edges={g.edge_count()} -> {args.out}"
    )
    return 0


def _network_from_args(args):
    """``(g, policy, a, s, beta)`` from the ``simulate``/``estimate`` options."""
    g = load_edge_list(args.graph)
    policy = _policy({"rule": args.policy, "rho": args.rho, "lambda": args.lam})
    s = parse_node_range(args.s)
    s.check_within(g.n)
    beta = args.beta if args.beta is not None else 1.0 - policy.rho
    return g, policy, build_matrix(g, policy), s, beta


def _cmd_simulate(args) -> int:
    g, _, a, s, beta = _network_from_args(args)
    cfg = _sim({**vars(args), "beta": beta}, "options", beta)
    path = _out_path(args.out, "trajectory.csv") if args.dump else None
    with open(path, "w", encoding="ascii") if path else contextlib.nullcontext() as dump:
        corr = simulate_and_accumulate(a, cfg, s, dump=dump)
    _save_matrix_csv(corr.r0, _out_path(args.out, "r0.csv"))
    _save_matrix_csv(corr.r1, _out_path(args.out, "r1.csv"))
    print(
        f"simulate: N={g.n} |S|={len(s)} n_max={cfg.n_max} "
        f"noise={cfg.noise.value} -> {args.out}"
    )
    return 0


def _cmd_estimate(args) -> int:
    g, policy, a, s, beta = _network_from_args(args)
    eta = args.eta if args.eta == "auto" else float(args.eta)
    spec = _classifier({"method": args.classifier, "eta": eta})
    if spec.method is ClassifierMethod.THRESHOLD and spec.eta is None and args.p is None:
        raise ConfigError("--eta auto needs --p to derive the threshold")
    if args.p is not None and not 0.0 < args.p <= 1.0:
        raise ConfigError(f"--p must lie in (0, 1], got {args.p}")
    if args.mode == "analytic":
        corr = analytic_correlations(a, beta, s)
    else:
        corr = simulate_and_accumulate(a, _sim({**vars(args), "beta": beta}, "options", beta), s)
    est = granger_truncated(corr)
    decided = apply_classifier(est, spec.resolve(policy, g.n, args.p))
    _save_matrix_csv(est, _out_path(args.out, "a_hat.csv"))
    report = {
        "schema": SCHEMA,
        "n": g.n,
        "observable": list(s),
        "pairs": classification_report(est, decided, s),
    }
    with open(_out_path(args.out, "classification.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    edges = decided.edge_count()
    print(f"estimate: |S|={len(s)} mode={args.mode} decided_edges={edges} -> {args.out}")
    return 0


def _cmd_recovery_prob(args) -> int:
    cfg, where = _load_config(args.config), args.config
    policy = _policy(_field(cfg, "policy", dict, where))
    n_grid = _field(cfg, "n_grid", list, where)
    if not all(type(n) is int for n in n_grid):
        raise ConfigError(f"field 'n_grid' in {where} must be a list of int")
    corr = _field(cfg, "correlations", dict, where)
    mode = _field(corr, "mode", str, "correlations")
    sim = _sim(corr, "correlations", 1.0 - policy.rho) if mode == "empirical" else None
    experiment = ExperimentConfig(
        regime=RegimeSpec(tuple(n_grid), _c_rule(_field(cfg, "c_rule", dict, where))),
        s_size=_field(cfg, "s_size", int, where),
        embedded=_embedded(_field(cfg, "embedded", dict, where, {"kind": "er"})),
        policy=policy,
        classifier=_classifier(_field(cfg, "classifier", dict, where, {"method": "kmeans2"})),
        correlations=CorrelationMode(mode, sim),
        trials=_field(cfg, "trials", int, where),
        base_seed=args.seed if args.seed is not None else _field(cfg, "seed", int, where, 0),
    )
    rows = recovery_probability_experiment(experiment, threads=args.threads)
    with open(_out_path(args.out, "recovery.csv"), "w", encoding="ascii") as fh:
        fh.write(recovery_rows_csv(rows))
    summary = {
        "schema": SCHEMA,
        "rows": [{"N" if k == "n" else k: v for k, v in vars(r).items()} for r in rows],
    }
    with open(_out_path(args.out, "recovery.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    worst = min(rows, key=lambda r: r.fraction)
    print(
        f"recovery-prob: {len(rows)} sizes, worst fraction "
        f"{worst.fraction:.3f} at N={worst.n} -> {args.out}"
    )
    return 0


def _cmd_patch_catch(args) -> int:
    cfg, where = _load_config(args.config), args.config
    policy = _policy(_field(cfg, "policy", dict, where))
    experiment = PatchCatchConfig(
        n=_field(cfg, "n", int, where),
        c_rule=_c_rule(_field(cfg, "c_rule", dict, where)),
        s_size=_field(cfg, "s_size", int, where),
        probe_limit=_field(cfg, "probe_limit", int, where),
        policy=policy,
        sim=_sim(_field(cfg, "sim", dict, where), "sim", 1.0 - policy.rho),
        trials=_field(cfg, "trials", int, where),
        base_seed=args.seed if args.seed is not None else _field(cfg, "seed", int, where, 0),
        tiebreak=_field(cfg, "tiebreak", TieBreak, where, TieBreak.FIRST),
        shared_trajectory=_field(cfg, "shared_trajectory", bool, where, True),
        embedded=_embedded(_field(cfg, "embedded", dict, where, {"kind": "match_p"})),
    )
    results = patch_catch_experiment(experiment, threads=args.threads)
    with open(_out_path(args.out, "final.csv"), "w", encoding="ascii") as fh:
        fh.write(patch_catch_rows_csv(results))
    with open(_out_path(args.out, "trace.csv"), "w", encoding="ascii") as fh:
        fh.write(patch_catch_trace_csv(results))
    zero = sum(1 for r in results if r.final_distance == 0.0)
    mean_final = sum(r.final_distance for r in results) / len(results)
    print(
        f"patch-catch: {len(results)} trials, {zero} exact, "
        f"mean final distance {mean_final:.5f} -> {args.out}"
    )
    return 0


def _cmd_theory_check(args) -> int:
    if args.grid:
        try:
            grid = tuple(float(x) for x in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad N grid {args.grid!r}") from exc
    else:
        grid = tuple(10.0 ** e for e in range(3, 9))
    cfg = TheoryCheckConfig(
        rho=args.rho,
        n_grid=grid,
        c_rule=CRule.loglog() if args.multiple is None else CRule.multiple(args.multiple),
        s_size=args.s_size,
    )
    rows = theory_check(cfg)
    if args.out:
        with open(_out_path(args.out, "theory.csv"), "w", encoding="ascii") as fh:
            fh.write(theory_rows_csv(rows))
    header = f"{'N':>12} {'r_N':>4} {'error_tail':>14} {'distance_tail':>16}"
    print(header)
    for r in rows:
        print(f"{r.n:>12.4g} {r.r_n:>4d} {r.error_tail:>14.6g} {r.distance_tail:>16.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomolab",
        description="Local tomography of diffusion networks under partial observation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a partially characterized network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s-size", type=int, default=10)
    p.add_argument("--s", type=str, default=None, help="explicit observable ids, e.g. 0-9")
    p.add_argument("--embedded", type=str, default="er", help="er[:q] | ring | match-p | file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_generate)

    common_sim = argparse.ArgumentParser(add_help=False)
    common_sim.add_argument("--graph", type=str, required=True)
    common_sim.add_argument("--policy", type=str, required=True, choices=["laplacian", "metropolis"])
    common_sim.add_argument("--rho", type=float, required=True)
    common_sim.add_argument("--lam", type=float, default=1.0)
    common_sim.add_argument("--s", type=str, required=True)
    common_sim.add_argument("--beta", type=float, default=None)
    common_sim.add_argument("--n-max", type=int, default=100000)
    common_sim.add_argument("--burn-in", type=int, default=1000)
    common_sim.add_argument("--noise", type=str, default="gaussian",
                            choices=[k.value for k in NoiseKind])
    common_sim.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", parents=[common_sim],
                       help="estimate correlations from a trajectory")
    p.add_argument("--dump", action="store_true", help="also write the raw observable samples")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", parents=[common_sim],
                       help="estimate the observable submatrix and classify pairs")
    p.add_argument("--mode", type=str, default="analytic", choices=["analytic", "empirical"])
    p.add_argument("--classifier", type=str, default="kmeans2", choices=["kmeans2", "threshold"])
    p.add_argument("--eta", type=str, default="auto")
    p.add_argument("--p", type=float, default=None, help="edge probability, for --eta auto")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("recovery-prob", help="recovery probability over a size grid")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_recovery_prob)

    p = sub.add_parser("patch-catch", help="patch-based reconstruction campaign")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_patch_catch)

    p = sub.add_parser("theory-check", help="tail quantities of the sparse regime")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--s-size", type=int, default=10)
    p.add_argument("--grid", type=str, default=None, help="comma-separated N values")
    p.add_argument("--multiple", type=float, default=None,
                   help="use p = k log(N)/N instead of the log-log offset")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_theory_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
