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

from .dynamics import NoiseKind, SimConfig, simulate_and_accumulate
from .errors import ConfigError, NumericError
from .graphs import NodeSet, PartialErSpec, load_edge_list, sample_partial_er, save_edge_list, subgraph
from .inference import (
    Classifier,
    ClassifierMethod,
    apply_classifier,
    classification_report,
    granger_truncated,
)
from .lab import (
    CRule,
    EmbeddedSource,
    ExperimentConfig,
    PatchCatchConfig,
    TheoryCheckConfig,
    check_seed,
    correlations,
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
# flag defaults applied in code: argparse leaves these flags None when not given
_S_SIZE = 10
_N_MAX = 100000


def parse_node_range(text: str, n: int) -> NodeSet:
    """Parse ``0-9`` / ``0,3,7`` / mixed ``0-4,8`` ids of an ``n``-node graph.

    The largest id is checked against ``n`` before any range is expanded.
    """
    bounds: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            lo_i = int(lo)
            hi_i = int(hi) if dash else lo_i
        except ValueError as exc:
            raise ConfigError(f"bad node {'range' if dash else 'id'} {part!r}") from exc
        if hi_i < lo_i:
            raise ConfigError(f"empty node range {part!r}")
        bounds.append((lo_i, hi_i))
    if not bounds:
        raise ConfigError(f"no node ids in {text!r}")
    top = max(hi for _, hi in bounds)
    if top >= n:
        raise ConfigError(f"node id {top} out of range for a {n}-node graph")
    return NodeSet(np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in bounds])))


def _option_float(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad number {text!r} for {option}") from exc


_REQUIRED = object()


class _Fields:
    """One JSON object of a config, each field checked as it is read.

    :meth:`done` refuses a key that no read asked for, in this object or
    in any section read from it, so a misspelt or unused setting stops the
    run before any draw.
    """

    def __init__(self, cfg, where: str):
        if not isinstance(cfg, dict):
            raise ConfigError(f"{where} must be a JSON object")
        self.cfg, self.where = cfg, where
        self._unread = set(cfg)
        self._sections: list[_Fields] = []

    def get(self, key: str, kind, default=_REQUIRED):
        """``cfg[key]`` checked against ``kind``, or ``default`` when it is absent.

        An int is taken where a float is wanted, a bool never counts as a
        number, and an Enum ``kind`` takes one of its values.  A null
        counts as absent when the default is ``None``.
        """
        self._unread.discard(key)
        value = self.cfg.get(key)
        if key not in self.cfg or (value is None and default is None):
            if default is _REQUIRED:
                raise ConfigError(f"missing field {key!r} in {self.where}")
            return default
        if isinstance(kind, type) and issubclass(kind, Enum):
            if value not in [k.value for k in kind]:
                allowed = ", ".join(repr(k.value) for k in kind)
                raise ConfigError(f"field {key!r} in {self.where} must be one of {allowed}")
            return kind(value)
        if kind is float and type(value) is int:
            value = float(value)
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"field {key!r} in {self.where} must be {kind.__name__}")
        return value

    def section(self, key: str, default=_REQUIRED) -> _Fields:
        """The JSON object under ``key``, checked by this object's :meth:`done`."""
        sub = _Fields(self.get(key, dict, default), key)
        self._sections.append(sub)
        return sub

    def done(self) -> None:
        if self._unread:
            raise ConfigError(f"unknown field {min(self._unread)!r} in {self.where}")
        for sub in self._sections:
            sub.done()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} (line {exc.lineno}): {exc.msg}") from exc


def _c_rule(f: _Fields) -> CRule:
    return CRule(f.get("kind", str), f.get("value", float, None))


def _policy(f: _Fields) -> PolicyParams:
    return PolicyParams(
        f.get("rule", CombinationRule), f.get("rho", float), f.get("lambda", float, 1.0)
    )


def _embedded(f: _Fields) -> EmbeddedSource:
    kind = f.get("kind", str)
    graph = load_edge_list(f.get("file", str)) if kind == "explicit" else None
    return EmbeddedSource(kind, f.get("q", float, None), graph)


def _sim(f: _Fields, policy: PolicyParams) -> SimConfig:
    return SimConfig(
        beta=policy.default_beta,  # the estimate is the same at every noise scale
        n_max=f.get("n_max", int),
        burn_in=f.get("burn_in", int, SimConfig.burn_in),
        noise=f.get("noise", NoiseKind, SimConfig.noise),
    )


def _classifier(f: _Fields) -> Classifier:
    """kmeans2, or a threshold whose eta is a number or ``"auto"`` (unset, derived per N)."""
    method = f.get("method", ClassifierMethod)
    eta = f.get("eta", str) if f.cfg.get("eta") == "auto" else f.get("eta", float, None)
    return Classifier(method, None if eta == "auto" else eta)


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(_out_path(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


@contextlib.contextmanager
def _written_on_success(path: str):
    """A text file open under a temporary name, renamed to ``path`` if the block succeeds."""
    part = path + ".part"
    fh = open(part, "w", encoding="ascii")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(part)
        raise
    os.replace(part, path)


def _matrix_csv(m: np.ndarray) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in np.atleast_2d(m))


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    size = _S_SIZE if args.s_size is None else args.s_size
    if not args.s and size < 1:
        raise ConfigError(f"--s-size must be at least 1, got {size}")
    rng = np.random.default_rng(args.seed)
    # --s-size k observes the range 0-(k-1)
    s = parse_node_range(args.s or f"0-{size - 1}", args.n)
    kind, _, arg = args.embedded.partition(":")
    if kind == "file":
        src = EmbeddedSource("explicit", graph=load_edge_list(arg))
    elif kind == "explicit":
        raise ConfigError("--embedded explicit needs a graph: give it as --embedded file:PATH")
    else:
        q = _option_float(arg, "--embedded") if arg else None
        src = EmbeddedSource(kind.replace("-", "_"), q)
    planted = src.sample(len(s), args.p, rng)
    g = sample_partial_er(PartialErSpec(args.n, args.p, s, planted), rng)
    save_edge_list(g, _out_path(args.out, "graph.edges"))
    save_edge_list(subgraph(g, s), _out_path(args.out, "observable.edges"))
    print(
        f"generate: N={args.n} p={args.p:.5f} |S|={len(s)} "
        f"edges={g.edge_count()} -> {args.out}"
    )
    return 0


def _network_from_args(args, beta: float | None = None):
    """``(g, policy, a, s, sim)`` from the flags; ``sim`` is ``None`` when analytic.

    Analytic mode refuses the simulation flags; one not given keeps its default.
    """
    if args.mode == "analytic":
        for flag in ("n_max", "burn_in", "noise", "seed"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag.replace('_', '-')} applies to --mode empirical only")
    g = load_edge_list(args.graph)
    policy = PolicyParams(CombinationRule(args.policy), args.rho, args.lam)
    s = parse_node_range(args.s, g.n)
    sim = None
    if args.mode == "empirical":
        given = {"burn_in": args.burn_in, "noise": NoiseKind(args.noise) if args.noise else None}
        n_max = _N_MAX if args.n_max is None else args.n_max
        beta = policy.default_beta if beta is None else beta
        sim = SimConfig(beta, n_max, **{k: v for k, v in given.items() if v is not None})
    return g, policy, build_matrix(g, policy), s, sim


def _cmd_simulate(args) -> int:
    g, _, a, s, cfg = _network_from_args(args, args.beta)
    path = _out_path(args.out, "trajectory.csv") if args.dump else None
    with _written_on_success(path) if path else contextlib.nullcontext() as dump:
        corr = simulate_and_accumulate(a, cfg, s, args.seed or 0, dump=dump)
    _write_text(args.out, "r0.csv", _matrix_csv(corr.r0))
    _write_text(args.out, "r1.csv", _matrix_csv(corr.r1))
    print(
        f"simulate: N={g.n} |S|={len(s)} n_max={cfg.n_max} "
        f"noise={cfg.noise.value} -> {args.out}"
    )
    return 0


def _cmd_estimate(args) -> int:
    g, policy, a, s, sim = _network_from_args(args)
    eta = None if args.eta == "auto" else _option_float(args.eta, "--eta")
    classifier = Classifier(ClassifierMethod(args.classifier), eta)
    classifier.check_observed(len(s))
    rule = classifier.resolve(policy, g.n, args.p)
    if args.p is not None and rule is classifier:  # resolved without reading p
        raise ConfigError("--p applies to --classifier threshold --eta auto only")
    est = granger_truncated(correlations(a, s, args.seed or 0, sim))
    decided = apply_classifier(est, rule)
    _write_text(args.out, "a_hat.csv", _matrix_csv(est))
    report = {
        "schema": SCHEMA,
        "n": g.n,
        "observable": list(s),
        "pairs": classification_report(est, decided, s),
    }
    _write_text(args.out, "classification.json", json.dumps(report, indent=2) + "\n")
    edges = decided.edge_count()
    print(f"estimate: |S|={len(s)} mode={args.mode} decided_edges={edges} -> {args.out}")
    return 0


def _cmd_recovery_prob(args) -> int:
    cfg = _Fields(_load_config(args.config), args.config)
    policy = _policy(cfg.section("policy"))
    n_grid = cfg.get("n_grid", list)
    if not all(type(n) is int for n in n_grid):
        raise ConfigError(f"field 'n_grid' in {cfg.where} must be a list of int")
    corr = cfg.section("correlations")
    mode = corr.get("mode", str)
    if mode not in ("analytic", "empirical"):
        raise ConfigError(f"unknown correlation mode {mode!r}")
    sim = _sim(corr, policy) if mode == "empirical" else None
    seed = check_seed(cfg.get("seed", int, 0), f"field 'seed' in {cfg.where}")
    experiment = ExperimentConfig(
        n_grid=tuple(n_grid),
        c_rule=_c_rule(cfg.section("c_rule")),
        s_size=cfg.get("s_size", int),
        embedded=_embedded(cfg.section("embedded", {"kind": "er"})),
        policy=policy,
        classifier=_classifier(cfg.section("classifier", {"method": "kmeans2"})),
        sim=sim,
        trials=cfg.get("trials", int),
        base_seed=seed if args.seed is None else args.seed,
    )
    cfg.done()
    rows = recovery_probability_experiment(experiment, threads=args.threads)
    _write_text(args.out, "recovery.csv", recovery_rows_csv(rows))
    summary = {
        "schema": SCHEMA,
        "rows": [{"N" if k == "n" else k: v for k, v in vars(r).items()} for r in rows],
    }
    _write_text(args.out, "recovery.json", json.dumps(summary, indent=2) + "\n")
    worst = min(rows, key=lambda r: r.fraction)
    print(
        f"recovery-prob: {len(rows)} sizes, worst fraction "
        f"{worst.fraction:.3f} at N={worst.n} -> {args.out}"
    )
    return 0


def _cmd_patch_catch(args) -> int:
    cfg = _Fields(_load_config(args.config), args.config)
    policy = _policy(cfg.section("policy"))
    seed = check_seed(cfg.get("seed", int, 0), f"field 'seed' in {cfg.where}")
    # one trajectory serves every experiment; the field still parses so older configs run
    if not cfg.get("shared_trajectory", bool, True):
        raise ConfigError(
            f"field 'shared_trajectory' in {cfg.where} must be true: "
            "every experiment reads its correlations off one trajectory"
        )
    experiment = PatchCatchConfig(
        n=cfg.get("n", int),
        c_rule=_c_rule(cfg.section("c_rule")),
        s_size=cfg.get("s_size", int),
        probe_limit=cfg.get("probe_limit", int),
        policy=policy,
        sim=_sim(cfg.section("sim"), policy),
        trials=cfg.get("trials", int),
        base_seed=seed if args.seed is None else args.seed,
        tiebreak=cfg.get("tiebreak", TieBreak, TieBreak.FIRST),
        embedded=_embedded(cfg.section("embedded", {"kind": "match_p"})),
    )
    cfg.done()
    results = patch_catch_experiment(experiment, threads=args.threads)
    _write_text(args.out, "final.csv", patch_catch_rows_csv(results))
    _write_text(args.out, "trace.csv", patch_catch_trace_csv(results))
    zero = sum(1 for r in results if r.final_distance == 0.0)
    mean_final = sum(r.final_distance for r in results) / len(results)
    print(
        f"patch-catch: {len(results)} trials, {zero} exact, "
        f"mean final distance {mean_final:.5f} -> {args.out}"
    )
    return 0


def _cmd_theory_check(args) -> int:
    if args.grid:
        grid = tuple(_option_float(x, "--grid") for x in args.grid.split(","))
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
        _write_text(args.out, "theory.csv", theory_rows_csv(rows))
    header = f"{'N':>12} {'r_N':>4} {'error_tail':>14} {'distance_tail':>16}"
    print(header)
    for r in rows:
        print(f"{r.n:>12.4g} {r.r_n:>4d} {r.error_tail:>14.6g} {r.distance_tail:>16.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a flag's prefix is no flag, so
    # "--burn 1000" is refused rather than read as "--burn-in 1000"
    parser = argparse.ArgumentParser(
        prog="tomolab",
        description="Local tomography of diffusion networks under partial observation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a partially characterized network",
                       allow_abbrev=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    observed = p.add_mutually_exclusive_group()
    observed.add_argument("--s-size", type=int, default=None,
                          help=f"observe nodes 0..k-1 (default {_S_SIZE})")
    observed.add_argument("--s", type=str, default=None, help="explicit observable ids, e.g. 0-9")
    p.add_argument("--embedded", type=str, default="er", help="er[:q] | ring | match-p | file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_generate)

    common_sim = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common_sim.add_argument("--graph", type=str, required=True)
    common_sim.add_argument("--policy", type=str, required=True, choices=["laplacian", "metropolis"])
    common_sim.add_argument("--rho", type=float, required=True)
    common_sim.add_argument("--lam", type=float, default=1.0)
    common_sim.add_argument("--s", type=str, required=True)
    common_sim.add_argument("--n-max", type=int, default=None, help=f"default {_N_MAX}")
    common_sim.add_argument("--burn-in", type=int, default=None,
                            help=f"default {SimConfig.burn_in}")
    common_sim.add_argument("--noise", type=str, default=None,
                            choices=[k.value for k in NoiseKind],
                            help=f"default {SimConfig.noise.value}")
    common_sim.add_argument("--seed", type=int, default=None, help="default 0")

    p = sub.add_parser("simulate", parents=[common_sim], allow_abbrev=False,
                       help="estimate correlations from a trajectory")
    p.add_argument("--beta", type=float, default=None, help="noise scale (default 1 - rho)")
    p.add_argument("--dump", action="store_true", help="also write the raw observable samples")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_simulate, mode="empirical")  # always a trajectory

    p = sub.add_parser("estimate", parents=[common_sim], allow_abbrev=False,
                       help="estimate the observable submatrix and classify pairs")
    p.add_argument("--mode", type=str, default="analytic", choices=["analytic", "empirical"])
    p.add_argument("--classifier", type=str, default="kmeans2", choices=["kmeans2", "threshold"])
    p.add_argument("--eta", type=str, default="auto")
    p.add_argument("--p", type=float, default=None, help="edge probability, for --eta auto")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_estimate)

    common_exp = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common_exp.add_argument("--config", type=str, required=True)
    common_exp.add_argument("--out", type=str, required=True)
    common_exp.add_argument("--seed", type=int, default=None, help="override the config seed")
    common_exp.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("recovery-prob", parents=[common_exp], allow_abbrev=False,
                       help="recovery probability over a size grid")
    p.set_defaults(func=_cmd_recovery_prob)

    p = sub.add_parser("patch-catch", parents=[common_exp], allow_abbrev=False,
                       help="patch-based reconstruction campaign")
    p.set_defaults(func=_cmd_patch_catch)

    p = sub.add_parser("theory-check", help="tail quantities of the sparse regime",
                       allow_abbrev=False)
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
        if getattr(args, "seed", None) is not None:  # None: not given
            check_seed(args.seed, "--seed")
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
