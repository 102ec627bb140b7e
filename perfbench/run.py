"""tomolab benchmark: four fixed-seed driver workloads, timed or traced.

    python3 perfbench/run.py --workload NAME [--seed 0] [--seconds 20] [--trace 0|1]

Each driver run is a fresh child process (``child.py``) with
``PYTHONPATH=src``, ``OPENBLAS_NUM_THREADS=1`` and two worker threads, so
threads never exceed the two cores the workloads were sized for.  Runs
repeat, closed loop, one at a time, until ``--seconds`` have passed; every
run of one invocation uses the same generated config, so their outputs
must match byte for byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracer import TracerError  # noqa: E402

WORKERS = 2
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60
DENSE_CHECK_N = 3000
DENSE_CHECK_SEED = 20180523
DENSE_CHECK_TOL = 1e-12
MODULES = ("graphs", "weights", "dynamics", "inference", "patchwork", "lab", "cli")


def recovery_config(n: int, correlations: dict, trials: int, seed: int) -> dict:
    return {
        "n_grid": [n],
        "c_rule": {"kind": "loglog"},
        "s_size": 10,
        "embedded": {"kind": "er"},
        "policy": {"rule": "metropolis", "rho": 0.8},
        "classifier": {"method": "kmeans2"},
        "correlations": correlations,
        "trials": trials,
        "seed": seed,
    }


def patch_config(trials: int, seed: int) -> dict:
    return {
        "n": 300,
        "c_rule": {"kind": "multiple", "value": 5.0},
        "s_size": 60,
        "probe_limit": 10,
        "policy": {"rule": "metropolis", "rho": 0.8},
        "sim": {"n_max": 100000, "burn_in": 1000},
        "trials": trials,
        "tiebreak": "first",
        "shared_trajectory": True,
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    """One driver configuration and what its traced run must show."""

    name: str
    command: str  # "recovery-prob", "patch-catch" or "rarity"
    trials: int  # trials per call of the driver
    workers: int
    dominant: str  # module predicted to hold the most traced self time
    fires: tuple[str, ...]  # span groups that must record calls
    silent: tuple[str, ...]  # span groups that must record none
    n: int = 0
    calls: int = 1  # timed calls of the driver per child

    @property
    def run_trials(self) -> int:
        return self.trials * self.calls

    def config(self, seed: int) -> dict:
        if self.name == "recovery-analytic":
            return recovery_config(self.n, {"mode": "analytic"}, self.trials, seed)
        if self.name == "recovery-empirical":
            corr = {"mode": "empirical", "n_max": 10000, "burn_in": 1000}
            return recovery_config(self.n, corr, self.trials, seed)
        if self.name == "patch-campaign":
            return patch_config(self.trials, seed)
        return {"n": self.n, "s_size": 10, "trials": self.trials, "seed": seed}


_RECOVERY_FIRES = (
    "graphs.sample", "weights.build", "inference.solve", "inference.classify",
    "lab.driver", "cli",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recovery-analytic", "recovery-prob", trials=2, workers=WORKERS,
            dominant="dynamics", n=3000,
            fires=_RECOVERY_FIRES + ("dynamics.analytic",),
            silent=("dynamics.simulate", "graphs.bfs"),
        ),
        Workload(
            "recovery-empirical", "recovery-prob", trials=2, workers=WORKERS,
            dominant="dynamics", n=1000,
            fires=_RECOVERY_FIRES + ("dynamics.simulate",),
            silent=("dynamics.analytic", "graphs.bfs"),
        ),
        Workload(
            "patch-campaign", "patch-catch", trials=2, workers=WORKERS,
            dominant="dynamics", n=300,
            fires=_RECOVERY_FIRES + (
                "dynamics.simulate", "dynamics.restrict", "patchwork.merge",
                "patchwork.run",
            ),
            silent=("dynamics.analytic", "graphs.bfs"),
        ),
        Workload(
            "rarity", "rarity", trials=10, calls=50, workers=1, dominant="graphs", n=500,
            fires=("graphs.sample", "graphs.bfs", "lab.driver"),
            silent=("dynamics.analytic", "dynamics.simulate", "cli"),
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "graphs.sample.calls": "count",
    "graphs.sample.self_s": "s",
    "graphs.bfs.calls": "count",
    "graphs.bfs.self_s": "s",
    "weights.build.self_s": "s",
    "dynamics.analytic.calls": "count",
    "dynamics.analytic.self_s": "s",
    "dynamics.analytic.ms_per_call": "ms",
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.steps": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.simulate.us_per_step": "us",
    "dynamics.restrict.self_s": "s",
    "inference.solve.calls": "count",
    "inference.solve.us_per_call": "us",
    "inference.classify.self_s": "s",
    "patchwork.merge.calls": "count",
    "patchwork.merge.self_s": "s",
    "patchwork.run.self_s": "s",
    "lab.driver.self_s": "s",
    "lab.cpu_util": "fraction",
    "cli.self_s": "s",
    "trace.wall_ratio": "ratio",
}


@dataclass
class ChildRun:
    """Outcome of one child process."""

    setup_s: float | None = None
    report: dict | None = None
    outputs: dict[str, bytes] = field(default_factory=dict)
    numeric_failures: int = 0
    problems: list[str] = field(default_factory=list)
    traced: bool = False


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOMOLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(args: list[str], cwd: Path) -> tuple[float | None, int, str]:
    """Run ``child.py args``; return set-up time, exit code and stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0 if first == b"ready\n" else None
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return setup, proc.returncode, err.decode("utf-8", "replace")


def _read_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="ascii"))))


def check_outputs(wl: Workload, out: Path) -> tuple[dict[str, bytes], list[str]]:
    """Parse the driver's outputs; return their bytes and any problems found."""
    problems: list[str] = []
    names = {
        "recovery-prob": ("recovery.csv", "recovery.json"),
        "patch-catch": ("final.csv", "trace.csv"),
        "rarity": ("rarity.json",),
    }[wl.command]
    outputs = {}
    for name in names:
        try:
            outputs[name] = (out / name).read_bytes()
        except OSError as exc:
            return outputs, [f"missing output {name}: {exc}"]
    try:
        if wl.command == "recovery-prob":
            rows = _read_csv(out / "recovery.csv")
            summary = json.loads(outputs["recovery.json"])["rows"]
            if rows[0] != ["N", "trials", "perfect", "fraction", "ci_lo", "ci_hi"]:
                problems.append(f"recovery.csv header {rows[0]}")
            if len(rows) != 2 or len(summary) != 1:
                problems.append("expected one size in recovery.csv/json")
            n, trials, perfect = (int(x) for x in rows[1][:3])
            frac = float(rows[1][3])
            if (n, trials) != (wl.n, wl.trials) or not 0 <= perfect <= trials:
                problems.append(f"recovery row {rows[1]} does not match N={wl.n}, {wl.trials} trials")
            if frac != perfect / trials or summary[0]["perfect"] != perfect:
                problems.append("recovery fraction disagrees with its counts")
        elif wl.command == "patch-catch":
            final = _read_csv(out / "final.csv")
            trace = _read_csv(out / "trace.csv")
            if [r[0] for r in final[1:]] != [str(t) for t in range(wl.trials)]:
                problems.append(f"final.csv lists trials {[r[0] for r in final[1:]]}")
            experiments = 66 * wl.trials  # 12 patches of 5 nodes, every pair once
            if len(trace) - 1 != experiments:
                problems.append(f"trace.csv has {len(trace) - 1} rows, expected {experiments}")
            last = {row[0]: float(row[2]) for row in trace[1:]}
            for trial, dist in final[1:]:
                if not 0.0 <= float(dist) <= 1.0 or last.get(trial) != float(dist):
                    problems.append(f"trial {trial} final distance {dist} disagrees with its trace")
        else:
            rep = json.loads(outputs["rarity.json"])
            emp = [float(row[1]) for row in rep["rows"]]
            if rep["trials"] != wl.trials or [row[0] for row in rep["rows"]] != [1, 2, 3]:
                problems.append("rarity.json does not cover r = 1..3 over the configured trials")
            if not all(0.0 <= a <= b <= 1.0 for a, b in zip(emp, emp[1:])):
                problems.append(f"P[d <= r] is not a nondecreasing probability: {emp}")
            if not 0.0 <= float(rep["dsmall_frequency"]) <= 1.0:
                problems.append("dsmall frequency outside [0, 1]")
    except (IndexError, KeyError, ValueError, json.JSONDecodeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return outputs, problems


def driver_run(wl: Workload, work: Path, index: int, traced: bool) -> ChildRun:
    """One driver run in a fresh child, with its outputs checked."""
    run_dir = work / f"run{index}"
    run_dir.mkdir()
    report_path = run_dir / "report.json"
    out = run_dir / "out"
    trace = ["--trace"] if traced else []
    config = str(work / "config.json")
    if wl.command == "rarity":
        args = ["rarity", "--report", str(report_path), *trace, "--config", config,
                "--calls", str(wl.calls), "--out", str(out)]
    else:
        args = ["cli", "--report", str(report_path), *trace, "--",
                wl.command, "--config", config, "--out", str(out),
                "--threads", str(wl.workers)]
    run = ChildRun(traced=traced)
    run.setup_s, rc, err = spawn(args, run_dir)
    run.numeric_failures = err.count("failed numerically")
    if rc != 0 or not report_path.exists():
        tail = err.strip().splitlines()[-3:]
        run.problems.append(f"child exited with code {rc}: {' | '.join(tail)}")
        return run
    run.report = json.loads(report_path.read_text(encoding="utf-8"))
    run.outputs, problems = check_outputs(wl, out)
    run.problems.extend(problems)
    shutil.rmtree(run_dir)
    return run


def dense_check(work: Path) -> list[str]:
    report_path = work / "dense.json"
    _, rc, err = spawn(
        ["dense-check", "--report", str(report_path), "--n", str(DENSE_CHECK_N),
         "--seed", str(DENSE_CHECK_SEED)],
        work,
    )
    if rc != 0 or not report_path.exists():
        return [f"dense check exited with code {rc}: {err.strip()[-300:]}"]
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    print(f"dense check N={DENSE_CHECK_N}: max |A_hat - R1 R0^-1| = {rep['max_abs_diff']:.3e}"
          f" (largest entry {rep['max_abs_entry']:.3e})")
    if not rep["max_abs_diff"] <= DENSE_CHECK_TOL:
        return [f"analytic estimate differs from the dense reference by {rep['max_abs_diff']:.3e}"]
    return []


def setup_probe(work: Path) -> float:
    """Set-up time of one child that only imports tomolab."""
    setup, rc, err = spawn(["probe"], work)
    if rc != 0 or setup is None:
        raise SystemExit(f"cannot import tomolab from {SRC}: {err.strip()[-300:]}")
    return setup


def environment(wl: Workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "unavailable (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_revision": rev,
        "workers": wl.workers,
        "workload": wl.name,
        "seed": seed,
    }


def layer_metrics(wl: Workload, traced: list[ChildRun], plain: list[ChildRun]) -> dict:
    """Per-layer values: medians over traced runs, CPU use from untraced ones."""

    def med(fn) -> float:
        return statistics.median(fn(r.report["spans"]) for r in traced)

    def ratio(group: str, key: str, scale: float) -> float:
        return med(lambda s: scale * s[group]["self_s"] / s[group][key] if s[group][key] else 0.0)

    values = {}
    for name in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if stat in ("calls", "steps", "self_s"):
            values[name] = med(lambda s: s[group][stat])
    values["dynamics.analytic.ms_per_call"] = ratio("dynamics.analytic", "calls", 1e3)
    values["dynamics.simulate.us_per_step"] = ratio("dynamics.simulate", "steps", 1e6)
    values["inference.solve.us_per_call"] = ratio("inference.solve", "calls", 1e6)
    values["lab.cpu_util"] = statistics.median(
        r.report["cpu_s"] / (r.report["wall_s"] * wl.workers) for r in plain
    )
    values["trace.wall_ratio"] = statistics.median(
        r.report["wall_s"] for r in traced
    ) / statistics.median(r.report["wall_s"] for r in plain)
    return values


def trace_checks(wl: Workload, traced: list[ChildRun]) -> None:
    """Fail loudly when a span the workload needs is silent, or the reverse."""
    spans = traced[0].report["spans"]
    dead = [g for g in wl.fires if spans[g]["calls"] == 0]
    stray = [g for g in wl.silent if spans[g]["calls"] != 0]
    if dead or stray:
        raise TracerError(
            f"{wl.name}: spans that never fired {dead}, spans that should not fire {stray}"
        )
    shares = {m: 0.0 for m in MODULES}
    for group, agg in spans.items():
        shares[group.split(".")[0]] += agg["self_s"]
    total = sum(shares.values()) or 1.0
    top = max(shares, key=shares.get)
    print("self-time share by module: " + ", ".join(
        f"{m} {100 * v / total:.1f}%" for m, v in shares.items()))
    verdict = "holds" if top == wl.dominant else "does NOT hold"
    print(f"prediction '{wl.dominant} dominates {wl.name}' {verdict} (largest: {top})")


def main() -> int:
    parser = argparse.ArgumentParser(description="tomolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tomolab" / "__init__.py").is_file():
        print(f"error: no tomolab package under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        (work / "config.json").write_text(json.dumps(wl.config(args.seed), indent=2))
        setup_probe(work)  # fills the bytecode cache; not timed
        setups = [setup_probe(work) for _ in range(SETUP_PROBES)]
        runs: list[ChildRun] = []
        start = time.perf_counter()
        while (
            time.perf_counter() - start < args.seconds
            or not runs
            or (args.trace and not any(r.traced for r in runs))
        ):
            traced = bool(args.trace) and len(runs) % 2 == 1
            runs.append(driver_run(wl, work, len(runs), traced))
        problems = [p for r in runs for p in r.problems]
        reference = next((r.outputs for r in runs if r.outputs), None)
        for r in runs:
            if r.outputs and r.outputs != reference:
                r.problems.append("outputs differ from the first run at the same seed")
                problems.append(r.problems[-1])
        if wl.name == "recovery-analytic":
            problems.extend(dense_check(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = wl.run_trials * len(runs)
    failed = sum(
        wl.run_trials if r.problems else min(r.numeric_failures, wl.run_trials) for r in runs
    )
    if problems and not any(r.problems for r in runs):
        failed = attempted  # a failed dense check puts every analytic trial in doubt
    good = [r for r in runs if r.report is not None]
    walls = [w for r in good if not r.traced for w in r.report["call_walls"]]
    print(f"workload {wl.name}, seed {args.seed}: {len(runs)} driver runs, "
          f"{attempted} trials, {failed} failed")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for i, r in enumerate(runs):
        if r.report is not None:
            print(f"  run {i}{' traced' if r.traced else ''}: wall {r.report['wall_s']:.3f} s, "
                  f"cpu {r.report['cpu_s']:.3f} s, peak RSS {r.report['peak_rss_mb']:.1f} MB")

    if args.trace:
        traced = [r for r in good if r.traced]
        plain = [r for r in good if not r.traced]
        if not traced or not plain:
            print("error: no successful traced and untraced run to compare", file=sys.stderr)
            return 1
        trace_checks(wl, traced)
        values, units = layer_metrics(wl, traced, plain), PER_LAYER
    else:
        if walls:
            print(f"trials per second over {len(walls)} timed calls: "
                  f"median {wl.trials / statistics.median(walls):.6g}, "
                  f"fastest {wl.trials / min(walls):.6g}")
        values = {
            "setup_s": statistics.median(setups + [r.setup_s for r in runs if r.setup_s]),
            # The fastest call, not the median: see "Bounds and run-to-run
            # noise" in README.md.
            "trials_per_s": wl.trials / min(walls) if walls else 0.0,
            "peak_rss_mb": statistics.median(
                r.report["peak_rss_mb"] for r in good) if good else 0.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:>14.6g} {unit}")
    print("environment: " + json.dumps(environment(wl, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TracerError as exc:
        print(f"tracer self-check failed: {exc}", file=sys.stderr)
        sys.exit(1)
