"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tomolab import (
    CombinationRule,
    ConfigError,
    NodeSet,
    PolicyParams,
    SimConfig,
    build_matrix,
    experiment_log_csv,
    load_edge_list,
    make_patches,
    ring_graph,
    run_patch_catch,
    save_edge_list,
    subgraph,
)
from tomolab.cli import main, parse_node_range


def run(*argv) -> int:
    return main(list(argv))


class TestNodeRange:
    def test_plain_range(self):
        assert list(parse_node_range("0-9")) == list(range(10))

    def test_comma_list(self):
        assert list(parse_node_range("0,3,7")) == [0, 3, 7]

    def test_mixed_and_messy(self):
        assert list(parse_node_range(" 0-2, 8 ,5")) == [0, 1, 2, 5, 8]
        assert list(parse_node_range("3,3,1-3")) == [1, 2, 3]

    def test_rejections(self):
        with pytest.raises(ConfigError, match="bad node range"):
            parse_node_range("a-b")
        with pytest.raises(ConfigError, match="empty node range"):
            parse_node_range("5-2")
        with pytest.raises(ConfigError, match="bad node id"):
            parse_node_range("x")
        with pytest.raises(ConfigError, match="no node ids"):
            parse_node_range(",")


class TestGenerate:
    def test_writes_both_edge_lists(self, tmp_path, capsys):
        out = tmp_path / "net"
        rc = run(
            "generate", "--n", "30", "--p", "0.1", "--s-size", "6",
            "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        g = load_edge_list(str(out / "graph.edges"))
        obs = load_edge_list(str(out / "observable.edges"))
        assert g.n == 30 and obs.n == 6
        cut = subgraph(g, parse_node_range("0-5"))
        assert np.array_equal(obs.adjacency, cut.adjacency)
        assert "N=30" in capsys.readouterr().out

    def test_ring_source_is_planted_verbatim(self, tmp_path):
        out = tmp_path / "net"
        rc = run(
            "generate", "--n", "25", "--p", "0.15", "--s-size", "7",
            "--embedded", "ring", "--seed", "3", "--out", str(out),
        )
        assert rc == 0
        obs = load_edge_list(str(out / "observable.edges"))
        assert np.array_equal(obs.adjacency, ring_graph(7).adjacency)

    def test_file_source_roundtrip(self, tmp_path):
        planted = ring_graph(5)
        src = tmp_path / "planted.edges"
        save_edge_list(planted, str(src))
        out = tmp_path / "net"
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--s-size", "5",
            "--embedded", f"file:{src}", "--seed", "2", "--out", str(out),
        )
        assert rc == 0
        obs = load_edge_list(str(out / "observable.edges"))
        assert np.array_equal(obs.adjacency, planted.adjacency)

    def test_explicit_node_list(self, tmp_path):
        out = tmp_path / "net"
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--s", "0-3,9",
            "--seed", "0", "--out", str(out),
        )
        assert rc == 0
        assert load_edge_list(str(out / "observable.edges")).n == 5

    @pytest.mark.parametrize("source", ["ring:0.3", "match-p:0.3"])
    def test_q_on_a_source_without_q_fails_cleanly(self, tmp_path, capsys, source):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--embedded", source,
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        assert "takes no q" in capsys.readouterr().err

    def test_unknown_source_fails_cleanly(self, tmp_path, capsys):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--embedded", "torus",
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "net"
    assert (
        run(
            "generate", "--n", "30", "--p", "0.12", "--s-size", "6",
            "--seed", "4", "--out", str(out),
        )
        == 0
    )
    return out


def _read_matrix(path) -> np.ndarray:
    rows = [
        [float(x) for x in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    return np.array(rows)


class TestSimulate:
    def test_correlation_outputs(self, generated, tmp_path):
        out = tmp_path / "sim"
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--n-max", "2000", "--burn-in", "100", "--out", str(out),
        )
        assert rc == 0
        r0 = _read_matrix(out / "r0.csv")
        r1 = _read_matrix(out / "r1.csv")
        assert r0.shape == r1.shape == (6, 6)
        assert np.allclose(r0, r0.T)

    def test_trajectory_dump(self, generated, tmp_path):
        out = tmp_path / "sim"
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--n-max", "300", "--burn-in", "50", "--dump", "--out", str(out),
        )
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "n,node_id,y"
        assert len(lines) == 1 + 301 * 6

    def test_observable_must_fit_the_graph(self, generated, tmp_path, capsys):
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-40",
            "--n-max", "100", "--out", str(tmp_path / "sim"),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_analytic_kmeans_report(self, generated, tmp_path, capsys):
        out = tmp_path / "est"
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--out", str(out),
        )
        assert rc == 0
        assert _read_matrix(out / "a_hat.csv").shape == (6, 6)
        report = json.loads((out / "classification.json").read_text())
        assert report["schema"] == 1
        assert report["n"] == 30
        assert report["observable"] == list(range(6))
        assert len(report["pairs"]) == 15
        sample = report["pairs"][0]
        assert set(sample) == {"i", "j", "score", "decision"}
        assert "decided_edges" in capsys.readouterr().out

    def test_threshold_with_explicit_eta(self, generated, tmp_path):
        out = tmp_path / "est"
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "laplacian", "--rho", "0.8", "--s", "0-5",
            "--classifier", "threshold", "--eta", "0.05", "--out", str(out),
        )
        assert rc == 0

    def test_auto_eta_needs_p(self, generated, tmp_path, capsys):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--classifier", "threshold", "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "-0.1", "1.5"])
    def test_p_outside_unit_interval_rejected(self, generated, tmp_path, capsys, p):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--classifier", "threshold", "--eta", "auto", "--p", p,
            "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--p" in err[0]
        assert not (tmp_path / "est" / "classification.json").exists()

    def test_auto_eta_uses_the_given_p(self, generated, tmp_path):
        reports = []
        for p in ("0.12", "1"):
            out = tmp_path / p
            rc = run(
                "estimate", "--graph", str(generated / "graph.edges"),
                "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
                "--classifier", "threshold", "--eta", "auto", "--p", p, "--out", str(out),
            )
            assert rc == 0
            reports.append(json.loads((out / "classification.json").read_text()))
        assert reports[0]["pairs"] != reports[1]["pairs"]

    def test_rank_deficient_samples_exit_three(self, generated, tmp_path, capsys):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--mode", "empirical", "--n-max", "2", "--burn-in", "5",
            "--out", str(tmp_path / "est"),
        )
        assert rc == 3
        assert "numeric error:" in capsys.readouterr().err


class TestRecoveryProbCommand:
    def _config(self, tmp_path, **extra):
        cfg = {
            "n_grid": [10],
            "c_rule": {"kind": "multiple", "value": 3.0},
            "s_size": 10,
            "embedded": {"kind": "match_p"},
            "policy": {"rule": "metropolis", "rho": 0.8},
            "classifier": {"method": "kmeans2"},
            "correlations": {"mode": "analytic"},
            "trials": 5,
        }
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_full_observation_run(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "res"
        rc = run("recovery-prob", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        body = (out / "recovery.csv").read_text().strip().splitlines()
        assert body[0] == "N,trials,perfect,fraction,ci_lo,ci_hi"
        summary = json.loads((out / "recovery.json").read_text())
        assert summary["schema"] == 1
        assert summary["rows"][0]["fraction"] == 1.0
        assert "worst fraction" in capsys.readouterr().out

    def test_reruns_are_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("recovery-prob", "--config", str(cfg), "--out", str(a)) == 0
        assert run("recovery-prob", "--config", str(cfg), "--out", str(b)) == 0
        assert (a / "recovery.csv").read_bytes() == (b / "recovery.csv").read_bytes()

    def test_missing_field_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [10]}))
        rc = run("recovery-prob", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2
        assert "missing field" in capsys.readouterr().err

    def test_malformed_json_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run("recovery-prob", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2
        assert "malformed JSON" in capsys.readouterr().err


class TestPatchCatchCommand:
    def _config(self, tmp_path, **extra):
        cfg = {
            "n": 40,
            "c_rule": {"kind": "multiple", "value": 3.0},
            "s_size": 8,
            "probe_limit": 8,
            "policy": {"rule": "metropolis", "rho": 0.8},
            "sim": {"n_max": 2000, "burn_in": 100},
            "trials": 2,
        }
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_campaign_outputs(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = run(
            "patch-catch", "--config", str(self._config(tmp_path)), "--out", str(out)
        )
        assert rc == 0
        final = (out / "final.csv").read_text().strip().splitlines()
        assert final[0] == "trial,final_distance"
        assert len(final) == 3
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "trial,experiment_index,distance"
        assert "mean final distance" in capsys.readouterr().out

    def test_unknown_tiebreak_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path, tiebreak="last")
        rc = run("patch-catch", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2
        assert "tiebreak" in capsys.readouterr().err



_RECOVERY = {
    "n_grid": [10], "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 10,
    "embedded": {"kind": "er"}, "policy": {"rule": "metropolis", "rho": 0.8},
    "classifier": {"method": "kmeans2"}, "trials": 1,
    "correlations": {"mode": "empirical", "n_max": 100},
}
_PATCH = {
    "n": 40, "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 8, "probe_limit": 8,
    "policy": {"rule": "metropolis", "rho": 0.8}, "sim": {"n_max": 100}, "trials": 1,
}


def _with(base, section, **fields):
    """``base`` with ``fields`` set at the top level or inside ``section``."""
    cfg = json.loads(json.dumps(base))
    (cfg if section is None else cfg[section]).update(fields)
    return cfg


# case -> (command, config, text the error must contain); every case exits 2
_MALFORMED = {
    "eta-list": (
        "recovery-prob", _with(_RECOVERY, "classifier", method="threshold", eta=[1]), "'eta'"
    ),
    "seed-null": ("recovery-prob", _with(_RECOVERY, None, seed=None), "'seed'"),
    "burn_in-null": ("recovery-prob", _with(_RECOVERY, "correlations", burn_in=None), "'burn_in'"),
    "n_grid-nested": ("recovery-prob", _with(_RECOVERY, None, n_grid=[[40]]), "'n_grid'"),
    "n_grid-float": ("recovery-prob", _with(_RECOVERY, None, n_grid=[40.7]), "'n_grid'"),
    "q-list": ("recovery-prob", _with(_RECOVERY, "embedded", q=[0.1]), "'q'"),
    "q-on-ring": ("recovery-prob", _with(_RECOVERY, "embedded", kind="ring", q=0.3), "takes no q"),
    "q-on-match_p": (
        "recovery-prob", _with(_RECOVERY, "embedded", kind="match_p", q=0.3), "takes no q"
    ),
    "eta-nan": (
        "recovery-prob", _with(_RECOVERY, "classifier", method="threshold", eta=float("nan")),
        "finite positive",
    ),
    "eta-negative": (
        "recovery-prob", _with(_RECOVERY, "classifier", method="threshold", eta=-0.1),
        "finite positive",
    ),
    "eta-on-kmeans2": ("recovery-prob", _with(_RECOVERY, "classifier", eta=0.05), "takes no eta"),
    "lambda-null": ("recovery-prob", _with(_RECOVERY, "policy", **{"lambda": None}), "'lambda'"),
    "loglog-value": ("recovery-prob", _with(_RECOVERY, "c_rule", kind="loglog", value=2.0), "loglog"),
    "rule-unknown": ("recovery-prob", _with(_RECOVERY, "policy", rule="uniform"), "'metropolis'"),
    "trials-bool": ("recovery-prob", _with(_RECOVERY, None, trials=True), "'trials'"),
    "embedded-string": ("recovery-prob", _with(_RECOVERY, None, embedded="er"), "embedded"),
    "top-level-list": ("recovery-prob", [_RECOVERY], "JSON object"),
    "shared_trajectory-string": (
        "patch-catch", _with(_PATCH, None, shared_trajectory="false"), "'shared_trajectory'"
    ),
    "noise-unknown": ("patch-catch", _with(_PATCH, "sim", noise="laplace"), "'gaussian'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_config_exits_two(tmp_path, capsys, case):
    command, cfg, names = _MALFORMED[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert "Traceback" not in err

class TestTheoryCheckCommand:
    def test_default_grid(self, capsys):
        assert run("theory-check", "--rho", "0.8") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7
        assert out[0].split() == ["N", "r_N", "error_tail", "distance_tail"]

    def test_custom_grid_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = run(
            "theory-check", "--rho", "0.8", "--grid", "1000,10000",
            "--out", str(out),
        )
        assert rc == 0
        capsys.readouterr()
        body = (out / "theory.csv").read_text().strip().splitlines()
        assert len(body) == 3

    def test_bad_inputs(self, capsys):
        assert run("theory-check", "--rho", "1.5") == 2
        assert run("theory-check", "--rho", "0.8", "--grid", "abc") == 2
        capsys.readouterr()

    def test_multiple_rule_option(self, capsys):
        # a denser rule needs larger sizes before the radius reaches one
        rc = run(
            "theory-check", "--rho", "0.8", "--multiple", "5.0",
            "--grid", "1000000,100000000",
        )
        assert rc == 0
        capsys.readouterr()



# Exact bytes of one small fixed-seed run per output file.  The tables come
# from the csv module (``\r\n`` line ends), the matrix files from the CLI's
# own writer (``\n``); criterion 12 compares runs of one build only, so
# these pins are what catches a change of format between builds.
GOLDEN_RECOVERY = (
    b"N,trials,perfect,fraction,ci_lo,ci_hi\r\n"
    b"30,3,3,1.0,1.0,1.0\r\n"
    b"60,3,2,0.6666666666666666,0.13322223379388565,1.0\r\n"
)
GOLDEN_FINAL = b"trial,final_distance\r\n0,0.07142857142857142\r\n1,0.0\r\n"
GOLDEN_TRACE = (
    b"trial,experiment_index,distance\r\n"
    b"0,0,0.14285714285714285\r\n0,1,0.17857142857142858\r\n"
    b"0,2,0.14285714285714285\r\n0,3,0.07142857142857142\r\n"
    b"0,4,0.07142857142857142\r\n0,5,0.07142857142857142\r\n"
    b"1,0,0.32142857142857145\r\n1,1,0.21428571428571427\r\n"
    b"1,2,0.14285714285714285\r\n1,3,0.07142857142857142\r\n"
    b"1,4,0.03571428571428571\r\n1,5,0.0\r\n"
)
GOLDEN_THEORY = (
    b"N,r_N,error_tail,distance_tail\r\n"
    b"1000.0,1,2.8968222762264837,61078.40201393974\r\n"
    b"1000000.0,2,4.309988795335387,120138.19312464526\r\n"
)
GOLDEN_A_HAT = (
    b"0.5053868197323231,0.14953418148492703,0.0007358761305913329\n"
    b"0.15574860604524746,0.17957635147607606,0.14421811562431683\n"
    b"-9.876877150360547e-18,0.13333333333333325,0.6666666666666669\n"
)
GOLDEN_R0 = (
    b"0.07284710209524953,0.024948833285809765,0.0001063137638931359\n"
    b"0.024948833285809765,0.07599245486309907,0.016627912924778655\n"
    b"0.0001063137638931359,0.016627912924778655,0.05907310739162721\n"
)
GOLDEN_LOG = (
    "experiment_index,patch_a,patch_b,pairs_decided,distance\r\n"
    "0,0,1,6,0.13333333333333333\r\n1,0,2,11,0.06666666666666667\r\n"
    "2,1,2,15,0.0\r\n"
)


class TestGoldenBytes:
    def test_experiment_tables(self, tmp_path, capsys):
        rp = tmp_path / "rp.json"
        rp.write_text(json.dumps({
            "n_grid": [30, 60], "c_rule": {"kind": "multiple", "value": 2.0}, "s_size": 8,
            "policy": {"rule": "metropolis", "rho": 0.8}, "trials": 3, "seed": 2,
            "correlations": {"mode": "empirical", "n_max": 4000, "burn_in": 50},
        }))
        pc = tmp_path / "pc.json"
        pc.write_text(json.dumps({
            "n": 40, "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 8,
            "probe_limit": 4, "policy": {"rule": "metropolis", "rho": 0.8},
            "sim": {"n_max": 2000, "burn_in": 100}, "trials": 2, "seed": 5,
        }))
        assert run("recovery-prob", "--config", str(rp), "--out", str(tmp_path / "rp")) == 0
        assert run("patch-catch", "--config", str(pc), "--out", str(tmp_path / "pc")) == 0
        assert run(
            "theory-check", "--rho", "0.8", "--grid", "1000,1e6", "--out", str(tmp_path / "th")
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "rp" / "recovery.csv").read_bytes() == GOLDEN_RECOVERY
        assert (tmp_path / "pc" / "final.csv").read_bytes() == GOLDEN_FINAL
        assert (tmp_path / "pc" / "trace.csv").read_bytes() == GOLDEN_TRACE
        assert (tmp_path / "th" / "theory.csv").read_bytes() == GOLDEN_THEORY

    def test_matrix_files(self, tmp_path, capsys):
        net = tmp_path / "net"
        assert run(
            "generate", "--n", "12", "--p", "0.3", "--s-size", "3", "--seed", "2",
            "--out", str(net),
        ) == 0
        common = ["--graph", str(net / "graph.edges"), "--policy", "metropolis",
                  "--rho", "0.8", "--s", "0-2"]
        assert run("estimate", *common, "--out", str(tmp_path / "est")) == 0
        assert run(
            "simulate", *common, "--n-max", "50", "--burn-in", "10", "--seed", "3",
            "--out", str(tmp_path / "sim"),
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "est" / "a_hat.csv").read_bytes() == GOLDEN_A_HAT
        assert (tmp_path / "sim" / "r0.csv").read_bytes() == GOLDEN_R0

    def test_experiment_log(self):
        truth = subgraph(ring_graph(12), NodeSet(tuple(range(6))))
        a = build_matrix(ring_graph(12), PolicyParams(CombinationRule.METROPOLIS, 0.8))
        state = run_patch_catch(
            a,
            make_patches(NodeSet(tuple(range(6))), 4),
            SimConfig(beta=0.2, n_max=500, burn_in=50, seed=1),
            truth=truth,
        )
        assert experiment_log_csv(state) == GOLDEN_LOG

class TestEntryPoint:
    def test_missing_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tomolab.cli", "theory-check", "--rho", "0.8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "error_tail" in proc.stdout


_FOOTPRINT_SCRIPT = """
import json, sys

def scipy_modules():
    # scipy.linalg and scipy.sparse modules
    return {
        package: sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", package])
        for package in ("linalg", "sparse")
    }

import tomolab
numpy_random = "numpy.random" in sys.modules
from tomolab.cli import main

tmp = sys.argv[1]
seen = {"import tomolab": scipy_modules()}
kernels = tomolab.dynamics._sparsetools
with open(tmp + "/rp.json", "w") as fh:
    json.dump({
        "n_grid": [40], "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 6,
        "embedded": {"kind": "match_p"}, "policy": {"rule": "metropolis", "rho": 0.8},
        "classifier": {"method": "kmeans2"}, "correlations": {"mode": "analytic"},
        "trials": 2,
    }, fh)
with open(tmp + "/pc.json", "w") as fh:
    json.dump({
        "n": 40, "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 8,
        "probe_limit": 8, "policy": {"rule": "metropolis", "rho": 0.8},
        "sim": {"n_max": 2000, "burn_in": 100}, "trials": 2,
    }, fh)
runs = {
    "generate": ["generate", "--n", "30", "--p", "0.12", "--s-size", "6",
                 "--seed", "4", "--out", tmp + "/net"],
    "estimate": ["estimate", "--graph", tmp + "/net/graph.edges",
                 "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
                 "--mode", "empirical", "--n-max", "2000", "--out", tmp + "/est"],
    "recovery-prob": ["recovery-prob", "--config", tmp + "/rp.json",
                      "--out", tmp + "/rp"],
    "patch-catch": ["patch-catch", "--config", tmp + "/pc.json",
                    "--out", tmp + "/pc"],
}
codes = {}
for name, argv in runs.items():
    codes[name] = main(argv)
    seen[name] = scipy_modules()

# a later import of the package binds its own kernels as an attribute
import scipy.sparse
product = scipy.sparse.csr_array([[0.0, 2.0], [1.0, 0.0]]) @ [1.0, 3.0]
print(json.dumps({
    "codes": codes,
    "seen": seen,
    "numpy_random": numpy_random,
    "kernels_private": kernels.__name__ == "tomolab._sparsetools",
    "kernels_attribute": hasattr(scipy.sparse, "_sparsetools") and product.tolist() == [6.0, 1.0],
}))
"""


@pytest.fixture(scope="module")
def footprint(tmp_path_factory):
    """Modules loaded by ``import tomolab`` and each CLI command, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path_factory.mktemp("footprint"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report["codes"].values()) == {0}
    return report


class TestImportFootprint:
    def test_scipy_linalg_never_loads(self, footprint):
        # scipy.linalg brings its own BLAS build into the process; the
        # package and its CLI need only numpy.linalg
        stages = ["import tomolab", *footprint["codes"]]
        assert {stage: footprint["seen"][stage]["linalg"] for stage in stages} == {
            stage: [] for stage in stages
        }

    def test_scipy_sparse_never_loads(self, footprint):
        # importing the scipy.sparse package costs about 200 ms and 15 MB;
        # tomolab loads only scipy's compiled CSR kernels, under its own
        # name, and a later import of the package still binds scipy's
        stages = ["import tomolab", *footprint["codes"]]
        assert {stage: footprint["seen"][stage]["sparse"] for stage in stages} == {
            stage: [] for stage in stages
        }
        assert footprint["kernels_private"]
        assert footprint["kernels_attribute"]

    def test_numpy_random_loads_with_the_package(self, footprint):
        # numpy 2 imports numpy.random on first use, which would otherwise
        # land inside the first sampling call
        assert footprint["numpy_random"]
