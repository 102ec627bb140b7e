"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tomolab import ConfigError, load_edge_list, ring_graph, save_edge_list, subgraph
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

KERNELS = "scipy.sparse._sparsetools"

def scipy_modules():
    # scipy.linalg and scipy.sparse modules, bar the compiled CSR kernels
    return {
        package: sorted(
            m for m in sys.modules
            if m.split(".")[:2] == ["scipy", package] and m != KERNELS
        )
        for package in ("linalg", "sparse")
    }

import tomolab
numpy_random = "numpy.random" in sys.modules
from tomolab.cli import main

tmp = sys.argv[1]
seen = {"import tomolab": scipy_modules()}
kernels = sys.modules.get(KERNELS)
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

# a later import of the package reuses the kernels the loader registered
import scipy.sparse
from scipy.sparse import _sparsetools
product = scipy.sparse.csr_array([[0.0, 2.0], [1.0, 0.0]]) @ [1.0, 3.0]
print(json.dumps({
    "codes": codes,
    "seen": seen,
    "numpy_random": numpy_random,
    "kernels_loaded": kernels is not None,
    "kernels_reused": _sparsetools is kernels and product.tolist() == [6.0, 1.0],
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
        # tomolab loads only scipy's compiled CSR kernels, and a later
        # import of the package reuses them
        stages = ["import tomolab", *footprint["codes"]]
        assert {stage: footprint["seen"][stage]["sparse"] for stage in stages} == {
            stage: [] for stage in stages
        }
        assert footprint["kernels_loaded"]
        assert footprint["kernels_reused"]

    def test_numpy_random_loads_with_the_package(self, footprint):
        # numpy 2 imports numpy.random on first use, which would otherwise
        # land inside the first sampling call
        assert footprint["numpy_random"]
