"""End-to-end tests of the command-line interface."""

import hashlib
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
    TieBreak,
    build_matrix,
    cli,
    lab,
    load_edge_list,
    ring_graph,
    run_patch_catch,
    save_edge_list,
    subgraph,
)
from tomolab.cli import main, parse_node_range

from conftest import traced_peak


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def drawn(monkeypatch):
    """The calls of ``lab._instance``, which draws each trial's network."""
    calls = []
    instance = lab._instance

    def spy(*args):
        calls.append(args)
        return instance(*args)

    monkeypatch.setattr(lab, "_instance", spy)
    return calls


class TestNodeRange:
    def test_plain_range(self):
        assert list(parse_node_range("0-9", 10)) == list(range(10))

    def test_comma_list(self):
        assert list(parse_node_range("0,3,7", 8)) == [0, 3, 7]

    def test_mixed_and_messy(self):
        assert list(parse_node_range(" 0-2, 8 ,5", 9)) == [0, 1, 2, 5, 8]
        assert list(parse_node_range("3,3,1-3", 4)) == [1, 2, 3]

    def test_rejections(self):
        with pytest.raises(ConfigError, match="bad node range"):
            parse_node_range("a-b", 10)
        with pytest.raises(ConfigError, match="empty node range"):
            parse_node_range("5-2", 10)
        with pytest.raises(ConfigError, match="bad node id"):
            parse_node_range("x", 10)
        with pytest.raises(ConfigError, match="no node ids"):
            parse_node_range(",", 10)

    @pytest.mark.parametrize("text", ["0-1000000", "2,1000000,3", "1000000-1000000,0-4"])
    def test_out_of_range_id_is_named_before_expanding(self, text):
        def parse():
            with pytest.raises(ConfigError, match="node id 1000000 out of range for a 5-node graph"):
                parse_node_range(text, 5)

        # expanding the range first would take tens of MB
        assert traced_peak(parse) < 1 << 20


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
        cut = subgraph(g, parse_node_range("0-5", 30))
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

    def test_non_numeric_q_names_the_option(self, tmp_path, capsys):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--embedded", "er:abc",
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--embedded" in err
        assert "Traceback" not in err

    def test_explicit_source_without_a_file_names_the_file_form(self, tmp_path, capsys):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--embedded", "explicit",
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--embedded" in err and "file:PATH" in err

    def test_unknown_source_fails_cleanly(self, tmp_path, capsys):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--embedded", "torus",
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    # 10 is the default size: a parser default of 10 would let "--s-size 10" through
    @pytest.mark.parametrize("size", ["7", "10"])
    def test_s_and_s_size_are_exclusive(self, tmp_path, capsys, size):
        with pytest.raises(SystemExit) as exc:
            run(
                "generate", "--n", "20", "--p", "0.1", "--s", "0-4", "--s-size", size,
                "--out", str(tmp_path / "net"),
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "net").exists()

    def test_empty_graph_names_the_flag(self, tmp_path, capsys):
        # checked before the observable ids, which it bounds
        assert run("generate", "--n", "0", "--p", "0.1", "--out", str(tmp_path / "net")) == 2
        assert capsys.readouterr().err == "error: --n must be at least 1, got 0\n"

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--seed", "-1", "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0] == "error: --seed must be a non-negative integer, got -1"
        assert not (tmp_path / "net").exists()

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_observable_size_rejected(self, tmp_path, capsys, size):
        rc = run(
            "generate", "--n", "20", "--p", "0.1", "--s-size", size,
            "--out", str(tmp_path / "net"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--s-size" in err[0]
        assert not (tmp_path / "net").exists()


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

    def test_infinite_beta_rejected(self, generated, tmp_path, capsys):
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5", "--beta", "inf",
            "--n-max", "100", "--out", str(tmp_path / "sim"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: beta must be a finite positive number, got inf"]
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("beta", ["1e160", "1e-170"])
    def test_beta_out_of_range_exits_three(self, generated, tmp_path, capsys, beta):
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5", "--beta", beta,
            "--n-max", "100", "--out", str(tmp_path / "sim"),
        )
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("numeric error:") and "overflow or underflow" in err[0]
        assert not (tmp_path / "sim" / "r0.csv").exists()
        assert not (tmp_path / "sim" / "r1.csv").exists()

    def test_failed_dump_leaves_no_trajectory(self, generated, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run(
            "simulate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5", "--beta", "1e160",
            "--n-max", "100", "--dump", "--out", str(out),
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric error:")
        assert list(out.iterdir()) == []

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

    def test_non_numeric_eta_names_the_option(self, generated, tmp_path, capsys):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            "--classifier", "threshold", "--eta", "abc", "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--eta" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_kmeans2_on_two_nodes_exits_two(self, generated, tmp_path, capsys, mode):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-1", "--mode", mode,
            *(["--n-max", "100"] if mode == "empirical" else []), "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "kmeans2" in lines[0]
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize(
        "flag",
        [["--n-max", "100"], ["--burn-in", "5"], ["--noise", "rademacher"], ["--seed", "0"]],
    )
    def test_analytic_refuses_simulation_flags(self, generated, tmp_path, capsys, flag):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5", "--mode", "analytic",
            *flag, "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag[0] in err[0]
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize(
        "classifier", [["--classifier", "kmeans2"], ["--classifier", "threshold", "--eta", "0.05"]]
    )
    def test_p_without_auto_eta_refused(self, generated, tmp_path, capsys, classifier):
        # only an --eta auto threshold reads the edge probability
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
            *classifier, "--p", "0.5", "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--p" in err[0]
        assert not (tmp_path / "est").exists()

    def test_beta_is_no_estimate_flag(self, generated, tmp_path, capsys):
        # the estimate is the same at every noise scale
        with pytest.raises(SystemExit) as exc:
            main([
                "estimate", "--graph", str(generated / "graph.edges"),
                "--policy", "metropolis", "--rho", "0.8", "--s", "0-5",
                "--beta", "0.3", "--out", str(tmp_path / "est"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta 0.3" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_threshold_on_two_nodes_runs(self, generated, tmp_path):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--s", "0-1",
            "--classifier", "threshold", "--eta", "0.05", "--out", str(tmp_path / "est"),
        )
        assert rc == 0

    def test_lam_on_metropolis_rejected(self, generated, tmp_path, capsys):
        rc = run(
            "estimate", "--graph", str(generated / "graph.edges"),
            "--policy", "metropolis", "--rho", "0.8", "--lam", "0.3", "--s", "0-5",
            "--out", str(tmp_path / "est"),
        )
        assert rc == 2
        assert "lambda" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "extra, want", [({"tiebreak": "and"}, TieBreak.AND), ({}, TieBreak.FIRST)]
    )
    def test_tiebreak_reaches_the_driver(self, tmp_path, capsys, monkeypatch, extra, want):
        # the driver is stubbed, so only the config reading runs
        seen = []
        stub = [lab.PatchCatchTrial(0, 0.0, [0.0])]
        monkeypatch.setattr(
            cli, "patch_catch_experiment", lambda cfg, threads=None: seen.append(cfg) or stub
        )
        cfg = self._config(tmp_path, **extra)
        assert run("patch-catch", "--config", str(cfg), "--out", str(tmp_path / "r")) == 0
        capsys.readouterr()
        assert [c.tiebreak for c in seen] == [want]

    def test_probe_limit_refused_before_any_draw(self, tmp_path, capsys, drawn):
        cfg = self._config(tmp_path, probe_limit=2)
        rc = run("patch-catch", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the probe limit must be at least 4, got 2"]
        assert drawn == []

    def test_fresh_trajectories_refused_before_any_draw(self, tmp_path, capsys, drawn):
        # every experiment reads one trajectory; true is the one value the field takes
        cfg = self._config(tmp_path, shared_trajectory=False)
        rc = run("patch-catch", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: field 'shared_trajectory' in {cfg}")
        assert drawn == []



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
    "seed-negative": ("patch-catch", _with(_PATCH, None, seed=-1), "'seed'"),
    # the estimate is the same at every noise scale, so no config sets one
    "beta-infinite": (
        "patch-catch", _with(_PATCH, "sim", beta=float("inf")), "unknown field 'beta'"
    ),
    "beta-in-empirical": (
        "recovery-prob", _with(_RECOVERY, "correlations", beta=0.3), "unknown field 'beta'"
    ),
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
    "mode-unknown": (
        "recovery-prob", _with(_RECOVERY, "correlations", mode="oracle"),
        "unknown correlation mode 'oracle'",
    ),
    # each trial derives its simulation seed, so a nested one would go unread
    "seed-in-correlations": ("recovery-prob", _with(_RECOVERY, "correlations", seed=7), "'seed'"),
    "seed-in-sim": ("patch-catch", _with(_PATCH, "sim", seed=7), "'seed'"),
    # the metropolis weights have no step size to scale
    "lambda-on-metropolis": (
        "recovery-prob", _with(_RECOVERY, "policy", **{"lambda": 0.3}), "lambda"
    ),
    "kmeans2-on-two-nodes": ("recovery-prob", _with(_RECOVERY, None, s_size=2), "kmeans2"),
    # a key that no reader reads is refused, not ignored
    "unknown-top-level": ("recovery-prob", _with(_RECOVERY, None, trails=9), "'trails'"),
    "unknown-in-correlations": (
        "recovery-prob", _with(_RECOVERY, "correlations", burnin=7), "'burnin'"
    ),
    "unknown-in-sim": ("patch-catch", _with(_PATCH, "sim", burnin=7), "'burnin'"),
    "value-nan": (
        "recovery-prob", _with(_RECOVERY, "c_rule", value=float("nan")), "finite positive factor"
    ),
    "value-inf": (
        "patch-catch", _with(_PATCH, "c_rule", value=float("inf")), "finite positive factor"
    ),
    "value-minus-inf": (
        "recovery-prob", _with(_RECOVERY, "c_rule", value=float("-inf")), "finite positive factor"
    ),
    "tie_break-misspelt": ("patch-catch", _with(_PATCH, None, tie_break="and"), "'tie_break'"),
    "beta-in-analytic": (
        "recovery-prob", _with(_RECOVERY, None, correlations={"mode": "analytic", "beta": 0.2}),
        "'beta'",
    ),
    "n_max-in-analytic": (
        "recovery-prob", _with(_RECOVERY, None, correlations={"mode": "analytic", "n_max": 100}),
        "'n_max'",
    ),
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


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize("command", ["recovery-prob", "patch-catch"])
def test_thread_count_below_one_refused_before_any_draw(tmp_path, capsys, drawn, command, threads):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recovery-prob": _RECOVERY, "patch-catch": _PATCH}[command]))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--threads", threads]
    assert run(command, *argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --threads must be at least 1, got {threads}"]
    assert drawn == []


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", ["recovery-prob", "patch-catch"])
def test_thread_cap_below_one_refused_before_any_draw(
    tmp_path, capsys, drawn, monkeypatch, command, cap
):
    monkeypatch.setenv(lab.THREADS_ENV, cap)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recovery-prob": _RECOVERY, "patch-catch": _PATCH}[command]))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]
    assert run(command, *argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {lab.THREADS_ENV} must be a positive integer, got '{cap}'"]
    assert drawn == []


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

    @pytest.mark.parametrize("grid", ["inf", "nan", "1e400", "1000,-inf"])
    def test_non_finite_size_named(self, capsys, grid):
        assert run("theory-check", "--rho", "0.8", "--grid", grid) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
    def test_non_finite_multiple_refused(self, capsys, factor):
        assert run("theory-check", "--rho", "0.8", f"--multiple={factor}") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the multiple rule needs a finite positive factor"]

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
    b"0.5053868197323232,0.1495341814849272,0.000735876130591291\n"
    b"0.1557486060452475,0.179576351476076,0.14421811562431677\n"
    b"-9.743913925549442e-18,0.1333333333333333,0.6666666666666667\n"
)
# the same network's empirical estimate at n_max 500, seed 3, with burn-in
# 1000 and gaussian noise (the defaults when neither flag is given)
GOLDEN_EMPIRICAL_A_HAT = (
    b"0.48199050888529893,0.14149962161529342,-0.04035842599065457\n"
    b"0.18672501814060377,0.18254904756054105,0.18815008551031923\n"
    b"-0.013315682354612772,0.09390793517734282,0.713278395210246\n"
)
GOLDEN_R0 = (
    b"0.07284710209524953,0.024948833285809765,0.0001063137638931359\n"
    b"0.024948833285809765,0.07599245486309907,0.016627912924778655\n"
    b"0.0001063137638931359,0.016627912924778655,0.05907310739162721\n"
)
# (index, patch_a, patch_b, pairs_decided, distance) of each experiment record
GOLDEN_LOG = (
    (0, 0, 1, 6, 0.13333333333333333),
    (1, 0, 2, 11, 0.06666666666666667),
    (2, 1, 2, 15, 0.0),
)
GOLDEN_RECOVERY_JSON = (
    b'{\n  "schema": 1,\n  "rows": [\n'
    b'    {\n      "N": 30,\n      "trials": 3,\n      "perfect": 3,\n'
    b'      "fraction": 1.0,\n      "ci_lo": 1.0,\n      "ci_hi": 1.0\n    },\n'
    b'    {\n      "N": 60,\n      "trials": 3,\n      "perfect": 2,\n'
    b'      "fraction": 0.6666666666666666,\n      "ci_lo": 0.13322223379388565,\n'
    b'      "ci_hi": 1.0\n    }\n  ]\n}\n'
)
# the kmeans2 decisions of the analytic estimate in ``test_matrix_files``
GOLDEN_CLASSIFICATION = (
    b'{\n  "schema": 1,\n  "n": 12,\n  "observable": [\n    0,\n    1,\n    2\n  ],\n'
    b'  "pairs": [\n'
    b'    {\n      "i": 0,\n      "j": 1,\n      "score": 0.15264139376508734,\n'
    b'      "decision": true\n    },\n'
    b'    {\n      "i": 0,\n      "j": 2,\n      "score": 0.00036793806529564064,\n'
    b'      "decision": false\n    },\n'
    b'    {\n      "i": 1,\n      "j": 2,\n      "score": 0.13877572447882502,\n'
    b'      "decision": true\n    }\n  ]\n}\n'
)
# 601 samples of 3 nodes with Rademacher noise: 46,870 bytes, too many to
# inline, so the file is pinned by its length, its head and its sha256
GOLDEN_TRAJECTORY_HEAD = (
    b"n,node_id,y\n0,0,0.30683348279442074\n0,1,-0.1303055340654231\n"
    b"0,2,0.06250190726557425\n1,0,-0.008140722264326217\n"
)
GOLDEN_TRAJECTORY_SIZE = 46870
GOLDEN_TRAJECTORY_SHA256 = "4806c13daa06d7d0f237b3d6a062c476f2ce18c8d4651cfdd3a66e4b50a6bcdf"

# the campaign config behind GOLDEN_FINAL and GOLDEN_TRACE
_GOLDEN_CAMPAIGN = {
    "n": 40, "c_rule": {"kind": "multiple", "value": 3.0}, "s_size": 8,
    "probe_limit": 4, "policy": {"rule": "metropolis", "rho": 0.8},
    "sim": {"n_max": 2000, "burn_in": 100}, "trials": 2, "seed": 5,
}


class TestGoldenBytes:
    def test_experiment_tables(self, tmp_path, capsys):
        rp = tmp_path / "rp.json"
        rp.write_text(json.dumps({
            "n_grid": [30, 60], "c_rule": {"kind": "multiple", "value": 2.0}, "s_size": 8,
            "policy": {"rule": "metropolis", "rho": 0.8}, "trials": 3, "seed": 2,
            "correlations": {"mode": "empirical", "n_max": 4000, "burn_in": 50},
        }))
        pc = tmp_path / "pc.json"
        pc.write_text(json.dumps(_GOLDEN_CAMPAIGN))
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
        assert (tmp_path / "rp" / "recovery.json").read_bytes() == GOLDEN_RECOVERY_JSON

    def test_shared_trajectory_true_keeps_the_bytes(self, tmp_path, capsys):
        # older configs carry the field; true is the one value it takes
        pc = tmp_path / "pc.json"
        pc.write_text(json.dumps({**_GOLDEN_CAMPAIGN, "shared_trajectory": True}))
        assert run("patch-catch", "--config", str(pc), "--out", str(tmp_path / "pc")) == 0
        capsys.readouterr()
        assert (tmp_path / "pc" / "final.csv").read_bytes() == GOLDEN_FINAL
        assert (tmp_path / "pc" / "trace.csv").read_bytes() == GOLDEN_TRACE

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
        # the default noise scale is 1 - rho
        assert run(
            "simulate", *common, "--n-max", "50", "--burn-in", "10", "--seed", "3",
            "--beta", "0.19999999999999996", "--out", str(tmp_path / "beta"),
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "est" / "a_hat.csv").read_bytes() == GOLDEN_A_HAT
        assert (tmp_path / "sim" / "r0.csv").read_bytes() == GOLDEN_R0
        assert (tmp_path / "beta" / "r0.csv").read_bytes() == GOLDEN_R0

    def test_estimate_with_the_mode_given(self, tmp_path, capsys):
        net = tmp_path / "net"
        assert run(
            "generate", "--n", "12", "--p", "0.3", "--s-size", "3", "--seed", "2",
            "--out", str(net),
        ) == 0
        common = ["--graph", str(net / "graph.edges"), "--policy", "metropolis",
                  "--rho", "0.8", "--s", "0-2"]
        assert run("estimate", *common, "--mode", "analytic", "--out", str(tmp_path / "an")) == 0
        assert run(
            "estimate", *common, "--mode", "empirical", "--n-max", "500", "--seed", "3",
            "--out", str(tmp_path / "em"),
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "an" / "a_hat.csv").read_bytes() == GOLDEN_A_HAT
        assert (tmp_path / "an" / "classification.json").read_bytes() == GOLDEN_CLASSIFICATION
        assert (tmp_path / "em" / "a_hat.csv").read_bytes() == GOLDEN_EMPIRICAL_A_HAT

    def test_classification_reports(self, tmp_path, capsys):
        net = tmp_path / "net"
        assert run(
            "generate", "--n", "12", "--p", "0.3", "--s-size", "3", "--seed", "2",
            "--out", str(net),
        ) == 0
        common = ["--graph", str(net / "graph.edges"), "--policy", "metropolis",
                  "--rho", "0.8", "--s", "0-2"]
        assert run("estimate", *common, "--out", str(tmp_path / "km")) == 0
        # tau / (N p) at p = 0.1 lies above every score: no pair is connected
        assert run(
            "estimate", *common, "--classifier", "threshold", "--eta", "auto", "--p", "0.1",
            "--out", str(tmp_path / "th"),
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "km" / "classification.json").read_bytes() == GOLDEN_CLASSIFICATION
        assert (tmp_path / "th" / "classification.json").read_bytes() == (
            GOLDEN_CLASSIFICATION.replace(b'"decision": true', b'"decision": false')
        )

    def test_trajectory_dump_across_a_chunk(self, tmp_path, capsys):
        # 700 burn-in and 600 retained steps each cross one 512-step chunk
        net = tmp_path / "net"
        assert run(
            "generate", "--n", "12", "--p", "0.3", "--s-size", "3", "--seed", "2",
            "--out", str(net),
        ) == 0
        assert run(
            "simulate", "--graph", str(net / "graph.edges"), "--policy", "metropolis",
            "--rho", "0.8", "--s", "0-2", "--n-max", "600", "--burn-in", "700",
            "--noise", "rademacher", "--seed", "3", "--dump", "--out", str(tmp_path / "sim"),
        ) == 0
        capsys.readouterr()
        body = (tmp_path / "sim" / "trajectory.csv").read_bytes()
        assert body.startswith(GOLDEN_TRAJECTORY_HEAD)
        assert len(body) == GOLDEN_TRAJECTORY_SIZE
        assert hashlib.sha256(body).hexdigest() == GOLDEN_TRAJECTORY_SHA256

    def test_experiment_log(self):
        truth = subgraph(ring_graph(12), NodeSet(tuple(range(6))))
        a = build_matrix(ring_graph(12), PolicyParams(CombinationRule.METROPOLIS, 0.8))
        state = run_patch_catch(
            a,
            NodeSet(tuple(range(6))),
            4,
            SimConfig(beta=0.2, n_max=500, burn_in=50),
            1,
            truth=truth,
        )
        log = tuple(
            (rec.index, rec.patch_a, rec.patch_b, rec.pairs_decided, rec.distance)
            for rec in state.experiment_log
        )
        assert log == GOLDEN_LOG

class TestEntryPoint:
    def test_missing_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--graph", "g.edges", "--policy", "metropolis", "--rho", "0.8",
             "--s", "0-2", "--out", "o", "--burn", "1000"],
            ["estimate", "--graph", "g.edges", "--policy", "metropolis", "--rho", "0.8",
             "--s", "0-2", "--out", "o", "--mod", "analytic"],
            ["recovery-prob", "--config", "c.json", "--out", "o", "--thread", "2"],
            ["theory-check", "--rho", "0.8", "--mult", "5"],
        ],
    )
    def test_abbreviated_flags_exit_2(self, capsys, argv):
        # a unique prefix of a flag is not read as the flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

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
