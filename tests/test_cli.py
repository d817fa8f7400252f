import json
from dataclasses import fields

import numpy as np
import pytest

from marketgraph import SolverConfig, laplacian_op, modularity, sample_lgmrf
from marketgraph.cli import main
from marketgraph.io import read_graph_json, read_labels_csv, read_panel_csv, write_panel_csv
from marketgraph.metrics import NodeLabels
from marketgraph.synth import planted_k_component


@pytest.fixture
def returns_csv(tmp_path):
    g = planted_k_component(8, 2, 0.7, seed=51)
    L = np.asarray(laplacian_op(g.weights))
    X = sample_lgmrf(L, 800, seed=52)
    path = tmp_path / "returns.csv"
    write_panel_csv(path, X, [f"s{i}" for i in range(8)])
    return path, g


def run_cli(*args):
    return main([str(a) for a in args])


# config keys of removed options, with the value that matches the current solver
REMOVED_CONFIG = {
    "init": "pinv-neg",
    "adaptive_rho": False,
    "rho_growth": 1.1,
    "rho_max": 1e6,
    "rank_tol": 1e-9,
}


class TestSimulate:
    def test_writes_graph_and_data(self, tmp_path):
        gpath = tmp_path / "g.json"
        dpath = tmp_path / "d.csv"
        lpath = tmp_path / "l.csv"
        code = run_cli(
            "simulate", "--p", 12, "--k", 3, "--n", 200, "--dist", "t", "--nu", 4,
            "--seed", 7, "--out-graph", gpath, "--out-data", dpath,
            "--out-labels", lpath,
        )
        assert code == 0
        weights, names, meta = read_graph_json(gpath)
        assert weights.p == 12
        assert meta["method"] == "planted"
        values, names2, _, _ = read_panel_csv(dpath)
        assert values.shape == (200, 12)
        assert names2 == names
        labels = read_labels_csv(lpath)
        assert len(labels) == 12

    def test_same_seed_identical_files(self, tmp_path):
        paths = []
        for tag in ("one", "two"):
            gpath = tmp_path / f"g_{tag}.json"
            dpath = tmp_path / f"d_{tag}.csv"
            assert run_cli(
                "simulate", "--p", 10, "--k", 2, "--n", 50,
                "--seed", 3, "--out-graph", gpath, "--out-data", dpath,
            ) == 0
            paths.append((gpath, dpath))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_dist_t_requires_nu(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--p", 6, "--k", 2, "--n", 10, "--dist", "t",
            "--seed", 1, "--out-graph", tmp_path / "g.json",
            "--out-data", tmp_path / "d.csv",
        )
        assert code == 1
        assert "--nu" in capsys.readouterr().err

    def test_gaussian_needs_no_nu(self, tmp_path):
        code = run_cli(
            "simulate", "--p", 6, "--k", 2, "--n", 10,
            "--seed", 1, "--out-graph", tmp_path / "g.json",
            "--out-data", tmp_path / "d.csv",
        )
        assert code == 0


class TestLearn:
    def test_connected_run_writes_outputs(self, tmp_path, returns_csv):
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--trace", trace,
        )
        assert code == 0
        weights, names, meta = read_graph_json(out)
        assert meta["converged"] is True
        assert (tmp_path / "graph.json.manifest.json").exists()

    def test_missing_nu_for_kt(self, tmp_path, returns_csv, capsys):
        path, _ = returns_csv
        code = run_cli(
            "learn", "--input", path, "--method", "kt", "--k", 2,
            "--out", tmp_path / "graph.json",
        )
        assert code == 1
        assert "--nu" in capsys.readouterr().err

    def test_k_method_recovers_components(self, tmp_path, returns_csv):
        from marketgraph import component_count

        path, g = returns_csv
        out = tmp_path / "graph.json"
        code = run_cli(
            "learn", "--input", path, "--method", "k", "--k", 2, "--out", out,
        )
        assert code == 0
        weights, _, _ = read_graph_json(out)
        assert component_count(weights) == 2

    def test_rerun_bitwise_identical(self, tmp_path, returns_csv):
        path, _ = returns_csv
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        tr1, tr2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out, tr in ((out1, tr1), (out2, tr2)):
            assert run_cli(
                "learn", "--input", path, "--method", "t", "--nu", 4,
                "--max-iter", 400, "--out", out, "--trace", tr,
            ) in (0, 2)
        assert out1.read_bytes() == out2.read_bytes()
        assert tr1.read_bytes() == tr2.read_bytes()

    def test_rerun_from_manifest(self, tmp_path, returns_csv):
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        first = out.read_bytes()
        out.unlink()
        assert run_cli("learn", "--from-manifest", manifest) == 0
        assert out.read_bytes() == first

    def test_manifest_records_numpy_and_reruns_without_it(self, tmp_path, returns_csv):
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        doc = json.loads(manifest.read_text())
        assert doc["numpy"] == np.__version__
        # a manifest written before the field existed still reruns
        del doc["numpy"]
        older = tmp_path / "older.manifest.json"
        older.write_text(json.dumps(doc))
        first = out.read_bytes()
        out.unlink()
        assert run_cli("learn", "--from-manifest", older) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("key, value, code", [
        pytest.param(None, None, 0, id="absent"),
        *[pytest.param(key, kept, 0, id=f"{key}-kept") for key, kept in REMOVED_CONFIG.items()],
        pytest.param("init", "pinv", 1, id="init-pinv"),
        pytest.param("adaptive_rho", True, 1, id="adaptive_rho-true"),
        pytest.param("rho_growth", 1.5, 1, id="rho_growth-1.5"),
        pytest.param("rho_max", 10.0, 1, id="rho_max-10"),
        pytest.param("rank_tol", 1e-6, 1, id="rank_tol-1e-6"),
    ])
    def test_manifest_removed_config_key(self, tmp_path, returns_csv, capsys, key, value, code):
        # older manifests record removed options: at the value that matches
        # the current solver (or absent) they rerun bitwise, at any other
        # value they are refused, not rerun with another behaviour
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        doc = json.loads(manifest.read_text())
        assert not set(REMOVED_CONFIG) & set(doc["config"])
        first = out.read_bytes()
        older = tmp_path / "older.manifest.json"
        if key is not None:
            doc["config"][key] = value
        older.write_text(json.dumps(doc))
        out.unlink()
        capsys.readouterr()
        assert run_cli("learn", "--from-manifest", older) == code
        if code == 0:
            assert out.read_bytes() == first
        else:
            err = capsys.readouterr().err
            assert f"option {key!r} was removed" in err and repr(value) in err
            assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc["config"].pop("tol"), "'config.tol'"),
        (lambda doc: doc.pop("similarity"), "'similarity'"),
        ('{"config": [1]}', "'config.rho'"),
        ("{not json", "not a JSON manifest"),
    ], ids=["no-tol", "no-similarity", "config-not-object", "not-json"])
    def test_malformed_manifest_is_error(self, tmp_path, returns_csv, capsys, edit, named):
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        if callable(edit):
            doc = json.loads(manifest.read_text())
            edit(doc)
            edit = json.dumps(doc)
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(edit)
        capsys.readouterr()
        assert run_cli("learn", "--from-manifest", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("learn: ") and "bad.manifest.json" in err and named in err

    @pytest.mark.parametrize("key, value, code", [
        ("tol", "abc", 1),
        ("max_iter", 2.5, 1),
        ("inner_iter", True, 1),
        ("k", "1", 1),
        ("rho", None, 1),
        ("rho", False, 1),
        ("nu", [4.0], 1),
        ("eta", {}, 1),
        ("rho", 1, 0),
        ("tol", 1, 0),
        ("nu", None, 0),
        ("eta", 5.0, 0),
    ])
    def test_manifest_config_values_match_their_field_types(
        self, tmp_path, returns_csv, capsys, key, value, code
    ):
        # int fields take an int that is not a bool, float fields an int or a
        # float, eta and nu also null; anything else names the file and key
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        doc = json.loads(manifest.read_text())
        doc["config"][key] = value
        edited = tmp_path / "edited.manifest.json"
        edited.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("learn", "--from-manifest", edited) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("learn: ") and "edited.manifest.json" in err
            assert f"'config.{key}'" in err and repr(value) in err

    def test_every_config_field_is_a_flag_and_reruns(self, tmp_path, returns_csv, monkeypatch):
        # SolverConfig's fields are listed once: each is a learn flag, and the
        # manifest carries every one back into the same config
        from marketgraph import cli
        from marketgraph.cli import _build_parser

        values = {"rho": 2.0, "eta": 0.5, "nu": 5.0, "k": 2, "degree_target": 1.5,
                  "tol": 1e-4, "max_iter": 30, "inner_iter": 7}
        assert {f.name for f in fields(SolverConfig)} == set(values)
        assert all(values[f.name] != f.default for f in fields(SolverConfig))
        flags = ["--degree" if name == "degree_target" else "--" + name.replace("_", "-")
                 for name in values]
        learn_dests = set(vars(_build_parser().parse_args(["learn"])))
        assert {f.name for f in fields(SolverConfig)} - learn_dests == {"degree_target"}
        assert not set(REMOVED_CONFIG) & learn_dests

        configs = []
        learn_kt = cli.learn_kt

        def capture(*args):
            estimate = learn_kt(*args)
            configs.append(estimate.config)
            return estimate

        monkeypatch.setattr(cli, "learn_kt", capture)
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        options = [x for flag, value in zip(flags, values.values()) for x in (flag, value)]
        assert run_cli(
            "learn", "--input", path, "--method", "kt", *options,
            "--out", out, "--manifest", manifest,
        ) in (0, 2)
        assert run_cli("learn", "--from-manifest", manifest) in (0, 2)
        first, rerun = configs
        assert first.eta == values["eta"] and np.all(first.degree_target == 1.5)
        for f in fields(SolverConfig):
            np.testing.assert_array_equal(getattr(rerun, f.name), getattr(first, f.name))

    def test_unparseable_degree_file_is_error(self, tmp_path, returns_csv, capsys):
        path, _ = returns_csv
        degrees = tmp_path / "degrees.txt"
        degrees.write_text("1.0\n\nx\n" + "1.0\n" * 6)
        out = tmp_path / "graph.json"
        code = run_cli("learn", "--input", path, "--degree", degrees, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("learn: ") and "degrees.txt" in err and "line 3" in err
        assert not out.exists()

    def test_prices_flag(self, tmp_path, rng):
        prices = np.exp(np.cumsum(rng.standard_normal((300, 4)) * 0.01, axis=0))
        path = tmp_path / "prices.csv"
        write_panel_csv(path, prices, list("wxyz"))
        out = tmp_path / "graph.json"
        code = run_cli(
            "learn", "--input", path, "--prices", "--method", "connected",
            "--tol", 1e-5, "--out", out,
        )
        assert code in (0, 2)
        assert out.exists()

    def test_full_kt_invocation_on_prices(self, tmp_path):
        # price panel over a planted 3-component graph, full flag set
        g = planted_k_component(12, 3, 0.8, seed=71)
        L = np.asarray(laplacian_op(g.weights))
        X = sample_lgmrf(L, 900, seed=72)
        prices = np.exp(np.cumsum(np.vstack([np.zeros(12), X]) * 0.05, axis=0) + 3.0)
        path = tmp_path / "prices.csv"
        write_panel_csv(path, prices, [f"s{i}" for i in range(12)])
        out = tmp_path / "graph.json"
        code = run_cli(
            "learn", "--input", path, "--prices", "--method", "kt", "--k", 3,
            "--nu", 4, "--rho", 1, "--tol", 1e-6, "--out", out,
        )
        assert code == 0
        weights, _, meta = read_graph_json(out)
        assert meta["method"] == "kt"
        assert meta["config"]["nu"] == 4.0

    def test_nmi_rejected_for_t_methods(self, tmp_path, returns_csv, capsys):
        path, _ = returns_csv
        code = run_cli(
            "learn", "--input", path, "--method", "t", "--nu", 4,
            "--similarity", "nmi", "--out", tmp_path / "g.json",
        )
        assert code == 1
        assert "nmi" in capsys.readouterr().err

    def test_bad_csv_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        code = run_cli("learn", "--input", bad, "--method", "connected",
                       "--out", tmp_path / "g.json")
        assert code == 1

    def test_solver_defaults_come_from_solver_config(self):
        from marketgraph import SolverConfig
        from marketgraph.cli import _build_parser

        args = _build_parser().parse_args(["learn"])
        cfg = SolverConfig()
        assert (args.rho, args.tol, args.max_iter, args.inner_iter) == (
            cfg.rho, cfg.tol, cfg.max_iter, cfg.inner_iter)

    def test_duplicate_asset_names_rejected(self, tmp_path, rng, capsys):
        path = tmp_path / "dup.csv"
        write_panel_csv(path, rng.standard_normal((50, 6)), ["a", "a", "b", "c", "d", "e"])
        out = tmp_path / "graph.json"
        code = run_cli("learn", "--input", path, "--method", "connected", "--out", out)
        assert code == 1
        assert "'a'" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exit_2_still_writes(self, tmp_path, returns_csv):
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        code = run_cli(
            "learn", "--input", path, "--method", "connected",
            "--max-iter", 3, "--out", out,
        )
        assert code == 2
        _, _, meta = read_graph_json(out)
        assert meta["converged"] is False


class TestMetrics:
    def _learned(self, tmp_path, returns_csv, method="k"):
        path, g = returns_csv
        out = tmp_path / "graph.json"
        assert run_cli(
            "learn", "--input", path, "--method", method, "--k", 2, "--out", out,
        ) == 0
        return out, g

    def test_modularity_matches_library(self, tmp_path, returns_csv, capsys):
        out, g = self._learned(tmp_path, returns_csv)
        labels_path = tmp_path / "labels.csv"
        names = [f"s{i}" for i in range(8)]
        from marketgraph.io import write_labels_csv

        write_labels_csv(labels_path, names, g.partition.labels.tolist())
        report_path = tmp_path / "report.json"
        code = run_cli(
            "metrics", "--graph", out, "--labels", labels_path, "--out", report_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        weights, _, _ = read_graph_json(out)
        expected = modularity(weights, NodeLabels(g.partition.labels, 2))
        assert report["modularity"] == pytest.approx(expected, abs=1e-12)
        assert report["component_count"] == 2

    def test_self_comparison(self, tmp_path, returns_csv, capsys):
        out, _ = self._learned(tmp_path, returns_csv)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "metrics", "--graph", out, "--other", out, "--out", report_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["fscore"]["fscore"] == 1.0
        assert report["relative_error"] == 0.0

    def test_label_name_mismatch_is_error(self, tmp_path, returns_csv, capsys):
        out, _ = self._learned(tmp_path, returns_csv)
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("name,label\nzzz,1\n")
        code = run_cli("metrics", "--graph", out, "--labels", labels_path)
        assert code == 1
