import json

import numpy as np
import pytest

from marketgraph import laplacian_op, modularity, sample_lgmrf
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

    def test_manifest_init_field(self, tmp_path, returns_csv, capsys):
        # older manifests record the warm start: the negated readout reruns
        # bitwise, the removed positive readout is refused, not replaced
        path, _ = returns_csv
        out = tmp_path / "graph.json"
        manifest = tmp_path / "run.manifest.json"
        assert run_cli(
            "learn", "--input", path, "--method", "connected",
            "--out", out, "--manifest", manifest,
        ) == 0
        doc = json.loads(manifest.read_text())
        assert "init" not in doc["config"]
        first = out.read_bytes()
        older = tmp_path / "older.manifest.json"
        doc["config"]["init"] = "pinv-neg"
        older.write_text(json.dumps(doc))
        out.unlink()
        assert run_cli("learn", "--from-manifest", older) == 0
        assert out.read_bytes() == first
        doc["config"]["init"] = "pinv"
        older.write_text(json.dumps(doc))
        out.unlink()
        assert run_cli("learn", "--from-manifest", older) == 1
        assert "init mode 'pinv' was removed" in capsys.readouterr().err
        assert not out.exists()

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
