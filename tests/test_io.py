import numpy as np
import pytest

from marketgraph import DataError, learn_connected_gaussian
from marketgraph.io import (
    graph_from_json,
    graph_to_json,
    read_graph_json,
    read_labels_csv,
    read_panel_csv,
    read_trace_csv,
    write_graph_json,
    write_labels_csv,
    write_panel_csv,
    write_trace_csv,
)


@pytest.fixture
def small_estimate():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 5))
    X[:, 1] += 0.8 * X[:, 0]
    X[:, 3] += 0.6 * X[:, 2]
    Xc = X - X.mean(0)
    S = Xc.T @ Xc / X.shape[0]
    d = np.sqrt(np.diag(S))
    return learn_connected_gaussian(S / np.outer(d, d), names=list("abcde"))


class TestPanelCsv:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "panel.csv"
        X = rng.standard_normal((20, 3))
        write_panel_csv(path, X, ["x", "y", "z"])
        values, names, stamps, dropped = read_panel_csv(path)
        assert names == ["x", "y", "z"]
        assert stamps is None
        assert dropped == 0
        np.testing.assert_array_equal(values, X)  # repr round-trips exactly

    def test_date_column(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n")
        values, names, stamps, dropped = read_panel_csv(path)
        assert names == ["a", "b"]
        assert stamps == ["2020-01-01", "2020-01-02"]
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    def test_rows_with_missing_values_dropped(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n1.0,2.0\n,3.0\nxyz,1\n4.0,5.0\n")
        values, _, _, dropped = read_panel_csv(path)
        assert dropped == 2
        np.testing.assert_array_equal(values, [[1.0, 2.0], [4.0, 5.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError):
            read_panel_csv(path)


class TestGraphJson:
    def test_round_trip(self, tmp_path, small_estimate):
        path = tmp_path / "graph.json"
        write_graph_json(path, small_estimate)
        weights, names, meta = read_graph_json(path)
        assert names == list("abcde")
        assert meta["method"] == "connected-gaussian"
        assert meta["converged"] is True
        # weights above the emission threshold survive exactly
        w0 = np.asarray(small_estimate.weights)
        w1 = np.asarray(weights)
        mask = w0 > 1e-8
        np.testing.assert_array_equal(w0[mask], w1[mask])
        assert np.all(w1[~mask] == 0.0)

    def test_json_is_deterministic(self, small_estimate):
        assert graph_to_json(small_estimate) == graph_to_json(small_estimate)

    def test_edges_are_i_less_than_j(self, small_estimate):
        import json

        doc = json.loads(graph_to_json(small_estimate))
        assert doc["p"] == 5
        for e in doc["edges"]:
            assert 0 <= e["i"] < e["j"] < 5

    def test_out_of_range_edge_rejected(self):
        text = (
            '{"p": 3, "nodes": ["a", "b", "c"], '
            '"edges": [{"i": 0, "j": 5, "weight": 1.0}], '
            '"method": "connected-gaussian", "converged": true, '
            '"iterations": 1, "config": {}}'
        )
        with pytest.raises(DataError):
            graph_from_json(text)

    def test_node_count_mismatch_rejected(self):
        text = '{"p": 3, "nodes": ["a"], "edges": [], "method": "x", "converged": true, "iterations": 0, "config": {}}'
        with pytest.raises(DataError):
            graph_from_json(text)


class TestTraceCsv:
    def test_round_trip_lossless(self, tmp_path, small_estimate):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, small_estimate.trace)
        cols = read_trace_csv(path)
        np.testing.assert_array_equal(cols["iter"], small_estimate.trace.iters)
        np.testing.assert_array_equal(cols["r_norm"], small_estimate.trace.r_norm)
        np.testing.assert_array_equal(cols["lagrangian"], small_estimate.trace.lagrangian)

    def test_eta_column_round_trips(self, tmp_path, small_estimate):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, small_estimate.trace)
        cols = read_trace_csv(path)
        np.testing.assert_array_equal(cols["eta"], small_estimate.trace.eta)

    def test_reads_trace_without_eta_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,r_norm,s_norm,v_norm,lagrangian\n1,0.5,0.25,0.125,-3.0\n")
        cols = read_trace_csv(path)
        assert set(cols) == {"iter", "r_norm", "s_norm", "v_norm", "lagrangian"}
        np.testing.assert_array_equal(cols["iter"], [1])
        np.testing.assert_array_equal(cols["lagrangian"], [-3.0])

    def test_iterations_strictly_increasing(self, tmp_path, small_estimate):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, small_estimate.trace)
        cols = read_trace_csv(path)
        assert np.all(np.diff(cols["iter"]) > 0)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, ["a", "b"], ["tech", "energy"])
        table = read_labels_csv(path)
        assert table == {"a": "tech", "b": "energy"}

    def test_headerless_rows_accepted(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,1\nb,2\n")
        assert read_labels_csv(path) == {"a": "1", "b": "2"}
