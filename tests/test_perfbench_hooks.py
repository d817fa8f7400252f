"""The benchmark's hook contract, checked on small solves.

perfbench times layers by wrapping module attributes (perfbench/spans.py),
and each workload names the spans its solves must record.  A required span
that records no call reads "absent" in a traced run.  A traced run takes
several seconds per workload, so this test runs one small solve (p = 12)
through each workload's entry point with the same hooks installed and checks
that every solve-side span the workload requires recorded a call.  The
perfbench modules are loaded as they are, not edited.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from marketgraph import cli, operators, preprocess, solvers, synth
from marketgraph.io import write_panel_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
P = 12


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
SOLVE_SPANS = {span for _, _, span in spans.SOLVE_HOOKS}


def _similarity(k):
    truth = synth.planted_k_component(P, k, 0.3, seed=3).weights
    return preprocess.similarity(synth.sample_lgmrf(operators.laplacian_op(truth), 40 * P, 3))


def _gauss_connected(tmp_path):
    solvers.learn_connected_gaussian(_similarity(1), solvers.SolverConfig(max_iter=200))


def _gauss_k(tmp_path):
    solvers.learn_k_component_gaussian(_similarity(2), solvers.SolverConfig(k=2, max_iter=200))


def _t_cli(tmp_path):
    truth = synth.planted_k_component(P, 1, 0.3, seed=3).weights
    returns = 0.01 * synth.sample_student_t(operators.laplacian_op(truth), 4.0, 300, 3)
    prices = 100.0 * np.exp(np.vstack([np.zeros(P), np.cumsum(returns, axis=0)]))
    path = tmp_path / "prices.csv"
    write_panel_csv(path, prices, [f"a{j}" for j in range(P)])
    cli.main(["learn", "--input", str(path), "--prices", "--method", "t", "--nu", "4",
              "--max-iter", "200", "--out", str(tmp_path / "graph.json"),
              "--trace", str(tmp_path / "trace.csv")])


SMALL_SOLVES = {"gauss-connected": _gauss_connected, "gauss-k": _gauss_k, "t-cli": _t_cli}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_required_solve_span_records_a_call(name, tmp_path, capsys):
    required = workloads.WORKLOADS[name].required & SOLVE_SPANS
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.SOLVE_HOOKS) as missing:
        SMALL_SOLVES[name](tmp_path)
    assert not missing & required
    assert sorted(s for s in required if tracer.calls[s] == 0) == []
