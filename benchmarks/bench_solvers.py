"""End-to-end solver benchmark: the four methods at p = 50, 100 and 200.

Usage, from the repository root:

    python3 benchmarks/bench_solvers.py --label after
    python3 benchmarks/bench_solvers.py --label before --src ../parent/src

Each case draws one planted graph, ``planted_k_component(p, k, 0.3, seed)``,
with k = 1 for the connected methods and k = max(2, p // 50) for the k
methods.  The Gaussian methods get the correlation of n = 20p Gaussian
samples; the Student-t methods get n = 1000 rows of nu = 4 Student-t samples.
Every solve uses the default ``SolverConfig`` with ``max_iter`` capped, so a
solve that does not converge is recorded as ``stalled`` at the cap.

Per case the script records the median wall seconds of three solves,
the iterations, ``converged``, ms per iteration, the component count, the
edge F1 against the planted graph, and the tracemalloc peak of one more
solve.  The results are merged into ``--out`` under ``runs[label]``, so the
same file can hold a before and an after run.  The BLAS pools are pinned to
one thread, as in ``perfbench/``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PS = (50, 100, 200)
METHODS = ("connected-gaussian", "k-gaussian", "connected-t", "kt")
K_METHODS = ("k-gaussian", "kt")
T_METHODS = ("connected-t", "kt")
SEED = 4
MAX_ITER = 1000
NU = 4.0
T_ROWS = 1000
REPEATS = 3


def case_inputs(mg, method, p):
    "The planted graph, k and the solver input of one case."
    k = max(2, p // 50) if method in K_METHODS else 1
    truth = mg.planted_k_component(p, k, 0.3, seed=SEED).weights
    L = mg.laplacian_op(truth)
    if method in T_METHODS:
        return truth, k, T_ROWS, mg.sample_student_t(L, NU, T_ROWS, seed=SEED)
    X = mg.sample_lgmrf(L, 20 * p, seed=SEED)
    S = mg.similarity(mg.ReturnsMatrix(X, [str(i) for i in range(p)]))
    return truth, k, 20 * p, S


def run_case(mg, method, p):
    truth, k, n, data = case_inputs(mg, method, p)
    learn = {
        "connected-gaussian": mg.learn_connected_gaussian,
        "k-gaussian": mg.learn_k_component_gaussian,
        "connected-t": mg.learn_connected_t,
        "kt": mg.learn_kt,
    }[method]
    config = mg.SolverConfig(k=k, max_iter=MAX_ITER, nu=NU if method in T_METHODS else None)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        est = learn(data, config)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    learn(data, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    wall = statistics.median(seconds)
    return {
        "method": method, "p": p, "k": k, "n": n, "seed": SEED, "max_iter": MAX_ITER,
        "wall_s": round(wall, 4),
        "iterations": est.iterations,
        "converged": bool(est.converged),
        "stalled": not est.converged and est.iterations == MAX_ITER,
        "ms_per_iter": round(1e3 * wall / est.iterations, 3),
        "components": mg.component_count(est.weights),
        "fscore": round(mg.edge_fscore(est.weights, truth)["fscore"], 4),
        "peak_mib": round(peak / 2**20, 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run under runs")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that marketgraph is imported from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_solvers.json"))
    args = parser.parse_args()

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, args.src)
    import numpy as np
    import marketgraph as mg

    cases = []
    for method in METHODS:
        for p in PS:
            case = run_case(mg, method, p)
            print(json.dumps(case), flush=True)
            cases.append(case)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"runs": {}}
    doc["runs"][args.label] = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1, "nproc": os.cpu_count(), "repeats": REPEATS,
        },
        "cases": cases,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
