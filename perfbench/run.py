"""Solver benchmark for marketgraph: three seeded workloads, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload gauss-connected --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): gauss-connected, gauss-k, t-cli.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:
median seconds per solve, set-up seconds, tracemalloc peak of one solve and
the mean edge F1 against the planted graphs.  With ``--trace 1`` it times an
untraced pass, then a pass with every hook of spans.py installed, and reports
the per-layer metrics.  A metric whose hook is gone, or records no call where
the workload must call it, reads "absent".

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, seeds, every solve's outcome).
"""

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

from spans import SETUP_HOOKS, SOLVE_HOOKS, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
BLAS_THREADS = 1

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_mib": "MiB", "fscore": "F1"}

# (metric, unit, span, statistic); per-solve figures are averages over the
# traced solves, set-up figures averages over the set-ups of the run
PER_LAYER = (
    ("fail_rate", "share", None, "fail_rate"),
    ("solvers.iters", "count", "solvers", "iters"),
    ("solvers.ms_per_iter", "ms", "solvers", "ms_per_iter"),
    ("solvers.self_s", "s", "solvers", "self"),
    ("solvers.init_weights.s", "s", "solvers.init_weights", "total"),
    ("solvers.logdet_term.self_s", "s", "solvers.logdet_term", "self"),
    ("solvers.student_objective.self_s", "s", "solvers.student_objective", "self"),
    ("spectral.eigendecompose.calls_per_iter", "count", "spectral.eigendecompose", "per_iter"),
    ("spectral.eigendecompose.self_s", "s", "spectral.eigendecompose", "self"),
    ("spectral.prox_logdet.s", "s", "spectral.prox_logdet", "total"),
    ("spectral.prox_logdet_rank.s", "s", "spectral.prox_logdet_rank", "total"),
    ("spectral.fan_subspace.s", "s", "spectral.fan_subspace", "total"),
    ("kernels.mm_inner_gaussian.self_s", "s", "kernels.mm_inner_gaussian", "self"),
    ("kernels.mm_inner_student.self_s", "s", "kernels.mm_inner_student", "self"),
    ("kernels.inner_step.self_s", "s", "kernels.inner_step", "self"),
    ("kernels.inner_steps_per_iter", "count", "kernels.inner_step", "per_iter"),
    ("kernels.lap_matrix.calls_per_iter", "count", "kernels.lap_matrix", "per_iter"),
    ("kernels.lap_matrix.self_s", "s", "kernels.lap_matrix", "self"),
    ("kernels.lap_adjoint.calls_per_iter", "count", "kernels.lap_adjoint", "per_iter"),
    ("kernels.lap_adjoint.self_s", "s", "kernels.lap_adjoint", "self"),
    ("kernels.degree_ops.self_s", "s", "kernels.degree_ops", "self"),
    ("io.read_panel_csv.s", "s", "io.read_panel_csv", "total"),
    ("io.write_outputs.s", "s", "io.write_outputs", "total"),
    ("preprocess.log_returns.s", "s", "preprocess.log_returns", "total"),
    ("preprocess.scale_columns.s", "s", "preprocess.scale_columns", "total"),
    ("cli.learn.self_s", "s", "cli.learn", "self"),
    ("synth.planted_k_component.s", "s", "synth.planted_k_component", "setup"),
    ("synth.sample.s", "s", "synth.sample", "setup"),
    ("preprocess.similarity.s", "s", "preprocess.similarity", "setup"),
    ("trace.overhead", "ratio", None, "overhead"),
)


def pin_blas_threads():
    """Pin the BLAS pools to one thread; call before numpy loads.

    On 2 CPUs shared with other processes, one thread cut the run-to-run
    spread of solve_s (0.023 against 0.034 on t-cli, 0.020 against 0.046 on
    gauss-k, five seeds each).  It makes gauss-connected faster (1.46 s
    against 1.62 s per solve) and t-cli slower (2.9 s against 1.6 s).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_seconds():
    "Seconds to import marketgraph (numpy included) in a fresh interpreter."
    code = ("import time; t = time.perf_counter(); import marketgraph; "
            "print(time.perf_counter() - t)")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def environment(np, marketgraph):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numba_enabled": bool(marketgraph.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
    }


@contextmanager
def capturing(target, into):
    "Keep every value the function named by (module, attribute) returns."
    module = importlib.import_module(target[0])
    original = getattr(module, target[1])

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(result)
        return result

    setattr(module, target[1], keep)
    try:
        yield
    finally:
        setattr(module, target[1], original)


class Solver:
    """Runs one workload's solves and keeps a record of each."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.records = []

    def solve(self, ds, stage, around=nullcontext, returned=None):
        """Solve one dataset; a solve that raises is recorded, not re-raised.

        around() encloses only the call into marketgraph.  returned, when
        given, is a list a capture hook fills during that call, so the
        outputs can be checked against the estimate.
        """
        record = {"stage": stage, "dataset": ds.seed}
        start = time.perf_counter()
        try:
            with around():
                raw = self.workload.run(ds, self.workdir)
            record["seconds"] = time.perf_counter() - start
            if returned is not None and not returned:
                raise RuntimeError("the capture hook saw no estimate")
            out = self.workload.inspect(ds, raw, self.workdir, returned[-1] if returned else None)
        except Exception:  # one failed solve must not end the run
            record.setdefault("seconds", time.perf_counter() - start)
            record["error"] = traceback.format_exc().strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
            self.records.append(record)
            return
        k = self.workload.k
        record.update(
            iterations=out.iterations,
            converged=out.converged,
            components=out.components,
            problems=out.problems,
            stalled=not out.converged or (k is not None and out.components != k),
            fscore=out.fscore,
        )
        self.records.append(record)

    def peak_pass(self, ds):
        "One untimed solve under tracemalloc, checked against the estimate it returned."
        target = self.workload.capture
        returned = [] if target else None
        peak = []

        @contextmanager
        def measured():
            tracemalloc.start()
            try:
                with capturing(target, returned) if target else nullcontext():
                    yield
            finally:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self.solve(ds, "peak", measured, returned)
        return peak[0] / 2**20

    def rounds(self, datasets, seconds, stage):
        "Solve every dataset in turn, in whole rounds, until `seconds` have passed."
        first = len(self.records)
        start = time.perf_counter()
        while len(self.records) == first or time.perf_counter() - start < seconds:
            for ds in datasets:
                self.solve(ds, stage)
        return self.records[first:]


def layer_metrics(tracer, setup_tracer, missing, required, traced, fail_rate, overhead):
    n = len(traced)
    iters = max(sum(r.get("iterations", 0) for r in traced), 1)
    out, absent = {}, []
    for name, unit, span, stat in PER_LAYER:
        source = setup_tracer if stat == "setup" else tracer
        if span is not None and (span in missing or (span in required and source.calls[span] == 0)):
            out[name] = {"value": "absent", "unit": unit}
            absent.append(name)
            continue
        value = {
            "fail_rate": lambda: fail_rate,
            "overhead": lambda: overhead,
            "iters": lambda: iters / n,
            "ms_per_iter": lambda: 1000.0 * tracer.total[span] / iters,
            "self": lambda: tracer.self_time[span] / n,
            "total": lambda: tracer.total[span] / n,
            "per_iter": lambda: tracer.calls[span] / iters,
            "setup": lambda: setup_tracer.total[span] / SETUP_REPEATS,
        }[stat]()
        out[name] = {"value": value, "unit": unit}
    return out, absent


def broken(record):
    "The solve raised or failed an output check."
    return "error" in record or bool(record["problems"])


def median_seconds(records):
    """Median seconds of the solves that returned.

    A solve that raises can end within milliseconds, so counting it would
    read as a speed-up; when every solve raised, all of them are used.
    """
    returned = [r for r in records if "error" not in r] or records
    return statistics.median(r["seconds"] for r in returned)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import marketgraph

    if Path(marketgraph.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"marketgraph was imported from {marketgraph.__file__}, not {SRC}")
    from workloads import DATASETS, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = [args.seed * DATASETS + j for j in range(DATASETS)]
    workdir = ROOT / f".perfbench_work-{os.getpid()}"
    workdir.mkdir()
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_tracer = Tracer()
        builds = []
        with installed(setup_tracer, SETUP_HOOKS if args.trace else ()) as setup_missing:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                datasets = [workload.build(seed, workdir) for seed in seeds]
                builds.append(time.perf_counter() - start)

        solver = Solver(workload, workdir)
        peak_mib = solver.peak_pass(datasets[0])
        if args.trace:
            untraced = solver.rounds(datasets, args.seconds / 2, "untraced")
            tracer = Tracer()
            with installed(tracer, SOLVE_HOOKS) as missing:
                traced = solver.rounds(datasets, args.seconds / 2, "traced")
        else:
            timed = solver.rounds(datasets, args.seconds, "timed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = solver.records
    failed = sum(map(broken, records))
    fail_rate = sum(broken(r) or r["stalled"] for r in records) / len(records)
    detail = {
        "workload": workload.name, "seed": args.seed, "dataset_seeds": seeds,
        "trace": args.trace, "seconds": args.seconds,
        "environment": environment(np, marketgraph), "fail_rate": fail_rate,
    }
    if args.trace:
        metrics, detail["absent"] = layer_metrics(
            tracer, setup_tracer, missing | setup_missing, workload.required, traced,
            fail_rate, median_seconds(traced) / median_seconds(untraced),
        )
        wall = sum(r["seconds"] for r in traced)
        detail["self_share"] = {
            s: tracer.self_time[s] / wall for s in sorted(tracer.calls) if tracer.calls[s]
        }
        for name in detail["absent"]:
            print(f"perfbench: {name} is absent: its hook is gone or was never called",
                  file=sys.stderr)
    else:
        # each dataset's f-score is the same on every round
        scores = {r["dataset"]: r["fscore"] for r in timed if "fscore" in r}
        values = {
            "solve_s": median_seconds(timed),
            "setup_s": statistics.median(imports) + statistics.median(builds),
            "peak_mib": peak_mib,
            "fscore": statistics.fmean(scores.values()) if scores else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    detail["solves"] = records
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
