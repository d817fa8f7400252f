"""Spans recorded from outside the program, by wrapping module attributes.

A hook names a module, one of its attributes, and the span a call of that
attribute records.  Wrapping the attribute catches every caller that looks
the name up at call time: ``marketgraph.solvers`` calls its own bindings of
``prox_logdet`` or ``init_weights``, and ``_kernels.lap_matrix`` through the
module, so those are the names to wrap.  Several hooks may feed one span.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

SOLVE_HOOKS = (
    ("marketgraph.solvers", "learn_connected_gaussian", "solvers"),
    ("marketgraph.solvers", "learn_k_component_gaussian", "solvers"),
    ("marketgraph.solvers", "learn_connected_t", "solvers"),
    ("marketgraph.solvers", "learn_kt", "solvers"),
    ("marketgraph.solvers", "init_weights", "solvers.init_weights"),
    ("marketgraph.solvers", "_logdet_term", "solvers.logdet_term"),
    ("marketgraph.solvers", "_student_objective", "solvers.student_objective"),
    ("marketgraph.solvers", "prox_logdet", "spectral.prox_logdet"),
    ("marketgraph.solvers", "prox_logdet_rank", "spectral.prox_logdet_rank"),
    ("marketgraph.solvers", "fan_subspace", "spectral.fan_subspace"),
    ("marketgraph.spectral", "eigendecompose", "spectral.eigendecompose"),
    ("marketgraph._kernels", "lap_matrix", "kernels.lap_matrix"),
    ("marketgraph._kernels", "lap_adjoint", "kernels.lap_adjoint"),
    ("marketgraph._kernels", "degree_vector", "kernels.degree_ops"),
    ("marketgraph._kernels", "degree_adjoint", "kernels.degree_ops"),
    ("marketgraph._kernels", "mm_inner_gaussian", "kernels.mm_inner_gaussian"),
    ("marketgraph._kernels", "mm_inner_student", "kernels.mm_inner_student"),
    # one call per projected-gradient step of either inner loop
    ("marketgraph._kernels", "quad_gradient_py", "kernels.inner_step"),
    ("marketgraph.cli", "main", "cli.learn"),
    ("marketgraph.cli", "learn_connected_gaussian", "solvers"),
    ("marketgraph.cli", "learn_k_component_gaussian", "solvers"),
    ("marketgraph.cli", "learn_connected_t", "solvers"),
    ("marketgraph.cli", "learn_kt", "solvers"),
    ("marketgraph.cli", "read_panel_csv", "io.read_panel_csv"),
    ("marketgraph.cli", "write_graph_json", "io.write_outputs"),
    ("marketgraph.cli", "write_trace_csv", "io.write_outputs"),
    ("marketgraph.cli", "log_returns", "preprocess.log_returns"),
    ("marketgraph.cli", "scale_columns", "preprocess.scale_columns"),
)

SETUP_HOOKS = (
    ("marketgraph.synth", "planted_k_component", "synth.planted_k_component"),
    ("marketgraph.synth", "sample_lgmrf", "synth.sample"),
    ("marketgraph.synth", "sample_student_t", "synth.sample"),
    ("marketgraph.preprocess", "similarity", "preprocess.similarity"),
)


class Tracer:
    """Call count, total time and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []  # time covered by wrapped children, one entry per open span
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._clock()
            self._open.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - self._open.pop()
                if self._open:
                    self._open[-1] += duration

        return traced


@contextmanager
def installed(tracer, hooks):
    """Wrap every hook for the duration of the block, then restore the originals.

    Yields the set of span names with a hook that could not be installed
    because its module or attribute is gone.
    """
    saved, missing = [], set()
    try:
        for module_name, attr, span in hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.add(span)
                continue
            if not callable(original):
                missing.add(span)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
