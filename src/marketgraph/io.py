"""File formats: returns/prices CSV, labels CSV, graph JSON, trace CSV.

Graph JSON schema:
  {"p": int, "nodes": [names...],
   "edges": [{"i": int, "j": int, "weight": float}, ...],   # 0-based, i < j
   "method": str, "converged": bool, "iterations": int, "config": {...}}
Edges below the emission threshold 1e-8 are omitted.  Serialization is
deterministic (sorted keys, repr floats) so identical runs produce identical
bytes.
"""

import csv
import itertools
import json
from dataclasses import fields

import numpy as np

from .errors import DataError, DimensionError
from .operators import WeightVector, edge_count, edge_linear_index, edge_pairs

__all__ = [
    "EDGE_EMIT_THRESHOLD",
    "read_panel_csv",
    "write_panel_csv",
    "read_labels_csv",
    "write_labels_csv",
    "graph_to_json",
    "graph_from_json",
    "write_graph_json",
    "read_graph_json",
    "write_trace_csv",
    "read_trace_csv",
]

EDGE_EMIT_THRESHOLD = 1e-8


def read_panel_csv(path):
    """Read an observations-by-assets CSV.

    Header row holds asset symbols; an optional leading column named "date"
    carries timestamps (ignored by the math).  Rows containing any missing or
    unparseable value are dropped.  Rows are parsed as they are read, so the
    file's text is never held whole.  Returns (values, names, timestamps,
    dropped_row_count).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, first = next(reader, None), next(reader, None)
        if first is None:
            raise DataError(f"{path}: need a header row and at least one data row")
        header = [h.strip() for h in header]
        has_date = bool(header) and header[0].lower() == "date"
        names = header[1:] if has_date else header
        if not names:
            raise DataError(f"{path}: header row has no asset columns")
        data, stamps, dropped = [], [], 0
        for row in itertools.chain([first], reader):
            if not row or all(not c.strip() for c in row):
                continue
            cells = row[1:] if has_date else row
            if len(cells) != len(names):
                dropped += 1
                continue
            try:
                vals = np.array([float(c) for c in cells])
            except ValueError:
                dropped += 1
                continue
            if not np.all(np.isfinite(vals)):
                dropped += 1
                continue
            data.append(vals)
            if has_date:
                stamps.append(row[0])
    if not data:
        raise DataError(f"{path}: no usable data rows")
    return np.asarray(data), names, (stamps if has_date else None), dropped


def write_panel_csv(path, values, names, timestamps=None):
    "Write an observations-by-assets CSV in the schema read_panel_csv reads."
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise DimensionError("values shape does not match the name list")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if timestamps is not None:
            writer.writerow(["date", *names])
            for t, row in zip(timestamps, values):
                writer.writerow([t, *[repr(float(v)) for v in row]])
        else:
            writer.writerow(list(names))
            for row in values:
                writer.writerow([repr(float(v)) for v in row])


def read_labels_csv(path):
    """Read node labels from a CSV with header "name,label".

    Returns a dict name -> label string.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty labels file")
    start = 1 if [c.strip().lower() for c in rows[0][:2]] == ["name", "label"] else 0
    out = {}
    for row in rows[start:]:
        if len(row) < 2 or not row[0].strip():
            continue
        out[row[0].strip()] = row[1].strip()
    if not out:
        raise DataError(f"{path}: no labels found")
    return out


def write_labels_csv(path, names, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "label"])
        for name, lab in zip(names, labels):
            writer.writerow([name, lab])


def _config_dict(config):
    "A config's fields as JSON values; a uniform degree target collapses to a scalar."
    d = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            d[f.name] = None
        elif f.name == "degree_target" and not np.isscalar(value):
            target = np.asarray(value, dtype=float)
            if target.size and np.all(target == target.flat[0]):
                d[f.name] = float(target.flat[0])
            else:
                d[f.name] = [float(v) for v in target]
        else:
            d[f.name] = int(value) if f.type is int else float(value)
    return d


def graph_to_json(estimate):
    "Serialize a GraphEstimate to the graph JSON text."
    w = np.asarray(estimate.weights.values)
    p = estimate.weights.p
    ii, jj = edge_pairs(p)
    edges = [
        {"i": int(jj[k]), "j": int(ii[k]), "weight": float(w[k])}
        for k in range(w.size)
        if w[k] > EDGE_EMIT_THRESHOLD
    ]
    doc = {
        "p": int(p),
        "nodes": list(estimate.node_names),
        "edges": edges,
        "method": estimate.method,
        "converged": bool(estimate.converged),
        "iterations": int(estimate.iterations),
        "config": _config_dict(estimate.config),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_graph_json(path, estimate):
    with open(path, "w") as fh:
        fh.write(graph_to_json(estimate))


def graph_from_json(text):
    """Parse graph JSON into (weights, names, metadata dict).

    Validates node count, index ranges and i < j before rebuilding the weight
    vector.
    """
    doc = json.loads(text)
    p = int(doc["p"])
    names = [str(s) for s in doc["nodes"]]
    if len(names) != p:
        raise DataError(f"graph lists {len(names)} nodes but p={p}")
    w = np.zeros(edge_count(p))
    for e in doc["edges"]:
        i, j, weight = int(e["i"]), int(e["j"]), float(e["weight"])
        if not 0 <= i < j < p:
            raise DataError(f"edge ({i}, {j}) out of range for p={p}")
        w[edge_linear_index(j, i, p)] = weight
    meta = {key: doc.get(key) for key in ("method", "converged", "iterations", "config")}
    return WeightVector(w, p), names, meta


def read_graph_json(path):
    with open(path) as fh:
        return graph_from_json(fh.read())


_TRACE_COLUMNS = ["iter", "r_norm", "s_norm", "v_norm", "lagrangian", "eta"]


def write_trace_csv(path, trace):
    "Write per-iteration solver diagnostics; floats via repr (lossless)."
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for t in range(len(trace)):
            writer.writerow(
                [
                    int(trace.iters[t]),
                    repr(float(trace.r_norm[t])),
                    repr(float(trace.s_norm[t])),
                    repr(float(trace.v_norm[t])),
                    repr(float(trace.lagrangian[t])),
                    repr(float(trace.eta[t])),
                ]
            )


def read_trace_csv(path):
    """Read a trace CSV back into column arrays.

    Traces written before the eta column existed are read without it.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    if header not in (_TRACE_COLUMNS, _TRACE_COLUMNS[:-1]):
        raise DataError(f"unexpected trace header {header}")
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            cols[name].append(float(cell))
    return {
        name: np.asarray(values, dtype=int if name == "iter" else float)
        for name, values in cols.items()
    }
