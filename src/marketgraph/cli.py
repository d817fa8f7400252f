"""Command-line front end: learn graphs from CSV panels, report metrics,
generate synthetic fixtures.

Exit codes: 0 success (learn: solver converged), 2 learn hit the iteration
cap without converging (outputs are still written), 1 any error.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .errors import DataError, MarketGraphError, ParameterError
from .io import (
    _config_dict,
    read_graph_json,
    read_labels_csv,
    read_panel_csv,
    write_graph_json,
    write_labels_csv,
    write_panel_csv,
    write_trace_csv,
)
from .metrics import (
    DEFAULT_EDGE_THRESHOLD,
    NodeLabels,
    component_count,
    edge_distribution,
    edge_fscore,
    edge_set,
    modularity,
    relative_error,
)
from .operators import laplacian_op
from .preprocess import ReturnsMatrix, SimilaritySpec, log_returns, scale_columns, similarity
from .solvers import (
    GraphEstimate,
    SolverConfig,
    SolverTrace,
    learn_connected_gaussian,
    learn_connected_t,
    learn_k_component_gaussian,
    learn_kt,
)
from .synth import planted_k_component, sample_lgmrf, sample_student_t

METHOD_MAP = {
    "connected": "connected-gaussian",
    "k": "k-gaussian",
    "t": "connected-t",
    "kt": "kt",
}


@dataclass
class RunManifest:
    """Everything needed to reproduce a learn run, written next to its outputs."""

    input: str
    prices: bool
    method: str
    similarity: dict
    config: dict
    outputs: dict
    seed: int | None
    version: str
    numpy: str

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _parse_degree(text, p):
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        pass
    values = []
    with open(text) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{text}: line {number}: {line!r} is not a number") from None
    if len(values) != p:
        raise ParameterError(f"degree file lists {len(values)} values for p={p} nodes")
    return np.asarray(values)


# learn's solver options default to SolverConfig's own field defaults
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="marketgraph",
        description="Estimate undirected weighted graphs from multivariate time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="estimate a graph from a CSV panel")
    learn.add_argument("--input", help="CSV of returns (or prices with --prices)")
    learn.add_argument("--prices", action="store_true",
                       help="input holds prices; take log-returns first")
    learn.add_argument("--method", choices=sorted(METHOD_MAP), default="connected")
    learn.add_argument("--k", type=int, default=1, help="component count (k/kt methods)")
    learn.add_argument("--nu", type=float, default=None,
                       help="Student-t degrees of freedom (t/kt methods, > 2)")
    learn.add_argument("--rho", type=float, default=_CONFIG_DEFAULTS["rho"],
                       help="penalty parameter")
    learn.add_argument("--eta", type=float, default=None,
                       help="starting spectral-penalty weight, adapted to the "
                            "observed nullity (default 100*mean|S|)")
    learn.add_argument("--tol", type=float, default=_CONFIG_DEFAULTS["tol"],
                       help="residual tolerance")
    learn.add_argument("--max-iter", type=int, default=_CONFIG_DEFAULTS["max_iter"])
    learn.add_argument("--inner-iter", type=int, default=_CONFIG_DEFAULTS["inner_iter"])
    learn.add_argument("--degree", default=None,
                       help="degree target: scalar or path to a file of p values")
    learn.add_argument("--similarity", choices=["correlation", "covariance", "nmi"],
                       default="correlation")
    learn.add_argument("--remove-market", action="store_true",
                       help="zero the top eigenvalue of the similarity matrix")
    learn.add_argument("--seed", type=int, default=None,
                       help="recorded in the manifest for provenance")
    learn.add_argument("--out", help="output graph JSON path")
    learn.add_argument("--trace", default=None, help="optional trace CSV path")
    learn.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")
    learn.add_argument("--from-manifest", default=None,
                       help="re-run the learn described by an existing manifest")

    metrics = sub.add_parser("metrics", help="report metrics of a graph JSON")
    metrics.add_argument("--graph", required=True)
    metrics.add_argument("--labels", default=None, help="CSV with name,label rows")
    metrics.add_argument("--other", default=None,
                         help="second graph JSON for f-score / relative error")
    metrics.add_argument("--threshold", type=float, default=DEFAULT_EDGE_THRESHOLD)
    metrics.add_argument("--out", default=None, help="optional JSON report path")

    simulate = sub.add_parser("simulate", help="write a planted graph and samples")
    simulate.add_argument("--p", type=int, required=True)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--dist", choices=["gaussian", "t"], default="gaussian")
    simulate.add_argument("--nu", type=float, default=None)
    simulate.add_argument("--intra-prob", type=float, default=0.4)
    simulate.add_argument("--weight-min", type=float, default=0.5)
    simulate.add_argument("--weight-max", type=float, default=2.0)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--out-graph", required=True)
    simulate.add_argument("--out-data", required=True)
    simulate.add_argument("--out-labels", default=None)

    return parser


# config keys of removed options, each with the value that reproduces the
# current behaviour: a manifest that carries one reruns only at that value
_REMOVED_CONFIG = {
    "init": "pinv-neg",
    "adaptive_rho": False,
    "rho_growth": 1.1,
    "rho_max": 1e6,
    "rank_tol": 1e-9,
}


def _learn_from_manifest(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a JSON manifest: {exc}") from None

    def get(*keys):
        "doc[keys[0]][keys[1]]..., or DataError naming the file and the missing key."
        value = doc
        for depth, key in enumerate(keys):
            if not isinstance(value, dict) or key not in value:
                raise DataError(f"{path}: manifest has no {'.'.join(keys[:depth + 1])!r}")
            value = value[key]
        return value

    def config_value(field):
        "config.<field>, or DataError when it does not fit the field's annotation."
        value = get("config", field.name)
        optional = field.type == float | None
        kinds = (int,) if field.type is int else (int, float)
        if (value is None and optional) or (
                isinstance(value, kinds) and not isinstance(value, bool)):
            return value
        kind = "an integer" if field.type is int else "a number"
        kind += " or null" if optional else ""
        raise DataError(f"{path}: manifest 'config.{field.name}' must be {kind}, not {value!r}")

    cfg = {f.name: config_value(f) for f in fields(SolverConfig) if f.name != "degree_target"}
    for key, kept in _REMOVED_CONFIG.items():
        value = get("config").get(key, kept)
        if value != kept:
            raise ParameterError(f"{path}: config option {key!r} was removed; "
                                 f"a manifest reruns only with {key}={kept!r}, not {value!r}")
    args = argparse.Namespace(
        input=get("input"),
        prices=get("prices"),
        method=get("method"),
        degree=None,
        similarity=get("similarity", "kind"),
        remove_market=get("similarity", "market_removed"),
        seed=get("seed"),
        out=get("outputs", "graph"),
        trace=get("outputs").get("trace"),
        manifest=get("outputs").get("manifest"),
        from_manifest=None,
        **cfg,
    )
    return args, get("config").get("degree_target")


def cmd_learn(args):
    manifest_degree = None
    if args.from_manifest:
        args, manifest_degree = _learn_from_manifest(args.from_manifest)
    if not args.input or not args.out:
        print("learn: --input and --out are required", file=sys.stderr)
        return 1
    method = METHOD_MAP.get(args.method, args.method)
    if method not in METHOD_MAP.values():
        print(f"learn: unknown method {args.method!r}", file=sys.stderr)
        return 1
    if method in ("connected-t", "kt") and args.nu is None:
        print(f"learn: --nu is required for method {args.method!r}", file=sys.stderr)
        return 1

    values, names, stamps, dropped = read_panel_csv(args.input)
    if dropped:
        print(f"warning: dropped {dropped} rows with missing values", file=sys.stderr)
    if args.prices:
        returns = log_returns(values, names, stamps)
    else:
        returns = ReturnsMatrix(values, names, stamps)
    p = returns.p

    if manifest_degree is not None:
        degree = np.asarray(manifest_degree) if isinstance(manifest_degree, list) else manifest_degree
    else:
        degree = _parse_degree(args.degree, p)

    config = SolverConfig(
        degree_target=degree,
        **{f.name: getattr(args, f.name) for f in fields(SolverConfig)
           if f.name != "degree_target"},
    )
    spec = SimilaritySpec(kind=args.similarity, market_removed=args.remove_market)

    if method == "connected-gaussian":
        estimate = learn_connected_gaussian(similarity(returns, spec), config, names)
    elif method == "k-gaussian":
        estimate = learn_k_component_gaussian(similarity(returns, spec), config, names)
    else:
        if args.similarity == "nmi":
            print("learn: --similarity nmi applies to Gaussian methods only",
                  file=sys.stderr)
            return 1
        if args.remove_market:
            print("learn: --remove-market applies to Gaussian methods only",
                  file=sys.stderr)
            return 1
        data = scale_columns(returns) if args.similarity == "correlation" else returns
        if method == "connected-t":
            estimate = learn_connected_t(data.values, config, names)
        else:
            estimate = learn_kt(data.values, config, names)

    write_graph_json(args.out, estimate)
    if args.trace:
        write_trace_csv(args.trace, estimate.trace)
    manifest_path = args.manifest or (args.out + ".manifest.json")
    manifest = RunManifest(
        input=args.input,
        prices=bool(args.prices),
        method=args.method,
        similarity={
            "kind": args.similarity,
            "market_removed": bool(args.remove_market),
            "scaled": args.similarity in ("correlation", "nmi"),
        },
        config=_config_dict(estimate.config),
        outputs={"graph": args.out, "trace": args.trace, "manifest": manifest_path},
        seed=args.seed,
        version=__version__,
        numpy=np.__version__,
    )
    with open(manifest_path, "w") as fh:
        fh.write(manifest.to_json())

    status = "converged" if estimate.converged else "max-iter reached"
    print(f"{method}: {status} after {estimate.iterations} iterations; "
          f"{len(edge_set(estimate.weights, 0.0))} positive edges -> {args.out}")
    return 0 if estimate.converged else 2


def cmd_metrics(args):
    weights, names, meta = read_graph_json(args.graph)
    report = {
        "graph": args.graph,
        "p": weights.p,
        "method": meta.get("method"),
        "edge_count": len(edge_set(weights, args.threshold)),
        "component_count": component_count(weights, args.threshold),
    }
    if args.labels:
        table = read_labels_csv(args.labels)
        missing = [s for s in names if s not in table]
        if missing:
            print(f"metrics: labels file is missing nodes {missing[:5]}"
                  f"{'...' if len(missing) > 5 else ''}", file=sys.stderr)
            return 1
        labels = NodeLabels.from_values([table[s] for s in names])
        report["modularity"] = modularity(weights, labels)
        report["edge_distribution"] = edge_distribution(weights, labels, args.threshold)
    if args.other:
        other_w, other_names, _ = read_graph_json(args.other)
        if other_names != names:
            print("metrics: node names differ between the two graphs", file=sys.stderr)
            return 1
        report["fscore"] = edge_fscore(weights, other_w, args.threshold)
        report["relative_error"] = relative_error(
            laplacian_op(weights), laplacian_op(other_w)
        )
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_simulate(args):
    if args.dist == "t" and args.nu is None:
        print("simulate: --nu is required with --dist t", file=sys.stderr)
        return 1
    planted = planted_k_component(
        args.p, args.k, args.intra_prob, (args.weight_min, args.weight_max), args.seed
    )
    if args.dist == "t":
        X = sample_student_t(laplacian_op(planted.weights), args.nu, args.n, args.seed)
    else:
        X = sample_lgmrf(laplacian_op(planted.weights), args.n, args.seed)

    names = [f"n{i}" for i in range(args.p)]
    empty_trace = SolverTrace(
        iters=np.zeros(0, dtype=int), r_norm=np.zeros(0), s_norm=np.zeros(0),
        v_norm=np.zeros(0), lagrangian=np.zeros(0), eta=np.zeros(0),
    )
    estimate = GraphEstimate(
        weights=planted.weights,
        laplacian=laplacian_op(planted.weights),
        node_names=names,
        method="planted",
        converged=True,
        iterations=0,
        trace=empty_trace,
        config=SolverConfig(k=args.k, nu=args.nu),
    )
    write_graph_json(args.out_graph, estimate)
    write_panel_csv(args.out_data, X, names)
    if args.out_labels:
        write_labels_csv(args.out_labels, names, planted.partition.labels.tolist())
    print(f"planted {args.k}-component graph on {args.p} nodes, {args.n} samples "
          f"-> {args.out_graph}, {args.out_data}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "learn":
            return cmd_learn(args)
        if args.command == "metrics":
            return cmd_metrics(args)
        if args.command == "simulate":
            return cmd_simulate(args)
    except MarketGraphError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
