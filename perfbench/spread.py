"""Run one workload of the benchmark over several seeds; report medians and spreads.

Usage, from the repository root:

    python3 perfbench/spread.py --workload gauss-k --seeds 1 2 3 4 5 [--trace 1]

Each run is ``perfbench/run.py`` with BENCHMARK.json's run_seconds.  For every
numeric metric it prints the median over the runs and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the bound BENCHMARK.json fixes.  The last line is the
same summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} solves failed",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        if any(isinstance(v, str) for v in vals):
            summary[name] = {"values": vals}
            continue
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        summary[name] = {"median": median, "spread": (q3 - q1) / median if median else None,
                         "bound": bounds.get(name), "values": vals}
        print(f"{name:42s} median {median:12.6g}  spread {summary[name]['spread'] or 0:8.4f}"
              f"  bound {bounds.get(name, '-')}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                      "metrics": summary}))


if __name__ == "__main__":
    main()
