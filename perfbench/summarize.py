"""Spread and medians over several untraced runs of the benchmark.

Usage: python3 perfbench/summarize.py RESULT.json ... [--baseline OUT.json]

RESULT files are the perfbench/out/result-<workload>-seed<n>-trace0.json
files that run.py writes. For each workload and end-to-end metric this
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median next to a third of the metric's bound, the
steadiness target. --baseline writes the same figures, with the runs'
provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

import metrics


def summarize(paths) -> dict:
    runs = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        runs[result["provenance"]["workload"]].append(result)
    out = {}
    for workload, results in sorted(runs.items()):
        rows = {}
        for name, _, _, bound, _ in metrics.END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                          "bound": bound, "runs": len(values), "unit": results[0]["metrics"][name]["unit"]}
        prov = results[0]["provenance"]
        out[workload] = {"metrics": rows, "seeds": sorted(r["provenance"]["seed"] for r in results),
                         "provenance": {k: prov[k] for k in ("python", "numpy", "nproc", "machine",
                                                             "git_commit", "seconds")}}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    summary = summarize(args.results)
    for workload, entry in summary.items():
        print(f"{workload} (seeds {entry['seeds']})")
        for name, row in entry["metrics"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:<15} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} (bound/3 {row['bound'] / 3:.4f}){flag}")
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
