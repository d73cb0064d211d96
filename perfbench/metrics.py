"""Metric catalogue: names, units, directions, bounds, where each applies,
and which end-to-end metric each layer's metrics should move.

`python3 perfbench/metrics.py > BENCHMARK.json` regenerates the
benchmark description from this file; a test keeps the two in step.
`python3 perfbench/metrics.py --describe` prints the catalogue: what each
end-to-end metric means and where it applies, and what each layer should
move.
"""

from __future__ import annotations

import json
import sys

from tracer import EXACTNUM_FNS, FPS_OPS, RINGS, SEQUENCES_FNS, VERIFY_FNS
from workloads import WORKLOADS

# table_sweep stays runnable by hand but is left out of BENCHMARK.json: the
# benchmark's whole schedule (4 + 22 runs per workload) must fit in under an
# hour, and three workloads leave room for 30-second runs, which this noisy
# machine needs for steady medians. Its layers are still measured by the suites.
BENCHMARK_WORKLOADS = ("suite_default", "suite_deep", "cli_lookup")

WHY = {
    "suite_default": "run_suite on the default grid, the canonical verification run: "
                     "many small Fraction operations, shared memo reads and the numpy routes",
    "suite_deep": "run_suite with n_max=20, order=34: series and Poly-ring products at "
                  "order 38 dominate; shows kernel changes and the known numeric false fails",
    "cli_lookup": "sequential table/eval CLI calls with seed-drawn queries: interpreter "
                  "start and import dominate, so lazy imports show here and kernels do not",
    "table_sweep": "one process builds tables for distinct seed-drawn parameters: every "
                   "build_table call misses the memo and memory grows with the keys",
}

ALL = list(WORKLOADS)
SUITES = ["suite_default", "suite_deep"]

# Timing bounds are at the 0.25 ceiling because CPU speed on a small shared
# machine drifts by 15-30% between runs a few minutes apart (measured on
# 2 vCPUs, a pure-Python loop ranging 25-42 ms); memory and outcomes do not
# drift. A pass_ratio bound of 0.001 rejects a single new failing verdict or
# output. Fields: name, unit, better, bound (share of the parent's median by
# which the metric may worsen), workloads where it means most.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, ALL),
    ("wall_s", "s", "lower", 0.25, ["suite_default", "suite_deep", "table_sweep"]),
    ("latency_p50_s", "s", "lower", 0.25, ["cli_lookup", "table_sweep"]),
    ("latency_p90_s", "s", "lower", 0.25, ["cli_lookup", "table_sweep"]),
    ("peak_rss_mb", "MB", "lower", 0.1, ALL),
    ("pass_ratio", "ratio", "higher", 0.001, ALL),
]

DEFINITIONS = {
    "setup_s": "fresh interpreter start until `import truncbell` returns; median over the "
               "run's worker processes (at least 15 import-only probes spread over the run, plus "
               "every pass worker)",
    "wall_s": "one cold pass, import excluded; median over passes. A pass is one "
              "run_suite call (suites), one build_table sweep (table_sweep) or ten CLI "
              "calls (cli_lookup)",
    "latency_p50_s": "median time of one operation: a CLI call (cli_lookup), a build_table "
                     "call (table_sweep), a suite pass (suites)",
    "latency_p90_s": "90th percentile of the same operation times",
    "peak_rss_mb": "peak resident set of a worker or CLI process; maximum over the run",
    "pass_ratio": "1 - fail_ratio: counted (non-T6/T6k) verdicts that pass over counted "
                  "verdicts (suites); correct, zero-exit outputs over operations (others)",
}


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, layer) for every per-layer metric."""
    out = [(f"cli.{m}", "s", "lower", "cli")
           for m in ("interp_s", "import_numpy_s", "import_truncbell_s", "table_s", "eval_s")]
    out += [("run_suite.s", "s", "lower", "run_suite"), ("run_suite.self_s", "s", "lower", "run_suite"),
            ("run_suite.cpu_s", "s", "lower", "run_suite"),
            ("run_suite.report_json_s", "s", "lower", "run_suite"),
            ("run_suite.check_calls", "count", "lower", "run_suite")]
    out += [(f"verify.{fn}.{m}", "s", "lower", "verify") for fn in VERIFY_FNS for m in ("s", "self_s")]
    out += [(f"sequences.{fn}.{m}", u, "lower", "sequences")
            for fn in SEQUENCES_FNS for m, u in (("calls", "count"), ("self_s", "s"))]
    out += [("sequences.memo_hit_ratio", "ratio", "higher", "sequences"),
            ("sequences.memo_entries", "count", "lower", "sequences")]
    out += [(f"fps.{op}.{ring}.{m}", u, "lower", "fps") for op in FPS_OPS for ring in RINGS
            for m, u in (("calls", "count"), ("self_s", "s"), ("coeff_products", "count"))]
    out += [(f"poly.{op}.{m}", u, "lower", "fps") for op in ("mul", "add")
            for m, u in (("calls", "count"), ("self_s", "s"))]
    out += [(f"exactnum.{fn}.{m}", u, "lower", "exactnum")
            for fn in EXACTNUM_FNS for m, u in (("calls", "count"), ("self_s", "s"))]
    out += [("exactnum.fraction_new_calls", "count", "lower", "exactnum"),
            ("exactnum.fraction_self_share", "ratio", "lower", "exactnum"),
            ("trace.overhead_ratio", "ratio", "lower", "trace")]
    return out


PER_LAYER = _per_layer()

# (end-to-end metric, workload) pairs each layer's metrics should move
SHOULD_MOVE = {
    "cli": [("setup_s", w) for w in ALL] + [("latency_p50_s", "cli_lookup"),
                                             ("latency_p90_s", "cli_lookup")],
    "run_suite": [("wall_s", w) for w in SUITES],
    "verify": [("wall_s", w) for w in SUITES],
    "sequences": [("wall_s", "table_sweep"), ("peak_rss_mb", "table_sweep")]
                 + [("wall_s", w) for w in SUITES],
    # suite_deep most, suite_default less, cli_lookup not at all
    "fps": [("wall_s", "suite_deep"), ("wall_s", "suite_default")],
    "exactnum": [("wall_s", w) for w in SUITES + ["table_sweep"]],
    "trace": [],
}

def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w, "why": WHY[w]} for w in BENCHMARK_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def describe() -> str:
    lines = ["end-to-end metrics (printed for every workload):"]
    for name, unit, better, bound, applies in END_TO_END:
        lines.append(f"  {name} [{unit}, {better} is better, bound {bound}] {DEFINITIONS[name]}; "
                     f"means most on {', '.join(applies)}")
    lines.append("per-layer metrics (--trace 1), by layer, and what they should move:")
    for layer, moves in SHOULD_MOVE.items():
        names = [n for n, _, _, l in PER_LAYER if l == layer]
        target = ", ".join(f"{m} on {w}" for m, w in moves) or "nothing (tracing cost)"
        lines.append(f"  {layer} ({len(names)} metrics) -> {target}")
        lines.append(f"    {', '.join(names)}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(describe() if sys.argv[1:] == ["--describe"] else json.dumps(benchmark_json(), indent=2))
