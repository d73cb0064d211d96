"""Layered benchmark for truncbell.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see metrics.WHY): suite_default, suite_deep, cli_lookup, and
table_sweep, which BENCHMARK.json leaves out (see metrics.py). Every pass
runs in a fresh worker process, so every pass starts with cold memo
caches, as `truncbell suite` does. One parent process runs at most one
child at a time: a closed loop with one client, which keeps starting
passes until they have taken S seconds. Import-only probes for setup_s run
between passes, outside those S seconds.

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
one untraced pass, one traced pass (layer wrappers, spans written under
perfbench/out/) and one cProfile pass, and reports the per-layer metrics.

Outputs are checked on every pass: suite reports must parse, hold the
verdict count the grid implies, have no failing exact-mode counted verdict
and be byte-identical between passes with the same seed; tables and CLI
outputs must equal values the benchmark computes itself (oracle.py). A
non-deterministic report aborts the run (exit 2). Otherwise the last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"},
and the exit code is 1 if the correctness gate failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15  # import-only workers per untraced run, at least
PROBE_EVERY_S = 2.0
MIN_PASSES = 2  # two passes at least, so report determinism is always checked
CLI_BATCH = 10  # CLI calls per cli_lookup pass
LAYER_PROBES = 5
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s


class Nondeterministic(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method), q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Starts children one at a time and keeps the run inside its time limit."""

    def __init__(self):
        self.started = time.monotonic()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def spawn(self, cmd: list[str]) -> dict:
        """Run cmd to completion: exit code, stdout, stderr, wall time and
        peak resident set of that process (from wait4)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "out": out.decode(), "err": err[0].decode() if err else "",
                "wall_s": time.perf_counter() - start, "rss_mb": usage.ru_maxrss / 1024}

    def worker(self, task: dict) -> dict:
        """One worker process; its JSON result plus the process facts."""
        child = self.spawn([sys.executable, str(HERE / "worker.py"), repr(time.monotonic()),
                            json.dumps(task)])
        if child["rc"] != 0:
            raise RuntimeError(f"worker {task['kind']} exited {child['rc']}: {child['err'][-2000:]}")
        result = json.loads(child["out"].splitlines()[-1])
        result["rss_mb"] = child["rss_mb"]
        return result

    def cli(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-m", "truncbell", *argv])


# --------------------------------------------------------------------------
# correctness gate


def suite_problems(result: dict) -> list[str]:
    total, counted = workloads.expected_verdicts()
    problems = []
    if result["verdicts"] != total or result["counted"] != counted:
        problems.append(f"{result['verdicts']} verdicts ({result['counted']} counted), "
                        f"the grid implies {total} ({counted})")
    if result["exact_fail"]:
        problems.append(f"{result['exact_fail']} exact-mode counted verdicts fail")
    return problems


def check_same_report(results: list[dict]) -> None:
    digests = {r["report_sha256"] for r in results}
    if len(digests) > 1:
        raise Nondeterministic(f"suite reports differ between passes with one seed: {sorted(digests)}")


def sweep_failures(results: list[dict], seed: int) -> int:
    """Tables, over all sweep passes, that differ from the oracle's."""
    want = [oracle.digest(oracle.table(f, workloads.SWEEP_N_MAX, lam, p, r))
            for f, lam, p, r in workloads.table_sweep_inputs(seed)]
    return sum(sum(a != b for a, b in zip(r["digests"], want)) + abs(len(want) - len(r["digests"]))
               for r in results)


def cli_ok(op: dict, child: dict) -> bool:
    if child["rc"] != 0:
        return False
    try:
        return oracle.parse_output(child["out"], op) == oracle.expected(op)
    except (ValueError, KeyError, IndexError):
        return False


# --------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def _deadline_loop(seconds: float, step, probe) -> None:
    """Call step() until the measuring window closes, at least MIN_PASSES
    times. Between steps, call probe() once per PROBE_EVERY_S of the window,
    and at least SETUP_PROBES times in all, so that set-up samples spread
    over the run instead of sharing one moment's machine load."""
    measured = 0.0  # time in steps; probes do not use up the window
    n = probes = 0
    while n < MIN_PASSES or measured < seconds:
        start = time.perf_counter()
        step()
        measured += time.perf_counter() - start
        n += 1
        while probes < measured / PROBE_EVERY_S:
            probe()
            probes += 1
    while probes < SETUP_PROBES:
        probe()
        probes += 1


def measure(workload: str, seed: int, seconds: float, runner: Runner) -> dict:
    setups, walls, latencies, rss = [], [], [], []

    def probe():
        setups.append(runner.worker({"kind": "probe"})["setup_s"])

    attempted = failed = 0
    notes: list[str] = []
    pass_ratio = None

    if workload in workloads.SUITE_GRIDS:
        results = []

        def step():
            r = runner.worker({"kind": "suite", "workload": workload, "seed": seed, "mode": "plain"})
            results.append(r)

        _deadline_loop(seconds, step, probe)
        check_same_report(results)
        for r in results:
            problems = suite_problems(r)
            failed += bool(problems)
            notes += problems
        attempted = len(results)
        walls = latencies = [r["wall_s"] for r in results]
        setups += [r["setup_s"] for r in results]
        rss = [r["rss_mb"] for r in results]
        first = results[0]
        pass_ratio = 1 - first["counted_fail"] / first["counted"]
        notes.append(f"fail_ratio {first['counted_fail']}/{first['counted']} counted verdicts; "
                     f"failing: {', '.join(first['failing']) or 'none'}")

    elif workload == "table_sweep":
        keys = workloads.table_sweep_inputs(seed)
        results = []
        _deadline_loop(seconds, lambda: results.append(
            runner.worker({"kind": "sweep", "seed": seed, "mode": "plain"})), probe)
        failed = sweep_failures(results, seed)
        attempted = len(keys) * len(results)
        latencies = [t for r in results for t in r["latencies_s"]]
        walls = [r["wall_s"] for r in results]
        setups += [r["setup_s"] for r in results]
        rss = [r["rss_mb"] for r in results]
        if failed:
            notes.append(f"{failed} tables differ from the oracle")

    else:  # cli_lookup
        ops = workloads.cli_lookup_inputs(seed)
        position = 0

        def step():
            nonlocal position, attempted, failed
            batch = ops[position:position + CLI_BATCH]
            position = (position + CLI_BATCH) % len(ops)
            start = time.perf_counter()
            children = [runner.cli(workloads.cli_argv(op)) for op in batch]
            walls.append(time.perf_counter() - start)
            for op, child in zip(batch, children):  # checked outside the timed batch
                latencies.append(child["wall_s"])
                rss.append(child["rss_mb"])
                attempted += 1
                if not cli_ok(op, child):
                    failed += 1
                    notes.append(f"wrong output or exit {child['rc']}: {workloads.cli_argv(op)}")

        _deadline_loop(seconds, step, probe)

    if pass_ratio is None:
        pass_ratio = 1 - failed / attempted
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": max(rss),
        "pass_ratio": pass_ratio,
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls), "latency_p50_s": len(latencies),
               "latency_p90_s": len(latencies), "peak_rss_mb": len(rss), "pass_ratio": attempted}
    units = {n: u for n, u, *_ in metrics.END_TO_END}
    return {"attempted": attempted, "failed": failed, "notes": notes, "samples": samples,
            "raw": {"setup_s": setups, "wall_s": walls, "latency_s": latencies, "rss_mb": rss},
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}


# --------------------------------------------------------------------------
# traced runs: per-layer metrics


_TIMED_IMPORT = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def cli_probes(runner: Runner) -> dict:
    """Interpreter start, and in-process import times of numpy and truncbell."""
    interp = [runner.spawn([sys.executable, "-c", "pass"])["wall_s"] for _ in range(LAYER_PROBES)]
    timed = {}
    for module in ("numpy", "truncbell"):
        timed[module] = [float(runner.spawn([sys.executable, "-c", _TIMED_IMPORT.format(module)])["out"])
                         for _ in range(LAYER_PROBES)]
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_numpy_s": statistics.median(timed["numpy"]),
            "cli.import_truncbell_s": statistics.median(timed["truncbell"])}


def _merge_layers(results: list[dict]) -> tuple[dict, dict, dict | None]:
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    memo = None
    for r in results:
        for name, slot in r["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += slot[key]
        for name, value in r["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if r["memo"] is not None:
            memo = memo or {"hits": 0, "misses": 0, "entries": 0}
            for key in memo:
                memo[key] += r["memo"][key]
    return layers, counters, memo


def layer_values(layers: dict, counters: dict, memo: dict | None, extra: dict) -> dict:
    """Every per-layer metric; names a pass never reached read 0."""
    values = {}
    for name, unit, _, _ in metrics.PER_LAYER:
        if name in extra:
            values[name] = extra[name]
            continue
        span, _, field = name.rpartition(".")
        if field == "coeff_products":
            values[name] = counters.get(name, 0)
        elif span in layers and field in ("calls", "s", "self_s"):
            values[name] = layers[span][field]
        else:
            values[name] = 0 if unit == "count" else 0.0
    values["run_suite.report_json_s"] = layers.get("run_suite.report_json", {}).get("s", 0.0)
    values["run_suite.check_calls"] = sum(slot["calls"] for span, slot in layers.items()
                                          if span.startswith("verify.check_"))
    values["sequences.memo_entries"] = memo["entries"] if memo else 0
    lookups = memo["hits"] + memo["misses"] if memo else 0
    values["sequences.memo_hit_ratio"] = memo["hits"] / lookups if lookups else 0.0
    return values


def trace(workload: str, seed: int, runner: Runner) -> dict:
    OUT.mkdir(exist_ok=True)
    extra = cli_probes(runner)
    attempted = failed = 0
    notes: list[str] = []

    def task(mode, **more):
        spans = str(OUT / f"spans-{workload}-seed{seed}-{more.pop('tag', 'pass')}.jsonl.gz")
        return {"mode": mode, "spans": spans, "seed": seed, **more}

    if workload in workloads.SUITE_GRIDS:
        passes = [runner.worker(task(mode, kind="suite", workload=workload))
                  for mode in ("plain", "traced", "profiled")]
        check_same_report(passes)
        for r in passes:
            problems = suite_problems(r)
            failed += bool(problems)
            notes += problems
        attempted = len(passes)
        plain, traced, profiled = passes
        untraced_s, traced_s = plain["wall_s"], traced["wall_s"]
        extra["run_suite.cpu_s"] = traced["cpu_s"]
        traced_results = [traced]
    elif workload == "table_sweep":
        passes = [runner.worker(task(mode, kind="sweep")) for mode in ("plain", "traced", "profiled")]
        failed = sweep_failures(passes, seed)
        attempted = len(workloads.table_sweep_inputs(seed)) * len(passes)
        plain, traced, profiled = passes
        untraced_s, traced_s = plain["wall_s"], traced["wall_s"]
        traced_results = [traced]
    else:
        ops = workloads.cli_lookup_inputs(seed)[:CLI_BATCH]
        start = time.perf_counter()
        children = [runner.cli(workloads.cli_argv(op)) for op in ops]
        untraced_s = time.perf_counter() - start
        attempted += len(ops)
        failed += sum(not cli_ok(op, child) for op, child in zip(ops, children))
        traced_results, durations = [], {"table": [], "eval": []}
        start = time.perf_counter()
        for i, op in enumerate(ops):
            r = runner.worker(task("traced", kind="cli", argv=workloads.cli_argv(op), tag=f"op{i}"))
            traced_results.append(r)
            durations[op["cmd"]].append(r["layers"][f"cli.{op['cmd']}"]["s"])
        traced_s = time.perf_counter() - start
        profiled = {"fraction_new_calls": 0, "fraction_self_share": []}
        for op in ops:
            r = runner.worker(task("profiled", kind="cli", argv=workloads.cli_argv(op)))
            profiled["fraction_new_calls"] += r["fraction_new_calls"]
            profiled["fraction_self_share"].append(r["fraction_self_share"])
        profiled["fraction_self_share"] = statistics.median(profiled["fraction_self_share"])
        for op, r in zip(ops, traced_results):
            attempted += 1
            failed += not cli_ok(op, {"rc": r["rc"], "out": r["output"]})
        for cmd, ds in durations.items():
            extra[f"cli.{cmd}_s"] = statistics.median(ds) if ds else 0.0
    extra["exactnum.fraction_new_calls"] = profiled["fraction_new_calls"]
    extra["exactnum.fraction_self_share"] = profiled["fraction_self_share"]
    extra["trace.overhead_ratio"] = traced_s / untraced_s
    if failed:
        notes.append(f"{failed} operations gave wrong output")
    values = layer_values(*_merge_layers(traced_results), extra)
    units = {n: u for n, u, *_ in metrics.PER_LAYER}
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "samples": {"traced_passes": len(traced_results), "layer_probes": LAYER_PROBES},
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}


# --------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, runner: Runner) -> dict:
    probe = runner.spawn([sys.executable, "-c", "import numpy, truncbell; "
                          "print(numpy.__version__, truncbell.__version__)"])
    numpy_version, truncbell_version = (probe["out"].split() + [None, None])[:2]
    return {"python": platform.python_version(), "numpy": numpy_version,
            "truncbell": truncbell_version, "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "truncbell" / "__init__.py").is_file():
        print(f"error: no truncbell sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner()
    try:
        if args.trace:
            result = trace(args.workload, args.seed, runner)
        else:
            result = measure(args.workload, args.seed, args.seconds, runner)
    except Nondeterministic as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["provenance"] = provenance(args, runner)
    correct = result["failed"] == 0
    for note in result["notes"]:
        print(f"note: {note}")
    print(f"{'metric':<40} {'value':>14} {'unit':<6} samples")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']:<6} {result['samples'].get(name, '')}")
    if not args.trace:
        print(f"{'fail_ratio':<40} {1 - result['metrics']['pass_ratio']['value']:>14.6g} ratio")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"correct": correct, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
