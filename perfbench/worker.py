"""One cold pass of a workload in a fresh interpreter.

Usage: python3 worker.py T0 TASK_JSON

T0 is the parent's time.monotonic() just before it started this process
(the clock is shared by all processes), so T0 to the end of
`import truncbell` is the set-up time a user pays. TASK_JSON selects the
pass:

    {"kind": "probe"}                                 import only
    {"kind": "suite", "workload": W, "seed": S, "mode": M, "spans": PATH}
    {"kind": "sweep", "seed": S, "mode": M, "spans": PATH}
    {"kind": "cli", "argv": [...], "mode": M, "spans": PATH}

with mode "plain", "traced" (layer wrappers installed, spans written to
PATH) or "profiled" (one cProfile pass). The result is one JSON line on
stdout.
"""

import sys
import time

_T0 = float(sys.argv[1])
import truncbell  # noqa: E402  (timed: this is the set-up being measured)

SETUP_S = time.monotonic() - _T0

import cProfile  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from truncbell import cli, verify  # noqa: E402


def _plain(value):
    """Library values as the oracle's plain data: Poly -> coefficient tuple."""
    if isinstance(value, truncbell.Poly):
        return tuple(value.coeffs)
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return Fraction(value)


def _cpu_s() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_suite(task: dict, out: dict, call, tracer) -> None:
    grid = verify.default_grid(**workloads.SUITE_GRIDS[task["workload"]])
    cfg = verify.NumericConfig(seed=task["seed"])
    cpu = _cpu_s()
    start = time.perf_counter()
    report = call(verify.run_suite, grid, cfg)
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_s() - cpu
    text = verify.report_to_json_text(report)
    out["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    verdicts = json.loads(text)["verdicts"]
    counted = [v for v in verdicts if v["id"] not in workloads.ADJUDICATION_IDS]
    failing = [v for v in counted if v["status"] != "pass"]
    out["verdicts"] = len(verdicts)
    out["counted"] = len(counted)
    out["counted_fail"] = len(failing)
    out["exact_fail"] = sum(v["mode"] == "exact" for v in failing)
    out["failing"] = sorted({f"{v['id']}@lambda={v['params']['lambda']}" for v in failing})


def run_sweep(task: dict, out: dict, call, tracer) -> None:
    keys = workloads.table_sweep_inputs(task["seed"])
    tables, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for family, lam, p, r in keys:
        t = clock()
        tables.append(call(truncbell.build_table, family, workloads.SWEEP_N_MAX,
                           lam=None if lam is None else Fraction(lam), p=p, r=r))
        latencies.append(clock() - t)
    out["wall_s"] = clock() - start
    out["latencies_s"] = latencies
    out["digests"] = [oracle.digest(_plain(t.values)) for t in tables]


def run_cli(task: dict, out: dict, call, tracer) -> None:
    buf = io.StringIO()
    start = time.perf_counter()
    span = tracer.begin(f"cli.{task['argv'][0]}") if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            out["rc"] = call(cli.main, task["argv"])
    finally:
        if tracer:
            tracer.finish(span)
    out["wall_s"] = time.perf_counter() - start
    out["output"] = buf.getvalue()


def _profile_fractions(profile: cProfile.Profile) -> dict:
    stats = pstats.Stats(profile).stats
    total = sum(tt for (_, _, tt, _, _) in stats.values()) or 1.0
    frac_tt = sum(tt for (fname, _, _), (_, _, tt, _, _) in stats.items()
                  if os.path.basename(fname) == "fractions.py")
    new_calls = sum(nc for (fname, _, func), (_, nc, _, _, _) in stats.items()
                    if os.path.basename(fname) == "fractions.py" and func == "__new__")
    return {"fraction_new_calls": new_calls, "fraction_self_share": frac_tt / total}


def main() -> None:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(truncbell.__file__).startswith(src + os.sep):
        sys.exit(f"truncbell was imported from {truncbell.__file__}, not from {src}")
    task = json.loads(sys.argv[2])
    out = {"setup_s": SETUP_S}
    kind = task["kind"]
    if kind != "probe":
        mode = task["mode"]
        tracer = tracing.Tracer() if mode == "traced" else None
        if tracer:
            tracing.install(tracer)
        # only the library calls run under the profiler, not the result checks
        profile = cProfile.Profile() if mode == "profiled" else None
        call = profile.runcall if profile else (lambda fn, *a, **kw: fn(*a, **kw))
        body = {"suite": run_suite, "sweep": run_sweep, "cli": run_cli}[kind]
        body(task, out, call, tracer)
        if profile:
            out.update(_profile_fractions(profile))
        if tracer:
            out["layers"] = tracer.summary()
            out["counters"] = dict(tracer.counters)
            out["memo"] = tracing.memo_stats()
            tracer.write(task["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
