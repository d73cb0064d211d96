"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("generate", [workloads.table_sweep_inputs, workloads.cli_lookup_inputs])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_sweep_keys_are_distinct():
    keys = workloads.table_sweep_inputs(3)
    assert len(keys) == len(set(keys))


def test_default_grid_verdict_count():
    assert workloads.expected_verdicts() == (318, 278)


def test_self_time_on_nested_spans():
    names, starts, ends, parents = zip(
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("C", 2.0, 3.0, 1),
        ("D", 3.5, 6.0, 0),   # overlaps B by 0.5
        ("E", 9.0, 12.0, 0),  # sticks out of A by 2
        ("C", 11.0, 11.5, 4),
    )
    # A's children cover [1, 6] and [9, 10]
    assert list(tracer.self_times(starts, ends, parents)) == pytest.approx([4.0, 2.0, 1.0, 2.5, 2.5, 0.5])
    summary = tracer.summarize(names, starts, ends, parents)
    assert summary["C"] == pytest.approx({"calls": 2, "s": 1.5, "self_s": 1.5})
    assert summary["A"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 4.0})


def test_tracer_records_the_call_tree():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(lambda x: x + 1, "inner")
    outer = t.wrap(lambda x: inner(inner(x)), "outer")
    assert outer(1) == 3
    assert [t.names[n] for n in t.name] == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    assert t.summary()["outer"]["self_s"] == pytest.approx(5 - 2)


@pytest.mark.parametrize("lam", ["0", "1/2", "-1/3", "7/5"])
def test_oracle_triangles_match_the_library(lam):
    from truncbell import stirling1_deg, stirling2_deg
    lam = Fraction(lam)
    s2, s1 = oracle.s2deg_rows(lam, 9), oracle.s1deg_rows(lam, 9)
    for n in range(10):
        assert s2[n] == tuple(stirling2_deg(n, k, lam) for k in range(n + 1))
        assert s1[n] == tuple(stirling1_deg(n, k, lam) for k in range(n + 1))


def test_oracle_agrees_with_cli_output():
    from truncbell import cli
    for op in workloads.cli_lookup_inputs(11, count=30):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(workloads.cli_argv(op)) == 0
        assert oracle.parse_output(buf.getvalue(), op) == oracle.expected(op), op


def test_worker_traces_calls_through_every_binding(tmp_path):
    # trunc_mod_bell_deg calls binomial through the sequences module's own
    # binding; the span shows that binding was wrapped too
    task = {"kind": "cli", "mode": "traced", "spans": str(tmp_path / "spans.jsonl.gz"),
            "argv": ["eval", "--family=TruncModBellDeg", "--lambda=1/2", "--p=2", "--n=6"]}
    env = {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), repr(time.monotonic()),
                           json.dumps(task)], capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert layers["exactnum.binomial"]["calls"] > 0
    assert layers["sequences.trunc_mod_bell_deg"]["calls"] == 7
    assert layers["cli.eval"]["calls"] == 1
    assert result["memo"]["entries"] > 0
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_benchmark_json_is_generated_from_metrics():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names)) and len(on_disk["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])
