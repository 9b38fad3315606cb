"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracles
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_every_workload():
    # gate passes, traced == untraced outputs, spans nest, counters repeat
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("0 failed") == len(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_run_prints():
    import workloads
    import worker

    spec = run.spec()
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    one_pass = worker.PassResult(wall=1.0, cpu=1.0, items=[("a", 0.4, 0.4, 1.0, 0.0), ("b", 0.6, 0.6, 1.0, 0.4)])
    printed = set(worker.e2e_metrics(workloads.Workload(), [one_pass])) | {"setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == printed
    spans = {t.span.replace("{ring}", r) for t in tracing.TARGETS for r in ("fp", "qq", "zz")}
    spans |= {"cochain.dd_check"}
    for m in spec["per_layer"]:
        if m["unit"] == "s" and m["name"].endswith(".s") and not m["name"].startswith("trace."):
            assert m["name"][:-2] in spans, m["name"]


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] == "unresolved"
    # for a throughput, higher is better
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"


def test_install_wraps_every_reference_and_restores_it():
    import arrcoh.salvetti
    import arrcoh.toric
    from arrcoh import cochain

    before = (arrcoh.salvetti.make_complex, arrcoh.toric.complex_cohomology)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert arrcoh.salvetti.make_complex is not before[0]
        assert arrcoh.toric.complex_cohomology is not before[1]
        assert arrcoh.salvetti.make_complex is cochain.make_complex
    finally:
        uninstall()
    assert (arrcoh.salvetti.make_complex, arrcoh.toric.complex_cohomology) == before


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    outer, inner = t.name_id("outer"), t.name_id("inner")
    a = t.open(outer)
    b = t.open(inner)
    t.close(b)
    t.close(a)
    trace = t.take()
    trace.start[0], trace.end[0], trace.start[1], trace.end[1] = 0.0, 3.0, 1.0, 2.5
    self_s, calls = trace.self_times()
    assert self_s == {"outer": 1.5, "inner": 1.5}
    assert trace.nesting_violations() == 0
    trace.end[1] = 4.0
    assert trace.nesting_violations() == 1


def test_host_speed_scale_uses_samples_around_the_item():
    import hostspeed

    host = hostspeed.HostSpeed()
    host.times = [1.0, 2.0, 3.0, 4.0, 5.0]
    host.seconds = [0.001, 0.004, 0.002, 0.004, 0.001]
    speed = [hostspeed.NOMINAL_S / r for r in host.seconds]
    # an item from 2.5 to 3.5 sees the samples at 2 (before), 3 (inside) and 4 (after)
    assert host.scale(2.5, 3.5) == pytest.approx((speed[1] + speed[2] + speed[3]) / 3)
    assert host.scale(3.2, 3.4) == pytest.approx((speed[2] + speed[3]) / 2)


def test_oracles():
    braid = [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, -1]]
    pi = oracles.poincare(braid)
    assert pi == [1, 6, 11, 6] and oracles.abs_beta(pi) == 2
    assert oracles.component_count([[2, 0], [0, 3]]) == 36
    assert oracles.component_count([[2, 4]]) == 4
    assert oracles.is_unimodular([[1, 0], [0, 1], [1, 1]])
    assert not oracles.is_unimodular([[1, 1], [1, -1]])
