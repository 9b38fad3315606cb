"""One measuring process of the benchmark; ``run.py`` starts it.

The process imports arrcoh, builds the seeded inputs of one workload and
reports how long that took from the start of this script (that is the
set-up sample; the bare interpreter start before it is left out).  Unless
asked for set-up only, it then runs timed passes in a closed loop, one item
at a time, and checks every output.

Untraced (``--trace 0``): passes repeat while the next one is expected to
end within ``--seconds``; there is always at least one.  Between items, and
inside long ones, the process times a reference (``hostspeed``), and each
item's time is scaled by the host speed measured around it.  Each item
sits at the same position in every pass, and the end-to-end times are
built from each position's median scaled time over the passes.  After
each pass the process times one fresh set-up process, which scales its
own set-up time, so the set-up samples are spread over the whole run.

Traced (``--trace 1``): one untraced pass first, then passes with the
tracing wrappers installed.  The traced outputs must equal the untraced
ones, every parent span must cover its children, and the exact counters
must repeat from one traced pass to the next.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

from time import perf_counter

SCRIPT_STARTED = perf_counter()  # before any other import, of the benchmark or of arrcoh

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import process_time

import hostspeed
import tracing
import workloads

MAX_FAILURES_REPORTED = 20
MAX_TRACED_PASSES = 5  # in-process CLI passes take milliseconds; spans of more add nothing
SETUP_SAMPLES = 10  # fresh set-up processes timed by an untraced run, besides its own start
SETUP_HOST_SAMPLES = 10  # reference samples a set-up process takes after its set-up


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    items: list = field(default_factory=list)  # (label, seconds, cpu seconds, host-speed scale, start)
    observations: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    children_rss_kb: int = 0  # peak resident set of any child process so far


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_pass(
    wl, in_process: bool, tracer: tracing.Tracer | None = None, host: hostspeed.HostSpeed | None = None
) -> PassResult:
    """Run every item once; time each call alone and check its output.
    With ``host``, sample the host speed between items and record each
    item's scale; without, the scale is 1."""
    out = PassResult()
    root = tracer.name_id(tracing.ITEM) if tracer else -1
    spans = []
    for k, item in enumerate(wl.items(in_process)):
        error = None
        if host:
            host.maybe_sample()
            spent, spent_cpu = host.spent, host.spent_cpu
            host.arm()
        if tracer:
            tracer.item_id = k
            span = tracer.open(root)
        c0, ch0 = process_time(), _children_cpu()
        t0 = perf_counter()
        try:
            result = item.call()
        except Exception:  # an item that raises counts as failed; the pass goes on
            error = traceback.format_exc(limit=-3)
        if host:
            host.disarm()
        t1 = perf_counter()
        wall, cpu = t1 - t0, process_time() - c0 + _children_cpu() - ch0
        if host:  # the samples taken inside the item are not the item's time
            wall -= host.spent - spent
            cpu -= host.spent_cpu - spent_cpu
        if tracer:
            tracer.close(span)
        out.wall += wall
        out.cpu += cpu
        out.items.append((item.label, wall, cpu))
        spans.append((t0, t1))
        if error is not None:
            out.observations.append(None)
            out.failures.append(f"{item.label}: raised {error}")
            continue
        obs = item.observe(result)
        del result
        out.observations.append(obs)
        msg = item.check(obs)
        if msg:
            out.failures.append(f"{item.label}: {msg}")
    if host:
        host.sample()
    scales = [host.scale(t0, t1) if host else 1.0 for t0, t1 in spans]
    out.items = [(*item, scale, t0) for item, scale, (t0, _) in zip(out.items, scales, spans)]
    out.failures.extend(wl.check_pass(out.observations))
    out.children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return out


def timed_passes(
    wl, seconds: float, in_process: bool = False, tracer=None, min_passes: int = 1, max_passes=None,
    between=None, host=None,
):
    """Passes until the next is expected to overrun ``seconds``; ``between``
    runs after each pass, and its time counts towards ``seconds``."""
    passes, traces = [], []
    start = perf_counter()
    while True:
        p = run_pass(wl, in_process, tracer, host)
        passes.append(p)
        if tracer:
            traces.append(tracer.take())
        if between:
            between()
        if len(passes) == max_passes:
            return passes, traces
        if len(passes) >= min_passes and perf_counter() - start + p.wall > seconds:
            return passes, traces


def _median_ms(runs) -> float:
    return statistics.median(runs) * 1000


def _wall_of(argv) -> float:
    t0 = perf_counter()
    subprocess.run(argv, check=True, capture_output=True)
    return perf_counter() - t0


def setup_sample(workload: str, seed: int, out: str) -> tuple[float, float]:
    """Set-up time of a fresh process that only sets the workload up, and
    its host-speed scale, from reference samples the fresh process takes
    right after its set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([*argv, "--setup-only", "--out", out], capture_output=True, text=True, check=True)
    info = json.loads(proc.stdout.splitlines()[-1])
    return info["setup_s"], hostspeed.mean_speed(info["host_speed_s"])


def e2e_metrics(wl, passes: list[PassResult]) -> dict:
    """End-to-end metrics of a typical pass: item k's time is its median
    scaled time over the passes, and a pass is the sum over its items."""
    labels = [item[0] for item in min((p.items for p in passes), key=len)]  # a failed item can cut a pass short
    wall = [statistics.median(p.items[k][1] * p.items[k][3] for p in passes) for k in range(len(labels))]
    cpu = [statistics.median(p.items[k][2] * p.items[k][3] for p in passes) for k in range(len(labels))]
    largest = [s for label, s in zip(labels, wall) if label == wl.largest] or [max(wall)]
    # children timed for set-up samples start after the first pass, so pass 0 holds the workload's own peak
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, passes[0].children_rss_kb)
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "items_per_s": len(wall) / sum(wall),
        "item_p50_ms": statistics.median(wall) * 1000,
        "item_p90_ms": statistics.quantiles(wall, n=10)[8] * 1000 if len(wall) > 1 else wall[0] * 1000,
        "largest_item_s": statistics.median(largest),
        "peak_rss_mb": rss_kb / 1024,
    }


def scaled_wall(p: PassResult) -> float:
    return sum(item[1] * item[3] for item in p.items)


def traced_run(wl, seconds: float, min_traced: int):
    """A warm-up pass, an untraced pass, then traced passes.

    Returns the per-layer metrics, a summary of the passes, the failures,
    the number of items attempted and the traces of the traced passes.
    """
    # the overhead compares scaled pass times; samples only between items, where no span is open
    host = hostspeed.HostSpeed(inside=False)
    warm = run_pass(wl, in_process=False)  # a process's first pass runs slower than the ones after it
    base = run_pass(wl, in_process=False, host=None if wl.spawns else host)
    failures = warm.failures + base.failures
    if warm.observations != base.observations:
        failures.append("outputs differ between two untraced passes")
    ref = run_pass(wl, in_process=True, host=host) if wl.spawns else base
    if ref is not base:
        failures.extend(ref.failures)
        if ref.observations != base.observations:
            failures.append("in-process outputs differ from the cold-process outputs")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        budget = seconds - warm.wall - base.wall - (ref.wall if ref is not base else 0.0)
        traced, traces = timed_passes(
            wl, budget, in_process=True, tracer=tracer, min_passes=min_traced, max_passes=MAX_TRACED_PASSES, host=host
        )
    finally:
        uninstall()
    layers_per_pass = [tracing.layer_metrics(t) for t in traces]
    counts = layers_per_pass[0][1]
    for k, (p, t, (_, c)) in enumerate(zip(traced, traces, layers_per_pass)):
        failures.extend(p.failures)
        if p.observations != ref.observations:
            bad = sum(1 for a, b in zip(p.observations, ref.observations) if a != b)
            failures.append(f"traced pass {k}: {bad} outputs differ from the untraced pass")
        if t.nesting_violations():
            failures.append(f"traced pass {k}: {t.nesting_violations()} spans outside their parent")
        if c != counts:
            diff = sorted(key for key in set(c) | set(counts) if c.get(key) != counts.get(key))
            failures.append(f"traced pass {k}: exact counters differ from pass 0: {diff[:5]}")
    times = {}
    for key in {key for times_k, _ in layers_per_pass for key in times_k}:
        times[key] = statistics.median(tk.get(key, 0.0) for tk, _ in layers_per_pass)
    layers = dict(times)
    layers.update(counts)
    layers.update(tracing.derived_ratios(counts))
    layers["trace.overhead_s"] = statistics.median(map(scaled_wall, traced)) - scaled_wall(ref)
    if wl.spawns:
        interp = [_wall_of([sys.executable, "-c", "pass"]) for _ in range(5)]
        imports = [_wall_of([sys.executable, "-c", "import arrcoh.cli"]) for _ in range(5)]
        layers["cli.interp_start_ms"] = _median_ms(interp)
        layers["cli.import_ms"] = _median_ms(imports) - _median_ms(interp)
        layers["cli.verb_ms"] = _median_ms([item[1] for item in ref.items])
    summary = {
        "untraced_wall_s": scaled_wall(ref),
        "traced_wall_s": [scaled_wall(p) for p in traced],
        "traced_passes": len(traced),
        "spans": [len(t) for t in traces],
    }
    untraced = [warm, base] + ([ref] if ref is not base else [])
    attempted = sum(len(p.items) for p in untraced + traced)
    return layers, summary, failures, attempted, traces


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, two traced passes")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = ap.parse_args(argv)

    workdir = os.path.join(args.out, "work", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, args.smoke, workdir)
        info = {
            "setup_s": perf_counter() - SCRIPT_STARTED,
            "python": platform.python_version(),
            "backend": getattr(sys.modules.get("arrcoh.fp"), "BACKEND", None),
        }
        if args.setup_only:
            host = hostspeed.HostSpeed()
            for _ in range(SETUP_HOST_SAMPLES):
                host.sample()
            info["host_speed_s"] = host.seconds
            print(json.dumps(info))
            return 0
        wl.prepare()
        if args.trace:
            layers, summary, failures, attempted, traces = traced_run(wl, args.seconds, 2 if args.smoke else 1)
            os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
            spans_path = os.path.join(args.out, "spans", f"{args.workload}-seed{args.seed}.jsonl.gz")
            tracing.write_spans(spans_path, traces)
            info.update(layers=layers, trace=summary, spans_file=spans_path)
        else:
            host = hostspeed.HostSpeed(starts=wl.spawns)
            setup = []

            def sample():
                if len(setup) < SETUP_SAMPLES:
                    setup.append(setup_sample(args.workload, args.seed, args.out))

            passes, _ = timed_passes(wl, args.seconds, between=sample, host=host)
            while len(setup) < SETUP_SAMPLES:
                sample()
            failures = [f for p in passes for f in p.failures]
            attempted = sum(len(p.items) for p in passes)
            e2e = e2e_metrics(wl, passes)
            e2e["setup_s"] = statistics.median(s * scale for s, scale in setup)
            info.update(
                e2e=e2e,
                passes=[{"wall_s": p.wall, "cpu_s": p.cpu, "items": p.items} for p in passes],
                setup_samples_s=[s for s, _ in setup],
                setup_scales=[scale for _, scale in setup],
                host_speed_s=list(zip(host.times, host.seconds)),
            )
        info.update(
            attempted=attempted,
            failed=min(len(failures), attempted),
            failures=failures[:MAX_FAILURES_REPORTED],
        )
        print(json.dumps(info))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
