"""End-to-end and per-layer benchmark of arrcoh.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload toric-corpus --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full result, with provenance, goes to ``perfbench/_out/results/``.  The
exit code is 1 when any output failed its check.

Compare two result sets (for example, the ``results`` directories of a
parent checkout and of a change):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Smoke-test the benchmark itself at reduced size:

    python3 perfbench/run.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
WORKER = BENCH / "worker.py"
HASHSEED = "0"  # fixed for every workload process, and recorded
WORKER_TIMEOUT_S = 170


def spec() -> dict:
    """BENCHMARK.json: the workloads, the metrics with their units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[kind]}


WORKLOADS = tuple(w["name"] for w in spec()["workloads"])


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ARRCOH_FORMAT", None)  # the CLI workload compares default (JSON) output
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASHSEED
    return env


def start_worker(args: list[str]) -> tuple[float, dict]:
    """Run worker.py to completion; return its spawn time and its report."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--out", str(OUT), *args],
        env=worker_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(lines[-1])


def git_revision() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if rev.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def provenance(seed: int, report: dict) -> dict:
    rev, dirty = git_revision()
    return {
        "git_revision": rev,
        "git_dirty": dirty,
        "python": report["python"],
        "backend": report["backend"],
        "arrcoh_pure": os.environ.get("ARRCOH_PURE"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "pythonhashseed": HASHSEED,
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    spawned, report = start_worker([*common, "--seconds", str(seconds), "--trace", str(trace)])
    # the worker's own set-up, then (untraced) that of the fresh processes it timed between its passes
    setup = [report["setup_s"], *report.get("setup_samples_s", [])]
    result = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "started": spawned,
        "provenance": provenance(seed, report),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_ratio": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "setup_samples_s": setup,
    }
    if trace:
        result["per_layer"] = report["layers"]
        result["tracing"] = report["trace"]
        result["spans_file"] = os.path.relpath(report["spans_file"], ROOT)
    else:
        result["end_to_end"] = report["e2e"]
        result["passes"] = report["passes"]
        result["setup_scales"] = report["setup_scales"]
        result["host_speed_s"] = report["host_speed_s"]
    return result


def save(result: dict) -> Path:
    folder = OUT / "results"
    folder.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(result["started"]))
    path = folder / f"{result['workload']}-trace{result['trace']}-seed{result['provenance']['seed']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def contract_line(result: dict) -> dict:
    if result["trace"]:
        wanted, values = units("per_layer"), result["per_layer"]
    else:
        wanted, values = units("end_to_end"), result["end_to_end"]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in wanted.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    path = save(result)
    line = contract_line(result)
    for name, m in line["metrics"].items():
        print(f"{args.workload:16s} {name:48s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        t = result["tracing"]
        traced = statistics.median(t["traced_wall_s"])
        print(f"tracing overhead: {traced - t['untraced_wall_s']:.3f} s (scaled: untraced pass "
              f"{t['untraced_wall_s']:.3f} s, traced pass {traced:.3f} s, {t['traced_passes']} traced)")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"result: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def smoke() -> int:
    """Every workload at reduced size, traced: the gate passes, traced and
    untraced outputs agree, spans nest, and counters repeat across runs."""
    problems = []
    for workload in WORKLOADS:
        counts = []
        for _ in range(2):
            _, report = start_worker(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"])
            problems.extend(f"{workload}: {f}" for f in report["failures"])
            layers = report["layers"]
            counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counters differ between two runs")
        print(f"smoke {workload}: {report['attempted']} items, {report['failed']} failed, "
              f"{sum(report['trace']['spans'])} spans")
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of arrcoh.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (ROOT / "src" / "arrcoh" / "__init__.py").is_file():
        print(f"error: no arrcoh sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
