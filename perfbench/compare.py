"""Compare two sets of benchmark results (``run.py --compare A B``).

A is the parent and B the change.  Each set is a directory of result files
written by ``run.py``.  Per workload and end-to-end metric the report gives
each side's median and quartiles, the share of alternating pairs the
change won (runs paired in the order they started; ties count for
neither), and a verdict against the bound in BENCHMARK.json:

- improved: at least ten pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's quartile spread;
- unresolved: the parent's quartile spread is wider than the bound and
  not every run of the change reads better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the bound;
- unchanged: otherwise.

For traced results it gives the change in median self time per layer.
Sets that mix arrcoh backends or Python versions are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(folder: str) -> list[dict]:
    results = []
    for path in sorted(Path(folder).rglob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "workload" in data and "provenance" in data:
            results.append(data)
    return sorted(results, key=lambda r: r["started"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and the share of pairs won by the change."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    gain = sign * (med_a - med_b)  # positive when the change is better
    if len(pairs) >= 10 and share >= 0.9 and gain > q3 - q1:
        return "improved", share
    every_better = all(sign * (b - a) < 0 for a in parent for b in change)
    if med_a and (q3 - q1) / abs(med_a) > bound and not every_better:
        return "unresolved", share
    if med_a and -gain / abs(med_a) > bound:
        return "worse", share
    return "unchanged", share


def _mixed(results: list[dict]) -> set:
    return {(r["provenance"]["python"], r["provenance"]["backend"]) for r in results}


def main(parent_dir: str, change_dir: str) -> int:
    parent, change = load(parent_dir), load(change_dir)
    if not parent or not change:
        print("error: no result files in one of the sets", file=sys.stderr)
        return 2
    kinds = _mixed(parent) | _mixed(change)
    if len(kinds) > 1:
        print(f"error: refusing to compare across Python versions or backends: {sorted(kinds)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for wl in workloads:
        a_runs = [r for r in parent if r["workload"] == wl and not r["trace"]]
        b_runs = [r for r in change if r["workload"] == wl and not r["trace"]]
        if a_runs and b_runs:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a = [r["end_to_end"][name] for r in a_runs]
                b = [r["end_to_end"][name] for r in b_runs]
                v, share = verdict(a, b, metric["better"], metric["bound"])
                qa, qb = quartiles(a), quartiles(b)
                print(
                    f"{wl:16s} {name:16s} {qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                    f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {share:5.0%}  {v}"
                )
        a_traced = [r for r in parent if r["workload"] == wl and r["trace"]]
        b_traced = [r for r in change if r["workload"] == wl and r["trace"]]
        if a_traced and b_traced:
            print(f"{wl}: traced self time per layer (median s, parent -> change)")
            layers = sorted({k for r in a_traced + b_traced for k in r["per_layer"] if k.endswith(".s")})
            for layer in layers:
                a = statistics.median(r["per_layer"].get(layer, 0.0) for r in a_traced)
                b = statistics.median(r["per_layer"].get(layer, 0.0) for r in b_traced)
                if a or b:
                    print(f"  {layer:44s} {a:10.4f} -> {b:10.4f}  ({b - a:+.4f})")
    return 0
