"""Spans around calls into arrcoh, installed from outside the package.

``install`` replaces each public function named in ``TARGETS`` with a
wrapper, in every arrcoh module that holds a reference to it (so that
``arrcoh.salvetti.make_complex`` and ``arrcoh.toric.complex_cohomology``
are caught as well as the definitions), and returns a function that puts
the originals back.  Nothing under ``src/`` is edited.

A wrapper opens a span (name, start, end, parent, item id) before the call
and closes it after, then updates exact work counters computed from the
call's arguments and result.  Spans are kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its children; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ITEM = "item"


class Tracer:
    """Records the spans and counters of one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.item_id = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def parent_is(self, nid: int) -> bool:
        return bool(self.stack) and self.name[self.stack[-1]] == nid

    def inside(self, nid: int) -> bool:
        return any(self.name[s] == nid for s in self.stack)

    def add_distinct(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def take(self) -> "PassTrace":
        """Hand over what this pass recorded and start an empty one."""
        if self.stack:
            raise RuntimeError("take() called with open spans")
        counts = Counter(self.counts)
        for key, values in self.distinct.items():
            counts[key] = len(values)
        out = PassTrace(list(self.names), self.start, self.end, self.name, self.parent, self.item, counts)
        self._reset()
        return out


@dataclass(frozen=True)
class PassTrace:
    names: list[str]
    start: array
    end: array
    name: array
    parent: array
    item: array
    counts: Counter

    def __len__(self) -> int:
        return len(self.start)

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent."""
        bad = 0
        for i, p in enumerate(self.parent):
            if p >= 0 and not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                bad += 1
        return bad

    def self_times(self) -> tuple[dict[str, float], Counter]:
        child = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for i, nid in enumerate(self.name):
            nm = self.names[nid]
            self_s[nm] = self_s.get(nm, 0.0) + (self.end[i] - self.start[i]) - child[i]
            calls[nm] += 1
        return self_s, calls

    def rows(self, pass_index: int):
        for i in range(len(self)):
            yield [pass_index, self.item[i], i, self.parent[i], self.names[self.name[i]], self.start[i], self.end[i]]


def write_spans(path: str, traces: list[PassTrace]) -> None:
    """One JSON list per line: pass, item, span id, parent id, name, start, end."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "item", "id", "parent", "name", "start", "end"]) + "\n")
        for k, trace in enumerate(traces):
            for row in trace.rows(k):
                fh.write(json.dumps(row) + "\n")


# --- what to wrap and what to count -------------------------------------------


def _ring_tag(ring) -> str:
    kind = getattr(ring, "kind", None)
    if kind is None:
        return "zz"
    return "fp" if kind == "prime" else "qq"


def _count_from_rows(t: Tracer, args, kwargs, result) -> None:
    t.counts["linalg.from_rows.entries"] += result.nrows * result.ncols


def _count_mul(t: Tracer, args, kwargs, result) -> None:
    left, right = args[0], args[1]
    t.counts["linalg.matrix_mul.madds"] += left.nrows * left.ncols * right.ncols


def _count_complex(t: Tracer, args, kwargs, result) -> None:
    t.counts["cochain.complexes"] += 1
    for mat in result.differentials.values():
        t.counts["cochain.diff_cells"] += mat.nrows * mat.ncols
        t.counts["cochain.diff_nnz"] += sum(1 for row in mat.entries for x in row if x != 0)


def _count_fp_kernel(t: Tracer, args, kwargs, result) -> None:
    if t.inside(t.name_id("cochain.complex_cohomology")):
        t.counts["linalg.fp_kernel.discarded"] += 1


def _count_classes(t: Tracer, args, kwargs, result) -> None:
    t.counts["simplicial.classes"] += len(result)


def _count_reduced(t: Tracer, args, kwargs, result) -> None:
    ring = args[1] if len(args) > 1 else kwargs.get("ring", "ZZ")
    t.add_distinct("simplicial.reduced_cohomology.distinct", (args[0], repr(ring)))


def _count_faces(t: Tracer, args, kwargs, result) -> None:
    m = args[0].m
    zero_sets = {tuple(i for i, s in enumerate(f) if s == 0) for f in result.faces}
    t.counts["salvetti.faces"] += len(result.faces)
    # every flat carries at least one face, so the zero sets are the flats
    t.counts["salvetti.sign_vectors_tried"] += sum(2 ** (m - len(z)) for z in zero_sets)


def _count_cells(t: Tracer, args, kwargs, result) -> None:
    t.counts["salvetti.cells"] += sum(result.cell_counts())


def _count_vanishing(t: Tracer, args, kwargs, result) -> None:
    if t.inside(t.name_id("elliptic.certificate")):
        t.counts["elliptic.tangent_checks"] += 1


def _count_components(t: Tracer, args, kwargs, result) -> None:
    if t.inside(t.name_id("elliptic.enumerate_strata")):
        t.counts["elliptic.components_generated"] += len(result)


def _count_strata(t: Tracer, args, kwargs, result) -> None:
    t.counts["elliptic.strata"] += len(result)


def _count_from_leq(t: Tracer, args, kwargs, result) -> None:
    t.counts["poset.from_leq.pairs"] += len(args[0]) ** 2


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "function" or "Class.method"
    span: str  # span name; "{ring}" is replaced by the ring tag of the first argument
    count: Callable | None = None


TARGETS = (
    Target("arrcoh.linalg", "Matrix.from_rows", "linalg.from_rows", _count_from_rows),
    Target("arrcoh.linalg", "Matrix.mul", "linalg.matrix_mul", _count_mul),
    Target("arrcoh.linalg", "rank_kernel", "linalg.rank_kernel.{ring}"),
    Target("arrcoh.linalg", "smith_normal_form", "linalg.smith"),
    Target("arrcoh.fp", "fp_rank", "linalg.fp_elim"),
    Target("arrcoh.fp", "fp_kernel", "linalg.fp_elim", _count_fp_kernel),
    Target("arrcoh.cochain", "make_complex", "cochain.make_complex", _count_complex),
    Target("arrcoh.cochain", "complex_cohomology", "cochain.complex_cohomology"),
    Target("arrcoh.simplicial", "enumerate_complexes", "simplicial.enumerate_complexes", _count_classes),
    Target("arrcoh.simplicial", "SimplicialComplex.canonical_key", "simplicial.canonical_key"),
    Target("arrcoh.simplicial", "SimplicialComplex.faces_of_card", "simplicial.faces_of_card"),
    Target("arrcoh.simplicial", "link", "simplicial.link"),
    Target("arrcoh.simplicial", "reduced_cohomology", "simplicial.reduced_cohomology", _count_reduced),
    Target("arrcoh.simplicial", "is_cohen_macaulay", "simplicial.is_cohen_macaulay"),
    Target("arrcoh.toric", "twisted_cochain", "toric.twisted_cochain"),
    Target("arrcoh.toric", "toric_cohomology", "toric.toric_cohomology"),
    Target("arrcoh.toric", "toric_e2_page", "toric.toric_e2_page"),
    Target("arrcoh.toric", "verify_cm_theorem", "toric.verify_cm_theorem"),
    Target("arrcoh.arrangement", "intersection_lattice", "arrangement.intersection_lattice"),
    Target("arrcoh.arrangement", "vanishing_check", "arrangement.vanishing_check", _count_vanishing),
    Target("arrcoh.salvetti", "enumerate_faces", "salvetti.enumerate_faces", _count_faces),
    Target("arrcoh.salvetti", "build_salvetti", "salvetti.build_salvetti", _count_cells),
    Target("arrcoh.salvetti", "twisted_complex", "salvetti.twisted_complex"),
    Target("arrcoh.salvetti", "twisted_cohomology", "salvetti.twisted_cohomology"),
    Target("arrcoh.elliptic", "analyze", "elliptic.analyze"),
    Target("arrcoh.elliptic", "components", "elliptic.components", _count_components),
    Target("arrcoh.elliptic", "enumerate_strata", "elliptic.enumerate_strata", _count_strata),
    Target("arrcoh.elliptic", "elliptic_vanishing_certificate", "elliptic.certificate"),
    Target("arrcoh.covers", "e2_support", "covers.e2_support"),
    Target("arrcoh.covers", "support_certificate", "covers.support_certificate"),
    Target("arrcoh.poset", "from_leq", "poset.from_leq", _count_from_leq),
)


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    count = target.count
    if "{ring}" in target.span:
        by_ring = {tag: tracer.name_id(target.span.format(ring=tag)) for tag in ("fp", "qq", "zz")}

        def span_of(args):
            return by_ring[_ring_tag(args[0].ring)]

    elif target.span == "linalg.matrix_mul":
        # the d o d = 0 check is the only product make_complex takes
        mul, dd, owner = (tracer.name_id(n) for n in ("linalg.matrix_mul", "cochain.dd_check", "cochain.make_complex"))

        def span_of(args):
            return dd if tracer.parent_is(owner) else mul

    else:
        nid = tracer.name_id(target.span)

        def span_of(args):
            return nid

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(span_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return traced


def _arrcoh_modules():
    return [m for name, m in list(sys.modules.items()) if name == "arrcoh" or name.startswith("arrcoh.")]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; the returned function restores the originals."""
    restore: list[tuple[object, str, object]] = []
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, target, raw.__func__))
            else:
                wrapped = _wrap(tracer, target, raw)
            restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, target.attr)
        wrapped = _wrap(tracer, target, original)
        for mod in _arrcoh_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


# --- per-layer metrics -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: PassTrace) -> tuple[dict[str, float], dict[str, int]]:
    """Self times (seconds) and exact counters of one traced pass."""
    self_s, calls = trace.self_times()
    c = trace.counts
    times = {f"{name}.s": secs for name, secs in self_s.items() if name != ITEM}
    times["trace.unattributed.s"] = self_s.get(ITEM, 0.0)
    counts = dict(c)
    for name, n in calls.items():
        counts[f"{name}.calls"] = n
    counts["trace.spans"] = len(trace)
    return times, counts


def derived_ratios(counts: dict[str, int]) -> dict[str, float]:
    """Useful outcomes over attempts, from exact counters."""
    g = counts.get
    return {
        "simplicial.canonical_key.yield": _ratio(g("simplicial.classes", 0), g("simplicial.canonical_key.calls", 0)),
        "simplicial.reduced_cohomology.distinct_ratio": _ratio(
            g("simplicial.reduced_cohomology.distinct", 0), g("simplicial.reduced_cohomology.calls", 0)
        ),
        "salvetti.face_yield": _ratio(g("salvetti.faces", 0), g("salvetti.sign_vectors_tried", 0)),
        "elliptic.strata_yield": _ratio(g("elliptic.strata", 0), g("elliptic.components_generated", 0)),
    }
