"""Seeded inputs and the timed pass of each benchmark workload.

A workload turns a seed into plain-data inputs (lists of integers, file
contents) at set-up.  A pass then yields items; each item builds the
program's objects from those inputs and makes one top-level call, so no
cached state carries over from one pass to the next.  The runner times
``Item.call`` alone; ``observe`` condenses the result after the clock
stops, and ``check`` compares that observation with a reference from
``oracles`` (or, for the CLI, with the in-process output).

Where the seed picks an arrangement, it keeps the combinatorial type and
the size of every number fixed, so that the work per item does not depend
on it: hyperplane normals get random signs on each coordinate and on each
normal (the face poset and the Salvetti complex are unchanged), elliptic
rows get random signs (the subgroups are unchanged), and the weights are
drawn afresh.  A unimodular change of coordinates would keep the
combinatorics too, but not the cost: it moved the time of one Salvetti
item by a fifth from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import oracles
from arrcoh import arrangement, cli, elliptic, linalg, salvetti, simplicial, toric

WORKLOADS = ("toric-corpus", "salvetti-ladder", "elliptic-strata", "cli-cold")

P = 101


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], object]
    observe: Callable[[object], object]
    check: Callable[[object], str | None]


class Workload:
    largest = ""  # label of the named largest item
    # True when items() run child processes; items(in_process=True) then make the same calls in this process
    spawns = False

    def prepare(self) -> None:
        """Untimed work after set-up, before the first pass."""

    def items(self, in_process: bool = False) -> Iterator[Item]:
        raise NotImplementedError

    def check_pass(self, observations: list) -> list[str]:
        """Checks over a whole pass; one message per failure."""
        return []


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def flip_signs(rng: random.Random, rows) -> list[list[int]]:
    """Each coordinate and each row times a random sign."""
    cols = [rng.choice((-1, 1)) for _ in rows[0]]
    return [[x * c * sign for x, c in zip(r, cols)] for r, sign in zip(rows, (rng.choice((-1, 1)) for _ in rows))]


def projective_weights(rng: random.Random, m: int, p: int) -> list[int]:
    """Units mod p, none equal to 1, with product 1."""
    while True:
        qs = [rng.randrange(2, p) for _ in range(m - 1)]
        prod = 1
        for q in qs:
            prod = prod * q % p
        last = pow(prod, -1, p)
        if last != 1:
            return qs + [last]


# --- toric-corpus ------------------------------------------------------------


class ToricCorpus(Workload):
    """Every complex on at most five vertices: enumerate the classes, test
    each for Cohen-Macaulayness over Z, then cross-check the toric
    cohomology against the CM predicate over F_101 with seeded weights."""

    largest = "enumerate"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.max_vertices = 4 if smoke else 5
        self.trials = 3 if smoke else 5  # keeps a pass near 6 s, so a run holds several
        self.trial_seed = random.Random(seed).getrandbits(64)

    def items(self, in_process: bool = False) -> Iterator[Item]:
        classes: list = []

        def enumerate_classes():
            classes.extend(simplicial.enumerate_complexes(self.max_vertices))
            return classes

        yield Item("enumerate", enumerate_classes, len, self._check_classes)
        # the generator resumes only after the runner has called the item above
        for cx in classes:
            yield Item("complex", functools.partial(self._one, cx), _toric_observe, _toric_check)

    def _one(self, cx):
        cm_z = simplicial.is_cohen_macaulay(cx, linalg.ZZ)
        report = toric.verify_cm_theorem(toric.ToricComplex(cx), P, trials=self.trials, seed=self.trial_seed)
        return cm_z, report

    def _check_classes(self, count: int) -> str | None:
        expected = sum(oracles.CLASSES_ON_EXACTLY[: self.max_vertices + 1])
        return None if count == expected else f"{count} classes, expected {expected}"

    def check_pass(self, observations: list) -> list[str]:
        expected = oracles.CM_CLASSES_UP_TO[self.max_vertices]
        cm_z = sum(1 for obs in observations[1:] if obs and obs[0])
        cm_p = sum(1 for obs in observations[1:] if obs and obs[1])
        if (cm_z, cm_p) != (expected, expected):
            return [f"Cohen-Macaulay classes: {cm_z} over Z, {cm_p} over F_{P}; expected {expected}"]
        return []


def _toric_observe(result):
    cm_z, report = result
    return (cm_z.ok, report.cm.ok, report.ok, digest(cm_z.to_json()), digest(report.to_json()))


def _toric_check(obs) -> str | None:
    cm_z, cm_p, ok = obs[:3]
    if not ok:
        return "verify_cm_theorem reported a violation"
    if cm_z and not cm_p:
        return "Cohen-Macaulay over Z but not over F_p"
    return None


# --- salvetti-ladder -----------------------------------------------------------


@dataclass(frozen=True)
class SalvettiInstance:
    label: str
    n: int
    rows: tuple
    twisted: bool  # F_101 with projective weights, else untwisted over Q
    weights: tuple
    essentialize: bool = False


def generic_rows(m: int, n: int) -> list[list[int]]:
    """A fixed generic central arrangement: every n normals independent."""
    rng = random.Random(f"generic-{m}x{n}")
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if all(oracles.rank([rows[i] for i in s]) == n for s in itertools.combinations(range(m), n)):
            return rows


BRAID_A3 = [[int(k == i) - int(k == j) for k in range(4)] for i, j in itertools.combinations(range(4), 2)]
BRAID_WEIGHTS = tuple(pow(2, e, P) for e in (1, 1, 1, 1, 1, 95))  # acceptance criterion c04

LADDER = (  # (label, m, n, twisted); m = 0 marks the braid arrangement
    ("generic-6x3-f101", 6, 3, True),
    ("generic-7x3-f101", 7, 3, True),
    ("generic-8x3-f101", 8, 3, True),
    ("generic-5x4-f101", 5, 4, True),
    ("braid-a3-f101", 0, 4, True),
    ("braid-a3-qq", 0, 4, False),
)
SMOKE_LADDER = (
    ("generic-5x3-f101", 5, 3, True),
    ("braid-a3-f101", 0, 4, True),
    ("generic-4x3-qq", 4, 3, False),
)


class SalvettiLadder(Workload):
    """Twisted cohomology of generic and braid arrangements from their
    Salvetti complexes, over F_101 and untwisted over Q."""

    largest = "generic-8x3-f101"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.instances = []
        for label, m, n, twisted in SMOKE_LADDER if smoke else LADDER:
            base = BRAID_A3 if m == 0 else generic_rows(m, n)
            rows = flip_signs(rng, base)
            if not twisted:
                weights = (1,) * len(rows)
            elif m == 0:
                weights = BRAID_WEIGHTS
            else:
                weights = tuple(projective_weights(rng, m, P))
            inst = SalvettiInstance(label, n, tuple(map(tuple, rows)), twisted, weights, essentialize=m == 0)
            self.instances.append(inst)
        self._pi: dict[str, list[int]] = {}

    def items(self, in_process: bool = False) -> Iterator[Item]:
        for inst in self.instances:
            yield Item(
                inst.label,
                functools.partial(_salvetti_one, inst),
                _salvetti_observe,
                functools.partial(self._check, inst),
            )

    def _check(self, inst: SalvettiInstance, obs) -> str | None:
        pi = self._pi.get(inst.label)
        if pi is None:
            pi = self._pi[inst.label] = oracles.poincare(inst.rows)
        holds, full, projective = obs[:3]
        if not inst.twisted:
            return None if list(full) == pi else f"untwisted Betti {full} != pi {pi}"
        if not holds:
            return "seeded weights fail vanishing_check"
        top = len(pi) - 2
        beta = oracles.abs_beta(pi)
        want = (0,) * top + (beta,)
        if tuple(projective or ()) != want or tuple(full) != want + (beta,):
            return f"projective Betti {projective}, full {full}; expected {want} with |beta| = {beta}"
        return None



def _salvetti_one(inst: SalvettiInstance):
    a = arrangement.Arrangement.from_rows(inst.n, [list(r) for r in inst.rows])
    if inst.essentialize:
        a = a.essentialize()
    field = linalg.GF(P) if inst.twisted else linalg.QQ
    weights = arrangement.RankOneSystem(field, inst.weights)
    holds = arrangement.vanishing_check(a, weights).holds if inst.twisted else None
    return holds, salvetti.twisted_cohomology(a, weights)


def _salvetti_observe(result):
    holds, report = result
    return (holds, report.full_betti, report.projective_betti, report.cell_counts, digest(report.to_json()))


# --- elliptic-strata -------------------------------------------------------------


CERTIFICATES = (  # (label, n, rows): essential, 3-5 rows, certificate 0.1-1.2 s
    ("cert-4x2", 2, ((2, 2), (-1, 1), (1, 2), (0, 2))),
    ("cert-5x2", 2, ((2, 1), (-1, 2), (-1, 2), (2, 0), (-1, -1))),
    ("cert-3x3a", 3, ((0, 2, 1), (0, -1, 2), (1, 0, 2))),
    ("cert-4x3a", 3, ((0, 2, -1), (-1, 0, 1), (-1, -1, -1), (1, 2, -1))),
    ("cert-5x3", 3, ((1, -1, 2), (0, -1, 0), (-1, 1, 2), (0, 2, -1), (0, -1, 0))),
)


def component_queries(smoke: bool) -> list[tuple[int, tuple]]:
    """Acceptance criterion c08: every nonzero row of [-3,3]^n for n <= 3
    and every pair of such rows for n <= 2 (1,593 queries)."""

    def nonzero(n):
        return [v for v in itertools.product(range(-3, 4), repeat=n) if any(v)]

    singles = (1, 2) if smoke else (1, 2, 3)
    pairs = (1,) if smoke else (1, 2)
    out = [(n, (row,)) for n in singles for row in nonzero(n)]
    out += [(n, pair) for n in pairs for pair in itertools.combinations_with_replacement(nonzero(n), 2)]
    return out


class EllipticStrata(Workload):
    """Component counts of elliptic intersections, then analyses and
    stratified support certificates of seeded essential arrangements."""

    largest = "cert-5x3"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.queries = component_queries(smoke)
        rng.shuffle(self.queries)
        self.certs = []
        for label, n, base in CERTIFICATES[:2] if smoke else CERTIFICATES:
            rows = [[x * sign for x in r] for r, sign in zip(base, (rng.choice((-1, 1)) for _ in base))]
            weights = tuple(rng.randrange(2, P) for _ in rows)
            self.certs.append((label, n, tuple(map(tuple, rows)), weights))

    def items(self, in_process: bool = False) -> Iterator[Item]:
        for n, rows in self.queries:
            yield Item(
                "components",
                functools.partial(_components_one, n, rows),
                _components_observe,
                functools.partial(_components_check, rows),
            )
        for label, n, rows, weights in self.certs:
            yield Item(
                label,
                functools.partial(_certificate_one, n, rows, weights),
                _certificate_observe,
                functools.partial(_certificate_check, n, rows),
            )


def _components_one(n: int, rows: tuple):
    a = elliptic.EllipticArrangement.from_rows(n, [list(r) for r in rows])
    return elliptic.components(a, range(len(rows)))


def _components_observe(comps):
    return (len(comps), hash(tuple((c.torsion_label, c.point, c.dim) for c in comps)))


def _components_check(rows: tuple, obs) -> str | None:
    want = oracles.component_count([list(r) for r in rows])
    return None if obs[0] == want else f"{obs[0]} components of {rows}, expected {want}"


def _certificate_one(n: int, rows: tuple, weights: tuple):
    a = elliptic.EllipticArrangement.from_rows(n, [list(r) for r in rows])
    analysis = elliptic.analyze(a)
    cert = elliptic.elliptic_vanishing_certificate(a, arrangement.RankOneSystem(linalg.GF(P), weights))
    return analysis, cert


def _certificate_observe(result):
    analysis, cert = result
    return (analysis.to_json(), cert.concentration, digest(cert.to_json()))


def _certificate_check(n: int, rows: tuple, obs) -> str | None:
    analysis, concentration = obs[0], obs[1]
    want = {"corank": 0, "essential": True, "homotopy_dim": n, "unimodular": oracles.is_unimodular(rows)}
    if analysis != want:
        return f"analysis {analysis}, expected {want}"
    if concentration not in (None, n):
        return f"certificate claims concentration {concentration}, ambient dimension {n}"
    return None


# --- cli-cold ----------------------------------------------------------------------


README_INPUTS = {  # the input examples of the README, weights re-drawn per seed
    "lines.json": {
        "n": 2,
        "hyperplanes": [
            {"label": "a", "normal": ["1", "0"]},
            {"label": "b", "normal": ["0", "1"]},
            {"label": "c", "normal": ["1", "1"]},
        ],
    },
    "torus.json": {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]},
    "elliptic.json": {
        "n": 1,
        "rows": [[1]],
        "translations": [0],
        "labels": ["f"],
        "weights": {"field": {"kind": "prime", "p": 7}, "q": {"f": 3}},
        "character": [3, 1],
    },
    "cover.json": {
        "sets": {"U1": [1, 2], "U2": [2, 3]},
        "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
        "rho": {"x": 0, "y": 1},
        "phi": [[["U1"], "x"], [["U2"], "x"], [["U1", "U2"], "y"]],
    },
}

VERBS = (  # (argv with placeholders for the input files, expected exit code)
    (["arr-lattice", "{lines}"], 0),
    (["arr-beta", "--format", "table", "{lines}"], 0),
    (["arr-nested", "{lines}"], 0),
    (["arr-vanish", "{lines}", "{weights}", "--certificate"], 0),
    (["arr-salvetti", "{lines}", "--weights", "{weights}"], 0),
    (["toric-cohomology", "{torus}", "{tweights}", "--page"], 0),
    (["toric-cm", "{torus}"], 0),
    (["toric-verify", "{torus}", "--prime", "101", "--trials", "25", "--seed", "{seed}"], 0),
    (["ell-analyze", "{elliptic}"], 0),
    (["ell-convenient", "{elliptic}"], 0),
    (["ell-certify", "{elliptic}"], 0),
    (["covers-validate", "{cover}"], 0),
)


class CliCold(Workload):
    """Every verb as a fresh ``python -m arrcoh.cli`` process, one at a time."""

    largest = "toric-verify"
    spawns = True

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        rng = random.Random(seed)
        files = dict(README_INPUTS)
        files["weights.json"] = {"field": {"kind": "prime", "p": 7}, "q": dict(zip("abc", projective_weights(rng, 3, 7)))}
        files["tweights.json"] = {"field": {"kind": "prime", "p": 7}, "q": {str(v): rng.randrange(2, 7) for v in (1, 2, 3)}}
        os.makedirs(workdir, exist_ok=True)
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(workdir, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        subst = {name.removesuffix(".json"): path for name, path in paths.items()}
        subst["seed"] = str(rng.getrandbits(63))
        self.calls = [([a.format_map(subst) if "{" in a else a for a in argv], rc) for argv, rc in VERBS]
        rng.shuffle(self.calls)
        self.workdir = workdir
        self.reference: dict[str, tuple[int, bytes]] = {}

    def prepare(self) -> None:
        """In-process output of every call: the reference for the cold runs."""
        for argv, _ in self.calls:
            self.reference[argv[0]] = _cli_in_process(argv)

    def items(self, in_process: bool = False) -> Iterator[Item]:
        for argv, rc in self.calls:
            call = functools.partial(_cli_in_process if in_process else _cli_cold, argv)
            yield Item(argv[0], call, _cli_observe, functools.partial(self._check, argv[0], rc))

    def _check(self, verb: str, rc: int, obs) -> str | None:
        if obs[0] != rc:
            return f"{verb} exited {obs[0]}, expected {rc}"
        if obs[1] != _cli_observe(self.reference[verb])[1]:
            return f"{verb} stdout differs from in-process cli.main"
        return None



def _cli_cold(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "arrcoh.cli", *argv], capture_output=True, check=False)
    return proc.returncode, proc.stdout


def _cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


def _cli_observe(result):
    rc, stdout = result
    return (rc, hashlib.sha1(stdout).hexdigest())


def build(name: str, seed: int, smoke: bool, workdir: str):
    if name == "toric-corpus":
        return ToricCorpus(seed, smoke)
    if name == "salvetti-ladder":
        return SalvettiLadder(seed, smoke)
    if name == "elliptic-strata":
        return EllipticStrata(seed, smoke)
    if name == "cli-cold":
        return CliCold(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
