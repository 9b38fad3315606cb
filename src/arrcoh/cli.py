"""Batch front end: parse JSON inputs, dispatch analyses, render reports.

Verbs cover the hyperplane-arrangement analyses (intersection lattice,
characteristic polynomial, nested-set complexes, rank-one vanishing
checks, the chamber-complex cohomology), the toric/simplicial analyses,
the elliptic analyses, and standalone cover validation.

Exit codes partition outcomes: 0 on success, 1 when the requested
predicate returns a negative verdict, 2 on input errors (malformed JSON,
schema violations, missing files, inputs past a size limit), 3 when an
internal invariant fails (a bug in arrcoh, reported in one line).  JSON
output is canonical — sorted keys, rationals as lowest-term "p/q"
strings, prime-field scalars as residues in [0, p) — so identical inputs
produce byte-identical output.
Table output is for humans.  The ARRCOH_FORMAT environment variable sets
the default format ("json" or "table"); --format overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from arrcoh.linalg import GF, QQ, ZZ, FieldTag, InternalError, RankOneSystem, is_prime, json_array

if TYPE_CHECKING:
    from arrcoh.arrangement import Arrangement
    from arrcoh.covers import E2Support

__all__ = ["main"]

FORMAT_ENV = "ARRCOH_FORMAT"

_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError)

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _load(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:  # the parser's depth limit, unlike a recursion failure inside arrcoh
        raise ValueError("the input nests too deeply") from None


def _poly(coeffs: Sequence[int]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            t = "t" if k == 1 else "t" + str(k).translate(_SUPERSCRIPTS)
            terms.append(t if c == 1 else f"{c}{t}")
    return " + ".join(terms) if terms else "0"


def _grid(sup: E2Support) -> list[str]:
    entries = dict(sup.entries)
    if entries:
        ps = sorted(p for p, _ in entries)
        qs = sorted(q for _, q in entries)
        pmin, pmax, qmin, qmax = ps[0], ps[-1], qs[0], qs[-1]
    else:
        pmin, pmax, qmin, qmax = 0, sup.ambient_bound, 0, 0

    def cell(p: int, q: int) -> str:
        v = entries.get((p, q))
        if v is None:
            return "0"
        return str(v) if isinstance(v, int) else "*"

    cols = list(range(pmin, pmax + 1))
    width = max(
        [len(str(p)) for p in cols]
        + [len(cell(p, q)) for p in cols for q in range(qmin, qmax + 1)]
        + [1]
    )
    head = " q\\p |" + "".join(f" {str(p).rjust(width)}" for p in cols)
    qw = max(len(str(q)) for q in range(qmin, qmax + 1))
    out = [head, "-" * len(head)]
    for q in range(qmax, qmin - 1, -1):
        out.append(f" {str(q).rjust(qw).rjust(3)} |" + "".join(f" {cell(p, q).rjust(width)}" for p in cols))
    out.append("(* = possibly nonzero; 0 = provably zero)")
    out.append("nonzero total degrees: " + (", ".join(str(n) for n in sup.lines()) or "none"))
    out.append(
        "concentration: "
        + ("total vanishing" if sup.total_vanishing else str(sup.concentration) if sup.concentration is not None else "not claimed")
    )
    for note in sup.notes:
        out.append(f"note: {note}")
    return out


def _betti_table(label: str, by_degree: Mapping[int, int]) -> list[str]:
    out = [f"{label}:"]
    if not by_degree:
        out.append("  (zero)")
        return out
    for k in sorted(by_degree):
        out.append(f"  degree {k}: dim {by_degree[k]}")
    return out


# ---------------------------------------------------------------------------
# verb handlers: each returns (json-report, ok, table-lines)


def _run_arr_lattice(args):
    from arrcoh.arrangement import Arrangement, intersection_lattice, poincare_and_beta

    a = Arrangement.from_json(_load(args.arrangement))
    pi, beta = poincare_and_beta(a)
    report = intersection_lattice(a).to_json()
    report["pi"] = pi
    report["beta"] = beta
    by_rank: dict[int, list[str]] = {}
    for f in report["flats"]:
        by_rank.setdefault(f["rank"], []).append("{" + ",".join(f["hyperplanes"]) + "}")
    table = [f"hyperplanes: {a.m}, ambient dimension: {a.n}, rank: {a.rank}"]
    for r in sorted(by_rank):
        table.append(f"rank {r}: " + ", ".join(by_rank[r]))
    table.append(f"π(t) = {_poly(pi)}")
    return report, True, table


def _run_arr_beta(args):
    from arrcoh.arrangement import Arrangement, poincare_and_beta

    a = Arrangement.from_json(_load(args.arrangement))
    pi, beta = poincare_and_beta(a)
    report = {"pi": pi, "beta": beta}
    table = [f"π(t) = {_poly(pi)}", f"β = {beta}"]
    return report, True, table


def _essentialized(a: Arrangement) -> tuple[Arrangement, bool]:
    if a.is_essential:
        return a, False
    return a.essentialize(), True


def _building(a, kind: str):
    from arrcoh.arrangement import maximal_building_set, minimal_building_set

    if kind == "maximal":
        return maximal_building_set(a)
    return minimal_building_set(a)


def _run_arr_nested(args):
    from arrcoh.arrangement import Arrangement, nested_complex

    a = Arrangement.from_json(_load(args.arrangement))
    a, reduced = _essentialized(a)
    g = _building(a, args.building)
    nc = nested_complex(a, g)
    labels = a.labels
    members = [[labels[i] for i in cs] for cs in g]
    report = {
        "building": args.building,
        "members": members,
        "essentialized": reduced,
        "dim": nc.dim,
        "f_vector": nc.f_vector(),
        "facets": [sorted(str(v) for v in f) for f in sorted(nc.facets(), key=lambda s: sorted(str(v) for v in s))],
    }
    table = [
        f"building set ({args.building}): " + ", ".join("{" + ",".join(m) + "}" for m in members),
        f"nested-set complex: dim {nc.dim}, f-vector {nc.f_vector()}",
    ]
    if reduced:
        table.append("(input was not essential; analysis ran on its essentialization)")
    return report, True, table


def _run_arr_vanish(args):
    from arrcoh.arrangement import Arrangement, depth_bound, e2_certificate, vanishing_check

    a = Arrangement.from_json(_load(args.arrangement))
    a, reduced = _essentialized(a)
    sys_ = RankOneSystem.from_json(a, _load(args.weights))
    verdict = vanishing_check(a, sys_, include_top=args.include_top)
    report = {"verdict": verdict.to_json(a), "essentialized": reduced}
    table = [
        f"vanishing check: {'holds' if verdict.holds else 'FAILS'}",
    ]
    if verdict.holds:
        dim = "unknown" if verdict.predicted_dim is None else str(verdict.predicted_dim)
        table.append(f"cohomology concentrated in degree {verdict.predicted_degree} (dim {dim})")
    else:
        flats = ", ".join("{" + ",".join(fl) + "}" for fl in report["verdict"]["failing_flats"])
        table.append(f"trivial monodromy on: {flats}")
    if args.certificate:
        g = _building(a, args.building)
        cert = e2_certificate(a, g, sys_)
        report["certificate"] = cert.to_json()
        report["depth_bound"] = depth_bound(a, g, sys_)
        table.append("")
        table.extend(_grid(cert))
    return report, verdict.holds, table


def _run_arr_salvetti(args):
    from arrcoh.arrangement import Arrangement
    from arrcoh.salvetti import twisted_cohomology

    a = Arrangement.from_json(_load(args.arrangement))
    a, reduced = _essentialized(a)
    if args.weights:
        sys_ = RankOneSystem.from_json(a, _load(args.weights))
    else:
        sys_ = RankOneSystem(QQ, (1,) * a.m)
    rep = twisted_cohomology(a, sys_)
    report = rep.to_json()
    report["essentialized"] = reduced
    table = [f"cells by dimension: {list(rep.cell_counts)}"]
    table.extend(_betti_table("chamber-complex cohomology", {k: v for k, v in enumerate(rep.full_betti) if v}))
    if rep.projective_betti is not None:
        table.extend(_betti_table("projectivized factor", {k: v for k, v in enumerate(rep.projective_betti) if v}))
    return report, True, table


def _run_toric_cohomology(args):
    from arrcoh.toric import ToricComplex, toric_cohomology, toric_e2_page

    tc = ToricComplex.from_json(_load(args.complex))
    sys_ = RankOneSystem.from_json(tc, _load(args.weights))
    rep = toric_cohomology(tc, sys_)
    report = rep.to_json()
    report["space_dim"] = tc.space_dim
    betti = {k: rep.betti(k) for k in rep.nonzero_degrees()}
    table = [f"space dimension: {tc.space_dim}"]
    table.extend(_betti_table("twisted cohomology", betti))
    if args.page:
        page = toric_e2_page(tc, sys_)
        report["page"] = page.to_json()
        table.append("")
        table.extend(_grid(page))
    return report, True, table


def _ring_spec(text: str):
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("F"):
        p = int(text[1:])
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return GF(p)
    raise ValueError(f"unknown ring {text!r} (use Z, Q, or Fp)")


def _run_toric_cm(args):
    from arrcoh.simplicial import is_cohen_macaulay
    from arrcoh.toric import ToricComplex

    tc = ToricComplex.from_json(_load(args.complex))
    ring = _ring_spec(args.ring)
    verdict = is_cohen_macaulay(tc.base, ring)
    report = verdict.to_json()
    table = [f"Cohen-Macaulay over {ring!r}: {'yes' if verdict.ok else 'no'}"]
    for f in report["failures"]:
        tors = f" torsion {f['torsion']}" if f["torsion"] else ""
        table.append(
            f"  witness: link of {{{','.join(str(v) for v in f['face'])}}} has reduced cohomology"
            f" in degree {f['degree']} (rank {f['rank']}{tors}), top degree is {verdict.dim - len(f['face'])}"
        )
    return report, verdict.ok, table


def _run_toric_verify(args):
    from arrcoh.toric import ToricComplex, verify_cm_theorem

    tc = ToricComplex.from_json(_load(args.complex))
    rep = verify_cm_theorem(tc, args.prime, trials=args.trials, seed=args.seed)
    report = rep.to_json()
    ok = rep.cm.ok and rep.ok
    table = [
        f"Cohen-Macaulay over F_{args.prime}: {'yes' if rep.cm.ok else 'no'}",
    ]
    for face, deg, rank, tors in rep.cm.failures:
        table.append(
            f"  witness: link of {{{','.join(str(v) for v in face)}}} has reduced cohomology"
            f" in degree {deg} (rank {rank}), top degree is {rep.cm.dim - len(face)}"
        )
    table.append(f"trials: {len(rep.trials)}, seed: {args.seed}")
    for i, t in enumerate(rep.trials):
        status = ""
        if rep.cm.ok:
            status = " concentrated+agree" if (t["concentrated"] and t["agree"]) else " VIOLATION"
        table.append(f"  trial {i}: betti {t['betti']}, page lines {t['page_lines']}{status}")
    if rep.cm.ok:
        table.append("theorem verified" if rep.ok else "THEOREM VIOLATED (this is a bug)")
    else:
        table.append("hypothesis fails: no concentration is predicted for this complex")
    return report, ok, table


def _run_ell_analyze(args):
    from arrcoh.elliptic import EllipticArrangement, analyze

    ea = EllipticArrangement.from_json(_load(args.arrangement))
    rep = analyze(ea)
    report = rep.to_json()
    table = [
        f"rows: {ea.m}, elliptic factors: {ea.n}",
        f"corank: {rep.corank} (essential: {'yes' if rep.essential else 'no'})",
        f"unimodular: {'yes' if rep.unimodular else 'no'}"
        + ("" if rep.unimodular else " (some intersections are disconnected)"),
        f"complement homotopy dimension: {rep.homotopy_dim}",
    ]
    return report, True, table


def _elliptic_field(obj: Mapping) -> FieldTag:
    if "weights" in obj and isinstance(obj["weights"], Mapping) and "field" in obj["weights"]:
        return FieldTag.from_json(obj["weights"]["field"])
    if "field" in obj:
        return FieldTag.from_json(obj["field"])
    raise ValueError("no field given: supply weights.field or a top-level field object")


def _run_ell_convenient(args):
    from arrcoh.elliptic import EllipticArrangement, convenient_check

    obj = _load(args.arrangement)
    ea = EllipticArrangement.from_json(obj)
    if "character" not in obj:
        raise ValueError("input needs a character: 2n scalars, two per elliptic factor")
    field = _elliptic_field(obj)
    verdict = convenient_check(ea, field, json_array(obj["character"], "character"))
    report = verdict.to_json()
    table = [f"convenient: {'yes' if verdict.holds else 'no'}"]
    if verdict.holds:
        table.append(f"conclusion: twisted cohomology vanishes in degrees <= {verdict.vanishing_below}")
    else:
        for f in report["failures"]:
            rows = "{" + ",".join(ea.labels[i] for i in f["rows"]) + "}"
            table.append(f"  trivial on the stratum lattice of {rows}")
    return report, verdict.holds, table


def _run_ell_certify(args):
    from arrcoh.elliptic import EllipticArrangement, elliptic_vanishing_certificate

    obj = _load(args.arrangement)
    ea = EllipticArrangement.from_json(obj)
    if "weights" not in obj:
        raise ValueError("input needs weights: {field, q: {row-label: scalar}}")
    sys_ = RankOneSystem.from_json(ea, obj["weights"])
    cert = elliptic_vanishing_certificate(ea, sys_)
    report = cert.to_json()
    ok = cert.concentration is not None or cert.total_vanishing
    return report, ok, _grid(cert)


def _run_covers_validate(args):
    from arrcoh.covers import MAX_WITNESSES, build_nerve, validate_cover
    from arrcoh.poset import FinitePoset

    obj = _load(args.cover)
    try:
        if not isinstance(obj["sets"], Mapping) or not isinstance(obj["rho"], Mapping):
            raise ValueError("bad cover JSON: sets and rho must be objects")
        sets = {str(k): frozenset(json_array(v, "sets")) for k, v in obj["sets"].items()}
        pelems = [str(e) for e in json_array(obj["poset"]["elements"], "elements")]
        relations = (json_array(r, "relations") for r in json_array(obj["poset"]["relations"], "relations"))
        rels = [(str(x), str(y)) for x, y in relations]
        rho = {str(k): ZZ.normalize(v) for k, v in obj["rho"].items()}
        phi_items = (json_array(item, "phi") for item in json_array(obj["phi"], "phi"))
        phi_pairs = [(frozenset(str(l) for l in json_array(labs, "phi")), str(img)) for labs, img in phi_items]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad cover JSON: {exc}") from exc
    nerve, keys = build_nerve(sets)
    nerve_elems = set(nerve.elements)
    phi = {}
    for labs, img in phi_pairs:
        if labs not in nerve_elems:
            raise ValueError(f"phi key {sorted(labs)} is not a nerve element")
        phi[labs] = img
    poset = FinitePoset(pelems, rels)
    verdict = validate_cover(nerve, poset, rho, phi, keys)
    report = verdict.to_json()
    table = [f"valid: {'yes' if verdict.valid else 'no'}", f"homotopy condition: {verdict.condition2}"]
    for code, wit in report["failures"]:
        shown = (w if isinstance(w, str) else "{" + ",".join(w) + "}" for w in wit)
        table.append(f"  failure {code}: {', '.join(shown)}")
    for code, n in verdict.counts.items():
        if n > MAX_WITNESSES:
            table.append(f"  failure {code}: {n - MAX_WITNESSES} more not listed")
    for note in verdict.assumptions:
        table.append(f"  assumption: {note}")
    return report, verdict.valid, table


_HANDLERS: dict[str, Callable] = {
    "arr-lattice": _run_arr_lattice,
    "arr-beta": _run_arr_beta,
    "arr-nested": _run_arr_nested,
    "arr-vanish": _run_arr_vanish,
    "arr-salvetti": _run_arr_salvetti,
    "toric-cohomology": _run_toric_cohomology,
    "toric-cm": _run_toric_cm,
    "toric-verify": _run_toric_verify,
    "ell-analyze": _run_ell_analyze,
    "ell-convenient": _run_ell_convenient,
    "ell-certify": _run_ell_certify,
    "covers-validate": _run_covers_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrcoh",
        description="Exact cohomology certificates for arrangement-type spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_)
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default=None,
            help=f"output format (default from ${FORMAT_ENV}, else json)",
        )
        return p

    p = add("arr-lattice", "intersection lattice of a hyperplane arrangement")
    p.add_argument("arrangement", help="arrangement JSON path, or - for stdin")

    p = add("arr-beta", "characteristic polynomial and beta invariant")
    p.add_argument("arrangement")

    p = add("arr-nested", "nested-set complex for a building set")
    p.add_argument("arrangement")
    p.add_argument("--building", choices=("minimal", "maximal"), default="minimal")

    p = add("arr-vanish", "rank-one vanishing check (optionally with an E2 certificate)")
    p.add_argument("arrangement")
    p.add_argument("weights", help="weights JSON path: {field, q: {label: scalar}}")
    p.add_argument("--include-top", action="store_true", help="affine variant: check the top flat too")
    p.add_argument("--certificate", action="store_true", help="attach the nested-set E2 support grid")
    p.add_argument("--building", choices=("minimal", "maximal"), default="minimal")

    p = add("arr-salvetti", "chamber-complex cohomology, untwisted or twisted")
    p.add_argument("arrangement")
    p.add_argument("--weights", default=None)

    p = add("toric-cohomology", "twisted cohomology of a toric subtorus union")
    p.add_argument("complex", help="complex JSON path: {vertices, facets}")
    p.add_argument("weights", help="weights JSON path: {field, q: {vertex: scalar}}")
    p.add_argument("--page", action="store_true", help="attach the link-based E2 support grid")

    p = add("toric-cm", "Cohen-Macaulay test for the underlying complex")
    p.add_argument("complex")
    p.add_argument("--ring", default="Z", help="Z, Q, or Fp (default Z)")

    p = add("toric-verify", "randomized concentration/agreement check against the CM predicate")
    p.add_argument("complex")
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=_seed, default=0, help="64-bit seed (default 0)")

    p = add("ell-analyze", "rank, unimodularity and homotopy dimension of an elliptic arrangement")
    p.add_argument("arrangement", help="elliptic JSON path: {n, rows, translations, labels, ...}")

    p = add("ell-convenient", "positive-dimensional-strata character test")
    p.add_argument("arrangement", help="elliptic JSON with a character: [2n scalars]")

    p = add("ell-certify", "stratified E2 support certificate for an elliptic complement")
    p.add_argument("arrangement", help="elliptic JSON with weights: {field, q: {label: scalar}}")

    p = add("covers-validate", "validate a poset-indexed cover description")
    p.add_argument("cover", help="cover JSON path: {sets, poset, rho, phi}")

    return parser


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, ok, table = _HANDLERS[args.verb](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    fmt = args.format or os.environ.get(FORMAT_ENV, "json")
    try:
        print(json.dumps(report, sort_keys=True, indent=2) if fmt == "json" else "\n".join(table))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point fd 1 at devnull so that the flush at
        # interpreter shutdown stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
