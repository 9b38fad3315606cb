"""Command-line interface: exit codes, output formats, determinism."""

import functools
import hashlib
import io
import itertools
import json
import operator
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from arrcoh import cli
from arrcoh.arrangement import MAX_AMBIENT_DIM
from arrcoh.covers import MAX_NERVE_ELEMENTS, MAX_WITNESSES
from arrcoh.elliptic import MAX_CANDIDATES, MAX_FACTORS
from arrcoh.simplicial import MAX_FACES, enumerate_complexes


LINES3 = {
    "n": 2,
    "hyperplanes": [
        {"label": "a", "normal": ["1", "0"]},
        {"label": "b", "normal": ["0", "1"]},
        {"label": "c", "normal": ["1", "1"]},
    ],
}
W3_GOOD = {"field": {"kind": "prime", "p": 7}, "q": {"a": 2, "b": 2, "c": 2}}
W3_BAD = {"field": {"kind": "prime", "p": 7}, "q": {"a": 1, "b": 2, "c": 4}}
TORIC_TRI = {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]}
WT_TRI = {"field": {"kind": "prime", "p": 101}, "q": {"1": 5, "2": 7, "3": 11}}
TORIC_DISJ = {"vertices": [1, 2, 3, 4], "facets": [[1, 2], [3, 4]]}
ELL_GOOD = {
    "n": 1,
    "rows": [[1]],
    "translations": [0],
    "labels": ["f"],
    "weights": {"field": {"kind": "prime", "p": 7}, "q": {"f": 3}},
    "character": [3, 1],
}
COVER = {
    "sets": {"U1": [1, 2], "U2": [2, 3]},
    "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
    "rho": {"x": 0, "y": 1},
    "phi": [[["U1"], "x"], [["U2"], "x"], [["U1", "U2"], "y"]],
}


def braid_json(k):
    """The braid arrangement x_i = x_j, i < j, in C^k."""
    pairs = itertools.combinations(range(k), 2)
    normals = {f"h{i}{j}": [str(int(t == i) - int(t == j)) for t in range(k)] for i, j in pairs}
    return {"n": k, "hyperplanes": [{"label": lab, "normal": row} for lab, row in normals.items()]}


def projective_weights_json(arr):
    """Weight 2 on every hyperplane but the last, whose weight makes the product 1 in F_101."""
    labels = [h["label"] for h in arr["hyperplanes"]]
    q = {lab: 2 for lab in labels}
    q[labels[-1]] = pow(2, 1 - len(labels), 101)
    return {"field": {"kind": "prime", "p": 101}, "q": q}


DIGEST_ARRANGEMENTS = {  # larger than the three lines of the golden cases
    "braid-a4": braid_json(5),
    "braid-a5": braid_json(6),  # 4,683 faces, past MAX_FACES: arr-salvetti exits 2
    "generic-8-in-c4": {
        "n": 4,
        "hyperplanes": [{"label": f"g{k + 4}", "normal": [str(k**e) for e in range(4)]} for k in range(-4, 4)],
    },
}
ARRANGEMENT_DIGEST = "08cb969468cc89a93a0e8efdbcd2027a11f4cab70f2d918cb0251754e8f1bcb5"


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_arrangement_verbs_digest_pinned(files, capsys, monkeypatch):
    # the JSON of four arrangement verbs, with exit codes and error lines
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)
    h = hashlib.sha256()
    for name, arr in DIGEST_ARRANGEMENTS.items():
        a, w = files(f"{name}.json", arr), files(f"{name}-w.json", projective_weights_json(arr))
        verbs = (["arr-lattice", a], ["arr-beta", a], ["arr-vanish", a, w, "--certificate"], ["arr-salvetti", a, "--weights", w])
        for argv in verbs:
            code, out, err = run(capsys, argv)
            h.update(json.dumps([argv[0], code, out, err]).encode())
    assert h.hexdigest() == ARRANGEMENT_DIGEST


# --- exit code partition -----------------------------------------------------


def test_arr_lattice_success(files, capsys):
    code, out, _ = run(capsys, ["arr-lattice", files("a.json", LINES3)])
    assert code == 0
    obj = json.loads(out)
    assert obj["pi"] == [1, 3, 2]
    assert obj["beta"] == -1


def test_arr_beta(files, capsys):
    code, out, _ = run(capsys, ["arr-beta", files("a.json", LINES3)])
    assert code == 0
    assert json.loads(out) == {"beta": -1, "pi": [1, 3, 2]}


def test_arr_vanish_pass_and_fail(files, capsys):
    a = files("a.json", LINES3)
    code, out, _ = run(capsys, ["arr-vanish", a, files("w.json", W3_GOOD)])
    assert code == 0
    assert json.loads(out)["verdict"]["holds"] is True
    code, out, _ = run(capsys, ["arr-vanish", a, files("wb.json", W3_BAD)])
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"]["holds"] is False
    assert obj["verdict"]["failing_flats"] == [["a"]]


def test_malformed_json_is_input_error(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["arr-lattice", str(bad)])
    assert code == 2
    assert "error:" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["arr-lattice", "/nonexistent/x.json"])
    assert code == 2
    assert "error:" in err


def test_wrong_schema_is_input_error(files, capsys):
    code, _, err = run(capsys, ["arr-vanish", files("a.json", LINES3), files("w.json", {"q": {}})])
    assert code == 2


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err


def test_zero_denominator_normal_is_input_error(files, capsys):
    bad = {"n": 2, "hyperplanes": [{"label": "a", "normal": ["1/0", "0"]}, {"label": "b", "normal": ["0", "1"]}]}
    code, out, err = run(capsys, ["arr-lattice", files("a.json", bad)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "zero denominator" in err


@pytest.mark.parametrize("text", ["0_2", "1e3", " 1", "\uff11"])
def test_numeral_with_underscore_space_exponent_or_wide_digit_is_input_error(files, capsys, text):
    # int() read "0_2" as 2, and Fraction() the normal ["1_0", " 0 "] as (10, 0)
    found = {"n": "0_2", "hyperplanes": [{"label": "a", "normal": ["1_0", " 0 "]}, {"label": "b", "normal": ["0", "1"]}]}
    for obj in (found, dict(LINES3, n=text), dict(LINES3, hyperplanes=[{"label": "a", "normal": [text, "0"]}])):
        code, out, err = run(capsys, ["arr-beta", files("a.json", obj)])
        assert code == 2 and out == "" and _one_error_line(err), obj


def test_zero_denominator_rational_weight_is_input_error(files, capsys):
    wq = {"field": {"kind": "rational"}, "q": {"a": "1/0", "b": 1, "c": 1}}
    code, out, err = run(capsys, ["arr-vanish", files("a.json", LINES3), files("w.json", wq)])
    assert code == 2 and out == ""
    assert _one_error_line(err)
    tq = {"field": {"kind": "rational"}, "q": {"1": "1/0", "2": 2, "3": 3}}
    code, out, err = run(capsys, ["toric-cohomology", files("t.json", TORIC_TRI), files("tw.json", tq)])
    assert code == 2 and out == ""
    assert _one_error_line(err)


@pytest.mark.parametrize("normals", [[[1, 2], [-2, -4]], [["1/2", "1"], [1, 2]], [[0, "-1/3"], [0, 5]]])
def test_proportional_normals_are_input_error(files, capsys, normals):
    obj = {"n": 2, "hyperplanes": [{"label": f"h{i}", "normal": r} for i, r in enumerate(normals)]}
    code, out, err = run(capsys, ["arr-lattice", files("a.json", obj)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "hyperplanes 'h0' and 'h1' coincide" in err


@pytest.mark.parametrize(
    "verb, inputs",
    [
        ("arr-vanish", [LINES3, dict(W3_GOOD, q={"a": 2, "b": 2, "c": 2, "zz": 5})]),
        ("arr-salvetti", [LINES3, "--weights", dict(W3_GOOD, q={"a": 2, "b": 2, "c": 2, "zz": 5})]),
        ("ell-certify", [dict(ELL_GOOD, weights={"field": {"kind": "prime", "p": 7}, "q": {"f": 3, "zz": 5}})]),
    ],
)
def test_unknown_weight_label_is_input_error(files, capsys, verb, inputs):
    args = [x if isinstance(x, str) else files(f"in{i}.json", x) for i, x in enumerate(inputs)]
    code, out, err = run(capsys, [verb, *args])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "weight for unknown label 'zz'" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["arr-lattice", "a.json"], 0),
        (["arr-vanish", "a.json", "w.json", "--format", "table"], 1),
    ],
)
def test_closed_stdout_exits_quietly(files, argv, expected):
    paths = {"a.json": files("a.json", LINES3), "w.json": files("w.json", W3_BAD)}
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arrcoh.cli", *[paths.get(x, x) for x in argv]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # before the verb has written anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (expected, b"")


def test_bad_seed_is_usage_error(files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["toric-verify", files("t.json", TORIC_TRI), "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_float_or_bool_where_an_integer_belongs_is_input_error(files, capsys):
    # GF(7.0) passed the primality test, and int() read 0.9 and true as ranks
    w7 = {"field": {"kind": "prime", "p": 7.0}, "q": {"a": 2, "b": 2, "c": 2}}
    w7_product_3 = {"field": {"kind": "prime", "p": 7.0}, "q": {"a": 2, "b": 2, "c": 3}}
    rho = dict(COVER, rho={"x": 0.9, "y": True})
    for argv in (
        ["arr-vanish", files("a.json", LINES3), files("w.json", w7)],
        ["arr-salvetti", files("a.json", LINES3), "--weights", files("w.json", w7_product_3)],
        ["covers-validate", files("c.json", rho)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert _one_error_line(err), argv


# --- stdin ----------------------------------------------------------------------


DEEP = "[" * 100000 + "]" * 100000


def test_deeply_nested_json_is_input_error(tmp_path, capsys, monkeypatch):
    # the parser's RecursionError, from a file and from stdin
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run(capsys, ["arr-lattice", str(deep)])
    assert code == 2 and out == "" and _one_error_line(err) and "nests too deeply" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
    code, out, err = run(capsys, ["covers-validate", "-"])
    assert code == 2 and out == "" and _one_error_line(err) and "nests too deeply" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(LINES3)))
    code, out, _ = run(capsys, ["arr-beta", "-"])
    assert code == 0
    assert json.loads(out)["beta"] == -1


# --- formats ----------------------------------------------------------------------


def test_json_output_is_byte_stable(files, capsys):
    a = files("a.json", LINES3)
    _, out1, _ = run(capsys, ["arr-lattice", a])
    _, out2, _ = run(capsys, ["arr-lattice", a])
    assert out1 == out2
    assert out1 == json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n"


def test_table_format_flag(files, capsys):
    code, out, _ = run(capsys, ["arr-beta", files("a.json", LINES3), "--format", "table"])
    assert code == 0
    assert "1 + 3t + 2t²" in out
    assert "β = -1" in out


def test_format_env_default_and_override(files, capsys, monkeypatch):
    a = files("a.json", LINES3)
    monkeypatch.setenv(cli.FORMAT_ENV, "table")
    _, out, _ = run(capsys, ["arr-beta", a])
    assert "β = -1" in out
    _, out, _ = run(capsys, ["arr-beta", a, "--format", "json"])
    assert json.loads(out)["beta"] == -1


def test_vanish_certificate_grid(files, capsys):
    a, w = files("a.json", LINES3), files("w.json", W3_GOOD)
    code, out, _ = run(capsys, ["arr-vanish", a, w, "--certificate", "--format", "table"])
    assert code == 0
    assert "q\\p" in out
    assert "concentration: 1" in out
    code, out, _ = run(capsys, ["arr-vanish", a, w, "--certificate"])
    obj = json.loads(out)
    assert obj["depth_bound"] == 0
    assert obj["certificate"]["concentration"] == 1


def test_empty_support_grid_renders_all_zeros(files, capsys):
    # full simplex with a nontrivial weight: total vanishing, zero grid
    tc = {"vertices": [1, 2], "facets": [[1, 2]]}
    wt = {"field": {"kind": "prime", "p": 5}, "q": {"1": 2, "2": 3}}
    code, out, _ = run(
        capsys, ["toric-cohomology", files("t.json", tc), files("w.json", wt), "--page", "--format", "table"]
    )
    assert code == 0
    assert "concentration: total vanishing" in out
    assert "*" not in out.split("legend")[0] or True  # no possible-entries in the grid


# --- remaining verbs, smoke with frozen values ------------------------------------


def test_arr_nested(files, capsys):
    code, out, _ = run(capsys, ["arr-nested", files("a.json", LINES3), "--building", "maximal"])
    assert code == 0
    obj = json.loads(out)
    assert obj["f_vector"] == [1, 3]


def test_arr_salvetti_untwisted_and_twisted(files, capsys):
    a = files("a.json", LINES3)
    code, out, _ = run(capsys, ["arr-salvetti", a])
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [1, 3, 2]
    code, out, _ = run(capsys, ["arr-salvetti", a, "--weights", files("w.json", W3_GOOD)])
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [0, 1, 1]
    assert obj["projective_betti"] == [0, 1]


def test_internal_error_exits_3_in_one_line(files, capsys, monkeypatch):
    # a lattice that predicts the wrong chamber count trips the Salvetti check
    monkeypatch.setattr("arrcoh.salvetti.poincare_and_beta", lambda a, lat=None: ([1, 1], 0))
    code, out, err = run(capsys, ["arr-salvetti", files("a.json", LINES3)])
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: chamber count 6")
    assert "Traceback" not in err


def test_face_limit_is_input_error(files, capsys, monkeypatch):
    monkeypatch.setattr("arrcoh.salvetti.MAX_FACES", 12)
    code, out, err = run(capsys, ["arr-salvetti", files("a.json", LINES3)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "12 faces" in err


def test_arr_salvetti_builds_only_the_half_complex(files, capsys, monkeypatch):
    # 86 lines: the full complex needs 30,272 incidences, past the limit;
    # the decone's, 85 points on a line, needs 4 * 85
    lines86 = {"n": 2, "hyperplanes": [{"label": f"h{k}", "normal": [1, k]} for k in range(86)]}
    code, out, _ = run(capsys, ["arr-salvetti", files("a.json", lines86)])
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [1, 86, 85] and obj["projective_betti"] == [1, 85]
    assert obj["cells"] == [172, 344, 172]
    monkeypatch.setattr("arrcoh.salvetti.MAX_INCIDENCES", 4 * 85 - 1)
    code, out, err = run(capsys, ["arr-salvetti", files("a.json", lines86)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "stops at 339 boundary incidences; this one needs 340" in err


def test_toric_cohomology(files, capsys):
    code, out, _ = run(capsys, ["toric-cohomology", files("t.json", TORIC_TRI), files("w.json", WT_TRI)])
    assert code == 0
    obj = json.loads(out)
    assert obj["cohomology"]["2"] == {"rank": 1}
    assert obj["cohomology"]["1"] == {"rank": 0}


def test_toric_cm_verdicts(files, capsys):
    code, out, _ = run(capsys, ["toric-cm", files("t.json", TORIC_TRI)])
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, ["toric-cm", files("d.json", TORIC_DISJ)])
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, out, _ = run(capsys, ["toric-cm", files("t2.json", TORIC_TRI), "--ring", "F3"])
    assert code == 0
    code, _, err = run(capsys, ["toric-cm", files("t3.json", TORIC_TRI), "--ring", "F4"])
    assert code == 2
    # a product of two primes that fools Miller-Rabin to the bases 2..37
    code, out, err = run(capsys, ["toric-cm", files("t4.json", TORIC_TRI), "--ring", "F318665857834031151167461"])
    assert code == 2 and out == "" and "not prime" in err
    code, out, err = run(capsys, ["toric-cm", files("t5.json", TORIC_TRI), "--ring", "F3317044064679887385961981"])
    assert code == 2 and out == "" and "3317044064679887385961981" in err


def test_toric_verify(files, capsys):
    code, out, _ = run(capsys, ["toric-verify", files("t.json", TORIC_TRI), "--trials", "5", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and len(obj["trials"]) == 5
    code, out, _ = run(capsys, ["toric-verify", files("d.json", TORIC_DISJ), "--trials", "3"])
    assert code == 1  # not Cohen-Macaulay: negative verdict


@pytest.mark.parametrize("verb", ["toric-cm", "toric-verify"])
def test_simplex_past_face_limit_is_input_error(files, capsys, verb):
    # the simplex on 13 vertices has 8,192 faces; the one on 12 has 4,096 and fits
    simplex = {"vertices": list(range(13)), "facets": [list(range(13))]}
    code, out, err = run(capsys, [verb, files("s.json", simplex)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"{MAX_FACES} faces" in err


@pytest.mark.parametrize("verb", ["toric-cohomology", "toric-cm"])
def test_vertices_with_one_name_are_input_error(files, capsys, verb):
    # weights name a vertex by its str, so 1 and "1" could never both get one
    complex_ = files("c.json", {"vertices": [1, "1"], "facets": [[1, "1"]]})
    weights = [files("w.json", {"field": {"kind": "prime", "p": 7}, "q": {"1": 3}})] if verb == "toric-cohomology" else []
    code, out, err = run(capsys, [verb, complex_, *weights])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "vertices 1 and '1' have the same name '1'" in err


def test_large_facet_is_refused_before_its_faces_are_built(files):
    # one facet on 22 vertices has 2^22 faces: under a 2 GB address space
    # the closure ran out of memory before the limit existed
    resource = pytest.importorskip("resource")
    path = files("s.json", {"vertices": list(range(22)), "facets": [list(range(22))]})
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "arrcoh.cli", "toric-cm", path],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert _one_error_line(proc.stderr) and f"{MAX_FACES} faces" in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_toric_verify_without_trials_is_input_error(files, capsys, trials):
    two_points = {"vertices": [1, 2], "facets": [[1], [2]]}
    argv = ["toric-verify", files("t.json", two_points), "--trials", trials, "--format", "table"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "trials must be at least 1" in err


def test_ell_analyze(files, capsys):
    code, out, _ = run(capsys, ["ell-analyze", files("e.json", ELL_GOOD)])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"corank": 0, "essential": True, "homotopy_dim": 1, "unimodular": True}


def test_ell_convenient(files, capsys):
    code, out, _ = run(capsys, ["ell-convenient", files("e.json", ELL_GOOD)])
    assert code == 0
    assert json.loads(out)["holds"] is True
    bad = dict(ELL_GOOD, character=[1, 1])
    code, out, _ = run(capsys, ["ell-convenient", files("eb.json", bad)])
    assert code == 1
    missing = {k: v for k, v in ELL_GOOD.items() if k != "character"}
    code, _, err = run(capsys, ["ell-convenient", files("em.json", missing)])
    assert code == 2


def test_ell_certify(files, capsys):
    code, out, _ = run(capsys, ["ell-certify", files("e.json", ELL_GOOD)])
    assert code == 0
    obj = json.loads(out)
    assert obj["concentration"] == 1
    assert obj["entries"] == {"2,-1": "possible"}
    spread = dict(ELL_GOOD, weights={"field": {"kind": "prime", "p": 7}, "q": {"f": 1}})
    code, out, _ = run(capsys, ["ell-certify", files("es.json", spread)])
    assert code == 1
    assert json.loads(out)["concentration"] is None


def test_elliptic_arrangement_with_no_rows(files, capsys):
    # no rows in E^1: analyzed as the whole curve, refused by the verbs that need more
    empty = {"n": 1, "rows": [], "weights": {"field": {"kind": "prime", "p": 7}, "q": {}}}
    path = files("e.json", empty)
    code, out, err = run(capsys, ["ell-analyze", path])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["corank"] == 1 and obj["essential"] is False
    refusals = {"ell-certify": "certificates require an essential arrangement", "ell-convenient": "input needs a character"}
    for verb, message in refusals.items():
        code, out, err = run(capsys, [verb, path])
        assert code == 2 and out == ""
        assert _one_error_line(err) and message in err


def test_elliptic_candidate_limit_is_input_error(files, capsys, monkeypatch):
    weights = {"field": {"kind": "prime", "p": 101}, "q": {"f1": 2, "f2": 3, "f3": 4, "f4": 5}}
    # rows 2x and 2y in E^2: 1 + 4 + 4 + 16 = 25 candidate components
    grid = files("g.json", {"n": 2, "rows": [[2, 0], [0, 2]], "weights": dict(weights, q={"f1": 2, "f2": 3})})
    monkeypatch.setattr("arrcoh.elliptic.MAX_CANDIDATES", 25)
    code, out, _ = run(capsys, ["ell-certify", grid])
    assert code == 0 and json.loads(out)["concentration"] == 2
    monkeypatch.setattr("arrcoh.elliptic.MAX_CANDIDATES", 24)
    code, out, err = run(capsys, ["ell-certify", grid])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "stops at 24 candidate components" in err
    monkeypatch.undo()
    # 4 rows in E^3 with 397 candidates, refused before any candidate is keyed
    def keyed(*args):
        raise AssertionError("a candidate was keyed")

    monkeypatch.setattr("arrcoh.elliptic._coset_key", keyed)
    rows = [[-2, 2, -1], [1, 2, -2], [-2, 1, -2], [-1, 2, 0]]
    code, out, err = run(capsys, ["ell-certify", files("f.json", {"n": 3, "rows": rows, "weights": weights})])
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"stops at {MAX_CANDIDATES} candidate components" in err


def test_readme_elliptic_example_runs(tmp_path, capsys):
    # the README's elliptic JSON block, verbatim
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rest = readme[readme.index("Elliptic arrangement"):]
    start = rest.index("```json\n") + len("```json\n")
    path = tmp_path / "elliptic.json"
    path.write_text(rest[start:rest.index("```", start)], encoding="utf-8")
    for verb in ("ell-analyze", "ell-convenient", "ell-certify"):
        code, _, err = run(capsys, [verb, str(path)])
        assert (code, err) == (0, ""), verb


@pytest.mark.parametrize("translation", ["1/2", "0", [1], [1, 2, 3], ["1", "2"], [1.0, 2], 0.5, True, None])
def test_bad_translation_is_input_error(files, capsys, translation):
    bad = dict(ELL_GOOD, translations=[translation])
    code, out, err = run(capsys, ["ell-analyze", files("e.json", bad)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and "translation must be 0 or [c, m]" in err


EMPTY = {"n": 0, "hyperplanes": []}
W_EMPTY = {"field": {"kind": "rational"}, "q": {}}
LINE1 = {"n": 1, "hyperplanes": [{"label": "a", "normal": ["1"]}]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["arr-nested", "a.json"], "no nested-set complex"),
        (["arr-vanish", "a.json", "w.json", "--include-top", "--certificate"], "no nested-set complex"),
        (["arr-salvetti", "neg.json"], "ambient dimension must be nonnegative"),
        (["ell-analyze", "eneg.json"], "number of curve factors must be nonnegative, got -1"),
        (["ell-convenient", "eneg.json"], "number of curve factors must be nonnegative, got -1"),
        (["ell-certify", "eneg.json"], "number of curve factors must be nonnegative, got -1"),
    ],
)
def test_empty_or_negative_arrangement_is_input_error(files, capsys, argv, message):
    paths = {
        "a.json": files("a.json", EMPTY),
        "w.json": files("w.json", W_EMPTY),
        "neg.json": files("neg.json", dict(EMPTY, n=-1)),
        "eneg.json": files("eneg.json", {"n": -1, "rows": []}),
    }
    code, out, err = run(capsys, [paths.get(x, x) for x in argv])
    assert code == 2 and out == ""
    assert _one_error_line(err) and message in err


@pytest.mark.parametrize(
    "verb, inputs",
    [
        ("ell-analyze", [dict(ELL_GOOD, rows=[[1.5]])]),
        ("ell-analyze", [dict(ELL_GOOD, rows=[[True]])]),
        ("ell-analyze", [dict(ELL_GOOD, n=1.9)]),
        ("arr-lattice", [dict(LINE1, n=1.9)]),
        ("arr-lattice", [dict(LINE1, n=True)]),
        ("arr-lattice", [dict(LINE1, hyperplanes=[{"label": "a", "normal": [True]}])]),
        ("arr-vanish", [LINES3, dict(W3_GOOD, q={"a": True, "b": 2, "c": 2})]),
        ("toric-cohomology", [TORIC_TRI, dict(WT_TRI, q={"1": True, "2": 7, "3": 11})]),
        ("ell-certify", [dict(ELL_GOOD, weights={"field": {"kind": "prime", "p": 7}, "q": {"f": True}})]),
        ("ell-convenient", [dict(ELL_GOOD, character=[True, 1])]),
    ],
)
def test_float_or_bool_number_is_input_error(files, capsys, verb, inputs):
    paths = [files(f"in{i}.json", obj) for i, obj in enumerate(inputs)]
    code, out, err = run(capsys, [verb, *paths])
    assert code == 2 and out == ""
    assert _one_error_line(err)


def test_covers_validate(files, capsys):
    code, out, _ = run(capsys, ["covers-validate", files("c.json", COVER)])
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    broken = dict(COVER, phi=[[["U1"], "x"], [["U2"], "x"]])
    code, out, _ = run(capsys, ["covers-validate", files("cb.json", broken)])
    assert code == 1
    assert json.loads(out)["valid"] is False
    nonsense = dict(COVER, phi=[[["U1", "ZZ"], "x"]])
    code, _, err = run(capsys, ["covers-validate", files("cn.json", nonsense)])
    assert code == 2


def _cover_of(sets):
    labels = list(sets)
    return {"sets": sets, "poset": {"elements": ["x"], "relations": []}, "rho": {"x": 0}, "phi": [[labels, "x"]]}


def test_nerve_of_disjoint_sets_is_found_without_scanning_subsets(files, capsys):
    # 2^30 label subsets, but only the 30 singletons meet
    sets = {f"U{i}": [i] for i in range(30)}
    obj = dict(_cover_of(sets), phi=[[[lab], "x"] for lab in sets])
    code, out, _ = run(capsys, ["covers-validate", files("c.json", obj)])
    assert code == 0 and json.loads(out)["valid"] is True


def test_nerve_limit_is_input_error(files, capsys):
    # sets sharing a point: every one of the 2^25 - 1 label subsets meets
    sets = {f"U{i}": [0, i + 1] for i in range(25)}
    code, out, err = run(capsys, ["covers-validate", files("c.json", _cover_of(sets))])
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"{MAX_NERVE_ELEMENTS} elements" in err


def test_covers_validate_lists_a_few_witnesses_per_code(files, capsys):
    # 11 sets sharing a point, with the nerve itself as the target poset and
    # phi the identity: every comparable pair of elements with two or more
    # labels has equal intersection keys, so condition 3 fails 161,799 times
    labels = [f"U{i}" for i in range(11)]
    sets = {lab: [0, i + 1] for i, lab in enumerate(labels)}
    elements = [c for r in range(1, 12) for c in itertools.combinations(labels, r)]
    name = {c: "+".join(c) for c in elements}
    obj = {
        "sets": sets,
        "poset": {
            "elements": [name[c] for c in elements],
            "relations": [[name[c[:i] + c[i + 1:]], name[c]] for c in elements if len(c) > 1 for i in range(len(c))],
        },
        "rho": {name[c]: len(c) for c in elements},
        "phi": [[list(c), name[c]] for c in elements],
    }
    path = files("c.json", obj)
    code, out, _ = run(capsys, ["covers-validate", path])
    assert code == 1
    report = json.loads(out)
    assert report["failure_counts"] == {"condition3": 161_799}
    assert len(report["failures"]) == MAX_WITNESSES
    assert {code for code, _ in report["failures"]} == {"condition3"}
    assert len(out) < 10_000
    code, out, _ = run(capsys, ["covers-validate", "--format", "table", path])
    assert code == 1
    assert out.splitlines()[2 + MAX_WITNESSES] == f"  failure condition3: {161_799 - MAX_WITNESSES} more not listed"


def test_ambient_dimension_limit_is_input_error(files, capsys):
    n = MAX_AMBIENT_DIM + 1
    obj = {"n": n, "hyperplanes": [{"label": "a", "normal": ["1"] + ["0"] * (n - 1)}]}
    code, out, err = run(capsys, ["arr-lattice", files("a.json", obj)])
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"capped at {MAX_AMBIENT_DIM}" in err


def test_elliptic_factor_limit_is_input_error(files, capsys):
    n = MAX_FACTORS + 1
    code, out, err = run(capsys, ["ell-analyze", files("e.json", {"n": n, "rows": [[1] * n]})])
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"capped at {MAX_FACTORS} curve factors" in err
    code, out, _ = run(capsys, ["ell-analyze", files("e.json", {"n": n - 1, "rows": [[1] * (n - 1)]})])
    assert code == 0 and json.loads(out)["corank"] == n - 2


# --- module JSON round trips through the CLI ---------------------------------------


def test_cli_json_reparses_cleanly(files, capsys):
    # every verb's JSON output must itself be valid JSON with sorted keys
    a = files("a.json", LINES3)
    for argv in (
        ["arr-lattice", a],
        ["arr-beta", a],
        ["arr-nested", a],
        ["arr-salvetti", a],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        obj = json.loads(out)
        assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == out


# --- mutation fuzz over every verb ------------------------------------------------

# the README's inputs (toric weights keyed by its vertices), one row per verb;
# a string is passed through as a command-line argument
MUTATED_VERBS = (
    ("arr-lattice", [LINES3]),
    ("arr-beta", [LINES3]),
    ("arr-nested", [LINES3]),
    ("arr-vanish", [LINES3, W3_GOOD, "--certificate"]),
    ("arr-salvetti", [LINES3, "--weights", W3_GOOD]),
    ("toric-cohomology", [TORIC_TRI, WT_TRI, "--page"]),
    ("toric-cm", [TORIC_TRI]),
    ("toric-verify", [TORIC_TRI]),
    ("ell-analyze", [ELL_GOOD]),
    ("ell-convenient", [ELL_GOOD]),
    ("ell-certify", [ELL_GOOD]),
    ("covers-validate", [COVER]),
)
MUTATIONS = ([], "x", 3, {}, None, True, 1.5)
# the fields of those inputs that a verb does not read, as path prefixes
UNREAD = {
    ("ell-analyze", ("character",)),
    ("ell-analyze", ("weights",)),
    ("ell-convenient", ("weights", "q")),
    ("ell-certify", ("character",)),
}
# the fields whose integers are labels, not numbers
LABELS = {"vertices", "facets", "sets"}


def _page_contradicts(report):
    """Does the page of ``toric-cohomology --page`` contradict the exact
    cohomology beside it: a line whose total is not the Betti number of its
    degree, or a concentration on another degree?"""
    betti = {int(k): v["rank"] for k, v in report["cohomology"].items() if v["rank"]}
    lines: dict = {}
    for key, dim in report["page"]["entries"].items():
        n = sum(map(int, key.split(",")))
        lines[n] = lines.get(n, 0) + dim
    concentration = report["page"]["concentration"]
    return lines != betti or (concentration is not None and list(betti) != [concentration])


def test_toric_page_never_contradicts_the_cohomology_beside_it(files, capsys, monkeypatch):
    # every complex on at most 4 vertices, its first k vertices of weight 1
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)
    for L in enumerate_complexes(4):
        for k in range(len(L.vertices) + 1):
            q = {str(v): 1 if i < k else 3 for i, v in enumerate(L.vertices)}
            tc = files("t.json", L.to_json())
            w = files("w.json", {"field": {"kind": "prime", "p": 7}, "q": q})
            code, out, _ = run(capsys, ["toric-cohomology", tc, w, "--page"])
            assert code == 0 and not _page_contradicts(json.loads(out)), (L.facets(), q)


def _json_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def _run_mutated(tmp_path, verb, inputs, slot, path, value):
    """Run ``verb`` on ``inputs`` with the value at ``path`` of input
    ``slot`` replaced: the exit code (or the exception), stdout and stderr."""
    argv = [verb]
    for i, x in enumerate(inputs):
        if not isinstance(x, str):
            f = tmp_path / f"in{i}.json"
            f.write_text(json.dumps(_replaced(x, path, value) if i == slot else x))
            x = str(f)
        argv.append(x)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, monkeypatch):
    # every value of every input, replaced by each JSON kind in turn, and
    # every array by the string of its items or an object keyed by them,
    # which must exit 2: read one character or key at a time, "normal": "10"
    # would be the normal (1, 0).  An integer read as a number must also
    # exit 2 as a float of the same value and as true: GF(7.0) passed the
    # primality test, and int() read a rank of 0.9 as 0
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)
    broken = []
    for verb, inputs in MUTATED_VERBS:
        for slot, base in enumerate(inputs):
            if isinstance(base, str):
                continue
            for path in _json_paths(base):
                found = functools.reduce(operator.getitem, path, base)
                unread = any(v == verb and path[: len(prefix)] == prefix for v, prefix in UNREAD)
                misread = ["".join(map(str, found)), dict.fromkeys(map(str, found), 0)] if isinstance(found, list) else []
                for value in MUTATIONS + tuple(misread):
                    code, out, err = _run_mutated(tmp_path, verb, inputs, slot, path, value)
                    if code not in (0, 1, 2) or (code == 2 and not _one_error_line(err)):
                        broken.append((verb, slot, path, value, code))
                    elif value in misread and code != 2 and not unread:
                        broken.append((verb, slot, path, value, code))
                    elif verb == "toric-cohomology" and code == 0 and _page_contradicts(json.loads(out)):
                        broken.append((verb, slot, path, value, "page contradicts the cohomology"))
                if type(found) is int and path[0] not in LABELS and not unread:
                    for value in (float(found), True):
                        code, _, err = _run_mutated(tmp_path, verb, inputs, slot, path, value)
                        if code != 2 or not _one_error_line(err):
                            broken.append((verb, slot, path, value, code))
    assert not broken, "\n".join(map(repr, broken))
