"""Command-line interface: exit codes, output formats, determinism."""

import io
import json
from pathlib import Path

import pytest

from arrcoh import cli


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


def test_zero_denominator_rational_weight_is_input_error(files, capsys):
    wq = {"field": {"kind": "rational"}, "q": {"a": "1/0", "b": 1, "c": 1}}
    code, out, err = run(capsys, ["arr-vanish", files("a.json", LINES3), files("w.json", wq)])
    assert code == 2 and out == ""
    assert _one_error_line(err)
    tq = {"field": {"kind": "rational"}, "q": {"1": "1/0", "2": 2, "3": 3}}
    code, out, err = run(capsys, ["toric-cohomology", files("t.json", TORIC_TRI), files("tw.json", tq)])
    assert code == 2 and out == ""
    assert _one_error_line(err)


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


# --- stdin ----------------------------------------------------------------------


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


def test_toric_verify(files, capsys):
    code, out, _ = run(capsys, ["toric-verify", files("t.json", TORIC_TRI), "--trials", "5", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and len(obj["trials"]) == 5
    code, out, _ = run(capsys, ["toric-verify", files("d.json", TORIC_DISJ), "--trials", "3"])
    assert code == 1  # not Cohen-Macaulay: negative verdict


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
    ],
)
def test_empty_or_negative_arrangement_is_input_error(files, capsys, argv, message):
    paths = {
        "a.json": files("a.json", EMPTY),
        "w.json": files("w.json", W_EMPTY),
        "neg.json": files("neg.json", dict(EMPTY, n=-1)),
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
