"""Golden CLI outputs: every verb on the README inputs, in both formats, byte for byte.

The files under ``tests/golden/`` hold the exact stdout of each call below.
They pin the printed numbers and their formatting, so a change to the
cochain layer (or anywhere else) that alters any answer or any byte of the
rendering fails here.  A golden file is only ever replaced on purpose,
together with a note in CHANGES.md saying why the output changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrcoh import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"

INPUTS = {  # the input examples of the README
    "lines": {
        "n": 2,
        "hyperplanes": [
            {"label": "a", "normal": ["1", "0"]},
            {"label": "b", "normal": ["0", "1"]},
            {"label": "c", "normal": ["1", "1"]},
        ],
    },
    "weights": {"field": {"kind": "prime", "p": 7}, "q": {"a": 2, "b": 2, "c": 2}},
    "torus": {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]},
    # the toric weights of the README's quick start
    "tweights": {"field": {"kind": "prime", "p": 7}, "q": {"1": 3, "2": 5, "3": 6}},
    "elliptic": {
        "n": 1,
        "rows": [[1]],
        "translations": [0],
        "labels": ["f"],
        "weights": {"field": {"kind": "prime", "p": 7}, "q": {"f": 3}},
        "character": [3, 1],
    },
    "cover": {
        "sets": {"U1": [1, 2], "U2": [2, 3]},
        "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
        "rho": {"x": 0, "y": 1},
        "phi": [[["U1"], "x"], [["U2"], "x"], [["U1", "U2"], "y"]],
    },
    # not a README input: the nerve element {U3} and its cofaces share the
    # intersection {2} but not their phi value, so condition 3 fails
    "cover_fail": {
        "sets": {"U1": [1, 2], "U2": [2, 3], "U3": [2]},
        "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
        "rho": {"x": 0, "y": 1},
        "phi": [
            [["U1"], "x"], [["U2"], "x"], [["U3"], "x"],
            [["U1", "U2"], "y"], [["U1", "U3"], "y"], [["U2", "U3"], "y"], [["U1", "U2", "U3"], "y"],
        ],
    },
    # not a README input: one circle of weight 1, whose page has two lines,
    # so it claims no concentration
    "point": {"vertices": ["v"], "facets": [["v"]]},
    "pweights": {"field": {"kind": "prime", "p": 7}, "q": {"v": 1}},
    # not a README input: the 6-vertex real projective plane, whose links
    # carry Z/2 torsion, so the Z path of toric-cm prints a torsion witness
    "rp2": {
        "vertices": [1, 2, 3, 4, 5, 6],
        "facets": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
                   [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]],
    },
}

CASES = {  # golden file stem -> (argv with {input} placeholders, exit code)
    "arr-lattice": (["arr-lattice", "{lines}"], 0),
    "arr-beta": (["arr-beta", "--format", "table", "{lines}"], 0),
    "arr-nested": (["arr-nested", "{lines}"], 0),
    "arr-vanish": (["arr-vanish", "{lines}", "{weights}", "--certificate"], 0),
    "arr-salvetti": (["arr-salvetti", "{lines}", "--weights", "{weights}"], 0),
    "arr-salvetti-untwisted": (["arr-salvetti", "{lines}"], 0),
    "toric-cohomology": (["toric-cohomology", "{torus}", "{tweights}", "--page"], 0),
    "toric-cohomology-trivial": (["toric-cohomology", "{point}", "{pweights}", "--page"], 0),
    "toric-cm": (["toric-cm", "{torus}"], 0),
    "toric-cm-rp2": (["toric-cm", "{rp2}"], 1),
    "toric-cm-rp2-f3": (["toric-cm", "{rp2}", "--ring", "F3", "--format", "table"], 0),
    "toric-verify": (["toric-verify", "{torus}", "--prime", "101", "--trials", "25", "--seed", "7"], 0),
    "ell-analyze": (["ell-analyze", "{elliptic}"], 0),
    "ell-convenient": (["ell-convenient", "{elliptic}"], 0),
    "ell-certify": (["ell-certify", "--format", "table", "{elliptic}"], 0),
    "covers-validate": (["covers-validate", "{cover}"], 0),
    # the other output format of each verb
    "arr-lattice-table": (["arr-lattice", "--format", "table", "{lines}"], 0),
    "arr-beta-json": (["arr-beta", "{lines}"], 0),
    "arr-nested-table": (["arr-nested", "--format", "table", "{lines}"], 0),
    "arr-vanish-table": (["arr-vanish", "--format", "table", "{lines}", "{weights}", "--certificate"], 0),
    "arr-salvetti-table": (["arr-salvetti", "--format", "table", "{lines}", "--weights", "{weights}"], 0),
    "toric-cohomology-table": (["toric-cohomology", "--format", "table", "{torus}", "{tweights}", "--page"], 0),
    "toric-cohomology-trivial-table": (["toric-cohomology", "--format", "table", "{point}", "{pweights}", "--page"], 0),
    "toric-cm-rp2-f3-json": (["toric-cm", "{rp2}", "--ring", "F3"], 0),
    "toric-verify-table": (
        ["toric-verify", "--format", "table", "{torus}", "--prime", "101", "--trials", "25", "--seed", "7"],
        0,
    ),
    "ell-analyze-table": (["ell-analyze", "--format", "table", "{elliptic}"], 0),
    "ell-convenient-table": (["ell-convenient", "--format", "table", "{elliptic}"], 0),
    "ell-certify-json": (["ell-certify", "{elliptic}"], 0),
    "covers-validate-table": (["covers-validate", "--format", "table", "{cover}"], 0),
    # failure witnesses, whose nerve elements print as sorted label lists
    "covers-validate-fail": (["covers-validate", "{cover_fail}"], 1),
    "covers-validate-fail-table": (["covers-validate", "--format", "table", "{cover_fail}"], 1),
}


def case_argv(name: str, workdir: Path) -> list[str]:
    """Write the inputs into ``workdir`` and return the argv of one case."""
    paths = {}
    for key, obj in INPUTS.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(obj), encoding="utf-8")
    argv, _ = CASES[name]
    return [a.format_map(paths) for a in argv]


def run_case(name: str, workdir: Path) -> int:
    """Run one case through ``cli.main``; return its exit code."""
    return cli.main(case_argv(name, workdir))


def _format(argv: list[str]) -> str:
    """The output format of a case: ``--format`` if given, else the json default."""
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def test_every_verb_has_a_golden_case():
    covered = {(argv[0], _format(argv)) for argv, _ in CASES.values()}
    assert covered == {(verb, fmt) for verb in cli._HANDLERS for fmt in ("json", "table")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)
    code = run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert code == CASES[name][1]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports arrcoh from this checkout."""
    env = {k: v for k, v in os.environ.items() if k != cli.FORMAT_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


COLD = [sys.executable, "-X", "dev", "-W", "error"]  # dev mode and warnings as errors, as in the tier-1 run


@pytest.fixture(scope="session")
def stdlib_bytecode(tmp_path_factory) -> str:
    """A bytecode cache that holds the standard library a verb imports, and no arrcoh module.

    A run that reads it compiles arrcoh from source, as a fresh checkout
    does, but not the standard library, whose installed bytecode a fresh
    checkout reads too.
    """
    prefix = tmp_path_factory.mktemp("pycache")
    env = {**fresh_env(), "PYTHONPYCACHEPREFIX": str(prefix)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = "import runpy, arrcoh.cli, arrcoh.elliptic, arrcoh.salvetti, arrcoh.toric"
    subprocess.run([*COLD, "-c", code], env=env, check=True)
    for pyc in prefix.rglob("arrcoh/*.pyc"):
        pyc.unlink()
    return str(prefix)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_cold_process(name, tmp_path, stdlib_bytecode):
    """A fresh ``python -m arrcoh.cli`` that compiles every arrcoh module from source prints the golden bytes.

    Every case runs cold: modules are imported inside the functions that use
    them, and a name first touched by a table renderer or by the
    ``--certificate`` or ``--page`` branch is imported only there, which an
    in-process run, sharing ``sys.modules`` with every other test, cannot see.
    """
    env = {**fresh_env(), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": stdlib_bytecode}
    proc = subprocess.run(
        [*COLD, "-m", "arrcoh.cli", *case_argv(name, tmp_path)],
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == CASES[name][1], proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
