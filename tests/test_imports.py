"""Import footprint: ``import arrcoh`` loads no submodule, and a verb loads only its own family.

Each check runs in a fresh interpreter, because this test session has
already imported every module.
"""

import json
import subprocess
import sys

import pytest

from test_golden_cli import case_argv, fresh_env


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=fresh_env(), capture_output=True, text=True, check=False
    )


def _loaded_after(code: str, *args: str) -> set[str]:
    """The ``arrcoh`` submodules loaded after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('arrcoh.'))))"
    proc = _fresh(probe, *args)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("arrcoh.") for m in json.loads(proc.stdout.splitlines()[-1])}


def test_import_arrcoh_loads_no_submodule():
    assert _loaded_after("import arrcoh") == set()


VERB_RUN = """
import contextlib, io, sys
from arrcoh import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize(
    "case, own, absent",
    [
        ("toric-cm", {"toric"}, {"arrangement", "salvetti", "elliptic"}),
        ("arr-lattice", {"arrangement"}, {"toric", "salvetti", "elliptic"}),
        ("covers-validate", {"covers"}, {"arrangement", "simplicial", "toric", "salvetti", "elliptic"}),
    ],
)
def test_verb_loads_only_its_family(case, own, absent, tmp_path):
    loaded = _loaded_after(VERB_RUN, *case_argv(case, tmp_path))
    assert own <= loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_star_import_binds_every_exported_name():
    code = (
        "import arrcoh\n"
        "assert set(arrcoh.__all__) <= set(dir(arrcoh))\n"
        "from arrcoh import *\n"
        "missing = [n for n in arrcoh.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "from arrcoh.arrangement import Arrangement as A\n"
        "assert Arrangement is A and arrcoh.Arrangement is A\n"
    )
    proc = _fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    proc = _fresh("import arrcoh\narrcoh.nope")
    assert proc.returncode == 1
    assert "AttributeError: module 'arrcoh' has no attribute 'nope'" in proc.stderr
